"""Readers and writers for every file the pipeline materializes.

All text files are UTF-8 with LF line endings.  JSONL writers emit compact,
key-ordered objects so that identical inputs always produce byte-identical
files.  Readers validate shape eagerly and report the offending line.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

from .align import AlignedSample, AlignedTriplet, Paragraph, Span
from .errors import DataError, MalformedLine
from .fileio import atomic_write, decode_json, read_json
from .kb import Triplet, _parse_id
from .masking import MaskedSample, MaskScheme, Variant, Vocabulary

# Annotations only, so that importing formats loads neither numpy nor the
# model; the probe readers import their types when called.
if TYPE_CHECKING:
    from .model import LogEntry
    from .probe import Fact, Template

PathLike = Union[str, Path]


def read_jsonl(path: PathLike) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, object) per non-blank line; malformed lines raise."""
    name = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = decode_json(line)
                except ValueError as exc:  # a JSONDecodeError's msg leaves out the position
                    raise MalformedLine(name, line_no,
                                        f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
                if not isinstance(obj, dict):
                    raise MalformedLine(name, line_no, "expected a JSON object")
                yield line_no, obj
        except UnicodeDecodeError as exc:
            raise DataError(f"{name}: not a UTF-8 file: {exc}") from None


def write_jsonl(path: PathLike, objects: Iterable[dict]) -> int:
    n = 0
    with atomic_write(path) as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def _require(obj: dict, key: str, kind, name: str, line_no: int):
    if key not in obj:
        raise MalformedLine(name, line_no, f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise MalformedLine(name, line_no, f"key {key!r} must be {kind.__name__}")
    return value


def read_corpus(path: PathLike) -> list[Paragraph]:
    name = str(path)
    out: list[Paragraph] = []
    for line_no, obj in read_jsonl(path):
        doc_id = _require(obj, "doc_id", str, name, line_no)
        text = _require(obj, "text", str, name, line_no)
        pre = None
        if "entity_spans" in obj:
            raw = _require(obj, "entity_spans", list, name, line_no)
            spans = []
            for item in raw:
                if (
                    not isinstance(item, list)
                    or len(item) != 3
                    or type(item[0]) is not int
                    or type(item[1]) is not int
                    or not isinstance(item[2], str)
                ):
                    raise MalformedLine(name, line_no,
                                        "entity_spans entries must be [start, end, id]")
                spans.append((item[0], item[1], item[2]))
            pre = tuple(spans)
        out.append(Paragraph(doc_id=doc_id, text=text, pre_linked_spans=pre))
    return out


def _ssm_to_dict(sample: AlignedSample) -> dict:
    """A span-masking line: the head of a sample line, without its triplets."""
    return {
        "doc_id": sample.paragraph.doc_id,
        "text": sample.paragraph.text,
        "entities": [[s.char_start, s.char_end, eid] for s, eid in sample.entity_spans],
    }


def _sample_to_dict(sample: AlignedSample) -> dict:
    return {
        **_ssm_to_dict(sample),
        "triplets": [
            {
                "s": t.triplet.subject,
                "p": t.triplet.predicate,
                "o": t.triplet.object,
                "s_span": [t.subject_span.char_start, t.subject_span.char_end],
                "p_span": [t.predicate_span.char_start, t.predicate_span.char_end],
                "o_span": [t.object_span.char_start, t.object_span.char_end],
                "edit_distance": t.edit_distance,
            }
            for t in sample.aligned
        ],
    }


def write_samples(path: PathLike, samples: Iterable[AlignedSample]) -> int:
    return write_jsonl(path, map(_sample_to_dict, samples))


def _int_list(obj: dict, key: str, name: str, line_no: int) -> list[int]:
    values = _require(obj, key, list, name, line_no)
    if not {int}.issuperset(map(type, values)):
        raise MalformedLine(name, line_no, f"key {key!r} must be a list of integers")
    return values


def _span(text: str, bounds: Sequence[int], name: str, line_no: int) -> Span:
    if not (isinstance(bounds, list) and len(bounds) == 2
            and type(bounds[0]) is int and type(bounds[1]) is int):
        raise MalformedLine(name, line_no, "span must be [start, end]")
    a, b = bounds
    if not (0 <= a < b <= len(text)):
        raise MalformedLine(name, line_no, f"span [{a},{b}) outside text")
    return Span(a, b)


def _head(obj: dict, name: str, line_no: int) -> tuple[Paragraph, tuple[tuple[Span, str], ...]]:
    """The paragraph and entity spans of a sample or span-masking line."""
    doc_id = _require(obj, "doc_id", str, name, line_no)
    text = _require(obj, "text", str, name, line_no)
    entities = []
    for item in _require(obj, "entities", list, name, line_no):
        if not isinstance(item, list) or len(item) != 3 or not isinstance(item[2], str):
            raise MalformedLine(name, line_no, "entities entries must be [start, end, id]")
        entities.append((_span(text, item[:2], name, line_no), item[2]))
    return Paragraph(doc_id=doc_id, text=text), tuple(entities)


def _triplet(item: dict, name: str, line_no: int) -> Triplet:
    """The triplet of a sample entry or a fact; its ids follow the KB's id rule."""
    ids = []
    for key, what in (("s", "subject"), ("p", "predicate"), ("o", "object")):
        if key not in item:
            raise MalformedLine(name, line_no, f"missing key {key!r}")
        if not isinstance(item[key], str):
            raise MalformedLine(name, line_no, f"triplet {what} id must be a string")
        ids.append(_parse_id(item[key], name, line_no, what))
    return Triplet(*ids)


def _iter_samples(path: PathLike) -> Iterator[AlignedSample]:
    name = str(path)
    for line_no, obj in read_jsonl(path):
        paragraph, entities = _head(obj, name, line_no)
        triplets = []
        for item in _require(obj, "triplets", list, name, line_no):
            if not isinstance(item, dict):
                raise MalformedLine(name, line_no, "triplets entries must be objects")
            for key in ("s_span", "p_span", "o_span", "edit_distance"):
                if key not in item:
                    raise MalformedLine(name, line_no, f"triplet missing key {key!r}")
            # The aligner keeps a predicate match only below edit distance 2.
            if type(item["edit_distance"]) is not int or item["edit_distance"] not in (0, 1):
                raise MalformedLine(name, line_no, "edit_distance must be 0 or 1")
            triplets.append(
                AlignedTriplet(
                    triplet=_triplet(item, name, line_no),
                    subject_span=_span(paragraph.text, item["s_span"], name, line_no),
                    predicate_span=_span(paragraph.text, item["p_span"], name, line_no),
                    object_span=_span(paragraph.text, item["o_span"], name, line_no),
                    edit_distance=item["edit_distance"],
                )
            )
        yield AlignedSample(paragraph, entities, tuple(triplets))


def read_samples(path: PathLike) -> list[AlignedSample]:
    """Every sample of an aligned file; a malformed line raises ``DataError``.

    A triplet's ids must be strings that follow the KB's id rule."""
    return list(_iter_samples(path))


def read_sample_triplets(path: PathLike) -> set[Triplet]:
    """The triplets aligned in ``path``, read one sample at a time with every
    check of ``read_samples``."""
    return {t.triplet for sample in _iter_samples(path) for t in sample.aligned}


def write_ssm(path: PathLike, samples: Iterable[AlignedSample]) -> int:
    return write_jsonl(path, map(_ssm_to_dict, samples))


def read_ssm(path: PathLike) -> list[AlignedSample]:
    """Every span-masking sample; each line's head gets every check of ``read_samples``."""
    name = str(path)
    return [AlignedSample(*_head(obj, name, line_no), ()) for line_no, obj in read_jsonl(path)]


def write_masked(path: PathLike, samples: Iterable[MaskedSample]) -> int:
    """Write one line per sample, byte for byte as ``write_jsonl`` would
    write its dict with the keys below; returns the number of lines.

    Consecutive lines of one paragraph share its unmasked ids, so their
    decimal strings are made once: a line whose ids, with its targets put
    back at its mask positions, equal the last paragraph's copies that
    paragraph's strings and writes its own ids at its mask positions.  Only
    the last paragraph, and the last doc_id's JSON string, are held.
    """
    n = 0
    paragraph: list[int] = []
    digits: list[str] = []
    doc_id, doc_json = "", '""'
    with atomic_write(path) as fh:
        for m in samples:
            ids, positions = m.input_tokens, m.mask_positions
            unmasked = list(ids)
            for p, t in zip(positions, m.targets):
                unmasked[p] = t
            if unmasked != paragraph:
                paragraph, digits = unmasked, list(map(str, unmasked))
            if m.doc_id != doc_id:
                doc_id, doc_json = m.doc_id, json.dumps(m.doc_id, ensure_ascii=False)
            line = digits.copy()
            for p in positions:
                line[p] = str(ids[p])
            fh.write(f'{{"doc_id":{doc_json},"variant":"{m.variant.value}",'
                     f'"input_ids":[{",".join(line)}],'
                     f'"mask_positions":[{",".join(map(str, positions))}],'
                     f'"targets":[{",".join(map(str, m.targets))}],'
                     f'"scheme":"{m.scheme.value}"}}\n')
            n += 1
    return n


def _id_list(obj: dict, key: str, name: str, line_no: int,
             token_ids: frozenset[int]) -> tuple[list[int], bool]:
    """The integers under ``key``, and whether all are in ``token_ids``; an
    integer past the 64-bit range raises ``MalformedLine``."""
    values = _int_list(obj, key, name, line_no)
    # A set lookup is cheaper than min and max, which only a stray id needs.
    if token_ids.issuperset(values):
        return values, True
    if min(values) < -2 ** 63 or max(values) >= 2 ** 63:
        raise MalformedLine(name, line_no, f"key {key!r} must hold 64-bit integers")
    return values, False


def _masked_line(obj: dict, name: str, line_no: int,
                 token_ids: frozenset[int]) -> tuple[MaskedSample, bool]:
    """A masked line once its shape is checked, its id lists as read, and
    whether all its input ids and targets are in ``token_ids``."""
    doc_id = _require(obj, "doc_id", str, name, line_no)
    try:
        variant = Variant(_require(obj, "variant", str, name, line_no))
        scheme = MaskScheme(_require(obj, "scheme", str, name, line_no))
    except ValueError as exc:
        raise MalformedLine(name, line_no, str(exc)) from None
    ids, ids_known = _id_list(obj, "input_ids", name, line_no, token_ids)
    positions = _int_list(obj, "mask_positions", name, line_no)
    targets, targets_known = _id_list(obj, "targets", name, line_no, token_ids)
    if len(positions) != len(targets):
        raise MalformedLine(name, line_no, "mask_positions and targets differ in length")
    if positions and (min(positions) < 0 or max(positions) >= len(ids)):
        raise MalformedLine(name, line_no, "mask_positions must index input_ids")
    line = MaskedSample(doc_id, ids, positions, targets, variant, scheme)
    return line, ids_known and targets_known


# The variant that extends a contrastive group of 1 or 2 lines.
_GROUP_NEXT = (None, Variant.MASK_CLUES, Variant.MASK_RANDOM)


def _masked_items(path: PathLike, vocab_size: int,
                  vocab_path: PathLike) -> Iterator[tuple[int, tuple[MaskedSample, ...]]]:
    """The lines of each training item of a masked file, in order, each with
    the number of lines read so far.

    A keep_clues line followed by a mask_clues line (and optionally a
    mask_random line) for the same doc forms one group; every other line
    stands alone.  Each line is checked before the next is read: its shape,
    then, as the inputs of one group are one paragraph, that a line joining
    a group has inputs of the group's length, then its ids against the
    vocabulary.  Any fault raises ``DataError``.  A group of two is complete
    only once the next line is read, so that line is counted with it.
    """
    name = str(path)
    token_ids = frozenset(range(vocab_size))
    group: list[MaskedSample] = []
    for n, (line_no, obj) in enumerate(read_jsonl(path), start=1):
        line, known = _masked_line(obj, name, line_no, token_ids)
        joins = (bool(group) and line.variant is _GROUP_NEXT[len(group)]
                 and line.doc_id == group[0].doc_id)
        if joins and len(line.input_tokens) != len(group[0].input_tokens):
            raise DataError(f"{line.doc_id}: the inputs of a contrastive group differ in length")
        if not known:
            raise DataError(f"{name}: {line.doc_id} has a token id outside the "
                            f"{vocab_size}-token vocabulary {vocab_path}")
        if joins:
            group.append(line)
        else:
            if group:
                yield n, tuple(group)
            group = [line]
        if len(group) == 3 or group[0].variant is not Variant.KEEP_CLUES:
            yield n, tuple(group)
            group = []
    if group:
        yield n, tuple(group)


def read_masked(path: PathLike, vocab_size: int, vocab_path: PathLike, keep: int,
                whole: bool = True, tally: dict | None = None,
                ) -> tuple[list[tuple[MaskedSample, ...]], int, int]:
    """The first ``keep`` training items of a masked file, the number of its
    items, and its longest input.

    Lines form items, and are checked in file order, as ``_masked_items``
    says; ids must lie below ``vocab_size``, the size of the vocabulary in
    ``vocab_path``.  Each item is a tuple of its one to three lines.  Only
    the kept items hold their lines, as ``MaskedSample``s with int64 input
    arrays and tuples of mask positions and targets.  With ``whole`` every
    line is read and checked; without it reading stops once the ``keep``-th
    item is complete, and the count and longest input are those of the items
    read.  A ``tally`` dict gets ``lines_read``, the lines read and checked.
    """
    items: list[tuple[MaskedSample, ...]] = []
    count = longest = lines = 0
    for lines, group in _masked_items(path, vocab_size, vocab_path):
        count += 1
        # The lines of a group have inputs of one length.
        longest = max(longest, len(group[0].input_tokens))
        if count <= keep:
            items.append(tuple(
                m._replace(input_tokens=array("q", m.input_tokens),
                           mask_positions=tuple(m.mask_positions), targets=tuple(m.targets))
                for m in group))
        if not whole and count >= keep:
            break
    if tally is not None:
        tally["lines_read"] = lines
    return items, count, longest


def write_vocab(path: PathLike, vocab: Vocabulary) -> None:
    with atomic_write(path) as fh:
        json.dump({"tokens": list(vocab.id_to_token)}, fh, ensure_ascii=False,
                  separators=(",", ":"))
        fh.write("\n")


def read_vocab(path: PathLike) -> Vocabulary:
    return Vocabulary.from_stored(read_json(path).get("tokens"), path)


def read_templates(path: PathLike) -> list[Template]:
    """Every template; its relation is a predicate id by the KB's id rule."""
    from .probe import Template

    name = str(path)
    out = []
    for line_no, obj in read_jsonl(path):
        out.append(
            Template(
                relation=_parse_id(_require(obj, "relation", str, name, line_no),
                                   name, line_no, "predicate"),
                pattern=_require(obj, "pattern", str, name, line_no),
            )
        )
    return out


def read_facts(path: PathLike) -> list[Fact]:
    """Every fact; its ids follow the KB's id rule, as a sample's triplet does,
    and a triplet that repeats an earlier line's raises ``MalformedLine``."""
    from .probe import Fact

    name = str(path)
    out = []
    first_line: dict[Triplet, int] = {}
    for line_no, obj in read_jsonl(path):
        fact = Fact(
            triplet=_triplet(obj, name, line_no),
            subject_surface=_require(obj, "s_surface", str, name, line_no),
            object_surface=_require(obj, "o_surface", str, name, line_no),
        )
        first = first_line.setdefault(fact.triplet, line_no)
        if first != line_no:
            raise MalformedLine(name, line_no, f"fact triplet repeats line {first}")
        out.append(fact)
    return out


def write_train_log(path: PathLike, entries: Iterable[LogEntry]) -> int:
    return write_jsonl(
        path,
        (
            {
                "step": e.step,
                "L_mlm": e.l_mlm,
                "L_con": e.l_con,
                "L_cls": e.l_cls,
                "L_total": e.l_total,
            }
            for e in entries
        ),
    )

