"""Readers and writers for every file the pipeline materializes.

All text files are UTF-8 with LF line endings.  JSONL writers emit compact,
key-ordered objects so that identical inputs always produce byte-identical
files.  Readers validate shape eagerly and report the offending line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .align import AlignedSample, AlignedTriplet, Paragraph, Span
from .errors import DataError, MalformedLine
from .fileio import atomic_write
from .kb import Triplet
from .masking import MaskedSample, MaskScheme, Variant, Vocabulary
from .model import LogEntry, TrainItem
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
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedLine(name, line_no, f"invalid JSON: {exc.msg}") from None
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
                    or not isinstance(item[0], int)
                    or not isinstance(item[1], int)
                    or not isinstance(item[2], str)
                ):
                    raise MalformedLine(name, line_no,
                                        "entity_spans entries must be [start, end, id]")
                spans.append((item[0], item[1], item[2]))
            pre = tuple(spans)
        out.append(Paragraph(doc_id=doc_id, text=text, pre_linked_spans=pre))
    return out


def _sample_to_dict(sample: AlignedSample) -> dict:
    return {
        "doc_id": sample.paragraph.doc_id,
        "text": sample.paragraph.text,
        "entities": [[s.char_start, s.char_end, eid] for s, eid in sample.entity_spans],
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
    return write_jsonl(path, (_sample_to_dict(s) for s in samples))


def _int_list(obj: dict, key: str, name: str, line_no: int) -> tuple[int, ...]:
    values = _require(obj, key, list, name, line_no)
    if not all(type(v) is int for v in values):
        raise MalformedLine(name, line_no, f"key {key!r} must be a list of integers")
    return tuple(values)


def _span(text: str, bounds: Sequence[int], name: str, line_no: int) -> Span:
    if len(bounds) != 2 or not all(isinstance(b, int) for b in bounds):
        raise MalformedLine(name, line_no, "span must be [start, end]")
    a, b = bounds
    if not (0 <= a < b <= len(text)):
        raise MalformedLine(name, line_no, f"span [{a},{b}) outside text")
    return Span(a, b, text[a:b])


def _entities(obj: dict, text: str, name: str, line_no: int) -> tuple[tuple[Span, str], ...]:
    entities = []
    for item in _require(obj, "entities", list, name, line_no):
        if not isinstance(item, list) or len(item) != 3:
            raise MalformedLine(name, line_no, "entities entries must be [start, end, id]")
        entities.append((_span(text, item[:2], name, line_no), item[2]))
    return tuple(entities)


def read_samples(path: PathLike) -> list[AlignedSample]:
    name = str(path)
    out: list[AlignedSample] = []
    for line_no, obj in read_jsonl(path):
        doc_id = _require(obj, "doc_id", str, name, line_no)
        text = _require(obj, "text", str, name, line_no)
        entities = _entities(obj, text, name, line_no)
        triplets = []
        for item in _require(obj, "triplets", list, name, line_no):
            if not isinstance(item, dict):
                raise MalformedLine(name, line_no, "triplets entries must be objects")
            for key in ("s", "p", "o", "s_span", "p_span", "o_span", "edit_distance"):
                if key not in item:
                    raise MalformedLine(name, line_no, f"triplet missing key {key!r}")
            if type(item["edit_distance"]) is not int:
                raise MalformedLine(name, line_no, "edit_distance must be an integer")
            triplets.append(
                AlignedTriplet(
                    triplet=Triplet(item["s"], item["p"], item["o"]),
                    subject_span=_span(text, item["s_span"], name, line_no),
                    predicate_span=_span(text, item["p_span"], name, line_no),
                    object_span=_span(text, item["o_span"], name, line_no),
                    edit_distance=item["edit_distance"],
                )
            )
        out.append(
            AlignedSample(
                paragraph=Paragraph(doc_id=doc_id, text=text),
                entity_spans=entities,
                aligned=tuple(triplets),
            )
        )
    return out


def write_ssm(path: PathLike, samples: Iterable[AlignedSample]) -> int:
    return write_jsonl(
        path,
        (
            {
                "doc_id": s.paragraph.doc_id,
                "text": s.paragraph.text,
                "entities": [[sp.char_start, sp.char_end, eid] for sp, eid in s.entity_spans],
            }
            for s in samples
        ),
    )


def read_ssm(path: PathLike) -> list[AlignedSample]:
    name = str(path)
    out: list[AlignedSample] = []
    for line_no, obj in read_jsonl(path):
        doc_id = _require(obj, "doc_id", str, name, line_no)
        text = _require(obj, "text", str, name, line_no)
        entities = _entities(obj, text, name, line_no)
        out.append(
            AlignedSample(
                paragraph=Paragraph(doc_id=doc_id, text=text),
                entity_spans=entities,
                aligned=(),
            )
        )
    return out


def write_masked(path: PathLike, samples: Iterable[MaskedSample]) -> int:
    return write_jsonl(
        path,
        (
            {
                "doc_id": m.doc_id,
                "variant": m.variant.value,
                "input_ids": list(m.input_tokens),
                "mask_positions": list(m.mask_positions),
                "targets": list(m.targets),
                "scheme": m.scheme.value,
            }
            for m in samples
        ),
    )


def read_masked(path: PathLike) -> list[MaskedSample]:
    name = str(path)
    out: list[MaskedSample] = []
    for line_no, obj in read_jsonl(path):
        doc_id = _require(obj, "doc_id", str, name, line_no)
        try:
            variant = Variant(_require(obj, "variant", str, name, line_no))
            scheme = MaskScheme(_require(obj, "scheme", str, name, line_no))
        except ValueError as exc:
            raise MalformedLine(name, line_no, str(exc)) from None
        ids = _int_list(obj, "input_ids", name, line_no)
        positions = _int_list(obj, "mask_positions", name, line_no)
        targets = _int_list(obj, "targets", name, line_no)
        if len(positions) != len(targets):
            raise MalformedLine(name, line_no, "mask_positions and targets differ in length")
        if not all(0 <= p < len(ids) for p in positions):
            raise MalformedLine(name, line_no, "mask_positions must index input_ids")
        out.append(
            MaskedSample(
                doc_id=doc_id,
                input_tokens=ids,
                mask_positions=positions,
                targets=targets,
                variant=variant,
                scheme=scheme,
            )
        )
    return out


def group_items(masked: Sequence[MaskedSample]) -> list[TrainItem]:
    """Regroup a masked stream into training items.

    A keep_clues line followed by a mask_clues line (and optionally a
    mask_random line) for the same doc forms one tuple; plain lines stand
    alone.
    """
    items: list[TrainItem] = []
    i = 0
    n = len(masked)
    while i < n:
        m = masked[i]
        if (
            m.variant is Variant.KEEP_CLUES
            and i + 1 < n
            and masked[i + 1].variant is Variant.MASK_CLUES
            and masked[i + 1].doc_id == m.doc_id
        ):
            if (
                i + 2 < n
                and masked[i + 2].variant is Variant.MASK_RANDOM
                and masked[i + 2].doc_id == m.doc_id
            ):
                items.append((m, masked[i + 1], masked[i + 2]))
                i += 3
            else:
                items.append((m, masked[i + 1]))
                i += 2
        else:
            items.append(m)
            i += 1
    return items


def write_vocab(path: PathLike, vocab: Vocabulary) -> None:
    with atomic_write(path) as fh:
        json.dump({"tokens": list(vocab.id_to_token)}, fh, ensure_ascii=False,
                  separators=(",", ":"))
        fh.write("\n")


def read_vocab(path: PathLike) -> Vocabulary:
    tokens = read_json(path).get("tokens")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise DataError(f"{path}: 'tokens' must be a list of strings")
    return Vocabulary(tuple(tokens), {t: i for i, t in enumerate(tokens)})


def read_templates(path: PathLike) -> list[Template]:
    name = str(path)
    out = []
    for line_no, obj in read_jsonl(path):
        out.append(
            Template(
                relation=_require(obj, "relation", str, name, line_no),
                pattern=_require(obj, "pattern", str, name, line_no),
            )
        )
    return out


def read_facts(path: PathLike) -> list[Fact]:
    name = str(path)
    out = []
    for line_no, obj in read_jsonl(path):
        out.append(
            Fact(
                triplet=Triplet(
                    _require(obj, "s", str, name, line_no),
                    _require(obj, "p", str, name, line_no),
                    _require(obj, "o", str, name, line_no),
                ),
                subject_surface=_require(obj, "s_surface", str, name, line_no),
                object_surface=_require(obj, "o_surface", str, name, line_no),
            )
        )
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


def write_json(path: PathLike, obj: dict) -> None:
    """Write ``obj`` as indented JSON, replacing ``path`` only once complete."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=False) + "\n")


def read_json(path: PathLike) -> dict:
    """The JSON object in ``path``; anything else raises ``DataError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise DataError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    return obj
