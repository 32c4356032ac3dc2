"""Triplet knowledge base: loading, alias tables, and object-set queries.

The KB is fully in-memory and immutable after load; concurrent reads are safe.
File formats (UTF-8, LF, ``#`` comment lines ignored in all three):

* ``triplets.tsv``    one ``subject<TAB>predicate<TAB>object`` per line
* ``entities.tsv``    ``id<TAB>canonical<TAB>alias1|alias2|...`` (third column optional)
* ``predicates.tsv``  ``id<TAB>alias1|alias2|...``

``load_kb_dir`` reads a directory of the three; ``write_kb_dir`` writes one,
sorted by id.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Union

from .errors import DanglingReference, DataError, MalformedLine
from .fileio import atomic_write

EntityId = str
PredicateId = str
AliasTable = Mapping[str, tuple[str, ...]]

Source = Union[str, Path, IO[str], Iterable[str]]


@dataclass(frozen=True, order=True)
class Triplet:
    subject: EntityId
    predicate: PredicateId
    object: EntityId


@dataclass(frozen=True, eq=False)
class KnowledgeBase:
    """Immutable triplet store with alias tables and a (subject, predicate) index.

    eq=False keeps identity comparison: a field-wise hash would fail on the dicts.
    """

    triplets: frozenset[Triplet]
    entity_aliases: dict[str, tuple[str, ...]]
    predicate_aliases: dict[str, tuple[str, ...]]
    sp_index: dict[tuple[EntityId, PredicateId], frozenset[EntityId]] = field(repr=False)
    # Auxiliary index for alignment: (subject, object) -> sorted predicate ids.
    so_index: dict[tuple[EntityId, EntityId], tuple[PredicateId, ...]] = field(repr=False)


def _iter_lines(source: Source, name: str) -> Iterator[tuple[int, str]]:
    """Yield (line_no, content) for non-empty, non-comment lines."""
    if isinstance(source, (str, Path)):
        handle: IO[str] = open(source, "r", encoding="utf-8", newline="")
        close = True
    else:
        handle = source if isinstance(source, io.TextIOBase) else iter(source)  # type: ignore[assignment]
        close = False
    try:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            yield line_no, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{name}: not a UTF-8 file: {exc}") from None
    finally:
        if close:
            handle.close()


def _parse_id(value: str, source_name: str, line_no: int, what: str) -> str:
    value = value.strip()
    if not value or any(c.isspace() for c in value):
        raise MalformedLine(source_name, line_no, f"bad {what} id {value!r}")
    return value


def _parse_alias_field(raw: str) -> list[str]:
    return [a.strip() for a in raw.split("|") if a.strip()]


def load_entity_aliases(source: Source, name: str = "entities.tsv") -> dict[str, tuple[str, ...]]:
    """Parse the entity alias table; the canonical name leads each alias list."""
    table: dict[str, tuple[str, ...]] = {}
    for line_no, line in _iter_lines(source, name):
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise MalformedLine(name, line_no, f"expected 2 or 3 tab-separated fields, got {len(fields)}")
        ent_id = _parse_id(fields[0], name, line_no, "entity")
        canonical = fields[1].strip()
        if not canonical:
            raise MalformedLine(name, line_no, "empty canonical name")
        aliases = [canonical]
        if len(fields) == 3:
            aliases.extend(_parse_alias_field(fields[2]))
        seen: set[str] = set()
        deduped = tuple(a for a in aliases if not (a in seen or seen.add(a)))
        if ent_id in table:
            raise MalformedLine(name, line_no, f"duplicate entity id {ent_id!r}")
        table[ent_id] = deduped
    return table


def load_predicate_aliases(source: Source, name: str = "predicates.tsv") -> dict[str, tuple[str, ...]]:
    table: dict[str, tuple[str, ...]] = {}
    for line_no, line in _iter_lines(source, name):
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(name, line_no, f"expected 2 tab-separated fields, got {len(fields)}")
        pred_id = _parse_id(fields[0], name, line_no, "predicate")
        aliases = _parse_alias_field(fields[1])
        if not aliases:
            raise MalformedLine(name, line_no, "no aliases")
        if pred_id in table:
            raise MalformedLine(name, line_no, f"duplicate predicate id {pred_id!r}")
        seen: set[str] = set()
        table[pred_id] = tuple(a for a in aliases if not (a in seen or seen.add(a)))
    return table


def load_triplets(source: Source, name: str = "triplets.tsv") -> list[Triplet]:
    """Parse triplet lines; duplicates are dropped, order of first occurrence kept."""
    out: list[Triplet] = []
    seen: set[Triplet] = set()
    for line_no, line in _iter_lines(source, name):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(name, line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        t = Triplet(
            _parse_id(fields[0], name, line_no, "subject"),
            _parse_id(fields[1], name, line_no, "predicate"),
            _parse_id(fields[2], name, line_no, "object"),
        )
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def build_kb(
    triplets: Iterable[Triplet],
    entity_aliases: dict[str, tuple[str, ...]],
    predicate_aliases: dict[str, tuple[str, ...]],
) -> KnowledgeBase:
    """Assemble and index a KB, checking referential integrity."""
    triplet_set = frozenset(triplets)
    sp: dict[tuple[str, str], set[str]] = {}
    so: dict[tuple[str, str], set[str]] = {}
    for t in triplet_set:
        for eid in (t.subject, t.object):
            if eid not in entity_aliases:
                raise DanglingReference(eid, "entity")
        if t.predicate not in predicate_aliases:
            raise DanglingReference(t.predicate, "predicate")
        sp.setdefault((t.subject, t.predicate), set()).add(t.object)
        so.setdefault((t.subject, t.object), set()).add(t.predicate)
    return KnowledgeBase(
        triplets=triplet_set,
        entity_aliases=entity_aliases,
        predicate_aliases=predicate_aliases,
        sp_index={k: frozenset(v) for k, v in sp.items()},
        so_index={k: tuple(sorted(v)) for k, v in so.items()},
    )


def load_kb(
    triplet_source: Source,
    entity_alias_source: Source,
    predicate_alias_source: Source,
) -> KnowledgeBase:
    """Load and index a KB from the three tabular sources."""
    return build_kb(
        load_triplets(triplet_source),
        load_entity_aliases(entity_alias_source),
        load_predicate_aliases(predicate_alias_source),
    )


def load_kb_dir(kb_dir: str | Path) -> KnowledgeBase:
    """Load a KB from a directory holding triplets.tsv, entities.tsv, predicates.tsv."""
    d = Path(kb_dir)
    return load_kb(d / "triplets.tsv", d / "entities.tsv", d / "predicates.tsv")


def write_kb_dir(kb: KnowledgeBase, kb_dir: str | Path) -> None:
    """Write ``kb`` as the three sorted tables ``load_kb_dir`` reads, creating ``kb_dir``."""
    d = Path(kb_dir)
    d.mkdir(parents=True, exist_ok=True)
    with atomic_write(d / "triplets.tsv") as fh:
        for t in sorted(kb.triplets):
            fh.write(f"{t.subject}\t{t.predicate}\t{t.object}\n")
    with atomic_write(d / "entities.tsv") as fh:
        for eid in sorted(kb.entity_aliases):
            aliases = kb.entity_aliases[eid]
            extra = "|".join(aliases[1:])
            fh.write(f"{eid}\t{aliases[0]}\t{extra}\n" if extra else f"{eid}\t{aliases[0]}\n")
    with atomic_write(d / "predicates.tsv") as fh:
        for pid in sorted(kb.predicate_aliases):
            fh.write(f"{pid}\t{'|'.join(kb.predicate_aliases[pid])}\n")


def objects_for(kb: KnowledgeBase, s: EntityId, p: PredicateId) -> frozenset[EntityId]:
    """The exact object set {o : (s,p,o) in triplets}; empty for unknown pairs."""
    return kb.sp_index.get((s, p), frozenset())


def is_deterministic(kb: KnowledgeBase, s: EntityId, p: PredicateId) -> bool:
    """True iff exactly one object fits (s, p).

    Zero known objects counts as non-deterministic: with no ground truth in
    the KB there is nothing to mask.
    """
    return len(objects_for(kb, s, p)) == 1


def predicates_between(kb: KnowledgeBase, s: EntityId, o: EntityId) -> tuple[PredicateId, ...]:
    """Sorted predicate ids r with (s, r, o) in the KB."""
    return kb.so_index.get((s, o), ())
