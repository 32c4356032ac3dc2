"""Triplet knowledge base: loading, alias tables, and object-set queries.

The KB is fully in-memory, and its tables never change after load.  Its two
lookup indexes, ``sp_index`` and ``so_index``, are built on first read, so
``build-kb``, which only checks and rewrites the tables, never builds them.
A ``Triplet`` is a named tuple, so it hashes, compares and sorts as
``(subject, predicate, object)``.
File formats (UTF-8, LF, ``#`` comment lines ignored in all three):

* ``triplets.tsv``    one ``subject<TAB>predicate<TAB>object`` per line
* ``entities.tsv``    ``id<TAB>canonical<TAB>alias1|alias2|...`` (third column optional)
* ``predicates.tsv``  ``id<TAB>alias1|alias2|...``

An id is one run of non-whitespace once stripped, and does not start with
``#``.  Each alias loader reads one table from a file path.  ``load_kb``
reads the three, ``load_kb_dir`` a directory of them; ``write_kb_dir`` writes
one, sorted by id.  Both KB loaders read ``entities.tsv``, then
``predicates.tsv``, then check each line of ``triplets.tsv`` in order: its
fields, then its ids against the alias tables, where a missing id raises
``DanglingReference`` (subject, then object, then predicate).  So of several
faults, the first in that order is reported.  ``load_unique_object_flags``
reads a directory with the same checks in the same order but keeps only one
flag per predicate, for the probe's relation split.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Container, Iterable, Iterator, NamedTuple

from .errors import DanglingReference, DataError, MalformedLine
from .fileio import atomic_write

EntityId = str
PredicateId = str


class Triplet(NamedTuple):
    """A named tuple: it hashes, compares and sorts as (subject, predicate, object)."""

    subject: EntityId
    predicate: PredicateId
    object: EntityId


class KnowledgeBase:
    """Triplet store with alias tables and two indexes built on first read.

    Nothing changes its tables after load.  It compares by identity: a
    field-wise comparison would walk every table.
    """

    def __init__(self, triplets: frozenset[Triplet], entity_aliases: dict[str, tuple[str, ...]],
                 predicate_aliases: dict[str, tuple[str, ...]]) -> None:
        self.triplets = triplets
        self.entity_aliases = entity_aliases
        self.predicate_aliases = predicate_aliases

    @cached_property
    def sp_index(self) -> dict[tuple[EntityId, PredicateId], frozenset[EntityId]]:
        """(subject, predicate) -> the set of its objects."""
        sp: dict[tuple[EntityId, PredicateId], set[EntityId]] = {}
        for s, p, o in self.triplets:
            sp.setdefault((s, p), set()).add(o)
        return {k: frozenset(v) for k, v in sp.items()}

    @cached_property
    def so_index(self) -> dict[tuple[EntityId, EntityId], tuple[PredicateId, ...]]:
        """(subject, object) -> the sorted ids of the predicates between them."""
        so: dict[tuple[EntityId, EntityId], set[PredicateId]] = {}
        for s, p, o in self.triplets:
            so.setdefault((s, o), set()).add(p)
        return {k: tuple(sorted(v)) for k, v in so.items()}


def _iter_lines(path: str | Path, name: str) -> Iterator[tuple[int, str]]:
    """Yield (line_no, content) for non-empty, non-comment lines."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line or line.startswith("#"):
                    continue
                yield line_no, line
        except UnicodeDecodeError as exc:
            raise DataError(f"{name}: not a UTF-8 file: {exc}") from None


def _parse_id(value: str, source_name: str, line_no: int, what: str) -> str:
    """The id in ``value``: one run of non-whitespace once stripped, not
    starting with ``#``, since ``write_kb_dir`` would write its line as a comment."""
    # str.split and str.strip share str.isspace's definition of whitespace.
    parts = value.split()
    if len(parts) != 1 or parts[0].startswith("#"):
        raise MalformedLine(source_name, line_no, f"bad {what} id {value.strip()!r}")
    return parts[0]


def _parse_alias_field(raw: str) -> list[str]:
    return [a.strip() for a in raw.split("|") if a.strip()]


def load_entity_aliases(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Parse the entity alias table; the canonical name leads each alias list."""
    name = "entities.tsv"
    table: dict[str, tuple[str, ...]] = {}
    for line_no, line in _iter_lines(path, name):
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


def load_predicate_aliases(path: str | Path) -> dict[str, tuple[str, ...]]:
    name = "predicates.tsv"
    table: dict[str, tuple[str, ...]] = {}
    for line_no, line in _iter_lines(path, name):
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


def _triplet_rows(path: str | Path) -> Iterator[Triplet]:
    """Yield the triplet of each line, duplicates included."""
    name = "triplets.tsv"
    for line_no, line in _iter_lines(path, name):
        ids = line.split()
        # The common line, three bare ids joined by tabs, passes with this one
        # split; any other gets the checks, and the message, of each field.
        # A line never starts with "#": it would be a comment.
        if len(ids) != 3 or "\t".join(ids) != line or "\t#" in line:
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLine(name, line_no,
                                    f"expected 3 tab-separated fields, got {len(fields)}")
            ids = [_parse_id(field, name, line_no, what)
                   for field, what in zip(fields, ("subject", "predicate", "object"))]
        yield Triplet(*ids)


def _checked(triplets: Iterable[Triplet], entity_ids: Container[str],
             predicate_ids: Container[str]) -> Iterator[Triplet]:
    """Each triplet once its ids are found among the alias tables' ids; a
    missing one raises ``DanglingReference``: subject, then object, then
    predicate."""
    for t in triplets:
        s, p, o = t
        if s not in entity_ids or o not in entity_ids:
            raise DanglingReference(s if s not in entity_ids else o, "entity")
        if p not in predicate_ids:
            raise DanglingReference(p, "predicate")
        yield t


def build_kb(
    triplets: Iterable[Triplet],
    entity_aliases: dict[str, tuple[str, ...]],
    predicate_aliases: dict[str, tuple[str, ...]],
) -> KnowledgeBase:
    """Assemble a KB, checking referential integrity.

    A dangling id raises ``DanglingReference`` for the first triplet, in
    ``triplets`` order, that has one: its subject, then object, then
    predicate.  Each triplet is checked as it is drawn from ``triplets``.
    """
    triplet_set = frozenset(_checked(triplets, entity_aliases, predicate_aliases))
    return KnowledgeBase(triplet_set, entity_aliases, predicate_aliases)


def load_kb(triplets_path: str | Path, entities_path: str | Path,
            predicates_path: str | Path) -> KnowledgeBase:
    """Load a KB from the three table files: the two alias tables, then each
    line of the triplets table in order, its fields before its references."""
    entity_aliases = load_entity_aliases(entities_path)
    predicate_aliases = load_predicate_aliases(predicates_path)
    return build_kb(_triplet_rows(triplets_path), entity_aliases, predicate_aliases)


def load_kb_dir(kb_dir: str | Path) -> KnowledgeBase:
    """Load a KB from a directory holding triplets.tsv, entities.tsv, predicates.tsv."""
    d = Path(kb_dir)
    return load_kb(d / "triplets.tsv", d / "entities.tsv", d / "predicates.tsv")


def load_unique_object_flags(kb_dir: str | Path) -> dict[PredicateId, bool]:
    """Per predicate of the KB in ``kb_dir``: True iff no subject has two objects.

    Makes every check of ``load_kb_dir``, in its order, but keeps only the
    entity and predicate ids and the first object of each (subject,
    predicate): no alias table, triplet set or index.  Predicates without a
    triplet have no flag.
    """
    d = Path(kb_dir)
    entity_ids = set(load_entity_aliases(d / "entities.tsv"))
    predicate_ids = set(load_predicate_aliases(d / "predicates.tsv"))
    first_object: dict[tuple[EntityId, PredicateId], EntityId] = {}
    unique: dict[PredicateId, bool] = {}
    for s, p, o in _checked(_triplet_rows(d / "triplets.tsv"), entity_ids, predicate_ids):
        first = first_object.setdefault((s, p), o)
        unique[p] = unique.get(p, True) and first == o
    return unique


def write_kb_dir(kb: KnowledgeBase, kb_dir: str | Path) -> None:
    """Write ``kb`` as the three sorted tables ``load_kb_dir`` reads, creating ``kb_dir``."""
    d = Path(kb_dir)
    d.mkdir(parents=True, exist_ok=True)
    with atomic_write(d / "triplets.tsv") as fh:
        for s, p, o in sorted(kb.triplets):
            fh.write(f"{s}\t{p}\t{o}\n")
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
