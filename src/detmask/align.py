"""Text/triplet alignment: locate entity and predicate spans, keep triplets
the KB validates, and split them by object determinism.

For every paragraph the pipeline links entity mentions, enumerates ordered
span pairs, looks up connecting predicates, and checks whether the (subject,
predicate) pair determines a unique object.  Deterministic triplets whose
predicate surfaces in the text (edit distance < 2 to some alias) are emitted;
non-deterministic ones are only counted.  Two streams come out: samples that
carry at least one emitted triplet, and every paragraph with at least one
linked entity (used for span masking without triplet supervision).

All surface matching is case-insensitive via offset-preserving lowering, and
candidate windows start and end on token boundaries.  An ``Aligner`` holds
one KB with its linker and matcher.  The sample it makes of a paragraph is
still a pure function of (paragraph, KB); the run's tallies accumulate on
the ``Aligner``.  ``build_dataset`` runs one aligner over the corpus in
order, in this process.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import AbstractSet, Iterable, NamedTuple, Optional

from .editdist import within_one
from .errors import DataError
from .kb import KnowledgeBase, Triplet, is_deterministic, predicates_between
from .tokenizer import Tokens, lower_aligned, token_spans, tokens_inside, tokens_lower


class Span(NamedTuple):
    char_start: int
    char_end: int


class Paragraph(NamedTuple):
    doc_id: str
    text: str
    # (char_start, char_end, entity_id) accepted verbatim when provided.
    pre_linked_spans: Optional[tuple[tuple[int, int, str], ...]] = None


class AlignedTriplet(NamedTuple):
    triplet: Triplet
    subject_span: Span
    predicate_span: Span
    object_span: Span
    edit_distance: int


class AlignedSample(NamedTuple):
    paragraph: Paragraph
    entity_spans: tuple[tuple[Span, str], ...]
    aligned: tuple[AlignedTriplet, ...]


class AlignCounters(SimpleNamespace):
    """Run-level tallies; candidate counts are per distinct (s,p,o) per paragraph.

    ``tokens``, ``object_groups``, ``clue_tokens`` and ``object_tokens`` sum
    over the samples with an emitted triplet, as ``add_sample`` counts them.
    Mutable, and equal to another ``AlignCounters`` with the same tallies."""

    def __init__(self) -> None:
        super().__init__(paragraphs=0, skipped=0, candidates=0, non_deterministic=0,
                         unmatched_deterministic=0, emitted_triplets=0, tokens=0,
                         object_groups=0, clue_tokens=0, object_tokens=0)

    def add_sample(self, sample: AlignedSample, tokens: Tokens) -> None:
        """Add a deterministic sample's paragraph ``tokens`` and its object
        groups: each is one masked instance, whose subject and predicate
        tokens pool into a single clue set."""
        self.tokens += len(tokens.starts)
        for group in object_groups(sample, tokens):
            self.object_groups += 1
            self.object_tokens += len(group.objects)
            self.clue_tokens += len(group.clues)


class BuildResult(NamedTuple):
    deterministic_samples: list[AlignedSample]
    span_samples: list[AlignedSample]
    counters: AlignCounters
    # (doc_id, reason) of each skipped paragraph, in corpus order.
    skips: list[tuple[str, str]]


class EntityLinker:
    """Alias-dictionary linker over lowercased token sequences.

    Longest match wins, scanning left to right without overlaps.  An alias
    shared by several entities resolves to the lexicographically smallest id
    so that linking never depends on KB load order.
    """

    def __init__(self, kb: KnowledgeBase) -> None:
        trie: dict = {}
        for ent_id, aliases in kb.entity_aliases.items():
            for alias in aliases:
                toks = tokens_lower(alias)
                if not toks:
                    continue
                node = trie
                for t in toks:
                    node = node.setdefault(t, {})
                prev = node.get(None)
                node[None] = ent_id if prev is None else min(prev, ent_id)
        self._trie = trie

    def link(self, tokens: Tokens) -> tuple[tuple[Span, str], ...]:
        """Entity mentions among a paragraph's ``tokens``."""
        starts, ends, toks = tokens.starts, tokens.ends, tokens.lower
        out: list[tuple[Span, str]] = []
        n = len(toks)
        i = 0
        while i < n:
            node = self._trie
            best: Optional[tuple[int, str]] = None
            j = i
            while j < n:
                node = node.get(toks[j])
                if node is None:
                    break
                if None in node:
                    best = (j, node[None])
                j += 1
            if best is None:
                i += 1
                continue
            last, ent_id = best
            out.append((Span(starts[i], ends[last]), ent_id))
            i = last + 1
        return tuple(out)


class PredicateMatcher:
    """Finds the best in-text window within edit distance 1 of a predicate alias.

    Windows are token runs whose character length is within 1 of the alias
    length; anything farther off cannot be within distance 1.  Best means
    smallest distance, then smallest start, then shortest window.  Exact
    matches are found with ``str.find``.  Failing those, only windows that
    hold one half of the alias unchanged are scored: one edit leaves the
    first half intact at the window's start or the second half intact at
    its end (Wu & Manber's partition filter).
    """

    def __init__(self, kb: KnowledgeBase) -> None:
        self._aliases = {
            p: tuple(lower_aligned(a) for a in aliases)
            for p, aliases in kb.predicate_aliases.items()
        }

    def best(
        self,
        low: str,
        starts: AbstractSet[int],
        ends: AbstractSet[int],
        p: str,
    ) -> Optional[tuple[int, int, int]]:
        """Best (distance, char_start, char_end) for predicate ``p`` or None."""
        best: Optional[tuple[int, int, int]] = None
        for alias in self._aliases[p]:
            found = _scan_alias(low, starts, ends, alias)
            if found is None:
                continue
            if best is None or _match_key(found) < _match_key(best):
                best = found
        return best


def _match_key(m: tuple[int, int, int]) -> tuple[int, int, int]:
    dist, a, b = m
    return (dist, a, b - a)


def _scan_alias(
    low: str, starts: AbstractSet[int], ends: AbstractSet[int], alias: str
) -> Optional[tuple[int, int, int]]:
    m = len(alias)
    i = low.find(alias)
    while i >= 0:
        if i in starts and i + m in ends:
            return (0, i, i + m)
        i = low.find(alias, i + 1)
    head, tail = alias[: m // 2], alias[m // 2 :]
    windows: set[tuple[int, int]] = set()
    i = low.find(head)
    while i >= 0:
        if i in starts:
            windows.update((i, e) for e in range(i + m - 1, i + m + 2) if e in ends)
        i = low.find(head, i + 1)
    i = low.find(tail)
    while i >= 0:
        e = i + len(tail)
        if e in ends:
            windows.update((a, e) for a in range(e - m - 1, e - m + 2) if a in starts)
        i = low.find(tail, i + 1)
    for cs, ce in sorted(windows):
        # cs < ce: a one-character alias would also admit empty windows.
        if cs < ce and within_one(low[cs:ce], alias):
            return (1, cs, ce)
    return None


def _validate_pre_linked(paragraph: Paragraph) -> tuple[tuple[Span, str], ...]:
    text = paragraph.text
    spans = sorted(paragraph.pre_linked_spans or (), key=lambda s: (s[0], s[1]))
    prev_end = 0
    for a, b, _eid in spans:
        if not (0 <= a < b <= len(text)):
            raise DataError(f"pre-linked span [{a},{b}) outside text of length {len(text)}")
        if a < prev_end:
            raise DataError(f"pre-linked spans overlap at [{a},{b})")
        prev_end = b
    # Emitted in the order given, not the sorted order used for checking.
    return tuple((Span(a, b), eid) for a, b, eid in (paragraph.pre_linked_spans or ()))


class Aligner:
    """Aligns paragraphs against one KB and tallies them.

    Built once per KB: it holds the KB, its alias-trie linker, its predicate
    matcher and ``counters``, the running tallies of every paragraph it has
    aligned.
    """

    def __init__(self, kb: KnowledgeBase) -> None:
        self.kb = kb
        self.linker = EntityLinker(kb)
        self.matcher = PredicateMatcher(kb)
        self.counters = AlignCounters()

    def align(self, paragraph: Paragraph) -> AlignedSample:
        """Align one paragraph; invalid pre-linked spans raise ``DataError``.

        Entity spans are the pre-linked spans verbatim when present, otherwise
        dictionary matches against the KB alias table.  The paragraph is
        counted first, so one that raises adds only to ``paragraphs``.
        """
        counts = self.counters
        counts.paragraphs += 1
        text = paragraph.text
        tokens = token_spans(text)
        if paragraph.pre_linked_spans is not None:
            entity_spans = _validate_pre_linked(paragraph)
        else:
            entity_spans = self.linker.link(tokens)
        aligned: list[AlignedTriplet] = []
        if len(entity_spans) >= 2:
            kb = self.kb
            low = lower_aligned(text)
            starts = set(tokens.starts)
            ends = set(tokens.ends)
            memo: dict[str, Optional[tuple[int, int, int]]] = {}
            seen: set[tuple[str, str, str]] = set()
            for i, (s_span, s_id) in enumerate(entity_spans):
                for j, (o_span, o_id) in enumerate(entity_spans):
                    if i == j:
                        continue
                    for p in predicates_between(kb, s_id, o_id):
                        key = (s_id, p, o_id)
                        if key in seen:
                            continue
                        seen.add(key)
                        counts.candidates += 1
                        if not is_deterministic(kb, s_id, p):
                            counts.non_deterministic += 1
                            continue
                        if p in memo:
                            found = memo[p]
                        else:
                            found = memo[p] = self.matcher.best(low, starts, ends, p)
                        if found is None:
                            counts.unmatched_deterministic += 1
                            continue
                        dist, a, b = found
                        aligned.append(
                            AlignedTriplet(
                                triplet=Triplet(s_id, p, o_id),
                                subject_span=s_span,
                                predicate_span=Span(a, b),
                                object_span=o_span,
                                edit_distance=dist,
                            )
                        )
                        counts.emitted_triplets += 1
        sample = AlignedSample(paragraph, entity_spans, tuple(aligned))
        if aligned:
            counts.add_sample(sample, tokens)
        return sample


def build_dataset(
    corpus: Iterable[Paragraph], kb: KnowledgeBase, threads: int = 1
) -> BuildResult:
    """Align a corpus and split it into the two output streams.

    A paragraph goes to ``deterministic_samples`` when it yields at least one
    emitted triplet and to ``span_samples`` when it has at least one linked
    entity.  A paragraph that fails validation is counted as skipped, its
    reason goes to ``skips``, and it never aborts the run.  Results keep
    corpus order.  ``threads`` is accepted and has no effect: alignment
    always runs in this process.
    """
    aligner = Aligner(kb)
    result = BuildResult([], [], aligner.counters, [])
    for paragraph in corpus:
        try:
            sample = aligner.align(paragraph)
        except DataError as exc:
            result.counters.skipped += 1
            result.skips.append((paragraph.doc_id, str(exc)))
            continue
        if sample.aligned:
            result.deterministic_samples.append(sample)
        if sample.entity_spans:
            result.span_samples.append(sample)
    return result


class ObjectGroup(NamedTuple):
    """Token indices of the triplets in one sample that share an object span;
    ``clues`` pools their subject and predicate tokens."""

    span: tuple[int, int]
    objects: range
    clues: set[int]


def object_groups(sample: AlignedSample, tokens: Tokens) -> list[ObjectGroup]:
    """The sample's triplets grouped by object character span, in first-seen order.

    Each group is one masked instance: its subject and predicate tokens are
    the clues that determine its object.  ``tokens`` are the paragraph's
    tokens; a token belongs to a span only when it lies fully inside it.
    """
    groups: dict[tuple[int, int], ObjectGroup] = {}
    for t in sample.aligned:
        key = (t.object_span.char_start, t.object_span.char_end)
        group = groups.get(key)
        if group is None:
            group = groups[key] = ObjectGroup(key, tokens_inside(tokens, *key), set())
        group.clues.update(
            tokens_inside(tokens, t.subject_span.char_start, t.subject_span.char_end),
            tokens_inside(tokens, t.predicate_span.char_start, t.predicate_span.char_end))
    return list(groups.values())

