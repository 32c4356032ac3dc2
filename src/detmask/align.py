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
one KB with its linker and matcher, and aligning a paragraph is a pure
function of (paragraph, KB).  ``build_dataset`` runs the aligner over the
whole corpus, or hands it once to each pool worker, which aligns contiguous
chunks of the corpus; output order always equals input order.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .editdist import within_one
from .errors import DanglingReference, DataError, EmptyDataset
from .kb import KnowledgeBase, Triplet, is_deterministic, predicates_between
from .tokenizer import lower_aligned, token_spans, tokens_inside, tokens_lower

log = logging.getLogger("detmask.align")


@dataclass(frozen=True)
class Span:
    char_start: int
    char_end: int
    surface: str


@dataclass(frozen=True)
class Paragraph:
    doc_id: str
    text: str
    # (char_start, char_end, entity_id) accepted verbatim when provided.
    pre_linked_spans: Optional[tuple[tuple[int, int, str], ...]] = None


@dataclass(frozen=True)
class AlignedTriplet:
    triplet: Triplet
    subject_span: Span
    predicate_span: Span
    object_span: Span
    edit_distance: int


@dataclass(frozen=True)
class AlignedSample:
    paragraph: Paragraph
    entity_spans: tuple[tuple[Span, str], ...]
    aligned: tuple[AlignedTriplet, ...]


@dataclass
class AlignCounters:
    """Run-level tallies; candidate counts are per distinct (s,p,o) per paragraph."""

    paragraphs: int = 0
    skipped: int = 0
    candidates: int = 0
    non_deterministic: int = 0
    unmatched_deterministic: int = 0
    emitted_triplets: int = 0

    def merge(self, other: "AlignCounters") -> None:
        self.paragraphs += other.paragraphs
        self.skipped += other.skipped
        self.candidates += other.candidates
        self.non_deterministic += other.non_deterministic
        self.unmatched_deterministic += other.unmatched_deterministic
        self.emitted_triplets += other.emitted_triplets


@dataclass
class BuildResult:
    deterministic_samples: list[AlignedSample]
    span_samples: list[AlignedSample]
    counters: AlignCounters


@dataclass
class DatasetStats:
    paragraph_count: int
    sample_count: int
    avg_tokens_per_paragraph: float
    avg_clue_tokens: float
    avg_object_tokens: float
    nondeterministic_fraction: float


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

    def link(self, text: str, spans: Sequence[tuple[int, int]]) -> tuple[tuple[Span, str], ...]:
        """Entity mentions in ``text``, whose tokens are ``spans``."""
        toks = [text[a:b].lower() for a, b in spans]
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
            a, b = spans[i][0], spans[last][1]
            out.append((Span(a, b, text[a:b]), ent_id))
            i = last + 1
        return tuple(out)


class PredicateMatcher:
    """Finds the best in-text window within edit distance 1 of a predicate alias.

    Windows are token runs whose character length is within 1 of the alias
    length; anything farther off cannot be within distance 1.  Best means
    smallest distance, then smallest start, then shortest window.
    """

    def __init__(self, kb: KnowledgeBase) -> None:
        self._aliases = {
            p: tuple(lower_aligned(a) for a in aliases)
            for p, aliases in kb.predicate_aliases.items()
        }

    def aliases(self, p: str) -> tuple[str, ...]:
        try:
            return self._aliases[p]
        except KeyError:
            raise DanglingReference(p, "predicate") from None

    def best(
        self,
        low: str,
        starts: Sequence[int],
        ends: Sequence[int],
        p: str,
    ) -> Optional[tuple[int, int, int]]:
        """Best (distance, char_start, char_end) for predicate ``p`` or None."""
        best: Optional[tuple[int, int, int]] = None
        for alias in self.aliases(p):
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
    low: str, starts: Sequence[int], ends: Sequence[int], alias: str
) -> Optional[tuple[int, int, int]]:
    m = len(alias)
    n = len(starts)
    best: Optional[tuple[int, int, int]] = None
    for ai in range(n):
        cs = starts[ai]
        hi = cs + m + 1
        bi = bisect_left(ends, cs + m - 1, ai)
        while bi < n and ends[bi] <= hi:
            window = low[cs : ends[bi]]
            if within_one(window, alias):
                if window == alias:
                    return (0, cs, ends[bi])
                if best is None:
                    best = (1, cs, ends[bi])
            bi += 1
    return best


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
    return tuple(
        (Span(a, b, text[a:b]), eid) for a, b, eid in (paragraph.pre_linked_spans or ())
    )


class Aligner:
    """Aligns paragraphs against one KB.

    Built once per KB: it holds the KB, its alias-trie linker and its
    predicate matcher, and is picklable so a pool worker can receive it once.
    """

    def __init__(self, kb: KnowledgeBase) -> None:
        self.kb = kb
        self.linker = EntityLinker(kb)
        self.matcher = PredicateMatcher(kb)

    def align(self, paragraph: Paragraph) -> tuple[AlignedSample, AlignCounters]:
        """Align one paragraph; invalid pre-linked spans raise ``DataError``.

        Entity spans are the pre-linked spans verbatim when present, otherwise
        dictionary matches against the KB alias table.
        """
        counts = AlignCounters(paragraphs=1)
        text = paragraph.text
        tspans = token_spans(text)
        if paragraph.pre_linked_spans is not None:
            entity_spans = _validate_pre_linked(paragraph)
        else:
            entity_spans = self.linker.link(text, tspans)
        aligned: list[AlignedTriplet] = []
        if len(entity_spans) >= 2:
            kb = self.kb
            low = lower_aligned(text)
            starts = [a for a, _ in tspans]
            ends = [b for _, b in tspans]
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
                                predicate_span=Span(a, b, text[a:b]),
                                object_span=o_span,
                                edit_distance=dist,
                            )
                        )
                        counts.emitted_triplets += 1
        return AlignedSample(paragraph, entity_spans, tuple(aligned)), counts

    def build(self, paragraphs: Iterable[Paragraph]) -> BuildResult:
        """Align ``paragraphs`` in order and split them into the two streams.

        A paragraph that fails validation is logged, counted as skipped, and
        never aborts the run.
        """
        result = BuildResult([], [], AlignCounters())
        for paragraph in paragraphs:
            try:
                sample, counts = self.align(paragraph)
            except DataError as exc:
                result.counters.paragraphs += 1
                result.counters.skipped += 1
                log.warning("skipping paragraph %s: %s", paragraph.doc_id, exc)
                continue
            result.counters.merge(counts)
            if sample.aligned:
                result.deterministic_samples.append(sample)
            if sample.entity_spans:
                result.span_samples.append(sample)
        return result


# The aligner of a pool worker, set once by the pool's initializer.
_WORKER_ALIGNER: Optional[Aligner] = None


def _init_worker(aligner: Aligner) -> None:
    global _WORKER_ALIGNER
    _WORKER_ALIGNER = aligner


def _build_chunk(paragraphs: list[Paragraph]) -> BuildResult:
    return _WORKER_ALIGNER.build(paragraphs)


def build_dataset(
    corpus: Iterable[Paragraph], kb: KnowledgeBase, threads: int = 1
) -> BuildResult:
    """Align a corpus and split it into the two output streams.

    A paragraph goes to ``deterministic_samples`` when it yields at least one
    emitted triplet and to ``span_samples`` when it has at least one linked
    entity.  A paragraph that fails validation is logged, counted as skipped,
    and never aborts the run.  Results keep corpus order regardless of
    ``threads``.
    """
    paragraphs = list(corpus)
    aligner = Aligner(kb)
    if threads <= 1 or len(paragraphs) <= 1:
        return aligner.build(paragraphs)
    size = max(1, len(paragraphs) // (threads * 8))
    chunks = [paragraphs[i : i + size] for i in range(0, len(paragraphs), size)]
    result = BuildResult([], [], AlignCounters())
    with ProcessPoolExecutor(
        max_workers=min(threads, len(chunks)), initializer=_init_worker, initargs=(aligner,)
    ) as pool:
        for part in pool.map(_build_chunk, chunks):
            result.deterministic_samples += part.deterministic_samples
            result.span_samples += part.span_samples
            result.counters.merge(part.counters)
    return result


def compute_stats(
    samples: Sequence[AlignedSample], counters: Optional[AlignCounters] = None
) -> DatasetStats:
    """Summary statistics over the deterministic samples.

    Clue and object token averages are taken per masked instance: triplets
    sharing one object span in a sample pool their subject and predicate
    tokens into a single clue set.
    """
    if not samples:
        raise EmptyDataset("no deterministic samples")
    total_tokens = 0
    groups = 0
    clue_sum = 0
    object_sum = 0
    for sample in samples:
        spans = token_spans(sample.paragraph.text)
        total_tokens += len(spans)
        by_object: dict[tuple[int, int], list[AlignedTriplet]] = {}
        for t in sample.aligned:
            span_key = (t.object_span.char_start, t.object_span.char_end)
            by_object.setdefault(span_key, []).append(t)
        for (a, b), triplets in by_object.items():
            groups += 1
            object_sum += len(tokens_inside(spans, a, b))
            clue_tokens: set[int] = set()
            for t in triplets:
                clue_tokens.update(
                    tokens_inside(spans, t.subject_span.char_start, t.subject_span.char_end)
                )
                clue_tokens.update(
                    tokens_inside(spans, t.predicate_span.char_start, t.predicate_span.char_end)
                )
            clue_sum += len(clue_tokens)
    fraction = 0.0
    paragraph_count = len(samples)
    if counters is not None:
        paragraph_count = counters.paragraphs
        if counters.candidates:
            fraction = counters.non_deterministic / counters.candidates
    return DatasetStats(
        paragraph_count=paragraph_count,
        sample_count=len(samples),
        avg_tokens_per_paragraph=total_tokens / len(samples),
        avg_clue_tokens=clue_sum / groups,
        avg_object_tokens=object_sum / groups,
        nondeterministic_fraction=fraction,
    )
