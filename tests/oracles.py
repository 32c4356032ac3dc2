"""Brute-force reference implementations the engine is checked against.

Everything here favors obviousness over speed: full dynamic-programming edit
distance, exhaustive window scans without the length band, linear scans of
the triplet list instead of indexes.  The only contract shared with the
engine is the tokenizer and the offset-preserving lowercasing, which define
what a candidate window IS; the search itself is exhaustive.

Predicate matching still scores every token-run window against every alias
with a full, unbanded edit-distance DP.  It just does not start that DP over
for each window: all windows that begin at the same token are prefixes of
one text suffix, so one alias-by-suffix table per start token holds the
distance of every such window in its last row.  ``levenshtein_oracle`` is
the independent recursive reference that this sweep is itself checked
against.

``tokenize_groups_oracle`` restates the object-group rules of masking with
its own tokenization regex and plain data: nested scans over the triplets,
roles by rank, and each group's foreign clues rebuilt from the other groups.
"""

from __future__ import annotations

import re
from functools import lru_cache

from detmask.align import AlignedSample, Paragraph
from detmask.kb import KnowledgeBase
from detmask.tokenizer import lower_aligned, token_spans, tokens_lower


def levenshtein_oracle(a: str, b: str) -> int:
    """Recursive memoized edit distance, written unlike the iterative engine."""

    @lru_cache(maxsize=None)
    def dist(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        sub = dist(i - 1, j - 1) + (0 if a[i - 1] == b[j - 1] else 1)
        return min(sub, dist(i - 1, j) + 1, dist(i, j - 1) + 1)

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, (len(a) + 1) * (len(b) + 1) + 100))
    try:
        return dist(len(a), len(b))
    finally:
        sys.setrecursionlimit(old)


def link_entities_oracle(text: str, kb: KnowledgeBase) -> list[tuple[int, int, str]]:
    """All alias matches enumerated up front, then greedy left-to-right."""
    spans = token_spans(text)
    toks = tokens_lower(text)
    matches: list[tuple[int, int, str]] = []  # (start_tok, end_tok, entity_id)
    for eid, aliases in kb.entity_aliases.items():
        for alias in aliases:
            atoks = tokens_lower(alias)
            if not atoks:
                continue
            for i in range(len(toks) - len(atoks) + 1):
                if toks[i : i + len(atoks)] == atoks:
                    matches.append((i, i + len(atoks) - 1, eid))
    out: list[tuple[int, int, str]] = []
    i = 0
    while i < len(toks):
        best = None
        for a, b, eid in matches:
            if a != i:
                continue
            if best is None or (-(b - a), eid) < (-(best[1] - best[0]), best[2]):
                best = (a, b, eid)
        if best is None:
            i += 1
        else:
            out.append((spans[best[0]][0], spans[best[1]][1], best[2]))
            i = best[1] + 1
    return out


def window_distances_oracle(
    low: str, spans: list[tuple[int, int]], ai: int, target: str
) -> list[int]:
    """Edit distance from ``target`` to every token-run window starting at token ``ai``.

    Entry ``bi - ai`` is the distance to ``low[spans[ai][0]:spans[bi][1]]``.
    The table is alias-major: row ``j`` holds the full DP distance from
    ``target[:j]`` to ``low[cs:cs + k]`` for every ``k`` up to the end of the
    last token, with no length band, so the last row scores every window
    that starts at ``cs`` at once.
    """
    cs = spans[ai][0]
    suffix = low[cs : spans[-1][1]]
    table = [list(range(len(suffix) + 1))]
    for j, tc in enumerate(target, start=1):
        above = table[-1]
        row = [j]
        for k, sc in enumerate(suffix, start=1):
            row.append(min(above[k] + 1, row[k - 1] + 1, above[k - 1] + (tc != sc)))
        table.append(row)
    last = table[-1]
    return [last[ce - cs] for _, ce in spans[ai:]]


def match_predicate_oracle(
    text: str, p: str, kb: KnowledgeBase
) -> tuple[int, int, int] | None:
    """Best (distance, char_start, char_end) over ALL token-run windows.

    Every alias of ``p`` is scored against every window ``[cs, ce)`` of whole
    tokens with a full DP (``window_distances_oracle``, one sweep per start
    token), and windows of distance < 2 compete on (distance, start, length).
    """
    low = lower_aligned(text)
    spans = token_spans(text)
    best_key = None
    best = None
    for alias in kb.predicate_aliases[p]:
        target = lower_aligned(alias)
        for ai in range(len(spans)):
            cs = spans[ai][0]
            distances = window_distances_oracle(low, spans, ai, target)
            for (_, ce), d in zip(spans[ai:], distances):
                if d < 2:
                    key = (d, cs, ce - cs)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = (d, cs, ce)
    return best


def _objects(kb: KnowledgeBase, s: str, p: str) -> set[str]:
    return {t.object for t in kb.triplets if t.subject == s and t.predicate == p}


def align_paragraph_oracle(paragraph: Paragraph, kb: KnowledgeBase):
    """Procedure re-run with loops and linear scans; returns plain tuples.

    Output: (entities, aligned, counters) with entities as (start, end, id),
    aligned as (s, p, o, s_span, p_span, o_span, distance).
    """
    if paragraph.pre_linked_spans is not None:
        entities = [(a, b, e) for a, b, e in paragraph.pre_linked_spans]
    else:
        entities = link_entities_oracle(paragraph.text, kb)
    aligned = []
    counters = {"candidates": 0, "non_deterministic": 0, "unmatched": 0}
    seen: set[tuple[str, str, str]] = set()
    for i, (sa, sb, s_id) in enumerate(entities):
        for j, (oa, ob, o_id) in enumerate(entities):
            if i == j:
                continue
            predicates = sorted(
                {t.predicate for t in kb.triplets if t.subject == s_id and t.object == o_id}
            )
            for p in predicates:
                key = (s_id, p, o_id)
                if key in seen:
                    continue
                seen.add(key)
                counters["candidates"] += 1
                if len(_objects(kb, s_id, p)) != 1:
                    counters["non_deterministic"] += 1
                    continue
                found = match_predicate_oracle(paragraph.text, p, kb)
                if found is None:
                    counters["unmatched"] += 1
                    continue
                d, a, b = found
                aligned.append((s_id, p, o_id, (sa, sb), (a, b), (oa, ob), d))
    return entities, aligned, counters


def sample_to_tuples(sample: AlignedSample):
    """Engine output in the oracle's tuple shape, for direct comparison."""
    entities = [(s.char_start, s.char_end, eid) for s, eid in sample.entity_spans]
    aligned = [
        (
            t.triplet.subject,
            t.triplet.predicate,
            t.triplet.object,
            (t.subject_span.char_start, t.subject_span.char_end),
            (t.predicate_span.char_start, t.predicate_span.char_end),
            (t.object_span.char_start, t.object_span.char_end),
            t.edit_distance,
        )
        for t in sample.aligned
    ]
    return entities, aligned


def consistency_oracle(answer_groups: list[list[tuple[str, ...]]]) -> float:
    """Pairwise agreement via per-answer multiset counting, not pair loops."""
    agree = 0
    pairs = 0
    for answers in answer_groups:
        n = len(answers)
        pairs += n * (n - 1) // 2
        counts: dict[tuple[str, ...], int] = {}
        for a in answers:
            counts[a] = counts.get(a, 0) + 1
        agree += sum(c * (c - 1) // 2 for c in counts.values())
    return agree / pairs if pairs else 0.0


_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_ROLE_RANK = {"other": 0, "predicate_clue": 1, "subject_clue": 2, "object": 3}


def tokenize_groups_oracle(
    sample: AlignedSample, token_to_id: dict[str, int], unk_id: int
) -> list[dict]:
    """One plain dict per distinct object span, keyed like ``TokenizedSample``'s fields.

    A token takes the highest-ranked role any span of the group gives it
    (object over subject clue over predicate clue over other), and only when
    it lies fully inside that span.  Foreign clues are the subject and
    predicate tokens of every other group, minus the tokens this group gives
    a role.  Roles are the ``Role`` values as strings.
    """
    text = sample.paragraph.text
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]

    def inside(span) -> list[int]:
        return [i for i, (a, b) in enumerate(spans)
                if a >= span.char_start and b <= span.char_end]

    def key(t) -> tuple[int, int]:
        return (t.object_span.char_start, t.object_span.char_end)

    keys: list[tuple[int, int]] = []
    for t in sample.aligned:
        if key(t) not in keys:
            keys.append(key(t))
    entity_token_spans = []
    for span, _eid in sample.entity_spans:
        tokens = inside(span)
        if tokens:
            entity_token_spans.append((tokens[0], tokens[-1] + 1))
    out = []
    for k in keys:
        roles = ["other"] * len(spans)
        for t in sample.aligned:
            if key(t) != k:
                continue
            for span, role in ((t.subject_span, "subject_clue"),
                               (t.predicate_span, "predicate_clue"),
                               (t.object_span, "object")):
                for i in inside(span):
                    if _ROLE_RANK[role] > _ROLE_RANK[roles[i]]:
                        roles[i] = role
        foreign = set()
        for t in sample.aligned:
            if key(t) != k:
                foreign.update(inside(t.subject_span))
                foreign.update(inside(t.predicate_span))
        foreign -= {i for i, r in enumerate(roles) if r != "other"}
        out.append({
            "doc_id": sample.paragraph.doc_id,
            "tokens": tuple(token_to_id.get(text[a:b].lower(), unk_id) for a, b in spans),
            "token_spans": tuple(spans),
            "roles": tuple(roles),
            "word_boundaries": tuple(
                i == 0 or any(c.isspace() for c in text[spans[i - 1][1]:a])
                for i, (a, _b) in enumerate(spans)
            ),
            "entity_token_spans": tuple(entity_token_spans),
            "foreign_clue_positions": frozenset(foreign),
            "object_word_count": len(text[k[0]:k[1]].split()),
        })
    return out
