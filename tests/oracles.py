"""Brute-force reference implementations the engine is checked against.

Everything here favors obviousness over speed: full dynamic-programming edit
distance, exhaustive window scans without the length band, linear scans of
the triplet list instead of indexes.  The only contract shared with the
engine is the token regex (copied here as ``token_spans_oracle``), the
per-token and the offset-preserving lowercasing, which define what a
candidate window IS; the search itself is exhaustive.

Predicate matching still scores every token-run window against every alias
with a full, unbanded edit-distance DP.  It just does not start that DP over
for each window: all windows that begin at the same token are prefixes of
one text suffix, so one alias-by-suffix table per start token holds the
distance of every such window in its last row.  ``levenshtein_oracle`` is
the independent recursive reference that this sweep is itself checked
against.

``tokenize_groups_oracle`` restates the object-group rules of masking with
plain data: nested scans over the triplets, roles by rank, and each group's
foreign clues rebuilt from the other groups.  Its token lookups are full
scans where the tokenizer compares offsets and bisects:
``word_starts_oracle`` looks for whitespace in every gap between tokens, and
``tokens_inside_oracle`` tests every token against the range.
``context_positions_oracle`` scans every position for the pool that the
random member of a triple draws from.

``full_head_losses_oracle`` recomputes the model's three losses with the LM
head and its softmax at every position, attention one query at a time over
the non-pad keys, and nothing from ``detmask.model``; its ``_full_forward``
also gives the tests the contextual embeddings and every position's
vocabulary distribution of one sequence.

``predict_fill_oracle`` answers a batch of cloze prompts from the whole
head softmax at every mask row: the sentinel ids set to -1, then an id by id
scan that keeps the first of equal maxima.  ``model.predict_fill`` reads
most answers straight off the logits.

``finite_diff_check`` compares ``model.loss_and_grad``'s analytic gradients
with central differences of its own losses.

``triplet_rows_oracle`` parses a triplets table field by field, each field
by the id rule on its own, where the KB loaders split the common line once.

``sp_index_oracle`` and ``so_index_oracle`` rebuild the KB's two indexes
with one scan of the triplets per key.  ``unique_object_flags_oracle`` reads
the relation split of the probe off a whole loaded KB's (subject, predicate)
index.  ``instantiate_oracle`` renders a cloze prompt by scanning the
template with ``str.find`` for the nearer of the two placeholders, where the
probe splits it with one regex.

``read_masked_oracle``, ``group_items_oracle`` and ``check_token_ids_oracle``
are the masked-file reader in three passes: every line to a ``MaskedSample``,
then the whole list grouped into training items with index lookahead, then
every sample's ids against the vocabulary.  ``formats.read_masked`` does all
three in one pass and keeps only the first items.

``write_masked_oracle`` writes each masked line as a dict through
``formats.write_jsonl``, where ``formats.write_masked`` formats the line
itself and makes the decimal strings of a paragraph's ids once.

``train_oracle`` is the training loop at its plainest: fresh gradients from
``model.loss_and_grad`` on every step and a ``p -= lr * g`` update, with no
buffer reuse and no in-place scaling.
"""

from __future__ import annotations

import math
import re
from array import array
from functools import lru_cache

import numpy as np

from detmask.align import AlignedSample, Paragraph
from detmask.errors import DataError, MalformedLine
from detmask.formats import _require, read_jsonl, write_jsonl
from detmask.kb import KnowledgeBase, Triplet, _iter_lines, _parse_id
from detmask.masking import (MASK_ID, MASK_TOKEN, PAD_ID, UNK_ID, MaskedSample, MaskScheme,
                             Variant)
from detmask.model import ModelConfig, ModelState, _forward, init, loss_and_grad
from detmask.tokenizer import lower_aligned, tokens_lower

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def token_spans_oracle(text: str) -> list[tuple[int, int]]:
    """(start, end) of every token, by this module's own copy of the token regex."""
    return [m.span() for m in _TOKEN_RE.finditer(text)]


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
    spans = token_spans_oracle(text)
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
    spans = token_spans_oracle(text)
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


def triplet_rows_oracle(path) -> list[Triplet]:
    """The triplet of each line of a triplets table, duplicates included."""
    name = "triplets.tsv"
    rows = []
    for line_no, line in _iter_lines(path, name):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(name, line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        rows.append(Triplet(*(_parse_id(field, name, line_no, what)
                              for field, what in zip(fields, ("subject", "predicate", "object")))))
    return rows


def _objects(kb: KnowledgeBase, s: str, p: str) -> set[str]:
    return {t.object for t in kb.triplets if t.subject == s and t.predicate == p}


def sp_index_oracle(kb: KnowledgeBase) -> dict[tuple[str, str], frozenset[str]]:
    """(subject, predicate) -> its objects, for every pair with a triplet."""
    return {(t.subject, t.predicate): frozenset(_objects(kb, t.subject, t.predicate))
            for t in kb.triplets}


def so_index_oracle(kb: KnowledgeBase) -> dict[tuple[str, str], tuple[str, ...]]:
    """(subject, object) -> the sorted predicates between them, for every pair
    with a triplet."""
    return {(t.subject, t.object): tuple(sorted(u.predicate for u in kb.triplets
                                                if (u.subject, u.object) == (t.subject, t.object)))
            for t in kb.triplets}


def unique_object_flags_oracle(kb: KnowledgeBase) -> dict[str, bool]:
    """Per predicate with a triplet: True iff each of its subjects has one object."""
    flags: dict[str, bool] = {}
    for (_s, p), objects in kb.sp_index.items():
        flags[p] = flags.get(p, True) and len(objects) == 1
    return flags


def instantiate_oracle(pattern: str, subject_surface: str,
                       object_surface: str) -> tuple[str, ...]:
    """The prompt tokens of a cloze question, or the probe's error for it."""
    gold = tokens_lower(object_surface)
    if not gold:
        raise DataError(f"object surface {object_surface!r} has no tokens")
    for ph in ("[X]", "[Y]"):
        if pattern.count(ph) != 1:
            raise DataError(f"pattern must contain exactly one {ph}: {pattern!r}")
    tokens: list[str] = []
    rest = pattern
    while rest:
        found = [i for i in (rest.find("[X]"), rest.find("[Y]")) if i >= 0]
        if not found:
            tokens += tokens_lower(rest)
            break
        nxt = min(found)
        tokens += tokens_lower(rest[:nxt])
        if rest.startswith("[X]", nxt):
            tokens += tokens_lower(subject_surface)
        else:
            tokens += [MASK_TOKEN] * len(gold)
        rest = rest[nxt + 3:]
    return tuple(tokens)


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


_ROLE_RANK = {"other": 0, "predicate_clue": 1, "subject_clue": 2, "object": 3}


def word_starts_oracle(text: str, spans: list[tuple[int, int]]) -> list[bool]:
    """True for the first token and for every token with whitespace before it."""
    return [i == 0 or any(c.isspace() for c in text[spans[i - 1][1]:a])
            for i, (a, _b) in enumerate(spans)]


def tokens_inside_oracle(spans: list[tuple[int, int]], start: int, end: int) -> list[int]:
    """Indices of the tokens lying fully inside [start, end), by a full scan."""
    return [i for i, (a, b) in enumerate(spans) if a >= start and b <= end]


def context_positions_oracle(sample) -> list[int]:
    """Positions the random member of a triple may mask: every token that is
    none of the group's objects and clues nor another group's clue."""
    taken = (set(sample.object_positions) | set(sample.clue_positions)
             | sample.foreign_clue_positions)
    return [i for i in range(len(sample.tokens)) if i not in taken]


def tokenize_groups_oracle(
    sample: AlignedSample, token_to_id: dict[str, int], unk_id: int
) -> list[dict]:
    """One plain dict per distinct object span, keyed like ``TokenizedSample``'s fields.

    A token takes the highest-ranked role any span of the group gives it
    (object over subject clue over predicate clue over other), and only when
    it lies fully inside that span.  Foreign clues are the subject and
    predicate tokens of every other group, minus the tokens this group gives
    a role.  The object positions are the object-role tokens and the clue
    positions the subject- and predicate-clue tokens.
    """
    text = sample.paragraph.text
    spans = token_spans_oracle(text)

    def inside(span) -> list[int]:
        return tokens_inside_oracle(spans, span.char_start, span.char_end)

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
            "word_boundaries": tuple(word_starts_oracle(text, spans)),
            "entity_token_spans": tuple(entity_token_spans),
            "foreign_clue_positions": frozenset(foreign),
            "object_word_count": len(text[k[0]:k[1]].split()),
            "object_positions": tuple(i for i, r in enumerate(roles) if r == "object"),
            "clue_positions": tuple(i for i, r in enumerate(roles)
                                    if r in ("subject_clue", "predicate_clue")),
        })
    return out


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def _full_forward(params: dict, tokens: tuple[int, ...], pad_id: int):
    """(h2, probs) of one sequence, with probs the n x V head softmax of every row."""
    d = params["tok_emb"].shape[1]
    x = np.stack([params["tok_emb"][t] + params["pos_emb"][i] for i, t in enumerate(tokens)])
    q, k, v = x @ params["wq"], x @ params["wk"], x @ params["wv"]
    keys = [j for j, t in enumerate(tokens) if t != pad_id]
    h1 = np.empty_like(x)
    for i in range(len(tokens)):
        weights = _softmax_rows(np.array([q[i] @ k[j] / math.sqrt(d) for j in keys]))
        ctx = sum(w * v[j] for w, j in zip(weights, keys))
        h1[i] = x[i] + ctx @ params["wo"]
    hidden = np.maximum(h1 @ params["w1"] + params["b1"], 0.0)
    h2 = h1 + hidden @ params["w2"] + params["b2"]
    probs = _softmax_rows(h2 @ params["tok_emb"].T + params["lm_bias"])
    return h2, probs


def predict_fill_oracle(state: ModelState, batch) -> list[list[int]]:
    """Each sequence's answer ids at its mask positions, from the full head
    softmax with the sentinels at -1 and ties to the lowest id.  A
    non-finite probability raises ``DataError``.  ``h2`` comes from
    ``model._forward``, which ``_full_forward`` checks on its own, so that
    the head and the argmax are all that differ from the model."""
    toks = np.asarray(batch, dtype=np.int64)
    h2 = _forward(state, toks, np.nonzero(toks == MASK_ID), head=False)["h2"]
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _softmax_rows(h2 @ state.tok_emb.T + state.lm_bias)
    if not np.isfinite(probs).all():
        raise DataError("non-finite head softmax")
    probs[:, [PAD_ID, MASK_ID, UNK_ID]] = -1.0
    answers = []
    for row in probs:
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:
                best = j
        answers.append(best)
    counts = [list(seq).count(MASK_ID) for seq in batch]
    return [answers[sum(counts[:i]):sum(counts[:i + 1])] for i in range(len(counts))]


def full_head_losses_oracle(params: dict, item, pad_id: int) -> tuple[float, float, float]:
    """(L_mlm, L_con, L_cls) of a (keep,), (keep, drop) or (keep, drop, random) item.

    Every member is scored at the keep input's mask positions and targets;
    L_con and L_cls are 0 when the item has no drop or random member.
    """
    members = list(item)
    at = list(zip(members[0].mask_positions, members[0].targets))
    runs = [_full_forward(params, m.input_tokens, pad_id) for m in members]

    def truth(probs) -> list[float]:
        return [probs[p, t] for p, t in at]

    l_mlm = -sum(math.log(pr) for pr in truth(runs[0][1])) / len(at)
    l_con = 0.0
    if len(runs) > 1:
        l_con = sum(truth(runs[1][1])) / len(at) - sum(truth(runs[0][1])) / len(at)
    l_cls = 0.0
    if len(runs) == 3:
        nll = 0.0
        for label, (h2, _probs) in enumerate(runs):
            for p, _t in at:
                nll -= math.log(_softmax_rows(h2[p] @ params["w_cls"])[label])
        l_cls = nll / (3 * len(at))
    return l_mlm, l_con, l_cls


def finite_diff_check(
    state: ModelState,
    item: tuple[MaskedSample, ...],
    eps: float = 1e-5,
    coeffs: tuple[float, float, float] = (1.0, 1.0, 1.0),
    min_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of analytic gradients against central differences.

    Samples at least ``min_coords`` coordinates spread over every parameter
    group in proportion to its size (small groups are checked exhaustively).
    """
    if not 0 < eps <= 1e-3:
        raise ValueError("eps must be in (0, 1e-3]")
    _losses, grads = loss_and_grad(state, item, coeffs)
    params = state.params()
    total = sum(arr.size for arr in params.values())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, arr in params.items():
        share = max(8, math.ceil(min_coords * arr.size / total))
        if arr.size <= share:
            picks = np.arange(arr.size)
        else:
            picks = rng.choice(arr.size, size=share, replace=False)
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in picks:
            idx = int(idx)
            original = flat[idx]
            flat[idx] = original + eps
            (_, _, _, up), _ = loss_and_grad(state, item, coeffs)
            flat[idx] = original - eps
            (_, _, _, down), _ = loss_and_grad(state, item, coeffs)
            flat[idx] = original
            numeric = (up - down) / (2.0 * eps)
            analytic = gflat[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, err)
    return worst


def train_oracle(config: ModelConfig, items: list, steps: int, lr: float) -> ModelState:
    """Gradient descent over ``items`` in turn, as ``model.train`` defines it."""
    state = init(config)
    coeffs = (1.0, config.lambda_con, config.lambda_cls)
    for step in range(steps):
        _losses, grads = loss_and_grad(state, items[step % len(items)], coeffs)
        for name, arr in state.params().items():
            arr -= lr * grads[name]
    return state


def _int_list_oracle(obj: dict, key: str, name: str, line_no: int) -> list[int]:
    values = _require(obj, key, list, name, line_no)
    if not {int}.issuperset(map(type, values)):
        raise MalformedLine(name, line_no, f"key {key!r} must be a list of integers")
    return values


def _int64_array_oracle(obj: dict, key: str, name: str, line_no: int) -> array:
    try:
        return array("q", _int_list_oracle(obj, key, name, line_no))
    except OverflowError:
        raise MalformedLine(name, line_no, f"key {key!r} must hold 64-bit integers") from None


def read_masked_oracle(path) -> list[MaskedSample]:
    """Every line of a masked file, each line's input ids as an int64 array."""
    name = str(path)
    out: list[MaskedSample] = []
    for line_no, obj in read_jsonl(path):
        doc_id = _require(obj, "doc_id", str, name, line_no)
        try:
            variant = Variant(_require(obj, "variant", str, name, line_no))
            scheme = MaskScheme(_require(obj, "scheme", str, name, line_no))
        except ValueError as exc:
            raise MalformedLine(name, line_no, str(exc)) from None
        ids = _int64_array_oracle(obj, "input_ids", name, line_no)
        positions = tuple(_int_list_oracle(obj, "mask_positions", name, line_no))
        targets = tuple(_int64_array_oracle(obj, "targets", name, line_no))
        if len(positions) != len(targets):
            raise MalformedLine(name, line_no, "mask_positions and targets differ in length")
        if not all(0 <= p < len(ids) for p in positions):
            raise MalformedLine(name, line_no, "mask_positions must index input_ids")
        out.append(MaskedSample(doc_id, ids, positions, targets, variant, scheme))
    return out


def group_items_oracle(masked: list[MaskedSample]) -> list[tuple[MaskedSample, ...]]:
    """A keep_clues line followed by a mask_clues line (and optionally a
    mask_random line) for the same doc forms one tuple; every other line is
    a tuple of its own.  A tuple whose inputs differ in length raises
    ``DataError``."""
    items: list[tuple[MaskedSample, ...]] = []
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
            size = 2
            if (
                i + 2 < n
                and masked[i + 2].variant is Variant.MASK_RANDOM
                and masked[i + 2].doc_id == m.doc_id
            ):
                size = 3
            group = tuple(masked[i:i + size])
            if any(len(g.input_tokens) != len(m.input_tokens) for g in group):
                raise DataError(f"{m.doc_id}: the inputs of a contrastive group differ in length")
            items.append(group)
            i += size
        else:
            items.append((m,))
            i += 1
    return items


def check_token_ids_oracle(masked: list[MaskedSample], vocab_size: int, data_path,
                           vocab_path) -> int:
    """The longest input in ``masked``; any input id or target outside the
    vocabulary raises ``DataError``."""
    longest = 0
    for m in masked:
        for ids in (m.input_tokens, m.targets):
            if ids and (min(ids) < 0 or max(ids) >= vocab_size):
                raise DataError(f"{data_path}: {m.doc_id} has a token id outside the "
                                f"{vocab_size}-token vocabulary {vocab_path}")
        longest = max(longest, len(m.input_tokens))
    return longest


def write_masked_oracle(path, samples) -> int:
    """Each sample as one ``json.dumps`` line of its dict."""
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
