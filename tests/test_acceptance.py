"""End-to-end acceptance checks for the whole pipeline.

Each test covers one headline guarantee: alignment equivalence against the
exhaustive reference, exact dataset statistics, masking budget parity at
scale, gradient correctness, the two training objectives on held-out facts,
probe consistency of deterministic versus random pretraining, hand-computed
metric fixtures, and large-corpus throughput with thread invariance.

Every test prints a single PASS or FAIL line (visible with ``pytest -s``)
so the suite doubles as a checklist.
"""

from __future__ import annotations

import time
from functools import lru_cache
from random import Random
from statistics import median

import numpy as np

from detmask.align import Aligner, Paragraph, build_dataset
from detmask.errors import InsufficientContext
from detmask.formats import write_samples
from detmask.kb import Triplet, build_kb
from detmask.masking import (
    PAD_ID,
    MaskScheme,
    Vocabulary,
    apply_mask,
    make_classification_triple,
    make_contrastive_pair,
    tokenize_groups,
)
from detmask.model import ModelConfig, init, train
from detmask.probe import Fact, Template, build_questions, evaluate, run_model
from detmask.tokenizer import token_spans
from oracles import (
    _full_forward,
    align_paragraph_oracle,
    context_positions_oracle,
    finite_diff_check,
    sample_to_tuples,
)
from worldgen import make_world, random_tokenized_sample

FILLERS = (
    "plainly", "there", "maybe", "soon", "truly",
    "now", "indeed", "too", "quietly", "again",
)


def _report(label: str, ok: bool, detail: str) -> bool:
    print(f"[{label}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1/9: the alignment engine agrees with the exhaustive reference procedure.


def test_alignment_matches_reference_procedure_on_random_worlds():
    """Fifty random worlds, compared span for span, in under 30 seconds."""
    rng = np.random.default_rng(777)
    started = time.perf_counter()
    engine_s = 0.0
    oracle_s = 0.0
    mismatches = 0
    counter_mismatches = 0
    for trial in range(50):
        if trial % 10 == 9:
            sizes = dict(
                n_entities=int(rng.integers(10, 17)),
                n_predicates=int(rng.integers(4, 8)),
                n_triplets=int(rng.integers(30, 71)),
                n_paragraphs=int(rng.integers(10, 21)),
            )
        else:
            sizes = dict(
                n_entities=int(rng.integers(3, 10)),
                n_predicates=int(rng.integers(2, 6)),
                n_triplets=int(rng.integers(4, 20)),
                n_paragraphs=int(rng.integers(1, 8)),
            )
        kb, corpus = make_world(rng, **sizes)
        t0 = time.perf_counter()
        result = build_dataset(corpus, kb)
        aligner = Aligner(kb)
        engine_s += time.perf_counter() - t0
        by_doc = {s.paragraph.doc_id: s for s in result.span_samples}
        total_candidates = 0
        total_nondet = 0
        for paragraph in corpus:
            t0 = time.perf_counter()
            entities, aligned, counters = align_paragraph_oracle(paragraph, kb)
            oracle_s += time.perf_counter() - t0
            total_candidates += counters["candidates"]
            total_nondet += counters["non_deterministic"]
            if paragraph.doc_id in by_doc:
                got = sample_to_tuples(by_doc[paragraph.doc_id])
            else:
                t0 = time.perf_counter()
                got = sample_to_tuples(aligner.align(paragraph))
                engine_s += time.perf_counter() - t0
            if got != (entities, aligned):
                mismatches += 1
        engine = (result.counters.candidates, result.counters.non_deterministic)
        if engine != (total_candidates, total_nondet):
            counter_mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and counter_mismatches == 0 and elapsed < 30.0
    assert _report(
        "acceptance 1/9",
        ok,
        f"reference equivalence on 50 worlds: {mismatches} span mismatches, "
        f"{counter_mismatches} counter mismatches, {elapsed:.1f}s (limit 30s; "
        f"engine {engine_s:.2f}s, oracle {oracle_s:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 2/9: dataset statistics are exact on a corpus built to a known answer.


def test_nondeterministic_fraction_is_exact_on_crafted_corpus():
    """46 of 100 mentioned pairs carry a second object, so the fraction is 0.46."""
    n, extra = 100, 46
    triplets = [Triplet(f"S{i}", "P", f"O{i}") for i in range(n)]
    triplets += [Triplet(f"S{i}", "P", f"X{i}") for i in range(extra)]
    entities = {f"S{i}": (f"s{i}",) for i in range(n)}
    entities.update({f"O{i}": (f"o{i}",) for i in range(n)})
    entities.update({f"X{i}": (f"x{i}",) for i in range(extra)})
    kb = build_kb(triplets, entities, {"P": ("guards",)})
    corpus = [Paragraph(f"p{i}", f"s{i} guards o{i}") for i in range(n)]
    result = build_dataset(corpus, kb)
    fraction = result.counters.non_deterministic / result.counters.candidates
    ok = (
        fraction == extra / n
        and result.counters.candidates == n
        and len(result.deterministic_samples) == n - extra
    )
    assert _report(
        "acceptance 2/9",
        ok,
        f"non-deterministic fraction {fraction} over "
        f"{result.counters.candidates} candidates (expected exactly {extra / n})",
    )


# ---------------------------------------------------------------------------
# 3/9: masking budgets and reconstruction hold over ten thousand samples.


def _restored(masked) -> tuple[int, ...]:
    tokens = list(masked.input_tokens)
    for pos, tok in zip(masked.mask_positions, masked.targets):
        tokens[pos] = tok
    return tuple(tokens)


def test_masking_budgets_hold_across_ten_thousand_samples():
    """Every scheme masks exactly its budget and never corrupts the sequence."""
    rng = np.random.default_rng(31337)
    violations = 0

    def check(condition: bool) -> None:
        nonlocal violations
        if not condition:
            violations += 1

    for trial in range(10_000):
        sample = random_tokenized_sample(rng)
        mask_rng = Random(f"91/{trial}")

        det = apply_mask(sample, MaskScheme.DETERMINISTIC, mask_rng)
        check(det.mask_positions == sample.object_positions)
        check(_restored(det) == sample.tokens)

        rand = apply_mask(sample, MaskScheme.RANDOM_TOKEN, mask_rng)
        check(len(rand.mask_positions) == len(sample.object_positions))
        check(len(set(rand.mask_positions)) == len(rand.mask_positions))
        check(_restored(rand) == sample.tokens)

        words: list[list[int]] = []
        for i in range(len(sample.tokens)):
            if sample.word_boundaries[i] or not words:
                words.append([i])
            else:
                words[-1].append(i)
        whole = apply_mask(sample, MaskScheme.WHOLE_WORD, mask_rng)
        hit = [w for w in words if set(w) & set(whole.mask_positions)]
        check(len(hit) == sample.object_word_count)
        check(all(set(w) <= set(whole.mask_positions) for w in hit))
        check(_restored(whole) == sample.tokens)

        if sample.entity_token_spans:
            span = apply_mask(sample, MaskScheme.SALIENT_SPAN, mask_rng)
            a, b = span.mask_positions[0], span.mask_positions[-1] + 1
            check((a, b) in sample.entity_token_spans)
            check(span.mask_positions == tuple(range(a, b)))

        keep, drop = make_contrastive_pair(sample)
        check(keep.mask_positions == sample.object_positions)
        check(set(drop.mask_positions)
              == set(sample.object_positions) | set(sample.clue_positions))

        eligible = context_positions_oracle(sample)
        if len(eligible) < len(sample.clue_positions):
            try:
                make_classification_triple(sample, mask_rng)
                check(False)
            except InsufficientContext:
                pass
            continue
        kept, dropped, randomized = make_classification_triple(sample, mask_rng)
        check(kept.mask_positions == sample.object_positions)
        check(len(dropped.mask_positions) == len(randomized.mask_positions))
        check(set(randomized.mask_positions) >= set(sample.object_positions))
        check(not set(randomized.mask_positions) & sample.foreign_clue_positions)
        filler = set(randomized.mask_positions) - set(sample.object_positions)
        check(not filler & set(sample.clue_positions))
        check(all(_restored(m) == sample.tokens for m in (kept, dropped, randomized)))

    ok = violations == 0
    assert _report(
        "acceptance 3/9",
        ok,
        f"masking parity over 10000 samples: {violations} violations",
    )


# ---------------------------------------------------------------------------
# 4/9: analytic gradients match finite differences for every loss term.


def _sample_triple(rng: np.random.Generator, mask_rng: Random):
    while True:
        sample = random_tokenized_sample(rng, vocab_size=50, max_len=32)
        try:
            return make_classification_triple(sample, mask_rng)
        except InsufficientContext:
            continue


def test_gradients_match_finite_differences_for_every_loss_term():
    """Fill, contrast, and classification terms, alone and combined."""
    rng, mask_rng = np.random.default_rng(8), Random(8)
    config = ModelConfig(vocab_size=50, d=8, max_len=32, seed=3)
    state = init(config)
    started = time.perf_counter()
    worst = 0.0
    for coeffs in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)):
        for _ in range(2):
            item = _sample_triple(rng, mask_rng)
            err = finite_diff_check(
                state, item, coeffs=coeffs, min_coords=200, seed=11
            )
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    assert _report(
        "acceptance 4/9",
        ok,
        f"max relative gradient error {worst:.2e} (limit 1e-4), {elapsed:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# Shared world for the two training objectives: 200 facts over 100 subjects,
# with the object fully determined by which of the two predicates appears.


@lru_cache(maxsize=1)
def _fact_world():
    n_subjects = 100
    predicates = ("guards", "feeds")
    objects = ("zeta", "iota")
    combos = [(i, k) for i in range(n_subjects) for k in range(2)]
    triplets = [Triplet(f"S{i}", f"P{k}", f"O{k}") for i, k in combos]
    entities = {f"S{i}": (f"s{i}",) for i in range(n_subjects)}
    entities.update({f"O{k}": (objects[k],) for k in range(2)})
    kb = build_kb(triplets, entities, {f"P{k}": (predicates[k],) for k in range(2)})
    rng = np.random.default_rng(42)
    corpora = []
    for j in range(2):
        paragraphs = []
        for i, k in combos:
            f1, f2 = rng.choice(len(FILLERS), size=2, replace=False)
            paragraphs.append(
                Paragraph(
                    f"v{j}_{i}_{k}",
                    f"{FILLERS[f1]} s{i} {predicates[k]} {objects[k]} {FILLERS[f2]}",
                )
            )
        corpora.append(paragraphs)
    vocab = Vocabulary.build(token_spans(p.text) for c in corpora for p in c)
    pools = []
    for paragraphs in corpora:
        result = build_dataset(paragraphs, kb)
        assert len(result.deterministic_samples) == len(combos)
        pools.append([tokenize_groups(s, token_spans(s.paragraph.text), vocab)[0] for s in result.deterministic_samples])
    order = np.random.default_rng(7).permutation(len(combos))
    return vocab, pools, tuple(int(i) for i in order[:160]), tuple(int(i) for i in order[160:])


# 5/9: contrastive training puts more mass on the answer when clues are kept.


def test_contrastive_training_separates_kept_and_dropped_clue_inputs():
    """On held-out facts the kept-clue pass must beat the dropped-clue pass."""
    vocab, pools, train_idx, held_idx = _fact_world()
    pairs = [[make_contrastive_pair(s) for s in pool] for pool in pools]
    train_items = [pairs[j][i] for i in train_idx for j in range(2)]
    held_out = [pairs[j][i] for i in held_idx for j in range(2)]
    config = ModelConfig(
        vocab_size=vocab.size, d=16, max_len=8, seed=0, lambda_con=1.0, lambda_cls=0.0
    )
    state, _ = train(config, train_items, steps=5000, lr=0.12)
    wins = 0
    for keep, drop in held_out:
        at = (list(keep.mask_positions), list(keep.targets))
        p_keep = _full_forward(state.params(), keep.input_tokens, PAD_ID)[1][at].mean()
        p_drop = _full_forward(state.params(), drop.input_tokens, PAD_ID)[1][at].mean()
        wins += p_keep > p_drop
    rate = wins / len(held_out)
    ok = rate >= 0.90
    assert _report(
        "acceptance 5/9",
        ok,
        f"kept clues beat dropped clues on {rate:.1%} of {len(held_out)} "
        f"held-out pairs (need 90%)",
    )


# 6/9: the classification head labels kept, dropped, and randomized inputs.


def test_classifier_labels_input_conditions_on_held_out_facts():
    """Three-way condition accuracy on facts excluded from training."""
    vocab, pools, train_idx, held_idx = _fact_world()
    triple_rng = Random(11)
    triples = [[make_classification_triple(s, triple_rng) for s in pool] for pool in pools]
    train_items = [triples[j][i] for i in train_idx for j in range(2)]
    held_out = [triples[j][i] for i in held_idx for j in range(2)]
    config = ModelConfig(
        vocab_size=vocab.size, d=16, max_len=8, seed=0, lambda_con=0.0, lambda_cls=1.0
    )
    state, _ = train(config, train_items, steps=5000, lr=0.08)
    correct = 0
    total = 0
    for keep, drop, randomized in held_out:
        for label, masked in enumerate((keep, drop, randomized)):
            hidden, _probs = _full_forward(state.params(), masked.input_tokens, PAD_ID)
            logits = hidden[list(keep.mask_positions)] @ state.w_cls
            shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = (shifted / shifted.sum(axis=1, keepdims=True)).mean(axis=0)
            correct += int(probs.argmax() == label)
            total += 1
    accuracy = correct / total
    ok = accuracy >= 0.90
    assert _report(
        "acceptance 6/9",
        ok,
        f"held-out condition accuracy {accuracy:.1%} over {total} inputs (need 90%)",
    )


# ---------------------------------------------------------------------------
# 7/9: deterministic pretraining answers probes more consistently than
# random-token pretraining on a world of one-object relations.


def test_deterministic_pretraining_yields_more_consistent_probe_answers():
    """Median consistency gap over three seeds must be at least 5 points."""
    started = time.perf_counter()
    n_subjects = 97
    predicates = ("guards", "feeds", "carries")
    objects = ("zeta", "iota", "kappa")
    combos = [(i, k) for i in range(n_subjects) for k in range(3)]
    triplets = [Triplet(f"S{i}", f"P{k}", f"O{k}") for i, k in combos]
    entities = {f"S{i}": (f"s{i}",) for i in range(n_subjects)}
    entities.update({f"O{k}": (objects[k],) for k in range(3)})
    kb = build_kb(triplets, entities, {f"P{k}": (predicates[k],) for k in range(3)})
    rng = np.random.default_rng(42)
    paragraphs = []
    for i, k in combos:
        f1, f2 = rng.choice(len(FILLERS), size=2, replace=False)
        paragraphs.append(
            Paragraph(
                f"p{i}_{k}",
                f"{FILLERS[f1]} s{i} {predicates[k]} {objects[k]} {FILLERS[f2]}",
            )
        )
    vocab = Vocabulary.build(token_spans(p.text) for p in paragraphs)
    result = build_dataset(paragraphs, kb)
    samples = [tokenize_groups(s, token_spans(s.paragraph.text), vocab)[0] for s in result.deterministic_samples]
    assert len(samples) == len(combos)

    templates = [
        Template("P0", "[X] guards [Y] now"),
        Template("P0", "truly [X] guards [Y]"),
        Template("P1", "[X] feeds [Y] now"),
        Template("P1", "truly [X] feeds [Y]"),
        Template("P2", "[X] carries [Y] now"),
        Template("P2", "truly [X] carries [Y]"),
    ]
    facts = [
        Fact(Triplet(f"S{i}", f"P{k}", f"O{k}"), f"s{i}", objects[k]) for i, k in combos
    ]
    questions = build_questions(templates, facts)

    scores = {MaskScheme.DETERMINISTIC: [], MaskScheme.RANDOM_TOKEN: []}
    for seed in range(3):
        for scheme in scores:
            mask_rng = Random(100 + seed)
            items = [(apply_mask(s, scheme, mask_rng),) for s in samples]
            config = ModelConfig(vocab_size=vocab.size, d=16, max_len=8, seed=seed)
            state, _ = train(config, items, steps=3000, lr=0.1)
            report = evaluate(questions, run_model(state, vocab, questions))
            scores[scheme].append(report.total.consistency)
    det = median(scores[MaskScheme.DETERMINISTIC])
    rnd = median(scores[MaskScheme.RANDOM_TOKEN])
    elapsed = time.perf_counter() - started
    ok = det - rnd >= 0.05 and elapsed < 600.0
    assert _report(
        "acceptance 7/9",
        ok,
        f"median consistency {det:.3f} (deterministic) vs {rnd:.3f} (random token), "
        f"gap {det - rnd:+.3f} (need +0.05), {elapsed:.0f}s (limit 600s)",
    )


# ---------------------------------------------------------------------------
# 8/9: probe metrics reproduce hand-computed values on crafted fixtures.
#
# Each case lists (gold surface, answers per prompt) per fact, with expected
# accuracy, consistency, and joint given as exact fractions. Answers with
# several tokens are written space-separated.

METRIC_CASES = [
    ("two facts, one stable one flipping", [("a", ["a", "a", "a"]), ("a", ["a", "b", "b"])],
     (4, 6), (4, 6), (1, 2)),
    ("single correct prompt has no pairs", [("a", ["a"])], (1, 1), (0, 0), (1, 1)),
    ("single wrong prompt", [("a", ["b"])], (0, 1), (0, 0), (0, 1)),
    ("agreement without correctness", [("a", ["b", "b"])], (0, 2), (1, 1), (0, 1)),
    ("disagreement with one hit", [("a", ["a", "b"])], (1, 2), (0, 1), (0, 1)),
    ("everything right", [("a", ["a", "a"]), ("b", ["b", "b"])], (4, 4), (2, 2), (2, 2)),
    ("three distinct answers", [("a", ["a", "b", "c"])], (1, 3), (0, 3), (0, 1)),
    ("two camps of two", [("a", ["a", "a", "b", "b"])], (2, 4), (2, 6), (0, 1)),
    ("pair counts pool across facts", [("a", ["a"]), ("b", ["b", "b"])],
     (3, 3), (1, 1), (2, 2)),
    ("pooling is not a per-fact average", [("a", ["x", "y", "z"]), ("b", ["b", "b"])],
     (2, 5), (1, 4), (1, 2)),
    ("case folds before comparison", [("Paris", ["PARIS", "Paris"])], (2, 2), (1, 1), (1, 1)),
    ("multi-token answers", [("new york", ["new york", "new york"])],
     (2, 2), (1, 1), (1, 1)),
    ("multi-token near miss", [("new york", ["new jersey", "new york"])],
     (1, 2), (0, 1), (0, 1)),
    ("multi-token agreement without truth", [("new york", ["old york", "old york"])],
     (0, 2), (1, 1), (0, 1)),
    ("joint needs every prompt right",
     [("a", ["a", "a"]), ("b", ["b", "x"]), ("c", ["c", "c"])],
     (5, 6), (2, 3), (2, 3)),
    ("consistently wrong everywhere", [("a", ["z", "z"]), ("b", ["z", "z"])],
     (0, 4), (2, 2), (0, 2)),
    ("one stray answer per fact", [("a", ["a", "a", "x"]), ("b", ["b", "y", "b"])],
     (4, 6), (2, 6), (0, 2)),
    ("four identical answers", [("a", ["a", "a", "a", "a"])], (4, 4), (6, 6), (1, 1)),
    ("majority of five", [("a", ["a", "a", "a", "b", "c"])], (3, 5), (3, 10), (0, 1)),
    ("token order matters", [("new york", ["new york", "york new"]), ("a", ["a"])],
     (2, 3), (0, 1), (1, 2)),
    ("half the facts nailed, half inverted",
     [("a", ["b", "b", "b"]), ("c", ["c", "c", "c"])], (3, 6), (6, 6), (1, 2)),
    ("wrong arity still compares as tuples", [("a", ["x y", "x y"])],
     (0, 2), (1, 1), (0, 1)),
]


def test_probe_metrics_match_hand_computed_fixtures():
    """22 crafted prediction sets with exact expected metric values."""
    failures = []
    for name, fact_rows, acc, cons, joint in METRIC_CASES:
        questions = []
        predictions = {}
        for row, (gold, answers) in enumerate(fact_rows):
            fact = Fact(Triplet(f"S{row}", "P", f"O{row}"), f"s{row}", gold)
            template = Template("P", "[X] maps to [Y]")
            fact_questions = build_questions([template] * len(answers), [fact])
            for question, answer in zip(fact_questions, answers):
                questions.append(question)
                predictions[question.question_id] = answer.split()
        report = evaluate(questions, predictions)
        expected = tuple(n / d if d else 0.0 for n, d in (acc, cons, joint))
        got = (report.total.accuracy, report.total.consistency, report.total.joint)
        if got != expected:
            failures.append(f"{name}: expected {expected}, got {got}")
    ok = not failures
    assert _report(
        "acceptance 8/9",
        ok,
        f"{len(METRIC_CASES) - len(failures)}/{len(METRIC_CASES)} metric fixtures exact"
        + ("" if ok else "; first failure: " + failures[0]),
    )


# ---------------------------------------------------------------------------
# 9/9: alignment scales to a large corpus and is invariant to thread count.


def test_alignment_scales_to_large_corpus_and_is_thread_invariant(tmp_path):
    """10000 paragraphs of ~150 tokens against 10000 triplets, serial and 4-way."""
    filler = (
        "the", "old", "story", "says", "that", "a", "quiet", "road", "runs",
        "past", "every", "spring", "festival", "here", "and", "people",
        "recall", "it", "fondly", "still",
    )
    n_entities, n_predicates, n_triplets, n_paragraphs = 2000, 10, 10_000, 10_000
    rng = np.random.default_rng(2026)
    entities = {f"E{i}": (f"ent{i}",) for i in range(n_entities)}
    seen = set()
    triplets = []
    while len(triplets) < n_triplets:
        s, o = (int(x) for x in rng.integers(n_entities, size=2))
        k = int(rng.integers(n_predicates))
        if s != o and (s, k) not in seen:
            seen.add((s, k))
            triplets.append(Triplet(f"E{s}", f"P{k}", f"E{o}"))
    kb = build_kb(
        triplets, entities, {f"P{k}": (f"pred{k}",) for k in range(n_predicates)}
    )
    paragraphs = []
    for j in range(n_paragraphs):
        words: list[str] = []
        while len(words) < 140:
            words.extend(filler[int(rng.integers(len(filler)))] for _ in range(6))
            t = triplets[int(rng.integers(n_triplets))]
            words.append(f"ent{t.subject[1:]}")
            words.append(f"pred{t.predicate[1:]}")
            words.append(f"ent{t.object[1:]}")
        paragraphs.append(Paragraph(f"para{j}", " ".join(words)))
    mean_tokens = sum(len(p.text.split()) for p in paragraphs) / n_paragraphs

    started = time.perf_counter()
    serial = build_dataset(paragraphs, kb)
    elapsed = time.perf_counter() - started
    parallel = build_dataset(paragraphs, kb, threads=4)

    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    write_samples(str(serial_path), serial.deterministic_samples + serial.span_samples)
    write_samples(str(parallel_path), parallel.deterministic_samples + parallel.span_samples)
    identical = serial_path.read_bytes() == parallel_path.read_bytes()

    ok = elapsed < 60.0 and identical
    assert _report(
        "acceptance 9/9",
        ok,
        f"{n_paragraphs} paragraphs ({mean_tokens:.0f} tokens each) aligned in "
        f"{elapsed:.1f}s single-threaded (limit 60s); 4-thread output "
        f"{'byte-identical' if identical else 'DIFFERS'}",
    )
