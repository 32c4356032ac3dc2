"""Model numerics: forward, losses, gradients, training, checkpoints."""

from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detmask.model
from detmask.cli import main
from detmask.errors import DataError, DetmaskError, InsufficientContext, NonFiniteLoss
from detmask.masking import (
    MASK_ID,
    PAD_ID,
    UNK_ID,
    MaskScheme,
    MaskedSample,
    Variant,
    Vocabulary,
    apply_mask,
    make_classification_triple,
    make_contrastive_pair,
)
from detmask.model import (
    _forward,
    ModelConfig,
    ModelState,
    init,
    load_checkpoint,
    loss_and_grad,
    predict_fill,
    save_checkpoint,
    train,
)
from oracles import (_full_forward, finite_diff_check, full_head_losses_oracle,
                     predict_fill_oracle, train_oracle)
from worldgen import random_tokenized_sample


def zero_state(v: int = 6, d: int = 4, max_len: int = 8) -> ModelState:
    h = 4 * d
    return ModelState(
        tok_emb=np.zeros((v, d)),
        pos_emb=np.zeros((max_len, d)),
        wq=np.zeros((d, d)),
        wk=np.zeros((d, d)),
        wv=np.zeros((d, d)),
        wo=np.zeros((d, d)),
        w1=np.zeros((d, h)),
        b1=np.zeros(h),
        w2=np.zeros((h, d)),
        b2=np.zeros(d),
        lm_bias=np.zeros(v),
        w_cls=np.zeros((d, 3)),
    )


def masked(inputs, positions, targets, variant=Variant.PLAIN) -> MaskedSample:
    return MaskedSample("t", tuple(inputs), tuple(positions), tuple(targets),
                        variant, MaskScheme.DETERMINISTIC)


def sample_triple(seed: int, vocab_size: int = 30):
    """A classification triple from a generated sample that supports one."""
    rng, mask_rng = np.random.default_rng(seed), Random(seed)
    for _ in range(50):
        sample = random_tokenized_sample(rng, vocab_size=vocab_size, max_len=20)
        try:
            return make_classification_triple(sample, mask_rng)
        except InsufficientContext:
            continue
    raise AssertionError("generator never produced a usable sample")


class TestInit:
    def test_deterministic_and_shaped(self):
        cfg = ModelConfig(vocab_size=10, d=4, max_len=12, seed=9)
        a, b = init(cfg), init(cfg)
        for name, arr in a.params().items():
            assert np.array_equal(arr, b.params()[name]), name
            assert arr.dtype == np.float64
        assert a.tok_emb.shape == (10, 4)
        assert a.pos_emb.shape == (12, 4)
        assert a.w1.shape == (4, 16) and a.w2.shape == (16, 4)
        assert a.w_cls.shape == (4, 3)
        assert np.all(a.b1 == 0) and np.all(a.lm_bias == 0)

    def test_seed_changes_weights(self):
        a = init(ModelConfig(vocab_size=10, d=4, seed=0))
        b = init(ModelConfig(vocab_size=10, d=4, seed=1))
        assert not np.array_equal(a.tok_emb, b.tok_emb)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            init(ModelConfig(vocab_size=10, d=1))
        with pytest.raises(ValueError):
            init(ModelConfig(vocab_size=3))


def head_probs(state: ModelState, tokens) -> np.ndarray:
    """The model's vocabulary distribution at every position of ``tokens``:
    entry (i, t) is exp(-L_mlm) of filling position i with token t."""
    out = np.empty((len(tokens), state.tok_emb.shape[0]))
    for i, t in np.ndindex(out.shape):
        (l_mlm, _, _, _), _ = loss_and_grad(state, (masked(tokens, [i], [t]),), (1, 0, 0))
        out[i, t] = math.exp(-l_mlm)
    return out


class TestForward:
    def test_rows_sum_to_one(self):
        state = init(ModelConfig(vocab_size=12, d=4, max_len=10, seed=2))
        probs = head_probs(state, [3, 4, 5, 1])
        assert probs.shape == (4, 12)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_zero_state_is_uniform(self):
        probs = head_probs(zero_state(), [3, 1, 4])
        np.testing.assert_allclose(probs, np.full((3, 6), 1 / 6), rtol=0, atol=1e-15)

    def test_pad_keys_do_not_affect_other_positions(self):
        state = init(ModelConfig(vocab_size=12, d=4, max_len=10, seed=3))
        short, padded = [3, 4, 5], [3, 4, 5, PAD_ID, PAD_ID]
        np.testing.assert_array_equal(head_probs(state, short), head_probs(state, padded)[:3])
        # The classifier reads the contextual embedding at each position.
        for i in range(3):
            l_cls = [loss_and_grad(state, (masked(toks, [i], [3]),) * 3, (0, 0, 1))[0][2]
                     for toks in (short, padded)]
            assert l_cls[0] == l_cls[1]

    def test_sequence_too_long(self):
        state = init(ModelConfig(vocab_size=12, d=4, max_len=4, seed=0))
        with pytest.raises(DataError, match="sequence of 5 tokens exceeds max_len 4"):
            loss_and_grad(state, (masked([3] * 5, [0], [3]),), (1, 0, 0))
        with pytest.raises(DataError, match="sequence of 5 tokens exceeds max_len 4"):
            predict_fill(state, [[3, 3, 3, 3, MASK_ID]])

    def test_avg_truth_prob(self):
        # L_con is the arithmetic mean of the truth probabilities at the keep
        # input's mask positions under drop, minus the same under keep.
        state = init(ModelConfig(vocab_size=12, d=4, max_len=10, seed=4))
        keep = masked([3, MASK_ID, MASK_ID, 5], [1, 2], [6, 7])
        drop = masked([MASK_ID, MASK_ID, MASK_ID, 5], [1, 2], [6, 7])
        (_, l_con, _, _), _ = loss_and_grad(state, (keep, drop), (1, 1, 0))
        rows, tgt = [1, 2], [6, 7]
        expected = (head_probs(state, drop.input_tokens)[rows, tgt].mean()
                    - head_probs(state, keep.input_tokens)[rows, tgt].mean())
        assert l_con == pytest.approx(expected, abs=1e-15)
        with pytest.raises(DataError, match="keep input has no mask positions"):
            loss_and_grad(state, (masked([3, 4], [], []),), (1, 0, 0))


class TestLossValues:
    def test_uniform_model_losses_are_exact(self):
        state = zero_state(v=6, d=4, max_len=8)
        keep = masked([3, MASK_ID, 4], [1], [5], Variant.KEEP_CLUES)
        drop = masked([MASK_ID, MASK_ID, 4], [1], [5], Variant.MASK_CLUES)
        rand = masked([3, MASK_ID, MASK_ID], [1], [5], Variant.MASK_RANDOM)
        (l_mlm, l_con, l_cls, l_total), _ = loss_and_grad(
            state, (keep, drop, rand), (1.0, 1.0, 1.0)
        )
        assert l_mlm == pytest.approx(math.log(6), abs=1e-12)
        assert l_con == pytest.approx(0.0, abs=1e-15)
        assert l_cls == pytest.approx(math.log(3), abs=1e-12)
        assert l_total == pytest.approx(math.log(6) + math.log(3), abs=1e-12)

    def test_identical_passes_zero_contrast(self):
        state = init(ModelConfig(vocab_size=10, d=4, seed=5))
        keep = masked([3, MASK_ID, 4], [1], [5])
        (_, l_con, _, _), _ = loss_and_grad(state, (keep, keep), (1, 1, 0))
        assert l_con == 0.0

    def test_contrast_antisymmetric(self):
        state = init(ModelConfig(vocab_size=10, d=4, seed=6))
        a = masked([3, MASK_ID, 4, 5], [1], [6])
        b = masked([MASK_ID, MASK_ID, 4, 5], [1], [6])
        (_, ab, _, _), _ = loss_and_grad(state, (a, b), (1, 1, 0))
        (_, ba, _, _), _ = loss_and_grad(state, (b, a), (1, 1, 0))
        assert ab == pytest.approx(-ba, abs=1e-15)

    def test_zero_weight_drops_component_gradient(self):
        state = init(ModelConfig(vocab_size=10, d=4, seed=7))
        keep = masked([3, MASK_ID, 4], [1], [5])
        drop = masked([MASK_ID, MASK_ID, 4], [1], [5])
        _, g_pair = loss_and_grad(state, (keep, drop), (1.0, 0.0, 0.0))
        _, g_solo = loss_and_grad(state, (keep,), (1.0, 0.0, 0.0))
        for name in g_solo:
            assert np.array_equal(g_pair[name], g_solo[name]), name

    @pytest.mark.parametrize("coeffs", [(1.0, 0.7, 1.3), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    def test_given_buffers_equal_fresh_ones(self, coeffs):
        # Buffers left over from another step are refilled in full, also when
        # no head loss has a gradient and so no head product overwrites tok_emb.
        state = init(ModelConfig(vocab_size=30, d=4, max_len=40, seed=9))
        item = sample_triple(3)
        _, fresh = loss_and_grad(state, item, coeffs)
        stale = {name: np.full_like(g, np.nan) for name, g in fresh.items()}
        _, refilled = loss_and_grad(state, item, coeffs, grads=stale)
        assert refilled is stale
        for name, g in fresh.items():
            assert np.array_equal(refilled[name], g), name

    def test_all_positions_masked_stays_finite(self):
        state = init(ModelConfig(vocab_size=10, d=4, seed=8))
        keep = masked([MASK_ID] * 4, [0, 1, 2, 3], [3, 4, 5, 6])
        (l_mlm, _, _, l_total), grads = loss_and_grad(state, (keep,), (1, 0, 0))
        assert math.isfinite(l_total) and l_mlm > 0
        assert all(np.all(np.isfinite(g)) for g in grads.values())


class TestGradientCheck:
    CFG = dict(eps=1e-5, min_coords=120, seed=1)

    def state_and_item(self):
        state = init(ModelConfig(vocab_size=30, d=8, max_len=24, seed=11))
        return state, sample_triple(31)

    def test_mlm_component(self):
        state, item = self.state_and_item()
        assert finite_diff_check(state, item, coeffs=(1, 0, 0), **self.CFG) < 1e-4

    def test_contrastive_component(self):
        state, item = self.state_and_item()
        assert finite_diff_check(state, item, coeffs=(0, 1, 0), **self.CFG) < 1e-4

    def test_classifier_component(self):
        state, item = self.state_and_item()
        assert finite_diff_check(state, item, coeffs=(0, 0, 1), **self.CFG) < 1e-4

    def test_combined(self):
        state, item = self.state_and_item()
        assert finite_diff_check(state, item, coeffs=(1, 1, 1), **self.CFG) < 1e-4

    def test_with_padding_in_input(self):
        state = init(ModelConfig(vocab_size=12, d=4, max_len=10, seed=13))
        keep = masked([3, MASK_ID, 4, PAD_ID, PAD_ID], [1], [5])
        assert finite_diff_check(state, (keep,), coeffs=(1, 0, 0), **self.CFG) < 1e-4

    def test_repeated_mask_position(self):
        # Each listed position is one loss term, even when a position repeats.
        state, _item = self.state_and_item()
        keep = masked([3, MASK_ID, 4, 5], [1, 1], [5, 6], Variant.KEEP_CLUES)
        drop = masked([MASK_ID, MASK_ID, 4, 5], [1, 1], [5, 6], Variant.MASK_CLUES)
        rand = masked([3, MASK_ID, MASK_ID, 5], [1, 1], [5, 6], Variant.MASK_RANDOM)
        item = (keep, drop, rand)
        assert finite_diff_check(state, item, coeffs=(1, 1, 1), **self.CFG) < 1e-4

    @pytest.mark.parametrize("positions", [[1, 2], [1, 1]])
    def test_every_coordinate_of_a_small_model(self, positions):
        # Small enough (V = 8, d = 4, n = 4) to check all 280 parameters.  A
        # repeated position must send each of its rows back to the
        # embeddings: a scatter that keeps one row per position passes the
        # sampled checks above but not this one.
        state = init(ModelConfig(vocab_size=8, d=4, max_len=4, seed=2))
        rng = np.random.default_rng(3)
        for arr in state.params().values():
            arr += rng.normal(0.0, 0.3, size=arr.shape)
        count = sum(arr.size for arr in state.params().values())
        plain = masked([3, MASK_ID, MASK_ID, 4], positions, [5, 6])
        keep = masked([3, MASK_ID, 4, 5], positions, [5, 6], Variant.KEEP_CLUES)
        drop = masked([MASK_ID, MASK_ID, 4, 5], positions, [5, 6], Variant.MASK_CLUES)
        rand = masked([3, MASK_ID, MASK_ID, 7], positions, [5, 6], Variant.MASK_RANDOM)
        for item in ((plain,), (keep, drop, rand)):
            assert finite_diff_check(state, item, coeffs=(1, 1, 1), eps=1e-4,
                                     min_coords=count) < 1e-4

    def test_one_row_products_equal_matmul(self, monkeypatch):
        # With one mask position the weight products a.T @ b sum nothing, and
        # their broadcast form gives the same gradients, bit for bit.
        state = init(ModelConfig(vocab_size=12, d=8, max_len=6, seed=5))
        for arr in state.params().values():
            arr *= 20.0
        keep = masked([3, MASK_ID, 4, 5, PAD_ID], [1], [6], Variant.KEEP_CLUES)
        drop = masked([MASK_ID, MASK_ID, 4, 5, PAD_ID], [1], [6], Variant.MASK_CLUES)
        rand = masked([3, MASK_ID, MASK_ID, 5, PAD_ID], [1], [6], Variant.MASK_RANDOM)
        _, broadcast = loss_and_grad(state, (keep, drop, rand), (1.0, 1.0, 1.0))
        monkeypatch.setattr(detmask.model, "_rows_product", lambda a, b: a.T @ b)
        _, matmul = loss_and_grad(state, (keep, drop, rand), (1.0, 1.0, 1.0))
        for name, grad in broadcast.items():
            assert np.array_equal(grad, matmul[name]), name
            assert np.any(grad), name

    def test_grad_uses_config_weights(self):
        # One training step moves the weights by lr times the gradient at the
        # config's loss weights.
        config = ModelConfig(vocab_size=10, d=4, seed=7, lambda_con=0.0, lambda_cls=0.0)
        keep = masked([3, MASK_ID, 4], [1], [5])
        drop = masked([MASK_ID, MASK_ID, 4], [1], [5])
        trained, _log = train(config, [(keep, drop)], steps=1, lr=0.5)
        _, expected = loss_and_grad(init(config), (keep, drop), (1.0, 0.0, 0.0))
        for name, arr in init(config).params().items():
            assert np.array_equal(trained.params()[name], arr - 0.5 * expected[name]), name


class TestFullHeadOracle:
    """The losses of the mask-row head equal a full n x V head's."""

    def items(self, rng, mask_rng):
        while True:
            sample = random_tokenized_sample(rng, vocab_size=30, max_len=20)
            scheme = (MaskScheme.DETERMINISTIC, MaskScheme.RANDOM_TOKEN,
                      MaskScheme.WHOLE_WORD)[int(rng.integers(3))]
            try:
                return [(apply_mask(sample, scheme, mask_rng),), make_contrastive_pair(sample),
                        make_classification_triple(sample, mask_rng)]
            except InsufficientContext:
                continue

    def test_losses_match_on_worldgen_items(self):
        rng, mask_rng = np.random.default_rng(17), Random(17)
        checked = 0
        for seed in range(12):
            state = init(ModelConfig(vocab_size=30, d=8, max_len=20, seed=seed))
            for arr in state.params().values():
                arr += rng.normal(0.0, 0.5, size=arr.shape)
            for item in self.items(rng, mask_rng):
                (l_mlm, l_con, l_cls, _), _ = loss_and_grad(state, item, (1, 1, 1))
                expected = full_head_losses_oracle(state.params(), item, PAD_ID)
                assert (l_mlm, l_con, l_cls) == pytest.approx(expected, rel=0, abs=1e-12)
                checked += 1
        assert checked == 36


class TestRowForward:
    """h2 and the head at the read rows equal a forward of every position."""

    def state(self, seed: int) -> ModelState:
        state = init(ModelConfig(vocab_size=12, d=4, max_len=10, seed=seed))
        rng = np.random.default_rng(seed)
        for arr in state.params().values():
            arr += rng.normal(0.0, 0.5, size=arr.shape)
        return state

    def check_rows(self, state, tokens, rows):
        cache = _forward(state, tokens, rows)
        seqs, positions = (np.zeros_like(rows), rows) if np.ndim(tokens) == 1 else rows
        assert cache["h2"].shape == (len(positions), 4)
        for i, (b, p) in enumerate(zip(seqs, positions)):
            h2, probs = _full_forward(state.params(), tuple(np.atleast_2d(tokens)[b]), PAD_ID)
            np.testing.assert_allclose(cache["h2"][i], h2[p], rtol=0, atol=1e-12)
            np.testing.assert_allclose(cache["probs"][i], probs[p], rtol=0, atol=1e-12)

    def test_one_sequence_with_pad_keys_and_repeats(self):
        state = self.state(1)
        tokens = [3, MASK_ID, 4, MASK_ID, PAD_ID, PAD_ID]
        self.check_rows(state, tokens, np.array([1, 3, 1, 0]))

    def test_batch_with_different_mask_counts(self):
        state = self.state(2)
        batch = [[3, MASK_ID, 4, PAD_ID, MASK_ID],
                 [MASK_ID, 5, 6, 7, 8],
                 [PAD_ID, MASK_ID, MASK_ID, MASK_ID, 9]]
        self.check_rows(state, batch, np.nonzero(np.asarray(batch) == MASK_ID))
        # The same sequence twice and a row listed twice.
        self.check_rows(state, [batch[2], batch[2]], (np.array([0, 0, 1]), np.array([2, 2, 3])))

    def test_long_sequence_holds_no_n_by_n_matrix(self):
        # One read row of a 2,048-token sequence: the attention is one row
        # of scores, so a step peaks far below one n x n float64 matrix.
        n = 2048
        state = init(ModelConfig(vocab_size=8, d=4, max_len=n, seed=4))
        tokens = [3 + i % 5 for i in range(n)]
        tokens[7] = MASK_ID
        item = (masked(tokens, [7], [5]),)
        grads = loss_and_grad(state, item, (1, 0, 0))[1]
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            loss_and_grad(state, item, (1, 0, 0), grads=grads)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < (8 * n * n) // 16


class TestTrain:
    def items(self):
        keep = masked([3, 4, MASK_ID, 5], [2], [6], Variant.KEEP_CLUES)
        drop = masked([MASK_ID, MASK_ID, MASK_ID, 5], [2], [6], Variant.MASK_CLUES)
        return [(keep, drop)]

    def test_loss_decreases(self):
        cfg = ModelConfig(vocab_size=10, d=8, max_len=8, seed=0)
        _state, log = train(cfg, self.items(), steps=60, lr=0.5)
        first = np.mean([e.l_total for e in log[:10]])
        last = np.mean([e.l_total for e in log[-10:]])
        assert last < first
        assert [e.step for e in log] == list(range(60))

    def test_training_is_deterministic(self):
        cfg = ModelConfig(vocab_size=10, d=8, max_len=8, seed=4)
        s1, log1 = train(cfg, self.items(), steps=25, lr=0.3)
        s2, log2 = train(cfg, self.items(), steps=25, lr=0.3)
        assert log1 == log2
        for name, arr in s1.params().items():
            assert np.array_equal(arr, s2.params()[name]), name

    def test_zero_learning_rate_keeps_weights(self):
        cfg = ModelConfig(vocab_size=10, d=8, max_len=8, seed=4)
        trained, _log = train(cfg, self.items(), steps=5, lr=0.0)
        fresh = init(cfg)
        for name, arr in trained.params().items():
            assert np.array_equal(arr, fresh.params()[name]), name

    def test_divergence_raises_with_step(self):
        cfg = ModelConfig(vocab_size=10, d=8, max_len=8, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLoss) as info:
                train(cfg, self.items(), steps=200, lr=1e9)
        assert info.value.step >= 1

    def test_empty_items_rejected(self):
        cfg = ModelConfig(vocab_size=10, d=8)
        with pytest.raises(DataError, match="no training items"):
            train(cfg, [], steps=1, lr=0.1)

    def test_non_finite_last_update_raises(self):
        # The loss of the only step is finite; the update that follows is not.
        cfg = ModelConfig(vocab_size=10, d=8, max_len=8, seed=0)
        with pytest.raises(DetmaskError, match="non-finite after step 0"):
            train(cfg, self.items(), steps=1, lr=math.inf)

    def mixed_items(self):
        """A classification triple, a contrastive pair and a plain sample."""
        triple = sample_triple(5)
        return [triple, triple[:2],
                (masked([3, MASK_ID, MASK_ID, 5, 6], [1, 2], [7, 8], Variant.PLAIN),)]

    @pytest.mark.parametrize("lr", [0.0, 0.3])
    def test_matches_reference_loop_bit_for_bit(self, lr):
        # Reused gradient buffers and in-place updates give the same bits as
        # fresh gradients and p -= lr * g, over two passes through the items.
        items = self.mixed_items()
        cfg = ModelConfig(vocab_size=30, d=8, max_len=20, seed=2,
                          lambda_con=0.7, lambda_cls=1.3)
        steps = 2 * len(items) + 1
        trained, _log = train(cfg, items, steps=steps, lr=lr)
        expected = train_oracle(cfg, items, steps, lr)
        for name, arr in trained.params().items():
            assert np.array_equal(arr, expected.params()[name]), name

    def test_peak_memory_holds_one_gradient_set(self):
        # At a wide vocabulary the V x d arrays dominate: training holds the
        # parameters and one set of gradients, and never a V x d temporary on
        # top of them.  The activations of a step stay under three quarters of
        # a V x d array (about 0.4 of one here), so the bound leaves a margin
        # on both sides of a one-array temporary.
        vocab, d = 4608, 64
        cfg = ModelConfig(vocab_size=vocab, d=d, max_len=20, seed=1)
        items = self.mixed_items()
        param_bytes = sum(arr.nbytes for arr in init(cfg).params().values())
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            train(cfg, items, steps=6, lr=0.1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak - 2 * param_bytes < 3 * (8 * vocab * d) // 4


class TestPredictFill:
    def test_memorizes_single_fact(self):
        cfg = ModelConfig(vocab_size=12, d=16, max_len=8, seed=0)
        keep = masked([3, 4, MASK_ID, 5], [2], [7], Variant.KEEP_CLUES)
        state, _ = train(cfg, [(keep,)], steps=150, lr=0.5)
        assert predict_fill(state, [[3, 4, MASK_ID, 5]]) == [[7]]

    def test_uniform_ties_resolve_to_lowest_content_id(self):
        assert predict_fill(zero_state(), [[3, MASK_ID, 4]]) == [[3]]

    def test_positions_in_order(self):
        state = zero_state()
        assert [len(a) for a in predict_fill(state, [[MASK_ID, 3, MASK_ID], [3, 3, MASK_ID]])] \
            == [2, 1]

    def test_no_mask_raises(self):
        with pytest.raises(DataError, match="input has no mask positions"):
            predict_fill(zero_state(), [[3, MASK_ID], [3, 4]])


# Crafted heads: with zero attention and feed-forward weights and a zero mask
# embedding, h2 at a mask position i is pos_emb[i] + b2, so logit j there is
# tok_emb[j] . (pos_emb[i] + b2) + lm_bias[j].  CRAFT_V is no prompt's length,
# so a softmax over CRAFT_V columns is the head's.
CRAFT_V = 10


def crafted_state() -> ModelState:
    state = zero_state(v=CRAFT_V, d=4, max_len=4)
    state.b2[0] = 1.0
    state.tok_emb[3:, 0] = np.arange(3, CRAFT_V) / 4.0
    return state


@pytest.fixture
def head_softmax_rows(monkeypatch) -> list[int]:
    """Rows of each head softmax that ``predict_fill`` falls back to."""
    rows: list[int] = []
    real = detmask.model._softmax

    def counting(z):
        if z.shape[-1] == CRAFT_V:
            rows.append(len(z))
        return real(z)

    monkeypatch.setattr(detmask.model, "_softmax", counting)
    return rows


class TestPredictFillFromLogits:
    """``predict_fill`` reads an answer off the logits only where the
    full head softmax must agree, and equals ``predict_fill_oracle``."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**16), vocab=st.integers(4, 40), d=st.integers(2, 8),
           n=st.integers(1, 8), sequences=st.integers(1, 4), scale=st.floats(0.05, 40.0))
    def test_random_states_equal_full_softmax(self, seed, vocab, d, n, sequences, scale):
        state = init(ModelConfig(vocab_size=vocab, d=d, max_len=8, seed=seed))
        for arr in state.params().values():
            arr *= scale
        rng = np.random.default_rng(seed)
        state.lm_bias[:] = rng.normal(0.0, 0.02 * scale, size=vocab)
        batch = rng.integers(0, vocab, size=(sequences, n))
        batch[np.arange(sequences), rng.integers(0, n, size=sequences)] = MASK_ID
        batch = batch.tolist()
        assert predict_fill(state, batch) == predict_fill_oracle(state, batch)

    def test_exact_ties_take_the_softmax(self, head_softmax_rows):
        state = zero_state(v=CRAFT_V)
        assert predict_fill(state, [[3, MASK_ID, MASK_ID]]) == [[3, 3]]
        assert predict_fill_oracle(state, [[3, MASK_ID, MASK_ID]]) == [[3, 3]]
        assert head_softmax_rows == [2]

    @pytest.mark.parametrize("lower, upper", [(5, 8), (8, 5)])
    def test_logits_one_ulp_apart_take_the_softmax(self, head_softmax_rows, lower, upper):
        state = crafted_state()
        state.tok_emb[lower, 0] = 4.0
        state.tok_emb[upper, 0] = np.nextafter(4.0, 5.0)
        assert predict_fill(state, [[MASK_ID]]) == predict_fill_oracle(state, [[MASK_ID]])
        assert head_softmax_rows == [1]

    def test_sentinel_that_underflows_content_takes_the_softmax(self, head_softmax_rows):
        """Every content probability is 0 beneath the pad logit, so the answer
        is the lowest content id, not the best content logit."""
        state = crafted_state()
        state.lm_bias[PAD_ID] = 1000.0
        assert predict_fill(state, [[MASK_ID]]) == [[3]]
        assert predict_fill_oracle(state, [[MASK_ID]]) == [[3]]
        assert head_softmax_rows == [1]

    def test_only_uncertain_rows_take_the_softmax(self, head_softmax_rows):
        """Position 0's row ties; position 1's row is clear; both in one batch."""
        state = crafted_state()
        state.b2[0] = 0.0
        state.pos_emb[1, 0] = 1.0
        batch = [[4, MASK_ID, 4], [MASK_ID, MASK_ID, 3]]
        assert predict_fill(state, batch) == [[CRAFT_V - 1], [3, CRAFT_V - 1]]
        assert predict_fill_oracle(state, batch) == [[CRAFT_V - 1], [3, CRAFT_V - 1]]
        assert head_softmax_rows == [1]

    @pytest.mark.parametrize("ids", [[4], [UNK_ID, 3, 4, 5, 6, 7, 8]], ids=["one", "all_but_one"])
    def test_minus_inf_logits(self, head_softmax_rows, ids):
        state = crafted_state()
        state.lm_bias[ids] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert predict_fill(state, [[MASK_ID]]) == [[CRAFT_V - 1]]
        assert predict_fill_oracle(state, [[MASK_ID]]) == [[CRAFT_V - 1]]
        assert head_softmax_rows == []

    @pytest.mark.parametrize("where, value", [
        (4, np.nan), (PAD_ID, np.nan), (4, np.inf), (slice(None), -np.inf),
    ], ids=["nan", "nan_sentinel", "inf", "all_minus_inf"])
    def test_non_finite_rows_are_data_error(self, where, value):
        state = crafted_state()
        state.lm_bias[where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError):
                predict_fill(state, [[MASK_ID]])
        with pytest.raises(DataError):
            predict_fill_oracle(state, [[MASK_ID]])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig(vocab_size=5, d=4, max_len=6, seed=21, lambda_con=0.5)
        state = init(cfg)
        vocab = Vocabulary.from_tokens(["apple", "pear"])
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, state, cfg, vocab)
        loaded, cfg2, vocab2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert vocab2.id_to_token == vocab.id_to_token
        for name, arr in state.params().items():
            assert np.array_equal(arr, loaded.params()[name]), name
            assert loaded.params()[name].flags.writeable

    def test_header_is_json_line(self, tmp_path):
        cfg = ModelConfig(vocab_size=9, d=4, max_len=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init(cfg), cfg, Vocabulary.from_tokens("abcdef"))
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = fh.read()
        assert header["format"] == "detmask-checkpoint"
        assert header["version"] == 1
        assert header["dtype"] == "<f8"
        expected = sum(
            8 * int(np.prod(t["shape"])) for t in header["tensors"]
        )
        assert len(body) == expected
        offsets = [t["offset"] for t in header["tensors"]]
        assert offsets == sorted(offsets) and offsets[0] == 0

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b'{"format": "other", "version": 1}\n')
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_vocabulary_required(self, tmp_path, capsys):
        """A header whose vocabulary is null or absent is a data error, and
        ``probe`` exits 2 on it before reading anything else."""
        cfg = ModelConfig(vocab_size=9, d=4, max_len=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init(cfg), cfg, Vocabulary.from_tokens("abcdef"))
        header_line, body = path.read_bytes().split(b"\n", 1)
        null = {**json.loads(header_line), "vocab": None}
        absent = {k: v for k, v in null.items() if k != "vocab"}
        message = "vocabulary tokens must be a list of strings"
        for header in (null, absent):
            path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
            with pytest.raises(DataError, match=message):
                load_checkpoint(path)
            assert main(["probe", "--model", str(path), "--templates", "templates.jsonl",
                         "--facts", "facts.jsonl", "--out", str(tmp_path / "r.json")]) == 2
            assert capsys.readouterr().err == f"detmask: error: {path}: {message}\n"

    def test_stored_vocabulary_is_validated(self, tmp_path):
        cfg = ModelConfig(vocab_size=9, d=4, max_len=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init(cfg), cfg, Vocabulary.from_tokens(["apple", "pear"]))
        header_line, body = path.read_bytes().split(b"\n", 1)
        for tokens, message in ((["<pad>", "<mask>", "<unk>"], "must start with"),
                                (["a", "b", "c", "d"], "must start with"),
                                (["<pad>", "<mask>", "<unk>", "a", "a"], "repeats a token")):
            header = json.loads(header_line)
            header["vocab"] = tokens
            path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
            with pytest.raises(DataError, match=message):
                load_checkpoint(path)
