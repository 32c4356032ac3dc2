"""The reference oracles themselves: the per-start window sweep vs. the recursive DP."""

from __future__ import annotations

import numpy as np

from detmask.tokenizer import lower_aligned
from oracles import levenshtein_oracle, token_spans_oracle, window_distances_oracle
from worldgen import make_world


class TestWindowDistances:
    def test_hand_example(self):
        text = "A flows intoo B"
        spans = token_spans_oracle(text)
        got = window_distances_oracle(lower_aligned(text), spans, 1, "flows into")
        # "flows", "flows intoo", "flows intoo b"
        assert got == [5, 1, 3]

    def test_every_window_matches_recursive_oracle(self):
        """Unbanded and unpruned: every window, every alias, the exact distance."""
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(6):
            kb, corpus = make_world(rng, n_paragraphs=2)
            for paragraph in corpus:
                low = lower_aligned(paragraph.text)
                spans = token_spans_oracle(paragraph.text)
                for aliases in kb.predicate_aliases.values():
                    for alias in aliases:
                        target = lower_aligned(alias)
                        for ai in range(len(spans)):
                            cs = spans[ai][0]
                            want = [
                                levenshtein_oracle(low[cs:ce], target)
                                for _, ce in spans[ai:]
                            ]
                            assert window_distances_oracle(low, spans, ai, target) == want
                            checked += len(want)
        assert checked > 1000
