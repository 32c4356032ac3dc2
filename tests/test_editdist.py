"""The within-one fast path against the recursive reference edit distance."""

from __future__ import annotations

import numpy as np

from detmask.editdist import within_one
from oracles import levenshtein_oracle

WORDS = ["", "a", "ab", "abc", "directed by", "directd by", "derected by",
         "director", "diretcor", "starring", "b", "ba"]


class TestLevenshtein:
    def test_known_values(self):
        assert levenshtein_oracle("kitten", "sitting") == 3
        assert levenshtein_oracle("directed by", "directd by") == 1
        assert levenshtein_oracle("", "abc") == 3
        assert levenshtein_oracle("abc", "") == 3
        assert levenshtein_oracle("same", "same") == 0


class TestWithinOne:
    def test_pairs_from_word_list(self):
        for a in WORDS:
            for b in WORDS:
                assert within_one(a, b) == (levenshtein_oracle(a, b) < 2), (a, b)

    def test_near_miss_mutations(self):
        # Mutate a base string 0..3 times; compare to the reference every time.
        rng = np.random.default_rng(11)
        alphabet = "abcdef"
        for _ in range(400):
            n = int(rng.integers(1, 10))
            base = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), n))
            s = base
            for _ in range(int(rng.integers(0, 4))):
                op = int(rng.integers(3))
                i = int(rng.integers(0, max(1, len(s))))
                if op == 0 and s:
                    s = s[:i] + alphabet[int(rng.integers(len(alphabet)))] + s[i + 1 :]
                elif op == 1 and s:
                    s = s[:i] + s[i + 1 :]
                else:
                    s = s[:i] + alphabet[int(rng.integers(len(alphabet)))] + s[i:]
            assert within_one(base, s) == (levenshtein_oracle(base, s) < 2), (base, s)
