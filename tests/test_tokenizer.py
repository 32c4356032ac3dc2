"""Token spans, word grouping, and offset-stable lowercasing."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detmask.tokenizer import (
    _TOKEN_RE,
    count_words,
    lower_aligned,
    token_spans,
    tokens_inside,
    tokens_lower,
)
from oracles import token_spans_oracle, tokens_inside_oracle, word_starts_oracle

# Letters (one with a two-code-point lowercase form, and a capital sigma whose
# lowercase depends on its neighbours), a case-ignorable modifier letter and
# combining accent, digits, punctuation, and whitespace beyond ASCII: no-break
# space, em space and the four information separators, which ``str.isspace``
# counts as whitespace.
_ALPHABET = ("abZ\u0130\u00e9\u0391\u03a3\u02b0\u0301"
             "09_.,!-'\" \t\n\u00a0\u2003\x1c\x1d\x1e\x1f")
texts = st.text(alphabet=_ALPHABET, max_size=40)


class TestTokenSpans:
    def test_words_and_punctuation(self):
        text = "War Horse, a 2011 film."
        tokens = token_spans(text)
        assert [text[a:b] for a, b in zip(tokens.starts, tokens.ends)] == [
            "War", "Horse", ",", "a", "2011", "film", ".",
        ]

    def test_offsets_point_into_original(self):
        text = "  spaced   out  "
        tokens = token_spans(text)
        for a, b in zip(tokens.starts, tokens.ends):
            assert text[a:b].strip() == text[a:b]
            assert a < b

    def test_empty_text(self):
        tokens = token_spans("")
        assert (len(tokens.starts), tokens.lower, tokens.word_starts) == (0, [], [])

    def test_lowercased_tokens(self):
        assert tokens_lower("Steven SPIELBERG!") == ["steven", "spielberg", "!"]
        assert token_spans("Steven SPIELBERG!").lower == ["steven", "spielberg", "!"]


class TestLowerAligned:
    def test_plain_ascii(self):
        assert lower_aligned("War Horse") == "war horse"

    def test_length_is_always_preserved(self):
        # The dotted capital I lowercases to two code points; it must be
        # left alone so character offsets stay valid.
        tricky = "FİLM night"
        low = lower_aligned(tricky)
        assert len(low) == len(tricky)
        assert low.endswith(" night")

    def test_offsets_survive_for_mixed_text(self):
        text = "Abc İ def"
        low = lower_aligned(text)
        tokens = token_spans(text)
        assert low[tokens.starts[0]:tokens.ends[0]] == "abc"


class TestWordStarts:
    def test_glued_punctuation_joins_previous_word(self):
        assert token_spans("a film. Directed by").word_starts == [True, True, False, True, True]

    def test_first_token_always_starts(self):
        assert token_spans(",oddly").word_starts == [True, False]

    def test_count_matches_split(self):
        rng = np.random.default_rng(3)
        words = ["alpha", "beta,", "gamma.", "d", "else!"]
        for _ in range(50):
            k = int(rng.integers(1, 6))
            text = " ".join(words[int(rng.integers(len(words)))] for _ in range(k))
            assert sum(token_spans(text).word_starts) == len(text.split())


class TestCountWords:
    def test_single_and_multi(self):
        assert count_words("Spielberg") == 1
        assert count_words("Steven Spielberg") == 2
        assert count_words("  padded   out ") == 2


class TestTokensInside:
    def test_only_fully_contained(self):
        tokens = token_spans("War Horse is a film")
        # [0, 9) covers exactly "War Horse".
        assert list(tokens_inside(tokens, 0, 9)) == [0, 1]

    def test_straddling_token_excluded(self):
        tokens = token_spans("War Horse is a film")
        # Cutting through "Horse" leaves only "War" fully inside.
        assert list(tokens_inside(tokens, 0, 6)) == [0]

    def test_empty_window(self):
        tokens = token_spans("a b c")
        assert list(tokens_inside(tokens, 1, 1)) == []


class TestAgainstScans:
    """The one-pass flags and the bisect lookup equal the scans they replace."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(text=texts)
    @example(text="a b c\x1cd\x1de\x1ff.")
    @example(text="\u0130.x\u00a0y\u2003z")
    @example(text="\u0391\u03a3'\u03a3 \u0391\u03a3\u0301\u0391 \u0391\u02b0\u03a3")
    def test_word_starts_equal_whitespace_gap_scan(self, text):
        tokens = token_spans(text)
        spans = token_spans_oracle(text)
        assert list(zip(tokens.starts, tokens.ends)) == spans
        assert tokens.word_starts == word_starts_oracle(text, spans)
        assert tokens.lower == tokens_lower(text)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(text=texts)
    def test_skipped_characters_are_whitespace(self, text):
        covered = set()
        tokens = token_spans(text)
        for a, b in zip(tokens.starts, tokens.ends):
            covered.update(range(a, b))
        assert all(c.isspace() for i, c in enumerate(text) if i not in covered)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(text=texts)
    def test_bisect_lookup_equals_full_scan(self, text):
        tokens = token_spans(text)
        for start in range(len(text) + 2):
            for end in range(start - 1, len(text) + 2):
                assert list(tokens_inside(tokens, start, end)) == tokens_inside_oracle(
                    token_spans_oracle(text), start, end)

    def test_joined_lowering_equals_each_code_point_alone(self):
        chars = [c for c in map(chr, range(0x110000)) if not c.isspace()]
        assert " ".join(chars).lower().split(" ") == [c.lower() for c in chars]

    def test_regex_skips_exactly_the_isspace_code_points(self):
        # Each code point once, so equal leftovers mean equal sets of code points.
        text = "".join(map(chr, range(0x110000)))
        assert _TOKEN_RE.sub("", text) == "".join(filter(str.isspace, text))
