"""Whitespace-and-punctuation tokenization shared by alignment, masking and probing.

A token is either a maximal run of word characters or a single punctuation
character.  All downstream matching is done on lowercased token text; character
offsets always refer to the original string.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import ne
from typing import NamedTuple

# Captured, so that ``split`` returns the skipped gaps and the tokens alternately.
_TOKEN_RE = re.compile(r"(\w+|[^\w\s])")


class Tokens(NamedTuple):
    """The tokens of one text in about 24 bytes a token, so that a stage can
    hold a corpus: int64 arrays of character offsets, and the token texts
    joined by spaces and lowercased in one call.  No token holds whitespace,
    and a space is neither cased nor case-ignorable, so that equals lowering
    each token alone (a final sigma included).
    """

    starts: array
    ends: array
    joined_lower: str

    @property
    def lower(self) -> list[str]:
        return self.joined_lower.split(" ") if self.starts else []

    @property
    def word_starts(self) -> list[bool]:
        """Whether each token begins a whitespace-delimited word: the first
        token and every token that does not start where the previous one ends,
        since the regex skips only whitespace (``\\s`` is ``str.isspace``).
        Punctuation glued to a word (the period in "film.") belongs to it."""
        return list(map(ne, self.starts, [-1, *self.ends]))


def token_spans(text: str) -> Tokens:
    """The tokens of ``text``, left to right, from one regex pass: the running
    lengths of the gap, token, gap, ... pieces are the token offsets."""
    pieces = _TOKEN_RE.split(text)
    offsets = list(accumulate(map(len, pieces)))
    return Tokens(array("q", offsets[0:-1:2]), array("q", offsets[1::2]),
                  " ".join(pieces[1::2]).lower())


def tokens_lower(text: str) -> list[str]:
    """Lowercased token strings of ``text``, each token lowered alone."""
    return [m.group().lower() for m in _TOKEN_RE.finditer(text)]


def lower_aligned(text: str) -> str:
    """Lowercase ``text`` without shifting character offsets.

    The rare characters whose lowercase form has a different length (e.g.
    a dotted capital I) are kept as-is so that index i in the result always
    corresponds to index i in the input.
    """
    low = text.lower()
    if len(low) == len(text):
        return low
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in text)


def count_words(surface: str) -> int:
    """Number of whitespace-separated chunks in ``surface``."""
    return len(surface.split())


def tokens_inside(tokens: Tokens, start: int, end: int) -> range:
    """Indices of tokens lying fully inside [start, end): one range, found by bisection."""
    first = bisect_left(tokens.starts, start)
    return range(first, max(first, bisect_right(tokens.ends, end)))
