"""Within-one edit distance check used by predicate surface matching.

Matching only ever needs to know whether a window is within distance 1 of an
alias, so instead of filling the full edit-distance table it compares the two
strings once, in O(n).
"""

from __future__ import annotations


def within_one(a: str, b: str) -> bool:
    """True iff edit distance between a and b is < 2, without running the DP.

    Equal lengths: at most one substitution, so the suffixes after the first
    mismatch must be equal. Lengths off by one: the longer string must equal
    the shorter with one character dropped. Anything further apart fails.
    """
    la, lb = len(a), len(b)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la > 1:
        return False
    if la == lb:
        if a == b:
            return True
        i = 0
        while a[i] == b[i]:
            i += 1
        return a[i + 1 :] == b[i + 1 :]
    # lb == la + 1: try deleting one char of b.
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]
