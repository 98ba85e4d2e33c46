"""Truth tables as integer words.

A word over ``n`` variables has one bit per point of the ``2^n``-point
space: bit ``x`` is the value at the point whose index is ``x``, and
variable ``p`` is bit ``p`` of that index.  The oracle's leaf, the
implementation search's candidate masks, the parser's formula
constraints and the classifier's closures are all such words, built by the
functions here.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def patterns(n: int) -> tuple[int, ...]:
    """For each variable ``p`` of ``n``, the points of ``2^n`` where it is 1."""
    full = (1 << (1 << n)) - 1
    out = []
    for p in range(n):
        half = 1 << p
        # one period is 2*half points, the upper half set; repeat it
        period = ((1 << half) - 1) << half
        out.append(full // ((1 << (2 * half)) - 1) * period)
    return tuple(out)


def mirror(n: int, word: int) -> int:
    """``word`` with its ``n`` variables negated: the word read backwards."""
    return int(format(word, f"0{1 << n}b")[::-1], 2)


def table_word(bits: int, row: int, args: list, patterns, full: int) -> int:
    """Table ``bits`` on ``row`` plus the arguments ``args``, as a word.

    ``row`` holds the constant arguments, and each ``(p, w)`` of ``args``
    adds ``w`` to the row where variable ``p`` is 1 (a repeated variable
    carries the sum of its positions' weights).  Shannon expansion over
    ``args``: the word is the cofactor with the argument at 0 where its
    pattern is 0 and at 1 where it is 1.
    """

    def expand(i: int, row: int) -> int:
        if i == len(args):
            return full if (bits >> row) & 1 else 0
        p, w = args[i]
        lo = expand(i + 1, row)
        hi = expand(i + 1, row + w)
        if lo == hi:
            return lo
        return lo ^ ((lo ^ hi) & patterns[p])

    return expand(0, row)
