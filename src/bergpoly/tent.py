"""Triangular ("tent") coefficient sequence and products of tent values.

tent(k, r) is the coefficient of x^r in ((1 - x^k)/(1 - x))^2, i.e. in
(1 + x + ... + x^(k-1))^2: it climbs 1, 2, ..., k at r = 0..k-1, descends
back to 1 at r = 2k-2 and vanishes outside [0, 2k-2].  Every numerator
coefficient produced in this package is a product of tent values with
affine integer arguments a_j(v) = (v @ w)_j + off_j, so the module also
enumerates the nonzero such products over an integer box.

The enumerator fixes v_0, v_1, ... in turn.  It keeps each argument
centred, c_j = a_j - (k_j - 1), so that tent(k_j, a_j) = k_j - |c_j| on
the support |c_j| <= k_j - 1.  The later coordinates can still move c_j
by rest_lo..rest_hi (the extremes of sum_(l>i) v_l w_lj over the box), so
v_i must keep c_j + rest_hi >= 1 - k_j and c_j + rest_lo <= k_j - 1: an
interval when w_ij != 0, whose ends are floor divisions of +-c_j plus a
constant by |w_ij|.  A factor with w_ij = 0 keeps the condition it met
earlier, and one with all weights 0 is a constant, checked once.  At the
last coordinate the rests are 0 and the intervals exact, so every point
produced is in the support and no zero is ever evaluated.

Each prefix is one row: its coordinates, its centred arguments and one
more argument column that is always 0.  That column has sign 0 and the
box ends -lower_i and upper_i + 1 as its constants, so the minimum over
the columns cuts every interval to the box with no separate clip; the
upper constants carry + |w_ij|, so the two minima sum to the interval's
length.  Level 0 has one prefix, the empty one, so its interval is found
in Python integers, and its rows are its first row plus the outer
product of 0, 1, ... with the growth vector [e_0 | w_0 | 0].  Every later
level repeats each row by its interval's length and adds the outer
product of the new coordinates with [e_i | w_i | 0], which writes v_i
and moves the arguments in one step.

Both dtypes share the path: int64 when max(prod_j k_j, r_i, |off_j| + 2k_j
+ sum_i r_i |w_ij|) < 2**62, r_i = max(|lower_i|, |upper_i|), else exact
Python integers.  The last term bounds every centred argument plus an
interval constant and |w_ij|, r_i every coordinate and box end, and
prod_j k_j every product of tent values (each at most k_j); so no sum of
two overflows int64.  A weight of a coordinate fixed at 0 (r_i = 0) moves
nothing and is read as 0, so it needs no bound.

Each level's row count is the last running sum of its intervals'
lengths, a Python integer before anything is allocated; the sums run in
Python integers when the box has 2**63 points or more, where int64 could
wrap.  A level with no row ends the enumeration.  One whose rows do not
fit in memory, or have more bytes than any array can hold, raises
NumeratorTooLargeError naming the level and its row count, not a bare
MemoryError.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidKError, NumeratorTooLargeError

_INT64_SAFE = 2**62
# numpy's limit on the bytes of one array
_MAX_BYTES = np.iinfo(np.intp).max


def tent(k: int, r: int) -> int:
    """Closed-form branch evaluation; r may be any integer, also far outside
    the support."""
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    if 0 <= r <= k - 1:
        return 1 + r
    if k <= r <= 2 * k - 2:
        return 2 * k - (1 + r)
    return 0


def _dtype(lower, upper, ks, weights, offsets) -> type:
    """object when the bound of the module docstring reaches 2**62, else int64."""
    reach = [max(abs(lo), abs(hi)) for lo, hi in zip(lower, upper)]
    args = [abs(o) + 2 * k + sum(r * abs(w[j]) for r, w in zip(reach, weights))
            for j, (k, o) in enumerate(zip(ks, offsets))]
    return object if max([math.prod(ks), *reach, *args]) >= _INT64_SAFE else np.int64


def tent_product_over_box(
    lower: Sequence[int],
    upper: Sequence[int],
    ks: Sequence[int],
    weights: Sequence[Sequence[int]],
    offsets: Sequence[int],
) -> dict[tuple[int, ...], int]:
    """The nonzero values of prod_j tent(ks[j], (v @ weights)_j + offsets[j])
    over the box lower <= v <= upper, of at least one coordinate, keyed by v
    in lexicographic order.  weights has one row per box coordinate and one column per factor; the
    enumeration and its dtype are described in the module docstring."""
    lower, upper, ks, offsets = (list(map(int, s)) for s in (lower, upper, ks, offsets))
    m = len(ks)
    weights = [list(map(int, row)) if lo or hi else [0] * m
               for lo, hi, row in zip(lower, upper, weights)]
    if min(ks, default=1) < 1:
        raise InvalidKError(f"k must be >= 1, got {min(ks)}")
    if any(lo > hi for lo, hi in zip(lower, upper)) or any(
        tent(k, o) == 0 for k, o, col in zip(ks, offsets, zip(*weights)) if not any(col)
    ):
        return {}

    n = len(lower)
    dtype = _dtype(lower, upper, ks, weights, offsets)
    # bounds[i] holds, per argument column and then the always-0 column,
    # s = sign(w), -s, p, q + d and d = |w|: a prefix with centred
    # arguments c takes v_i from -min((s c + p) // d) up to, not including,
    # min((q + d - s c) // d), where p, q = k - 1 + rest_hi, k - 1 - rest_lo
    # (swapped for w < 0); a zero weight repeats the box column
    bounds = []
    rest_lo, rest_hi = [0] * m, [0] * m
    for i in reversed(range(n)):
        box = (0, 0, -lower[i], upper[i] + 1, 1)
        cols = []
        for j, x in enumerate(weights[i]):
            if x:
                p, q = ks[j] - 1 + rest_hi[j], ks[j] - 1 - rest_lo[j]
                s, p, q = (1, p, q) if x > 0 else (-1, q, p)
                cols.append((s, -s, p, q + abs(x), abs(x)))
                rest_lo[j] += min(lower[i] * x, upper[i] * x)
                rest_hi[j] += max(lower[i] * x, upper[i] * x)
            else:
                cols.append(box)
        cols.append(box)
        bounds.append(cols)
    bounds.reverse()

    # level 0: the empty prefix's interval, in Python integers
    centred = [o - k + 1 for o, k in zip(offsets, ks)] + [0]
    neg_low = min((s * c + p) // d for (s, _, p, _, d), c in zip(bounds[0], centred))
    end = min((t * c + q) // d for (_, t, _, q, d), c in zip(bounds[0], centred))
    level, size = 1, neg_low + end
    if size <= 0:
        return {}
    # grow[i] = [e_i | w_i | 0] for i < n, grow[n] is the first row of
    # level 0 and grow[n + 1, n:-1] holds ks
    grow = np.array(
        [[0] * i + [1] + [0] * (n - 1 - i) + w + [0] for i, w in enumerate(weights)]
        + [[-neg_low] + [0] * (n - 1) + [c - neg_low * x for c, x in zip(centred, weights[0])]
           + [0], [0] * n + ks + [0]],
        dtype=dtype,
    )
    steps = np.array(
        [v for cols in bounds[1:] for v in zip(*cols)], dtype=dtype
    ).reshape(n - 1, 5, 1, m + 1)
    # row counts sum in Python integers once int64 could overflow
    volume = math.prod(hi - lo + 1 for lo, hi in zip(lower, upper))
    sum_dtype = None if volume < 2**63 else object
    row_bytes = grow[0].nbytes

    try:
        if size * row_bytes > _MAX_BYTES:
            raise MemoryError
        rows = np.arange(size, dtype=dtype)[:, None] * grow[0] + grow[n]
        for i, step in enumerate(steps, 1):
            # -low and the end of every prefix's interval for v_i
            neg_low, end = ((rows[:, n:] * step[:2] + step[2:4]) // step[4]).min(axis=2)
            counts = np.maximum(neg_low + end, 0)
            stops = np.add.accumulate(counts, dtype=sum_dtype)
            level, size = i + 1, int(stops[-1])
            if not size:
                return {}
            if size * row_bytes > _MAX_BYTES:
                raise MemoryError
            counts = counts.astype(np.intp, copy=False)
            rows = rows.repeat(counts, axis=0)
            # row t of a prefix whose rows stop before `stop` takes v_i =
            # t - (stop - end), so its last row takes end - 1
            shift = stops.astype(rows.dtype, copy=False) - end
            rows += (np.arange(size) - shift.repeat(counts))[:, None] * grow[i]

        # every centred argument c has |c| <= k - 1, where tent = k - |c|
        vals = (grow[n + 1, n:-1] - abs(rows[:, n:-1])).prod(axis=1)
        return dict(zip(map(tuple, rows[:, :n].tolist()), vals.tolist()))
    except MemoryError:
        raise NumeratorTooLargeError(
            f"the numerator enumeration in dimension {n} ran out of memory at "
            f"level {level} of {n}, which has {size} rows"
        ) from None
