"""Triangular ("tent") coefficient sequence and products of tent values.

tent(k, r) is the coefficient of x^r in ((1 - x^k)/(1 - x))^2, i.e. in
(1 + x + ... + x^(k-1))^2: it climbs 1, 2, ..., k at r = 0..k-1, descends
back to 1 at r = 2k-2 and vanishes outside [0, 2k-2].  Every numerator
coefficient produced in this package is a product of tent values with
affine integer arguments a_j(v) = (v @ w)_j + off_j, so the module also
enumerates the nonzero such products over an integer box.

The enumerator fixes v_0, v_1, ... in turn.  The later coordinates can
still move a_j by rest_lo..rest_hi (the extremes of sum_(l>i) v_l w_lj
over the box), so v_i must keep a_j + rest_lo <= 2k_j - 2 and a_j +
rest_hi >= 0: an interval when w_ij != 0 (a ceil and a floor division by
|w_ij|), cut to the box.  A factor with w_ij = 0 keeps the condition it
met earlier, and one with all weights 0 is a constant, checked once.  At
the last coordinate the rests are 0 and the intervals exact, so every
point produced is in the support and no zero is ever evaluated.

Both dtypes share the path: int64 when max(prod_j k_j, r_i, |off_j| + 2k_j
+ sum_i r_i |w_ij|) < 2**62, r_i = max(|lower_i|, |upper_i|), else exact
Python integers.  The last term bounds every partial argument, rest and
interval end, r_i every coordinate and prod_j k_j every product of tent
values (each at most k_j); so a difference of two stays below 2**63.

A level whose rows do not fit in memory raises NumeratorTooLargeError
naming the level and its row count, not a bare MemoryError.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidKError, NumeratorTooLargeError

_INT64_SAFE = 2**62


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


def tent_coefficients(k: int) -> list[int]:
    """Independent oracle: expand (1 + x + ... + x^(k-1))^2 by convolution
    and return the coefficients of x^0 .. x^(2k-2)."""
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    box = [1] * k
    out = [0] * (2 * k - 1)
    for i, a in enumerate(box):
        for j, b in enumerate(box):
            out[i + j] += a * b
    return out


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
    over the box lower <= v <= upper, keyed by v in lexicographic order.
    weights has one row per box coordinate and one column per factor; the
    enumeration and its dtype are described in the module docstring."""
    lower, upper, ks, offsets = ([int(x) for x in s] for s in (lower, upper, ks, offsets))
    weights = [[int(x) for x in row] for row in weights]
    if min(ks, default=1) < 1:
        raise InvalidKError(f"k must be >= 1, got {min(ks)}")
    if any(lo > hi for lo, hi in zip(lower, upper)) or any(
        tent(k, o) == 0 for k, o, col in zip(ks, offsets, zip(*weights)) if not any(col)
    ):
        return {}

    n, m = len(lower), len(ks)
    dtype = _dtype(lower, upper, ks, weights, offsets)
    # steps[i] holds sign(w), -sign(w), p, q and |w| for w = w_ij, one column
    # per factor: v_i |w| must lie in [-(sign(w) a + p), q - sign(w) a], with
    # cap = 2k - 2 - rest_lo; a zero weight yields the box ends instead.
    steps = []
    rest_lo, rest_hi = [0] * m, [0] * m
    for i in reversed(range(n)):
        cols = []
        for j, x in enumerate(weights[i]):
            cap = 2 * ks[j] - 2 - rest_lo[j]
            pq = (rest_hi[j], cap) if x > 0 else (cap, rest_hi[j]) if x else (-lower[i], upper[i])
            cols.append(((x > 0) - (x < 0), (x < 0) - (x > 0), *pq, abs(x) or 1))
            rest_lo[j] += min(lower[i] * x, upper[i] * x)
            rest_hi[j] += max(lower[i] * x, upper[i] * x)
        steps.append(list(zip(*cols)))
    steps = np.array(steps[::-1], dtype=dtype)
    box = np.array([(-lo, hi) for lo, hi in zip(lower, upper)], dtype=dtype)
    w = np.array(weights, dtype=dtype)

    # rows: the prefixes, coordinates in columns :n and partial arguments
    # after; level i + 1 holds counts.sum() rows, known before repeat runs
    rows = np.zeros((1, n + m), dtype=dtype)
    rows[0, n:] = offsets
    level = size = 0
    try:
        for i, step in enumerate(steps):
            # -low and high of every prefix's interval for v_i
            neg_low, high = np.minimum(
                ((rows[:, None, n:] * step[:2] + step[2:4]) // step[4]).min(axis=2), box[i]
            ).T
            counts = np.maximum(neg_low + high + 1, 0).astype(np.intp, copy=False)
            level, size = i + 1, int(counts.sum())
            rows = rows.repeat(counts, axis=0)
            v = np.arange(len(rows)) - (np.cumsum(counts) - counts + neg_low).repeat(counts)
            rows[:, i] = v
            rows[:, n:] += np.multiply.outer(v, w[i])

        # every argument r lies in [0, 2k - 2], where tent(k, r) = k - |r - k + 1|
        k = np.array(ks, dtype=dtype)
        vals = (k - abs(rows[:, n:] - (k - 1))).prod(axis=1)
        return dict(zip(map(tuple, rows[:, :n].tolist()), vals.tolist()))
    except MemoryError:
        raise NumeratorTooLargeError(
            f"the numerator enumeration in dimension {n} ran out of memory at "
            f"level {level} of {n}, which has {size} rows"
        ) from None
