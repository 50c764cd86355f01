"""Window fill for the series oracle: the tests' plain reference.

No command fills a window (`verify` reads its report off the lattice-cone
numerator); `oracle.oracle_series` and the tests' uncut comparison do.
The fill broadcasts y = (m + 1) @ adj one column at a time, each factor
clamped to max(y_j, 0) (an exponent with some y_j < 1 is inadmissible and
gets 0) and multiplied into the output.  The dtype is int64 when the
exact a-priori bound on the products is below 2**62, and object (exact
Python integers) otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import WindowTooLargeError
from .tent import _INT64_SAFE, _MAX_BYTES


def product_bound(adj_rows, lo, hi) -> int:
    """Exact bound on |prod_j ((m+1) @ adj)_j| over the box, in big ints."""
    n = len(adj_rows)
    bound = 1
    for j in range(n):
        col = 0
        for i in range(n):
            col += max(abs(lo[i] + 1), abs(hi[i] + 1)) * abs(adj_rows[i][j])
        bound *= max(col, 1)
    return bound


def fill_products(adj_rows, lo, hi) -> np.ndarray:
    """Dense C-order array over the box lo..hi of prod_j ((m+1) @ adj)_j,
    with 0 marking inadmissible exponents.  dtype is int64 when the exact
    bound allows, object otherwise.  Raises WindowTooLargeError when an
    array cannot be allocated or has more bytes than any array can hold."""
    lo = tuple(int(x) for x in lo)
    hi = tuple(int(x) for x in hi)
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    if any(s <= 0 for s in shape):
        return np.zeros(tuple(max(s, 0) for s in shape), dtype=np.int64)

    dtype = object if product_bound(adj_rows, lo, hi) >= _INT64_SAFE else np.int64
    points = math.prod(shape)
    try:
        # numpy refuses an array of more bytes than an intp can count
        if points * np.dtype(dtype).itemsize > _MAX_BYTES:
            raise MemoryError
        out = np.ones(shape, dtype=dtype)
        # axes[i] is m_i + 1 along axis i, broadcast over the others
        axes = np.ix_(*(np.arange(l + 1, h + 2, dtype=dtype) for l, h in zip(lo, hi)))
        for j in range(len(shape)):
            y = sum(axis * int(row[j]) for axis, row in zip(axes, adj_rows))
            out *= np.maximum(y, 0)
    except MemoryError:
        raise WindowTooLargeError(
            f"the oracle hull {lo}..{hi} has {points} points and needs "
            f"{points * np.dtype(dtype).itemsize} bytes, more than can be allocated"
        ) from None
    return out
