"""Window fill for the series oracle.

One numpy fill serves every box: y = (m + 1) @ adj is formed column by
column, each factor is clamped to max(y_j, 0) (an exponent with some
y_j < 1 is inadmissible and gets 0) and multiplied into the output in
place.  The dtype is int64 when the exact a-priori bound on the products
is below 2**62, and object (exact Python integers) otherwise.

The output is filled through its 2-D view (rows, inner): a row is one
value of m_0 and inner = prod(shape[1:]) points of the other axes.  For
each column j, y_j is the 1-D first-axis column (m_0 + 1) adj_0j plus a
flat "plane" holding the other axes' terms, so every slab-sized pass is
one broadcast add over contiguous rows.  The n planes take
n * prod(shape[1:]) points beside the output.  The box is filled in slabs
of max(1, SLAB_POINTS // inner) rows, one after another, which bounds the
temporaries.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import WindowTooLargeError

_INT64_SAFE = 2**62
SLAB_POINTS = 2**16
# numpy's limit on the bytes of one array
_MAX_BYTES = np.iinfo(np.intp).max


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
    bound allows, object otherwise.  Beside the output, the column planes
    hold n * prod(shape[1:]) points.  Raises WindowTooLargeError when the
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
        out = np.empty(shape, dtype=dtype)
    except MemoryError:
        raise WindowTooLargeError(
            f"the oracle hull {lo}..{hi} has {points} points and needs "
            f"{points * np.dtype(dtype).itemsize} bytes, more than can be allocated"
        ) from None

    n = len(shape)
    inner = math.prod(shape[1:])
    ranges = [np.arange(l + 1, h + 2, dtype=dtype) for l, h in zip(lo, hi)]
    # y_j on the (rows, inner) view: firsts[j], a column, plus planes[j]
    firsts, planes = [], []
    for j in range(n):
        firsts.append(ranges[0][:, None] * int(adj_rows[0][j]))
        plane = np.zeros(shape[1:], dtype=dtype)
        for i in range(1, n):
            plane += (ranges[i] * int(adj_rows[i][j])).reshape((-1,) + (1,) * (n - 1 - i))
        planes.append(plane.reshape(-1))
    grid = out.reshape(shape[0], inner)
    rows = max(1, SLAB_POINTS // inner)

    for a in range(0, shape[0], rows):
        b = a + rows
        block = grid[a:b]
        # column 0 is clamped straight into the slab, every later one into
        # the same temporary: 3n - 1 slab-sized ufuncs
        tmp = np.empty_like(block) if n > 1 else None
        for j in range(n):
            dest = block if j == 0 else tmp
            np.add(firsts[j][a:b], planes[j], out=dest)
            np.maximum(dest, 0, out=dest)
            if j:
                block *= dest
    return out
