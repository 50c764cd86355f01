"""Window fill for the series oracle.

One numpy fill serves every box: y = (m + 1) @ adj is formed column by
column as a sum of n broadcast 1-D ranges, each factor is clamped to
max(y_j, 0) (an exponent with some y_j < 1 is inadmissible and gets 0)
and multiplied into the output in place.  The dtype is int64 when the
exact a-priori bound on the products is below 2**62, and object (exact
Python integers) otherwise.  The box is filled in slabs of SLAB_POINTS
points along the first axis, which bounds the temporaries; with jobs > 1
the same slabs run on a thread pool of at most min(jobs, slabs, cpus)
threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

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


def fill_products(adj_rows, lo, hi, jobs: int = 1) -> np.ndarray:
    """Dense C-order array over the box lo..hi of prod_j ((m+1) @ adj)_j,
    with 0 marking inadmissible exponents.  dtype is int64 when the exact
    bound allows, object otherwise.  Raises WindowTooLargeError when the
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
    # axes[i][j]: (m_i + 1) * adj[i][j] along axis i, shaped to broadcast
    axes = [
        [
            (np.arange(l + 1, h + 2, dtype=dtype) * int(adj_rows[i][j])).reshape(
                (-1,) + (1,) * (n - 1 - i)
            )
            for j in range(n)
        ]
        for i, (l, h) in enumerate(zip(lo, hi))
    ]
    rows = max(1, SLAB_POINTS // math.prod(shape[1:]))

    def fill_slab(a: int) -> None:
        b = a + rows
        block = out[a:b]
        # column 0 is clamped straight into the slab, every later one into
        # the same temporary: 3n - 1 slab-sized ufuncs
        tmp = np.empty_like(block) if n > 1 else None
        for j in range(n):
            dest = block if j == 0 else tmp
            y = axes[0][j][a:b]
            for i in range(1, n - 1):
                y = y + axes[i][j]  # still broadcast, smaller than the slab
            if n > 1:
                y = np.add(y, axes[n - 1][j], out=dest)
            np.maximum(y, 0, out=dest)
            if j:
                block *= dest

    starts = range(0, shape[0], rows)
    workers = min(jobs, len(starts), os.cpu_count() or 1) if jobs > 1 else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill_slab, starts))
    else:
        for a in starts:
            fill_slab(a)
    return out
