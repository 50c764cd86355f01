"""Reference mathematics the benchmark checks the program against.

Nothing here imports bergpoly: every quantity is recomputed from the
defining matrix B alone, so a check passes only when the program agrees
with a second, separately written computation.

The identity behind the kernel check: the domain's monomials are
orthogonal with squared norms det(A) pi^n / prod_j y_j, where A = adj B
and y = (m + 1) A, and a monomial is square-integrable exactly when every
y_j >= 1.  Hence

    pi^n K = sum_m P(m) t^m / det(A),   P(m) = prod_j y_j  (0 if some y_j < 1),

and multiplying by the squared denominator D = prod_j f_j^2, with
f_j = t^(b_-^j) - t^(b_+^j), gives the closed-form numerator:

    prefactor * N(e) * det(A) = (D P)(e)   for every exponent e.
"""

from __future__ import annotations

import math

import numpy as np

INT64_SAFE = 2**62


def det(rows) -> int:
    """Determinant by Laplace expansion along the first row (n <= 6)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * x * det(minor)
    return total


def adjugate(rows) -> tuple[tuple[int, ...], ...]:
    """adj(B)[i][j] = (-1)^(i+j) det(B without row j and column i)."""
    n = len(rows)
    rows = [tuple(r) for r in rows]
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            out_row.append((-1) ** (i + j) * det(minor))
        out.append(tuple(out_row))
    return tuple(out)


def is_valid_normalized(rows) -> bool:
    """True when B already has det > 0, coprime rows and adj B >= 0, so the
    program's normalization leaves it unchanged and it defines a bounded
    domain."""
    if any(math.gcd(*r) != 1 for r in rows):
        return False
    if det(rows) <= 0:
        return False
    return all(x >= 0 for r in adjugate(rows) for x in r)


def column_abs_sums(rows) -> tuple[int, ...]:
    return tuple(sum(abs(r[j]) for r in rows) for j in range(len(rows)))


def nu_box(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The box the numerator support lies in: coordinate j runs over
    ceil_j - 1 .. 2 (1|B|)_j - 1 - ceil_j, ceil_j = ceil((1|B|)_j / det B)."""
    d = det(rows)
    sums = column_abs_sums(rows)
    ceil = [-(-s // d) for s in sums]
    return (tuple(c - 1 for c in ceil),
            tuple(2 * s - 1 - c for s, c in zip(sums, ceil)))


def box_volume(rows) -> int:
    return math.prod(max(u - l + 1, 0) for l, u in zip(*nu_box(rows)))


def denominator_factor(row) -> dict[tuple[int, ...], int]:
    """f = t^(b_-) - t^(b_+) for one row b = b_+ - b_-."""
    minus = tuple(max(-x, 0) for x in row)
    plus = tuple(max(x, 0) for x in row)
    return {minus: 1, plus: -1}


def squared_denominator_extent(rows) -> tuple[int, ...]:
    """Per-coordinate exponent spread of D = prod_j f_j^2.  b_- and b_+
    have disjoint supports, so D spans [0, 2 (1|B|)_i] in coordinate i."""
    return tuple(2 * s for s in column_abs_sums(rows))


def shrunk_window_points(rows, radius: int) -> int:
    """Points of the cube [-R, R]^n shrunk by the exponent spread of D:
    every one of them is far enough from the window edge that the
    truncated series times D is exact there."""
    out = 1
    for s in squared_denominator_extent(rows):
        out *= max(2 * radius + 1 - s, 0)
    return out


def default_verify_radius(rows) -> int:
    """`bergpoly verify` without --window: three times the largest
    per-coordinate exponent spread of one squared binomial f_j^2, which
    is 2 |b_ji|."""
    return max(3 * max(2 * abs(x) for r in rows for x in r), 1)


def series_grid(adj, lo, hi) -> np.ndarray:
    """P(m) on the box lo..hi (inclusive), dense, C order: the product of
    y_j = ((m + 1) A)_j when every y_j >= 1, else 0."""
    n = len(adj)
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    bound = 1
    for j in range(n):
        bound *= max(
            sum(max(abs(lo[i] + 1), abs(hi[i] + 1)) * abs(adj[i][j]) for i in range(n)),
            1,
        )
    # The 2n binomial passes below at most double magnitudes each time.
    dtype = np.int64 if bound * 4**n < INT64_SAFE else object
    axes = [np.arange(l + 1, h + 2, dtype=np.int64).astype(dtype) for l, h in zip(lo, hi)]
    out = np.ones(shape, dtype=dtype)
    for j in range(n):
        y = np.zeros(shape, dtype=dtype)
        for i in range(n):
            view = [1] * n
            view[i] = shape[i]
            y = y + axes[i].reshape(view) * adj[i][j]
        out = np.where(y >= 1, out * y, 0)
    return out.astype(dtype)


def times_denominator(grid: np.ndarray, lo, rows):
    """Multiply a dense series on the box starting at `lo` by D, one
    binomial f_j at a time, each factor twice.  Returns (values, new_lo):
    the product is exact on the returned box, whose lower corner has moved
    up by 2 (1|B|) and whose upper corner is unchanged."""
    lo = list(lo)
    for row in rows:
        minus = [max(-x, 0) for x in row]
        plus = [max(x, 0) for x in row]
        width = [abs(x) for x in row]
        for _ in range(2):
            shape = grid.shape
            new_shape = tuple(s - w for s, w in zip(shape, width))
            # R(e) = G(e - b_-) - G(e - b_+), e from lo + |b| upward.
            take_m = tuple(slice(w - m, w - m + ns) for w, m, ns in zip(width, minus, new_shape))
            take_p = tuple(slice(w - p, w - p + ns) for w, p, ns in zip(width, plus, new_shape))
            grid = grid[take_m] - grid[take_p]
            lo = [l + w for l, w in zip(lo, width)]
    return grid, tuple(lo)


def numerator_times_scale(rows, lo, hi) -> np.ndarray:
    """(D P)(e) on the box lo..hi: the closed-form numerator times
    prefactor * det(adj B), computed from the series alone."""
    adj = adjugate(rows)
    ext = squared_denominator_extent(rows)
    grid_lo = tuple(l - x for l, x in zip(lo, ext))
    values, _ = times_denominator(series_grid(adj, grid_lo, hi), grid_lo, rows)
    return values


def coset_sums_vanish(terms: dict, row) -> bool:
    """True when the binomial t^(b_-) - t^(b_+) divides the Laurent
    polynomial with these terms.  b is primitive, so the quotient ring
    Q[Z^n]/(1 - t^b) is the group ring of Z^n/Zb, and divisibility holds
    exactly when the coefficients sum to zero on every coset of Zb."""
    pivot = next(i for i, x in enumerate(row) if x)
    sums: dict = {}
    for e, c in terms.items():
        k = e[pivot] // row[pivot]
        rep = tuple(x - k * b for x, b in zip(e, row))
        sums[rep] = sums.get(rep, 0) + c
    return all(v == 0 for v in sums.values())


def sign_normalized(terms: dict) -> tuple:
    """Term tuple of +-f, choosing the sign that makes the lex-first
    coefficient positive."""
    items = sorted(terms.items())
    sign = 1 if items[0][1] > 0 else -1
    return tuple((e, sign * c) for e, c in items)
