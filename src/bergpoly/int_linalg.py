"""Exact integer linear algebra for defining matrices.

A bounded monomial polyhedron in C^n is cut out by n Laurent-monomial
inequalities |z^(b^j)| < 1 whose exponents form the rows of an integer
matrix B.  This module owns everything matrix-shaped: determinants,
adjugates and the row Hermite normal form in exact arbitrary-precision
arithmetic, the normalization that makes det B > 0 with coprime rows, and
the validation rule (adj B >= 0 elementwise) deciding whether B defines a
bounded domain at all.

One fraction-free Gauss-Jordan elimination gives both det and adj of a
matrix; `normalize` runs it once and carries adj B along, and `prepare`
only scans that adjugate for a negative entry.  There is no separate
validation type: a ValidatedMatrix is a NormalizedMatrix that passed.
`parallelepiped` walks the det B cosets of Z^n / Z^n B through the
Hermite normal form of B's rows, all at once in numpy.

Indexing convention: entry(j, k) is row j, column k, zero-based.  Rows of
B carry the monomial exponents; columns enter the numerator bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AllZeroRowError,
    InputError,
    MatrixTooLargeError,
    SingularMatrixError,
    UnboundedDomainError,
)

# largest dimension a user matrix may have; the numerator's enumeration is
# exponential in n
MAX_N = 16


class IntMatrix:
    """Immutable square matrix of arbitrary-precision integers, n >= 2."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        tup = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(tup)
        if n < 2:
            raise ValueError("matrix must be at least 2x2")
        if n > MAX_N:
            raise MatrixTooLargeError(f"n={n} exceeds the cap {MAX_N}")
        if any(len(r) != n for r in tup):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", tup)

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap a square tuple of int tuples that the package built itself
        from a checked matrix: no re-coercion and no dimension cap."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, j: int, k: int) -> int:
        return self.rows[j][k]

    def column_abs_sums(self) -> tuple[int, ...]:
        """(1|B|)_k for each column k, with |B| the entrywise absolute value."""
        return tuple(sum(abs(r[k]) for r in self.rows) for k in range(self.n))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.rows))})"


def _eliminate(m: IntMatrix) -> tuple[int, IntMatrix | None]:
    """(det M, adj M) from one fraction-free Gauss-Jordan elimination of
    [M | I] (Bareiss 1968), or (0, None) when some column has no pivot.

    Every division is exact, so all intermediate quantities are integers.
    After the last pivot the left half is det(PM) * I and the right half
    det(PM) (PM)^-1 P = sign * adj M, where P holds the row swaps and
    sign = det P.
    """
    n = m.n
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if aug[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if aug[r][k]), None)
            if swap is None:
                return 0, None
            aug[k], aug[swap] = aug[swap], aug[k]
            sign = -sign
        pivot_row = aug[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                row = aug[i]
                f = row[k]
                aug[i] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
    return sign * prev, IntMatrix._from_rows(tuple(tuple(sign * x for x in r[n:]) for r in aug))


def determinant(m: IntMatrix) -> int:
    """Exact determinant, by the elimination of _eliminate."""
    return _eliminate(m)[0]


def adjugate(m: IntMatrix) -> IntMatrix:
    """Transposed cofactor matrix: adj(M)[j][k] = (-1)^(j+k) det(M minus row k, col j),
    by the elimination of _eliminate; M @ adj(M) = det(M) * I.
    SingularMatrixError when det M = 0."""
    adj = _eliminate(m)[1]
    if adj is None:
        raise SingularMatrixError("det = 0: adjugate takes a regular matrix only")
    return adj


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def hermite_rows(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form H of an integer matrix M with at least
    as many rows as columns and full column rank (Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.4.2): H is n x n, upper
    triangular with a positive diagonal, each entry above the diagonal
    reduced to 0 <= h_ik < h_kk, and its rows span the same lattice as
    M's rows.  For square M the diagonal's product is |det M|.

    Column by column, unimodular 2 x 2 row steps [[s, t], [-b/g, a/g]]
    (s a + t b = g = gcd(a, b)) move the gcd of the column's remaining
    entries onto the diagonal and clear the entries below it; the rows
    above are then reduced modulo the new pivot.  ValueError when a
    column has no pivot (M is not of full column rank)."""
    rows = [list(map(int, r)) for r in m]
    n = len(rows[0]) if rows else 0
    if len(rows) < n or any(len(r) != n for r in rows):
        raise ValueError("hermite_rows needs an m x n matrix with m >= n")
    for k in range(n):
        pivot = rows[k]
        for i in range(k + 1, len(rows)):
            other = rows[i]
            b = other[k]
            if b:
                g, s, t = _xgcd(pivot[k], b)
                u, v = -b // g, pivot[k] // g
                rows[i] = [u * x + v * y for x, y in zip(pivot, other)]
                pivot = [s * x + t * y for x, y in zip(pivot, other)]
        if pivot[k] == 0:
            raise ValueError("hermite_rows needs a matrix of full column rank")
        rows[k] = pivot = pivot if pivot[k] > 0 else [-x for x in pivot]
        for i in range(k):
            q = rows[i][k] // pivot[k]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], pivot)]
    return tuple(tuple(r) for r in rows[:n])


def parallelepiped(vm: ValidatedMatrix, dtype: type = np.int64) -> np.ndarray:
    """y = x adj B for each of the det points x of the half-open
    parallelepiped Pi = {x in Z^n : 1 <= (x adj B)_j <= det}, one row of
    the (det, n) array per coset of Z^n / Z^n B.  With d the diagonal of
    the Hermite normal form of B's rows, the r with 0 <= r_i < d_i
    represent the cosets, and the point of r's coset has
    y = ((r adj B - 1) mod det) + 1.  Every entry of r adj B lies in
    [0, det * (column sum of adj B)], so int64 holds it when that is
    below 2**62; the caller picks the dtype."""
    h = hermite_rows(vm.matrix.rows)
    r = np.array(np.unravel_index(np.arange(vm.det), [h[i][i] for i in range(vm.n)]), dtype).T
    return (r @ np.array(vm.adj.rows, dtype=dtype) - 1) % vm.det + 1


def row_gcd(v: Sequence[int]) -> int:
    """gcd of absolute values; rejects the all-zero vector."""
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    if g == 0:
        raise AllZeroRowError("gcd of an all-zero row is undefined")
    return g


@dataclass(frozen=True)
class NormalizedMatrix:
    """Defining matrix after normalization: det > 0 and every row gcd 1,
    with its adjugate."""

    matrix: IntMatrix
    det: int
    adj: IntMatrix

    @property
    def n(self) -> int:
        return self.matrix.n


@dataclass(frozen=True)
class ValidatedMatrix(NormalizedMatrix):
    """Normalized defining matrix whose adjugate is >= 0 elementwise."""


def normalize(m: IntMatrix) -> NormalizedMatrix:
    """Divide each row by its gcd, then fix the determinant sign.

    Both steps leave the domain unchanged: scaling a row rescales one
    monomial inequality by a positive power, and permuting rows permutes
    the inequalities.  A single transposition P of the last two rows flips
    a negative determinant; the choice is fixed for determinism.  One
    elimination gives det and adj of the reduced matrix M, and
    adj(PM) = adj(M) adj(P) = -adj(M) P follows by negating adj M and
    swapping its last two columns.
    Idempotent.  Raises SingularMatrixError when det = 0 (the sublevel
    sets then fail to cut out an open set).
    """
    if any(all(x == 0 for x in r) for r in m.rows):
        raise SingularMatrixError("zero row: matrix is singular")
    rows = [tuple(x // g for x in r) for r in m.rows for g in (row_gcd(r),)]
    det, adj = _eliminate(IntMatrix._from_rows(tuple(rows)))
    if det == 0:
        raise SingularMatrixError("det B = 0: the domain would not be open")
    if det < 0:
        rows[-2], rows[-1] = rows[-1], rows[-2]
        det = -det
        adj = IntMatrix._from_rows(
            tuple((*(-x for x in r[:-2]), -r[-1], -r[-2]) for r in adj.rows)
        )
    return NormalizedMatrix(IntMatrix._from_rows(tuple(rows)), det, adj)


def prepare(m: IntMatrix | NormalizedMatrix) -> ValidatedMatrix:
    """normalize, then accept iff every entry of adj B is >= 0
    (equivalently det * B^-1 >= 0); the standard entry point.

    Nonnegativity of B^-1 characterizes defining matrices of bounded
    monomial polyhedra; a negative adjugate entry means some coordinate
    escapes to infinity inside the sublevel sets, and raises
    UnboundedDomainError naming the first such entry in row-major order.
    """
    nm = m if isinstance(m, NormalizedMatrix) else normalize(m)
    for j, row in enumerate(nm.adj.rows):
        for k, x in enumerate(row):
            if x < 0:
                raise UnboundedDomainError(
                    f"adjugate entry ({j},{k}) is negative: the domain is unbounded"
                )
    return ValidatedMatrix(nm.matrix, nm.det, nm.adj)


def parse_matrix(text: str) -> IntMatrix:
    """Parse a matrix from inline, line-based, or JSON form.

    Inline: rows separated by "/", entries by whitespace ("1 -1 / 0 1").
    File-style: one row per line.  JSON: array of arrays.  All three are
    accepted everywhere a matrix is an input.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty matrix")
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except RecursionError:
            raise InputError("a JSON matrix must be an array of arrays of integers, "
                             "not a deeper nesting") from None
        if not isinstance(data, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in data
        ):
            raise InputError("a JSON matrix must be an array of arrays of integers")
        return IntMatrix(data)
    if "/" in stripped:
        row_texts = stripped.split("/")
    else:
        row_texts = stripped.splitlines()
    rows = []
    for rt in row_texts:
        parts = rt.split()
        if not parts:
            raise ValueError("empty row in matrix text")
        rows.append([int(p) for p in parts])
    return IntMatrix(rows)
