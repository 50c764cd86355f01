"""Deterministic families of defining matrices and special-case specs.

The verification suites sweep these families; everything here is either
exhaustively enumerated in a fixed order or generated from a fixed seed,
so runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from bergpoly.errors import InputError
from bergpoly.int_linalg import (
    IntMatrix,
    ValidatedMatrix,
    normalize,
    prepare,
)
from bergpoly.special import GeneralizedHartogsSpec, SignatureOneSpec

from _reference import identity, matmul, transpose


def valid_2x2_family(max_abs: int = 4, max_det: int = 8) -> list[ValidatedMatrix]:
    """Exhaustive: every normalized valid 2x2 matrix with |entries| <= max_abs
    and det <= max_det, in lexicographic order."""
    out = []
    span = range(-max_abs, max_abs + 1)
    for a, b, c, d in itertools.product(span, repeat=4):
        det = a * d - b * c
        if not 1 <= det <= max_det:
            continue
        if math.gcd(a, b) != 1 or math.gcd(c, d) != 1:
            continue
        # adj = [[d, -b], [-c, a]] must be nonnegative
        if d < 0 or -b < 0 or -c < 0 or a < 0:
            continue
        out.append(prepare(IntMatrix(((a, b), (c, d)))))
    return out


def valid_3x3_family(max_abs: int = 2, max_det: int = 8) -> list[ValidatedMatrix]:
    """Exhaustive: every normalized valid 3x3 matrix with |entries| <= max_abs
    and det <= max_det, enumerated with a vectorized prefilter."""
    span = range(-max_abs, max_abs + 1)
    rows = [
        r
        for r in itertools.product(span, repeat=3)
        if any(r) and math.gcd(*r) == 1
    ]
    arr = np.array(rows, dtype=np.int64)
    nrows = len(rows)
    # crosses[j, k] = rows[j] x rows[k]; the adjugate of (r_i, r_j, r_k) has
    # columns r_j x r_k, r_k x r_i, r_i x r_j, so validity is three
    # nonnegativity lookups, and det = r_i . (r_j x r_k).
    crosses = np.cross(arr[:, None, :], arr[None, :, :])
    dets = np.einsum("id,jkd->ijk", arr, crosses)
    nonneg = (crosses >= 0).all(axis=2)
    ok = (dets >= 1) & (dets <= max_det)
    ok &= nonneg[None, :, :]  # r_j x r_k >= 0
    ok &= nonneg.T[:, None, :]  # r_k x r_i >= 0
    ok &= nonneg[:, :, None]  # r_i x r_j >= 0
    out = []
    for i, j, k in np.argwhere(ok):
        out.append(prepare(IntMatrix((rows[i], rows[j], rows[k]))))
    return out


def subsample(items: list, count: int) -> list:
    """Evenly spaced deterministic subsample preserving order."""
    if count >= len(items):
        return list(items)
    idx = np.linspace(0, len(items) - 1, count).round().astype(int)
    return [items[i] for i in sorted(set(int(i) for i in idx))]


def _random_triangular_unimodular(n: int, rng: random.Random) -> IntMatrix:
    upper = rng.random() < 0.5
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (j > i if upper else j < i) and rng.random() < 0.6:
                rows[i][j] = -rng.randint(0, 2)
    return IntMatrix(rows)


def _permutation_matrix(n: int, rng: random.Random) -> IntMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return IntMatrix([[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)])


def unimodular_family(n: int, count: int, seed: int = 7) -> list[ValidatedMatrix]:
    """Valid matrices with det exactly 1: products of I - (nonnegative
    nilpotent triangular) factors, conjugated by permutations.  Inverses of
    the factors are nonnegative, so the products stay valid."""
    rng = random.Random(seed)
    seen = set()
    out: list[ValidatedMatrix] = []
    while len(out) < count:
        m = identity(n)
        for _ in range(rng.randint(1, 3)):
            m = matmul(m, _random_triangular_unimodular(n, rng))
        p = _permutation_matrix(n, rng)
        m = matmul(p, m, transpose(p))
        if m.rows in seen:
            continue
        seen.add(m.rows)
        vm = prepare(m)
        assert vm.det == 1
        out.append(vm)
    return out


def valid_family(n: int, count: int, seed: int = 11, max_det: int = 8) -> list[ValidatedMatrix]:
    """Seeded valid matrices of any det <= max_det: triangular matrices with
    positive diagonal and nonpositive off-diagonal entries (inverse-
    nonnegative by back substitution), permutation-conjugated and optionally
    composed with unimodular valid factors."""
    rng = random.Random(seed)
    seen = set()
    out: list[ValidatedMatrix] = []
    attempts = 0
    while len(out) < count and attempts < 100 * count:
        attempts += 1
        diag = [1] * n
        budget = max_det
        for i in range(n):
            d = rng.randint(1, min(3, budget))
            diag[i] = d
            budget = max(1, budget // d)
        upper = rng.random() < 0.5
        rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if (j > i if upper else j < i) and rng.random() < 0.5:
                    rows[i][j] = -rng.randint(0, 2)
        m = IntMatrix(rows)
        if rng.random() < 0.5:
            m = matmul(m, _random_triangular_unimodular(n, rng))
        p = _permutation_matrix(n, rng)
        m = matmul(p, m, transpose(p))
        try:
            vm = prepare(m)
        except InputError:
            continue
        if not 1 <= vm.det <= max_det or vm.matrix.rows in seen:
            continue
        seen.add(vm.matrix.rows)
        out.append(vm)
    if len(out) < count:
        raise RuntimeError(f"could only generate {len(out)} of {count} matrices")
    return out


def normalized_family(n: int, count: int, seed: int = 13, max_abs: int = 3) -> list[IntMatrix]:
    """Seeded matrices that are merely normalized (det > 0, row gcds 1),
    without the boundedness requirement; for the adjugate identities."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        rows = tuple(
            tuple(rng.randint(-max_abs, max_abs) for _ in range(n)) for _ in range(n)
        )
        if any(not any(r) for r in rows):
            continue
        try:
            nm = normalize(IntMatrix(rows))
        except InputError:  # singular
            continue
        if nm.matrix.rows in seen:
            continue
        seen.add(nm.matrix.rows)
        out.append(nm.matrix)
    return out


def _coprime_tuples(n, limit, keep):
    """Tuples of n positive integers with `keep(tuple)` and gcd 1, built
    recursively with pruning; lexicographic order."""
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if math.gcd(*prefix) == 1:
                out.append(tuple(prefix))
            return
        for v in range(1, limit + 1):
            cand = prefix + [v]
            if keep(cand):
                rec(cand)

    rec([])
    return out


def signature_specs(
    max_lcm: int = 30, sizes: tuple[int, ...] = (2, 3, 4), volume_budget: int = 40_000
) -> list[SignatureOneSpec]:
    """Signature-one specs with lcm <= max_lcm, filtered by a per-spec bound
    on the numerator box volume to keep sweeps affordable; the classic
    (2, 3, 5) spec is always included."""
    out = []
    for n in sizes:
        tuples = _coprime_tuples(n, max_lcm, lambda c: math.lcm(*c) <= max_lcm)
        for k in tuples:
            big_k = math.lcm(*k)
            ell = [big_k // x for x in k]
            vol = (2 * big_k - 1) // ell[0]
            for j in range(1, n):
                vol *= (2 * ell[j] - 1 + 2 * big_k - ell[0]) // ell[j]
            if vol <= volume_budget:
                out.append(SignatureOneSpec(k))
    if (2, 3, 5) not in {s.k for s in out}:
        out.append(SignatureOneSpec((2, 3, 5)))
    return out


def chain_specs(max_product: int = 30, sizes: tuple[int, ...] = (2, 3, 4)) -> list[GeneralizedHartogsSpec]:
    """All generalized-Hartogs specs with prod(p) <= max_product."""
    out = []
    for n in sizes:
        for p in _coprime_tuples(n, max_product, lambda c: math.prod(c) <= max_product):
            out.append(GeneralizedHartogsSpec(p))
    return out
