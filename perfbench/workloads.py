"""The three workloads: seeded inputs, one operation each, and the checks.

An operation is one in-process call of `bergpoly.cli.main` (stdout
captured) or one short sequence of public library calls.  Every call goes
through the `bergpoly` package attributes at call time, so the tracer in
spans.py sees it.  Inputs are built here from the seed and never from
bergpoly, so a change to the program cannot change what it is given.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import bergpoly
import bergpoly.cli

import independent as ind

WORKLOADS = ("kernel", "verify", "crosscheck")

# Cyclic skeletons a*I - b*P (P the cyclic shift) for `kernel`, with the
# number of seeded variants of each per round; numerators of 201 (3, 3, 1)
# to 1025 (4, 3, 2) terms.  The canonicity check's cost depends on the order
# of the variables, so one skeleton's variants differ up to twofold.  The
# largest operations, which set op_p95_ms, are therefore the skeletons
# themselves, unvaried: 1265, 1713 and 2785 terms.  The three smallest
# skeletons make up two thirds of a round, so op_p50_ms falls well inside
# them rather than on the edge between two sizes.
KERNEL_SEEDED = (
    ((3, 3, 1), 12), ((3, 4, 3), 12), ((4, 2, 1), 12),
    ((3, 4, 1), 3), ((3, 5, 4), 3), ((3, 6, 5), 3),
    ((3, 5, 3), 1), ((3, 5, 2), 1), ((4, 3, 2), 1), ((5, 2, 1), 1),
)
KERNEL_FIXED = ((4, 3, 1), (3, 6, 1), (4, 4, 3))

# `verify`: 3x3 sweep matrices per (largest |entry|, largest column |B|
# sum); the first sets the default radius and the second the hull, hence
# the cost.  Counts follow the exhaustive family (classes under 1% left
# out).  Then (n, column |B| sums, radius, count) for the explicit-window
# ops.  The oracle fills a hull of prod_i (2R + 1 + 4 (1|B|)_i) points in
# slabs along the first coordinate, so the first column sum and the others
# up to order fix the operation's time and memory; the seed picks the rest.
VERIFY_3X3_STRATA = {(1, 2): 1, (1, 3): 2, (2, 3): 12, (2, 4): 36, (2, 5): 42, (2, 6): 7}
VERIFY_WIDE = ((4, (4, 1, 2, 3), 9, 2), (5, (3, 1, 1, 2, 2), 5, 1))

# `crosscheck`: operations per round of each (kind, n).  Fixing the count
# per dimension keeps the round's cost nearly the same for every seed.
# The spot checks run on 2x2 matrices, whose cost hardly varies; on 3x3
# ones a single check can cost as much as all the other operations.
CROSSCHECK_COUNTS = {
    ("det1", 2): 6, ("det1", 3): 6, ("det1", 4): 6, ("det1", 5): 6,
    ("dim2", 2): 24,
    ("sig1", 2): 8, ("sig1", 3): 8, ("sig1", 4): 8,
    ("pz", 2): 8, ("pz", 3): 8, ("pz", 4): 8,
    ("spot", 2): 12,
}
SPOT_TERMS = 128
SPOT_TOLERANCE = 1e-8


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independent computation."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def matrix_text(rows) -> str:
    return " / ".join(" ".join(str(x) for x in r) for r in rows)


@dataclass(frozen=True)
class Op:
    """One operation: `kind` selects how it runs and how it is checked."""

    kind: str
    rows: tuple
    radius: int | None = None
    spec: tuple = ()
    point: tuple = ()
    argv: tuple = field(default=(), compare=False)


# -- seeded inputs -------------------------------------------------------


def _cyclic(n, a, b):
    return tuple(
        tuple(a if j == i else (-b if j == (i + 1) % n else 0) for j in range(n))
        for i in range(n)
    )


def _matmul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0])))
        for i in range(len(x))
    )


def _conjugate(rows, perm):
    n = len(rows)
    return tuple(tuple(rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))


def _variant(rows, rng):
    """With probability 1/2 a right factor I - e_ij (its inverse I + e_ij
    is nonnegative, so validity is kept), then a permutation conjugation;
    the determinant is unchanged."""
    n = len(rows)
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        rows = _matmul(rows, tuple(
            tuple(-1 if (r, c) == (i, j) else int(r == c) for c in range(n)) for r in range(n)))
    perm = list(range(n))
    rng.shuffle(perm)
    return _conjugate(rows, perm)


def _kernel_variant(rows, rng):
    while True:
        m = _variant(rows, rng)
        if ind.is_valid_normalized(m):
            return m


def _triangular_valid(n, colsums, rng, max_det=8):
    """Seeded valid matrix with det in 2..8 whose column |B| sums are
    `colsums`, up to the order of all but the first (each at most 5): a
    lower triangular matrix with diagonal in 1..3 and entries in
    {0, -1, -2} below it (inverse nonnegative by back substitution), built
    column by column to those sums, then conjugated by a permutation that
    puts the first sum first."""
    while True:
        order = list(colsums)
        rng.shuffle(order)
        rows = [[0] * n for _ in range(n)]
        for j, c in enumerate(order):
            below = n - 1 - j
            rows[j][j] = rng.randint(max(1, c - 2 * below), min(3, c)) if below else c
            for _ in range(c - rows[j][j]):
                i = rng.choice([i for i in range(j + 1, n) if rows[i][j] > -2])
                rows[i][j] -= 1
        first = rng.choice([k for k in range(n) if order[k] == colsums[0]])
        perm = [first] + rng.sample([k for k in range(n) if k != first], n - 1)
        m = _conjugate(rows, perm)
        if 2 <= ind.det(m) <= max_det and ind.is_valid_normalized(m):
            return m


def _valid_2x2(max_abs=4, max_det=8):
    """Every valid normalized 2x2 matrix with |entries| <= 4 and det <= 8,
    lexicographic order (69 matrices)."""
    span = range(-max_abs, max_abs + 1)
    out = []
    for rows in itertools.product(itertools.product(span, repeat=2), repeat=2):
        if 1 <= ind.det(rows) <= max_det and ind.is_valid_normalized(rows):
            out.append(rows)
    return out


def _primitive_rows(n, max_abs):
    span = range(-max_abs, max_abs + 1)
    return [r for r in itertools.product(span, repeat=n) if any(r) and math.gcd(*r) == 1]


def _sampled_3x3(strata, rng, max_abs=2, max_det=8):
    """Distinct uniform draws from the valid 3x3 matrices with |entries|
    <= 2 and det <= 8, filling a quota per (largest |entry|, largest
    column |B| sum).  Candidates are screened in numpy batches: the
    adjugate's columns are the cross products r1 x r2, r2 x r0, r0 x r1."""
    pool = np.array(_primitive_rows(3, max_abs), dtype=np.int64)
    gen = np.random.default_rng(rng.getrandbits(64))
    need = dict(strata)
    seen = set()
    out = []
    while any(need.values()):
        idx = gen.integers(0, len(pool), size=(20000, 3))
        r0, r1, r2 = pool[idx[:, 0]], pool[idx[:, 1]], pool[idx[:, 2]]
        adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=1)
        det = np.einsum("ij,ij->i", r0, adj[:, 0])
        ok = (det >= 1) & (det <= max_det) & (adj >= 0).all(axis=(1, 2))
        for k in np.nonzero(ok)[0]:
            m = tuple(tuple(int(x) for x in pool[i]) for i in idx[k])
            key = (max(abs(x) for r in m for x in r), max(ind.column_abs_sums(m)))
            if need.get(key, 0) and m not in seen and ind.is_valid_normalized(m):
                need[key] -= 1
                seen.add(m)
                out.append(m)
    return out


def _unimodular(n, rng):
    """det 1 valid matrix: product of factors I - N (N nonnegative strictly
    triangular) conjugated by a permutation."""
    while True:
        m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for _ in range(rng.randint(1, 3)):
            upper = rng.random() < 0.5
            u = [[int(i == j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    if (j > i if upper else j < i) and rng.random() < 0.6:
                        u[i][j] = -rng.randint(0, 2)
            m = _matmul(m, u)
        perm = list(range(n))
        rng.shuffle(perm)
        m = _conjugate(m, perm)
        if ind.is_valid_normalized(m):
            return m


def _coprime_tuples(n, top, keep):
    return [t for t in itertools.product(range(1, top + 1), repeat=n)
            if math.gcd(*t) == 1 and keep(t)]


def _stratified(items, count, rng):
    """`count` items, one uniform draw from each of `count` equal slices of
    `items` sorted by their nuBox volume (the general assembly's scan), so
    every seed gets the same spread of sizes."""
    ranked = sorted(items, key=lambda rows: (ind.box_volume(rows), rows))
    edges = [round(i * len(ranked) / count) for i in range(count + 1)]
    return [ranked[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]


def signature_rows(k):
    """(k_1, -k_2, ..., -k_n) over the last n-1 rows of the identity."""
    n = len(k)
    return ((k[0],) + tuple(-x for x in k[1:]),) + tuple(
        tuple(int(i == j) for i in range(n)) for j in range(1, n)
    )


def chain_rows(p):
    """Bidiagonal matrix of |z_1|^p_1 < ... < |z_n|^p_n < 1: row j is
    (p_j e_j - p_(j+1) e_(j+1)) / gcd(p_j, p_(j+1)), last row e_n."""
    n = len(p)
    rows = []
    for j in range(n - 1):
        g = math.gcd(p[j], p[j + 1])
        rows.append(tuple(
            p[j] // g if i == j else (-(p[j + 1] // g) if i == j + 1 else 0)
            for i in range(n)
        ))
    rows.append(tuple(int(i == n - 1) for i in range(n)))
    return tuple(rows)


def interior_point(rows, rng, min_den=1e-9):
    """Seeded point of the domain away from the denominator's zero set:
    moduli come through the covering map |z_j| = prod_i w_i^(adj B)_(j,i)
    from w in a band, phases are uniform."""
    n = len(rows)
    adj = ind.adjugate(rows)
    factors = [ind.denominator_factor(r) for r in rows]
    while True:
        w = [rng.uniform(0.5, 0.7) for _ in range(n)]
        mod = [math.prod(w[i] ** adj[j][i] for i in range(n)) for j in range(n)]
        t = [x * x for x in mod]
        if all(
            abs(sum(c * math.prod(v**e for v, e in zip(t, exp)) for exp, c in f.items()))
            >= min_den
            for f in factors
        ):
            phases = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
            return tuple(complex(m * math.cos(a), m * math.sin(a)) for m, a in zip(mod, phases))


def make_ops(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The fixed operation list of one round.  `scale` < 1 shrinks every
    count (for the benchmark's own tests); the runs use 1."""
    rng = random.Random(f"{workload}:{seed}")

    def count(c):
        return max(1, round(c * scale))

    ops = []
    if workload == "kernel":
        mats = [_kernel_variant(_cyclic(*sk), rng) for sk, c in KERNEL_SEEDED for _ in range(count(c))]
        mats += [_cyclic(*sk) for sk in KERNEL_FIXED[:count(len(KERNEL_FIXED))]]
        for rows in mats:
            ops.append(Op("kernel", rows, argv=("kernel", "--matrix", matrix_text(rows))))
    elif workload == "verify":
        mats = _valid_2x2()
        if scale < 1:
            mats = rng.sample(mats, count(len(mats)))
        mats += _sampled_3x3({k: count(v) for k, v in VERIFY_3X3_STRATA.items()}, rng)
        for rows in mats:
            ops.append(Op("verify", rows, ind.default_verify_radius(rows),
                          argv=("verify", "--matrix", matrix_text(rows))))
        for n, colsums, radius, c in VERIFY_WIDE:
            for _ in range(count(c)):
                rows = _triangular_valid(n, colsums, rng)
                ops.append(Op("verify", rows, radius, argv=(
                    "verify", "--matrix", matrix_text(rows), "--window", str(radius))))
    elif workload == "crosscheck":
        small = _valid_2x2()
        for (kind, n), c in CROSSCHECK_COUNTS.items():
            c = count(c)
            if kind == "det1":
                ops += [Op(kind, _unimodular(n, rng)) for _ in range(c)]
            elif kind in ("sig1", "pz"):
                if kind == "sig1":
                    specs = {signature_rows(k): k for k in
                             _coprime_tuples(n, 8, lambda t: math.lcm(*t) <= 20)}
                else:
                    specs = {chain_rows(p): p for p in
                             _coprime_tuples(n, 6, lambda t: math.prod(t) <= 30)}
                ops += [Op(kind, rows, spec=specs[rows])
                        for rows in _stratified(list(specs), c, rng)]
            elif kind == "dim2":
                ops += [Op(kind, rows) for rows in _stratified(small, c, rng)]
            else:
                ops += [Op(kind, rows, point=interior_point(rows, rng))
                        for rows in _stratified(small, c, rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# -- running one operation ----------------------------------------------


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = bergpoly.cli.main(list(argv))
    return rc, out.getvalue()


_SPECIAL = {
    "det1": lambda op: bergpoly.kernel_unimodular(bergpoly.prepare(bergpoly.IntMatrix(op.rows))),
    "dim2": lambda op: bergpoly.kernel_dim2(bergpoly.prepare(bergpoly.IntMatrix(op.rows))),
    "sig1": lambda op: bergpoly.kernel_signature_one(bergpoly.SignatureOneSpec(op.spec)),
    "pz": lambda op: bergpoly.kernel_generalized_hartogs(bergpoly.GeneralizedHartogsSpec(op.spec)),
}


def run_op(op: Op):
    """Run one operation and return its raw output."""
    if op.argv:
        return _cli(op.argv)
    if op.kind == "spot":
        vm = bergpoly.prepare(bergpoly.IntMatrix(op.rows))
        form = bergpoly.assemble_kernel(vm)
        return bergpoly.numeric_spot_check(vm, op.point, op.point, terms=SPOT_TERMS, form=form)
    special = _SPECIAL[op.kind](op)
    general = bergpoly.assemble_kernel(bergpoly.IntMatrix(op.rows))
    return bergpoly.same_kernel(special, general), special, general


# -- checks ---------------------------------------------------------------


def _terms(poly_json) -> dict:
    return {
        tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
        for t in poly_json["terms"]
    }


def check_kernel(rows, text: str) -> None:
    """The JSON form of `bergpoly kernel` against the series identity on
    the whole of nuBox widened by 2, its factors against the rows of B, and
    canonicity by coset sums."""
    n = len(rows)
    data = json.loads(text)
    _require(data["n"] == n and data["detB"] == ind.det(rows), "n or detB")
    _require(data["piExponent"] == -n, "piExponent")
    factors = [_terms(f) for f in data["denominatorFactors"]]
    _require(len(factors) == n, "factor count")
    for j, row in enumerate(rows):
        _require(factors[j] == ind.denominator_factor(row), f"factor {j} is not its row's binomial")
    prefactor = Fraction(int(data["prefactor"]["num"]), int(data["prefactor"]["den"]))
    numerator = _terms(data["numerator"])
    _require(numerator, "empty numerator")
    box_lo, box_hi = ind.nu_box(rows)
    _require((data["nuBox"]["lower"], data["nuBox"]["upper"]) == (list(box_lo), list(box_hi)),
             "nuBox")
    lo = tuple(x - 2 for x in box_lo)
    hi = tuple(x + 2 for x in box_hi)
    expected = ind.numerator_times_scale(rows, lo, hi)
    got = np.zeros(expected.shape, dtype=object)
    scale = prefactor * ind.det(rows) ** (n - 1)
    for e, c in numerator.items():
        idx = tuple(x - l for x, l in zip(e, lo))
        _require(all(0 <= i < s for i, s in zip(idx, expected.shape)), f"term {e} far outside nuBox")
        got[idx] = scale * c
    diff = np.argwhere(got != expected)
    _require(len(diff) == 0, f"numerator differs from the series at "
             f"{[tuple(int(x) + l for x, l in zip(d, lo)) for d in diff[:3]]}")
    for j, row in enumerate(rows):
        _require(not ind.coset_sums_vanish(numerator, row), f"factor {j} divides the numerator")


def check_verify(rows, radius: int, rc: int, text: str) -> None:
    """Exit code 0, no mismatch, and at least every point of the window
    shrunk by the squared denominator's exponent spread checked."""
    _require(rc == 0, f"exit code {rc}")
    data = json.loads(text)
    _require(data["mismatches"] == [], f"{len(data['mismatches'])} mismatches")
    _require(data["matched"] == data["checked"], "matched != checked")
    need = ind.shrunk_window_points(rows, radius)
    _require(need > 0 and data["checked"] >= need, f"checked {data['checked']} < {need}")


def _term_map(prefactor, poly) -> dict:
    return {e: prefactor * Fraction(c) for e, c in poly.items()}


def _factor_multiset(form) -> list:
    return sorted(ind.sign_normalized(dict(f.items())) for f in form.factors)


def check_special(same: bool, special, general) -> None:
    """same_kernel holds, and apart from it: prefactor * numerator agree as
    rational term maps and the factors agree as a multiset up to sign."""
    _require(same is True, "same_kernel is false")
    _require(special.n == general.n and special.pi_exponent == general.pi_exponent,
             "n or pi exponent")
    _require(_term_map(special.prefactor, special.numerator)
             == _term_map(general.prefactor, general.numerator),
             "prefactor * numerator differ")
    _require(_factor_multiset(special) == _factor_multiset(general), "factors differ")


def check_spot(err: float) -> None:
    _require(math.isfinite(err) and 0 <= err < SPOT_TOLERANCE, f"relative error {err!r}")


def check_op(op: Op, output) -> None:
    """Raise CheckFailed unless `output` is a correct result of `op`."""
    if op.kind == "kernel":
        rc, text = output
        _require(rc == 0, f"exit code {rc}")
        check_kernel(op.rows, text)
    elif op.kind == "verify":
        check_verify(op.rows, op.radius, *output)
    elif op.kind == "spot":
        check_spot(output)
    else:
        check_special(*output)
