"""Acceptance suite: the ten exit criteria, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Everything is exact integer/rational arithmetic except the
numeric consistency check (criterion 10), which is float by design.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from bergpoly import (
    IntMatrix,
    LaurentPolynomial,
    Window,
    assemble_kernel,
    canonicity_check,
    compare_with_closed_form,
    kernel_dim2,
    kernel_generalized_hartogs,
    kernel_signature_one,
    kernel_unimodular,
    numeric_spot_check,
    prepare,
    same_kernel,
)
from bergpoly.int_linalg import adjugate, row_gcd
from bergpoly.kernel import exponent_box
from bergpoly.special import chain_matrix, signature_matrix
from bergpoly.tent import tent

from _reference import (
    chain_weight,
    identity,
    numerator_coefficient,
    one,
    scaled,
    tent_coefficients,
)
from conftest import sample_interior_point
from families import (
    chain_specs,
    normalized_family,
    signature_specs,
    subsample,
    unimodular_family,
    valid_family,
)


def report(num, message):
    print(f"ACCEPTANCE {num}: PASS - {message}")


def sweep_window(form):
    # the squared denominator's per-coordinate exponent extents
    dmin = [2 * sum(x) for x in zip(*(f.min_exponents() for f in form.factors))]
    dmax = [2 * sum(x) for x in zip(*(f.max_exponents() for f in form.factors))]
    radii = [max(3 * (b - a), 1) for a, b in zip(dmin, dmax)]
    return Window.of([-r for r in radii], radii)


def test_criterion_1_polydisc_identity():
    start = time.monotonic()
    for n in range(2, 6):
        form = assemble_kernel(identity(n))
        assert form.prefactor == Fraction(1)
        assert form.pi_exponent == -n
        assert form.numerator == one(n)
        expected = [
            LaurentPolynomial(
                n,
                {
                    (0,) * n: Fraction(1),
                    tuple(1 if i == j else 0 for i in range(n)): Fraction(-1),
                },
            )
            for j in range(n)
        ]
        assert list(form.factors) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"polydisc product form exact for n=2..5 in {elapsed:.3f}s")


def test_criterion_2_hartogs_triangle():
    start = time.monotonic()
    vm = prepare(IntMatrix(((1, -1), (0, 1))))
    form = assemble_kernel(vm)
    assert form.prefactor == Fraction(1)
    assert form.pi_exponent == -2
    assert form.numerator == LaurentPolynomial.monomial(2, 1, (0, 1))
    assert form.factors[0] == LaurentPolynomial(
        2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    )
    assert form.factors[1] == LaurentPolynomial(
        2, {(0, 0): Fraction(1), (0, 1): Fraction(-1)}
    )
    rep = compare_with_closed_form(vm, Window.of((-2, -2), (10, 10)), form=form)
    assert rep.ok and rep.checked > 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"t2/(pi^2 (t2-t1)^2 (1-t2)^2), oracle 0/{rep.checked} mismatches, {elapsed:.3f}s")


def test_criterion_3_worked_kernel():
    vm = prepare(IntMatrix(((2, -1), (0, 1))))
    form = assemble_kernel(vm)
    assert form.prefactor == Fraction(1, 2)
    assert form.numerator == LaurentPolynomial(
        2,
        {
            (2, 0): Fraction(1),
            (0, 1): Fraction(1),
            (1, 1): Fraction(4),
            (0, 2): Fraction(1),
            (2, 1): Fraction(1),
        },
    )
    assert form.factors[0] == LaurentPolynomial(
        2, {(0, 1): Fraction(1), (2, 0): Fraction(-1)}
    )
    assert form.factors[1] == LaurentPolynomial(
        2, {(0, 0): Fraction(1), (0, 1): Fraction(-1)}
    )
    rep = compare_with_closed_form(vm, Window.of((-2, -2), (12, 12)), form=form)
    assert rep.ok
    report(3, f"numerator t1^2+t2+4t1t2+t2^2+t1^2t2, prefactor 1/2, 0/{rep.checked} mismatches")


def test_criterion_4_oracle_sweep(sweep_family):
    start = time.monotonic()
    assert len(sweep_family) >= 100
    checked_total = 0
    for vm in sweep_family:
        form = assemble_kernel(vm)
        rep = compare_with_closed_form(vm, sweep_window(form), form=form)
        assert rep.ok, (vm.matrix.rows, rep.mismatches[:3])
        checked_total += rep.checked
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(
        4,
        f"{len(sweep_family)} matrices, {checked_total} coefficients, "
        f"0 mismatches, {elapsed:.1f}s",
    )


def test_criterion_5_box_vanishing(sweep_family):
    points = 0
    for vm in sweep_family:
        box = exponent_box(vm)
        ranges = [range(l - 2, u + 3) for l, u in zip(box.lower, box.upper)]
        for nu in itertools.product(*ranges):
            if all(l <= x <= u for x, l, u in zip(nu, box.lower, box.upper)):
                continue
            assert numerator_coefficient(vm, nu) == 0, (vm.matrix.rows, nu)
            points += 1
    report(5, f"coefficient vanishes at all {points} widened-shell points")


def test_criterion_6_special_equivalences():
    start = time.monotonic()
    unimodular = (
        unimodular_family(2, 17, seed=101)
        + unimodular_family(3, 17, seed=102)
        + unimodular_family(4, 16, seed=103)
    )
    assert len(unimodular) >= 50
    for vm in unimodular:
        assert same_kernel(kernel_unimodular(vm), assemble_kernel(vm))

    from families import valid_2x2_family

    two_by_two = valid_2x2_family()
    assert len(two_by_two) >= 50
    for vm in two_by_two:
        assert same_kernel(kernel_dim2(vm), assemble_kernel(vm))

    sigs = signature_specs(max_lcm=30, sizes=(2, 3, 4))
    assert any(s.k == (2, 3, 5) for s in sigs)
    for spec in sigs:
        k = spec.k
        n = len(k)
        special = kernel_signature_one(spec)
        core = assemble_kernel(signature_matrix(spec))
        assert same_kernel(special, core), k
        # l_1^n * C == (prod_{a>=2} k_a) * E, as whole term maps
        ell1 = math.lcm(*k) // k[0]
        assert scaled(core.numerator, ell1**n) == scaled(
            special.numerator, math.prod(k[1:])
        ), k

    chains = chain_specs(max_product=30, sizes=(2, 3, 4))
    for spec in chains:
        p = spec.p
        n = len(p)
        special = kernel_generalized_hartogs(spec)
        core = assemble_kernel(chain_matrix(spec))
        assert same_kernel(special, core), p
        d = [math.gcd(p[j], p[j + 1]) for j in range(n - 1)] + [p[-1]]
        lam = math.prod(d)
        assert scaled(core.numerator, lam ** (n - 1)) == special.numerator, p
    elapsed = time.monotonic() - start
    report(
        6,
        f"{len(unimodular)} unimodular, {len(two_by_two)} 2x2, "
        f"{len(sigs)} signature, {len(chains)} chain specs all equal, {elapsed:.1f}s",
    )


def test_criterion_7_tent_properties():
    for k in range(1, 65):
        coeffs = tent_coefficients(k)
        for r in range(-4, 2 * k + 4):
            expected = coeffs[r] if 0 <= r <= 2 * k - 2 else 0
            assert tent(k, r) == expected
            assert tent(k, r) == tent(k, 2 * k - 2 - r)
    for k1 in range(1, 17):
        for k2 in range(1, 17):
            for r in range(-2 * k1, 4 * k1 + 1):
                assert tent(k1 * k2, k2 * (r + 1) - 1) == k2 * tent(k1, r)
    for m in range(1, 21):
        for value in range(-5, 2 * m + 6):
            assert chain_weight(m, value) == tent(m, value - 2)
    report(7, "expansion (k<=64), symmetry, scaling, chain-weight identities")


def test_criterion_8_canonicity(sweep_family):
    for vm in sweep_family:
        form = assemble_kernel(vm)  # raises on violation already
        assert canonicity_check(form) is None, vm.matrix.rows
    report(8, f"no common numerator/denominator factor across {len(sweep_family)} matrices")


def test_criterion_9_double_adjugate(family_3x3):
    mats = [vm.matrix for vm in subsample(family_3x3, 120)]
    mats += [vm.matrix for vm in valid_family(4, 40, seed=31)]
    mats += normalized_family(4, 40, seed=32)
    count = 0
    for m in mats:
        n = m.n
        from bergpoly.int_linalg import determinant

        det = determinant(m)
        assert det > 0
        twice = adjugate(adjugate(m))
        scale = det ** (n - 2)
        assert twice.rows == tuple(tuple(scale * x for x in r) for r in m.rows), m.rows
        for j in range(n):
            assert row_gcd(twice.rows[j]) == scale, (m.rows, j)
        count += 1
    report(9, f"adj(adj B) = det^(n-2) B and row gcds for {count} matrices (n=3,4)")


def test_criterion_10_numeric_consistency(sweep_family):
    start = time.monotonic()
    rng = random.Random(424)
    order = subsample(sweep_family, 40)
    picked = 0
    worst = 0.0
    idx = 0
    while picked < 10 and idx < len(order):
        vm = order[idx]
        idx += 1
        form = assemble_kernel(vm)
        points = []
        for _ in range(20):
            p = sample_interior_point(vm, form, rng)
            if p is None:
                break
            points.append(p)
        if len(points) < 20:
            continue
        for p in points:
            err = numeric_spot_check(vm, p, p, terms=128, form=form)
            worst = max(worst, err)
            assert err < 1e-8, (vm.matrix.rows, err)
        picked += 1
    assert picked == 10
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(10, f"10 matrices x 20 points, worst rel err {worst:.2e}, {elapsed:.1f}s")
