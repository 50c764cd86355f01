import contextlib
import dataclasses
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bergpoly import (
    IntMatrix,
    NonConvergentError,
    Window,
    WindowTooLargeError,
    assemble_kernel,
    compare_with_closed_form,
    numeric_spot_check,
    oracle_series,
    parse_matrix,
    prepare,
)
from bergpoly import _backend, kernel, oracle
from bergpoly.int_linalg import parallelepiped
from bergpoly.kernel import BergmanKernelForm, exponent_box, numerator_polynomial
from bergpoly.laurent import LaurentPolynomial
from bergpoly.special import (
    SignatureOneSpec,
    kernel_dim2,
    kernel_generalized_hartogs,
    kernel_signature_one,
    kernel_unimodular,
    signature_matrix,
)
from bergpoly.tent import tent, tent_product_over_box

import families
from _reference import compare_uncut, identity, monomial_norm
from families import chain_specs, signature_specs, subsample, unimodular_family, valid_family
from conftest import sample_interior_point


def shadow_integral(vm, m, inner_cut=0.0):
    """Independent 2-D oracle for the squared monomial norm, in pi^2 units:
    direct radial integration 4 * dblquad(r1^(2m1+1) r2^(2m2+1)) over the
    Reinhardt shadow {r : r^(b^1) < 1, r^(b^2) < 1}.  Valid 2x2 matrices
    have a >= 0, d >= 0 on the diagonal and b, c <= 0 off it, so the
    shadow is r2 in (0,1) with r1 between power curves."""
    (a, b), (c, d) = vm.matrix.rows
    m1, m2 = m

    def r1_hi(r2):
        return min(1.0, r2 ** (-b / a)) if a else 1.0

    def r1_lo(r2):
        return max(inner_cut, r2 ** (d / -c)) if c else inner_cut

    val, err = integrate.dblquad(
        lambda r1, r2: 4 * r1 ** (2 * m1 + 1) * r2 ** (2 * m2 + 1),
        0.0,
        1.0,
        r1_lo,
        r1_hi,
        epsabs=1e-11,
        epsrel=1e-11,
    )
    return val


class TestMonomialNorm:
    def test_polydisc_constant(self):
        vm = prepare(identity(3))
        assert monomial_norm(vm, (0, 0, 0)) == 1

    def test_hartogs_values(self, hartogs_vm):
        assert monomial_norm(hartogs_vm, (0, 0)) == Fraction(1, 2)
        assert monomial_norm(hartogs_vm, (0, -1)) == 1
        assert monomial_norm(hartogs_vm, (-1, 0)) is None

    @pytest.mark.parametrize(
        "rows,m",
        [
            (((1, -1), (0, 1)), (0, 0)),
            (((1, -1), (0, 1)), (0, -1)),
            (((1, -1), (0, 1)), (1, 0)),
            (((1, -1), (0, 1)), (2, 1)),
            (((1, -1), (0, 1)), (1, -1)),
            (((2, -1), (0, 1)), (0, 0)),
            (((2, -1), (0, 1)), (1, 0)),
            (((2, -1), (0, 1)), (3, 2)),
            (((3, -2), (-1, 1)), (0, 0)),
            (((3, -2), (-1, 1)), (0, -1)),
            (((3, -2), (-1, 1)), (1, 1)),
            (((1, 0), (0, 1)), (0, 0)),
            (((1, 0), (0, 1)), (2, 3)),
        ],
    )
    def test_formula_against_numeric_integration(self, rows, m):
        # the mandated independent validation of the norm formula at n = 2
        vm = prepare(IntMatrix(rows))
        exact = monomial_norm(vm, m)
        assert exact is not None
        numeric = shadow_integral(vm, m)
        assert numeric == pytest.approx(float(exact), rel=1e-7)

    def test_divergence_when_not_square_integrable(self, hartogs_vm):
        # z1^(-1) on the Hartogs triangle: inner integral diverges like log
        assert monomial_norm(hartogs_vm, (-1, 0)) is None
        grown = [shadow_integral(hartogs_vm, (-1, 0), inner_cut=eps)
                 for eps in (1e-2, 1e-4, 1e-6)]
        assert grown[1] > grown[0] + 1 and grown[2] > grown[1] + 1


class TestOracleSeries:
    def test_polydisc_linear_coefficient(self):
        vm = prepare(identity(3))
        series = oracle_series(vm, Window.cube(3, 3))
        assert series.get((1, 0, 0), 0) == 2  # 1/(1-t)^2 = sum (k+1) t^k

    def test_hartogs_values(self, hartogs_vm):
        series = oracle_series(hartogs_vm, Window.cube(2, 4))
        assert series.get((0, 0), 0) == 2
        assert series.get((1, 0), 0) == 6
        assert series.get((-1, 0), 0) == 0

    def test_positivity_and_denominator(self, sweep_family):
        for vm in sweep_family[:20]:
            det_adj = vm.det ** (vm.n - 1)
            series = oracle_series(vm, Window.cube(vm.n, 3))
            for m, c in series.items():
                assert c > 0
                assert det_adj % c.denominator == 0
                assert c * monomial_norm(vm, m) == 1  # reciprocal norms

    def test_window_monotonicity(self, worked_vm):
        small = oracle_series(worked_vm, Window.cube(2, 3))
        large = oracle_series(worked_vm, Window.cube(2, 6))
        for m, c in small.items():
            assert large[m] == c

    def test_parseval_constant(self, sweep_family):
        for vm in sweep_family[:15]:
            series = oracle_series(vm, Window.cube(vm.n, 1))
            assert series.get((0,) * vm.n, 0) == 1 / monomial_norm(
                vm, (0,) * vm.n
            )


class TestCompare:
    def test_hartogs_spec_window(self, hartogs_vm):
        rep = compare_with_closed_form(hartogs_vm, Window.of((-2, -2), (10, 10)))
        assert rep.ok and rep.checked > 0
        assert rep.safe_lower == (-2, -2) and rep.safe_upper == (10, 10)
        assert rep.checked == 13 * 13

    def test_worked_spec_window(self, worked_vm):
        rep = compare_with_closed_form(worked_vm, Window.of((-2, -2), (12, 12)))
        assert rep.ok
        assert rep.matched == rep.checked

    def test_polydisc(self):
        for n in (2, 3):
            vm = prepare(identity(n))
            rep = compare_with_closed_form(vm, Window.of((0,) * n, (6,) * n))
            assert rep.ok

    def test_detects_corruption(self, worked_vm):
        form = assemble_kernel(worked_vm)
        tampered_terms = {e: c for e, c in form.numerator.items()}
        tampered_terms[(1, 1)] = 2  # true coefficient is 4
        tampered = BergmanKernelForm(
            prefactor=form.prefactor,
            numerator=LaurentPolynomial(2, tampered_terms),
            factors=form.factors,
            source=form.source,
        )
        rep = compare_with_closed_form(
            worked_vm, Window.of((-2, -2), (12, 12)), form=tampered
        )
        assert not rep.ok
        bad = {e for e, _, _ in rep.mismatches}
        assert (1, 1) in bad
        for e, closed, oracle in rep.mismatches:
            if e == (1, 1):
                assert closed == 1 and oracle == 2  # scaled by 1/det A = 1/2

    def test_small_windows(self, worked_vm):
        # the numerator's box (0, 0)..(2, 2) is always compared as well
        for radius, lower, checked in ((0, (0, 0), 9), (1, (-1, -1), 16)):
            rep = compare_with_closed_form(worked_vm, Window.cube(2, radius))
            assert rep.ok and rep.checked == rep.matched == checked
            assert rep.safe_lower == lower and rep.safe_upper == (2, 2)

    def test_detects_denominator_corruption(self, worked_vm):
        # t^(0,1) - t^(2,0) replaced by t^(0,1) - t^(3,0): no row binomial
        form = assemble_kernel(worked_vm)
        wrong = LaurentPolynomial(2, {(0, 1): 1, (3, 0): -1})
        tampered = dataclasses.replace(form, factors=(wrong,) + form.factors[1:])
        with pytest.raises(ValueError, match="row binomials") as exc:
            compare_with_closed_form(worked_vm, Window.of((-2, -2), (12, 12)), form=tampered)
        assert repr(wrong) in str(exc.value)

    def test_prefactor_honoured(self):
        # kernel-equal forms whose prefactor is not 1/det A
        vm = prepare(parse_matrix("1 -3 0 / 0 3 -1 / 0 0 1"))
        form = assemble_kernel(vm).canonicalized()
        assert form.prefactor == Fraction(1, 3)
        assert compare_with_closed_form(vm, Window.cube(3, 4), form=form).ok
        spec = SignatureOneSpec((2, 3, 5))
        vm = prepare(signature_matrix(spec))
        rep = compare_with_closed_form(vm, Window.cube(3, 3), form=kernel_signature_one(spec))
        assert rep.ok and rep.matched == rep.checked

    def test_prefactor_scales_reported_values(self, worked_vm):
        # doubling the prefactor doubles every closed-form coefficient
        form = assemble_kernel(worked_vm)
        doubled = dataclasses.replace(form, prefactor=2 * form.prefactor)
        rep = compare_with_closed_form(worked_vm, Window.cube(2, 0), form=doubled)
        found = {e: (closed, oracle) for e, closed, oracle in rep.mismatches}
        assert len(found) == len(form.numerator)
        assert found[(1, 1)] == (4, 2)  # numerator 4, scaled by 2 * 1/2

    @pytest.mark.parametrize(
        "factor",
        [{(1, 0): 2, (0, 0): -2}, {(0, 1): 1, (1, 0): -1, (0, 0): 1}],
        ids=["2t-2", "trinomial"],
    )
    def test_factor_must_be_a_unit_binomial(self, worked_vm, factor):
        form = assemble_kernel(worked_vm)
        form = dataclasses.replace(
            form, factors=(LaurentPolynomial(2, factor), *form.factors[1:])
        )
        with pytest.raises(ValueError, match="binomials"):
            compare_with_closed_form(worked_vm, Window.cube(2, 1), form=form)


def _with_term(form, e, c):
    """form with its numerator's coefficient at e set to c (0 removes it)."""
    terms = dict(form.numerator.items())
    terms[tuple(e)] = c
    return dataclasses.replace(form, numerator=LaurentPolynomial(form.n, terms))


def _admissible_floor(adj_rows, lo, hi):
    """Per coordinate i, a lower bound on m_i over the admissible m of the
    box lo..hi, clipped to lo_i.  With adj >= 0, y_j = sum_l (m_l + 1) adj_lj
    >= 1 and m_l <= hi_l for l != i give, for every j with adj_ij > 0,
    m_i >= ceil((1 - sum_(l != i) (hi_l + 1) adj_lj) / adj_ij) - 1."""
    n = len(adj_rows)
    cols = [sum((h + 1) * adj_rows[l][j] for l, h in enumerate(hi)) for j in range(n)]
    floor = []
    for i in range(n):
        q = lo[i]
        for j, a in enumerate(adj_rows[i]):
            if a > 0:
                rest = cols[j] - (hi[i] + 1) * a
                q = max(q, -((rest - 1) // a) - 1)
        floor.append(q)
    return tuple(floor)


def _cut(vm, form, window):
    """(lo, elo): the compared box's lower corner and the cut below which
    the series times the denominator vanishes, since adj B >= 0 makes the
    admissible exponents an up-set.  Terms drawn between the two (the
    "strip") test that the comparison reads the zero product there."""
    num = form.numerator
    dmin = [2 * sum(x) for x in zip(*(f.min_exponents() for f in form.factors))]
    dmax = [2 * sum(x) for x in zip(*(f.max_exponents() for f in form.factors))]
    lo = tuple(min(w, e) for w, e in zip(window.lower, num.min_exponents()))
    hi = tuple(max(w, e) for w, e in zip(window.upper, num.max_exponents()))
    adj = [list(r) for r in vm.adj.rows]
    qlo = _admissible_floor(
        adj,
        tuple(l - d for l, d in zip(lo, dmax)),
        tuple(h - d for h, d in zip(hi, dmin)),
    )
    return lo, tuple(min(max(l, a + d), h + 1) for l, a, d, h in zip(lo, qlo, dmin, hi))


def _hull_points(form, window) -> int:
    """Points of the uncut reference's hull: the compared box widened by the
    squared denominator's exponent extents."""
    num = form.numerator
    lo = [min(w, e) for w, e in zip(window.lower, num.min_exponents())]
    hi = [max(w, e) for w, e in zip(window.upper, num.max_exponents())]
    for f in form.factors:
        hi = [h + 2 * (b - a) for h, a, b in zip(hi, f.min_exponents(), f.max_exponents())]
    return math.prod(h - l + 1 for l, h in zip(lo, hi))


@st.composite
def cut_cases(draw, pools):
    """A valid matrix from one of the pools, a window (often away from the
    origin for n <= 3, within -1..1 beyond), and a form with a non-default
    prefactor or a corrupted numerator term above the cut, inside the cut
    strip or below the compared box."""
    vm = draw(st.sampled_from(draw(st.sampled_from(pools))))
    n = vm.n
    low, high, span = {2: (-8, 8, 5), 3: (-8, 8, 3)}.get(n, (-1, 0, 1))
    lower = draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
    width = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    window = Window.of(lower, [l + w for l, w in zip(lower, width)])
    form = assemble_kernel(vm)
    scale = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    form = dataclasses.replace(form, prefactor=scale * form.prefactor)
    where = draw(st.sampled_from(("none", "above", "strip", "below")))
    lo, elo = _cut(vm, form, window)
    hi = tuple(max(w, e) for w, e in zip(window.upper, form.numerator.max_exponents()))
    if where == "above" and all(e <= h for e, h in zip(elo, hi)):
        e = [draw(st.integers(a, h)) for a, h in zip(elo, hi)]
    elif where == "strip" and any(l < a for l, a in zip(lo, elo)):
        i = draw(st.sampled_from([i for i in range(n) if lo[i] < elo[i]]))
        e = [draw(st.integers(l, h)) for l, h in zip(lo, hi)]
        e[i] = draw(st.integers(lo[i], elo[i] - 1))
    elif where == "below":
        e = [draw(st.integers(l - 3, h)) for l, h in zip(lo, hi)]
        i = draw(st.integers(0, n - 1))
        e[i] = lo[i] - draw(st.integers(1, 3))
    else:
        e = None
    if e is not None:
        c = draw(st.integers(-3, 3))
        form = _with_term(form, e, c if c != dict(form.numerator.items()).get(tuple(e), 0) else c + 1)
    return vm, window, form


@pytest.fixture(scope="module")
def wide_pools():
    """Valid 4x4, 5x5 and 6x6 matrices whose uncut reference hull stays
    small at every window cut_cases draws for them (within -1..1)."""
    return tuple(
        [
            vm
            for vm in families.valid_family(n, 24)
            if _hull_points(assemble_kernel(vm), Window.cube(n, 1)) <= 300_000
        ]
        for n in (4, 5, 6)
    )


@contextlib.contextmanager
def _no_fill():
    """Any window fill inside raises."""
    def fill(*args, **kwargs):
        raise AssertionError("a window was filled")

    with mock.patch.object(_backend, "fill_products", fill), \
            mock.patch.object(oracle, "oracle_series", fill):
        yield


def _assert_equals_uncut(vm, window, form):
    want = compare_uncut(vm, window, form=form)
    with _no_fill():
        assert compare_with_closed_form(vm, window, form=form) == want


class TestCorruptedFormReport:
    """The report against the uncut reference in tests/_reference, on forms
    with a non-default prefactor or a term corrupted above, below or inside
    the admissible cut."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_report_equals_uncut_reference(self, data, family_2x2, family_3x3):
        _assert_equals_uncut(*data.draw(cut_cases((family_2x2, family_3x3))))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_report_equals_uncut_reference_up_to_n6(
        self, data, family_2x2, family_3x3, wide_pools
    ):
        assert all(wide_pools)
        _assert_equals_uncut(*data.draw(cut_cases((family_2x2, family_3x3, *wide_pools))))

    def test_corrupted_6x6_report_equals_uncut_reference(self):
        # the 6x6 cyclic (2, -1) at radius 0: the uncut reference fills a
        # hull of 11^6 points for a compared box of 5^6, and the report,
        # read off N with every fill patched to raise, is the same
        rows = tuple(
            tuple(2 if j == i else -1 if j == (i + 1) % 6 else 0 for j in range(6))
            for i in range(6)
        )
        vm = prepare(IntMatrix(rows))
        form = _with_term(assemble_kernel(vm), (2, 3, 1, 4, 0, 2), 7)
        window = Window.cube(6, 0)
        want = compare_uncut(vm, window, form=form)
        with _no_fill():
            got = compare_with_closed_form(vm, window, form=form)
        assert got == want
        assert [e for e, _, _ in got.mismatches] == [(2, 3, 1, 4, 0, 2)]

    def test_corrupted_term_where_the_series_vanishes(self, worked_vm):
        # the admissible floor rises above the hull's lower corner on both
        # axes, and a term below it, where the product vanishes, still
        # reports (c, 0)
        window = Window.cube(2, 3)
        form = _with_term(assemble_kernel(worked_vm), (-2, 1), 5)
        got = compare_with_closed_form(worked_vm, window, form=form)
        want = compare_uncut(worked_vm, window, form=form)
        assert got == want
        lo, elo = _cut(worked_vm, form, window)
        assert (lo, elo) == ((-3, -3), (0, -2))
        assert got.mismatches == (((-2, 1), Fraction(5, 2), 0),)

    def test_hull_without_admissible_points(self, worked_vm):
        # every hull point inadmissible: the product vanishes, and every
        # numerator term is compared with 0
        window = Window.of((-9, -9), (-8, -8))
        form = dataclasses.replace(
            assemble_kernel(worked_vm),
            numerator=LaurentPolynomial(2, {(-9, -8): 1}),
        )
        got = compare_with_closed_form(worked_vm, window, form=form)
        assert got == compare_uncut(worked_vm, window, form=form)
        assert [e for e, _, _ in got.mismatches] == [(-9, -8)]

    def test_enumerates_the_tent_formula_once(self, worked_vm):
        # a wrong form's report enumerates c once; a right form's none, and
        # neither builds a numerator of its own
        form = assemble_kernel(worked_vm)
        with mock.patch.object(oracle, "tent_product_over_box",
                               wraps=oracle.tent_product_over_box) as tents, \
                mock.patch.object(kernel, "numerator_polynomial") as numerator:
            assert compare_with_closed_form(worked_vm, Window.cube(2, 3), form=form).ok
            assert tents.call_count == 0
            got = compare_with_closed_form(worked_vm, Window.cube(2, 3),
                                           form=_with_term(form, (1, 1), 5))
        assert [e for e, _, _ in got.mismatches] == [(1, 1)]
        assert tents.call_count == 1 and numerator.call_count == 0


def test_window_cap_at_its_edge():
    # the identity's hull is the compared box widened by 2 below on each
    # axis: (-2, -2)..(2^14 - 3, 2^13 - 3) has exactly 2^27 points, and
    # one more row is over the cap
    assert oracle.HULL_BUDGET_POINTS == 2**27
    vm = prepare(identity(2))
    with _no_fill():
        rep = compare_with_closed_form(vm, Window.of((0, 0), (2**14 - 3, 2**13 - 3)))
        assert rep.ok and rep.checked == 134168580
        with pytest.raises(WindowTooLargeError, match=r"^the oracle hull .* has 134225920 points"):
            compare_with_closed_form(vm, Window.of((0, 0), (2**14 - 2, 2**13 - 3)))


@pytest.mark.parametrize(
    "n, count, radius",
    [(4, 12, 4), (5, 8, 3), (6, 2, 2)],
)
def test_oracle_sweep_beyond_n3(n, count, radius):
    for vm in families.valid_family(n, count):
        form = assemble_kernel(vm)
        window = Window.cube(n, radius)
        rep = compare_uncut(vm, window, form=form)
        assert compare_with_closed_form(vm, window, form=form) == rep
        assert rep.ok
        assert rep.safe_lower == tuple(min(-radius, e) for e in form.numerator.min_exponents())
        assert rep.safe_upper == tuple(max(radius, e) for e in form.numerator.max_exponents())
        assert rep.checked == rep.matched == math.prod(
            h - l + 1 for l, h in zip(rep.safe_lower, rep.safe_upper)
        )


def _cyclic(n, a, b):
    """The n x n cyclic matrix with a on the diagonal and b right of it."""
    return prepare(IntMatrix(tuple(
        tuple(a if j == i else b if j == (i + 1) % n else 0 for j in range(n)) for i in range(n)
    )))


def cone_reference(vm, closed=False, base_shift=0, drop_empty=False):
    """N straight from its definition: Pi by scanning the box of x that
    holds x = sum_j lambda_j b_j for lambda in [0, 1]^n, not by cosets.
    The flags make the mutants: Pi with closed ends (0 <= y_j <= det),
    base off by one in its first coordinate, and the empty subset's term
    t^(x + base) prod_j y_j dropped from every point."""
    n, det, rows = vm.n, vm.det, vm.matrix.rows
    cols = list(zip(*rows))
    base = [2 * sum(max(-x, 0) for x in col) - 1 + (base_shift if i == 0 else 0)
            for i, col in enumerate(cols)]
    ranges = [range(sum(min(x, 0) for x in col), sum(max(x, 0) for x in col) + 1)
              for col in cols]
    out = {}
    for x in itertools.product(*ranges):
        y = [sum(xi * vm.adj.entry(i, j) for i, xi in enumerate(x)) for j in range(n)]
        if not all((0 if closed else 1) <= v <= det for v in y):
            continue
        for subset in itertools.product((0, 1), repeat=n):
            if drop_empty and not any(subset):
                continue
            c = math.prod(det - v if s else v for v, s in zip(y, subset))
            if c:
                e = tuple(x[i] + base[i] + sum(s * r[i] for s, r in zip(subset, rows))
                          for i in range(n))
                out[e] = out.get(e, 0) + c
    return out


def agrees_reference(vm, form, mass=True, closed=False, s_shift=0):
    """The certificate's test term by term in Python integers: with
    det^(n-1) * prefactor = p/q, p * num(e) = q * c(e) at each term,
    c(e) = prod_j tent(det, (e + s) . a_j - 1), and the mass identity
    sum_e p * num(e) = q * det^(n+1).  The flags make the mutants: no mass
    check, the tent of the closed interval [0, det] (tent(det + 1, .)),
    and s off by s_shift in its first coordinate."""
    n, det = vm.n, vm.det
    ratio = det ** (n - 1) * Fraction(form.prefactor)
    p, q = ratio.numerator, ratio.denominator
    s = [1 + 2 * sum(min(x, 0) for x in col) + (s_shift if i == 0 else 0)
         for i, col in enumerate(zip(*vm.matrix.rows))]
    k = det + 1 if closed else det

    def c(e):
        return math.prod(
            tent(k, sum((x + si) * vm.adj.entry(i, j) for i, (x, si) in enumerate(zip(e, s))) - 1)
            for j in range(n))

    if any(p * v != q * c(e) for e, v in form.numerator.items()):
        return False
    return not mass or p * sum(v for _, v in form.numerator.items()) == q * det ** (n + 1)


class TestCertificate:
    """`certify`: the form against the paper's tent formula on all of Z^n."""

    def test_parallelepiped_has_det_points(self, family_2x2, family_3x3):
        mats = family_2x2 + subsample(family_3x3, 150)
        mats += [vm for n in range(4, 9) for vm in valid_family(n, 4)] + [_cyclic(5, 2, -1)]
        for vm in mats:
            ys = [tuple(y) for y in parallelepiped(vm).tolist()]
            assert len(ys) == len(set(ys)) == vm.det
            for y in ys:
                assert all(1 <= v <= vm.det for v in y)
                # x = y B / det is a lattice point
                assert all(sum(v * r[i] for v, r in zip(y, vm.matrix.rows)) % vm.det == 0
                           for i in range(vm.n))

    def test_cone_numerator_equals_its_definition(self, family_2x2, family_3x3):
        # the numerator is N, in lexicographic order
        for vm in family_2x2 + subsample(family_3x3, 150) + valid_family(4, 6):
            got = list(numerator_polynomial(vm).items())
            assert got == sorted(cone_reference(vm).items()), vm.matrix.rows

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mass_identity(self, data):
        # sum over Z^n of c = det^(n+1), on the tent enumerator's values
        n = data.draw(st.integers(2, 4))
        rows = [[data.draw(st.integers(1, 3)) if i == j else
                 -data.draw(st.integers(0, 2)) if j > i else 0 for j in range(n)]
                for i in range(n)]
        perm = data.draw(st.permutations(range(n)))
        vm = prepare(IntMatrix([[rows[a][b] for b in perm] for a in perm]))
        box = exponent_box(vm)
        s = [1 + 2 * sum(min(x, 0) for x in col) for col in zip(*vm.matrix.rows)]
        offsets = [sum(si * a for si, a in zip(s, col)) - 1 for col in zip(*vm.adj.rows)]
        c = tent_product_over_box(box.lower, box.upper, [vm.det] * n, vm.adj.rows, offsets)
        assert all(v > 0 for v in c.values())
        assert sum(c.values()) == vm.det ** (n + 1)

    def test_accepts_assembled_forms(self, family_2x2, family_3x3):
        mats = family_2x2 + subsample(family_3x3, 300)
        mats += [vm for n in (4, 5, 6, 7, 8) for vm in valid_family(n, 20)]
        mats += [vm for n in (8, 12, 16) for vm in unimodular_family(n, 2, seed=n)]
        mats += [_cyclic(n, 2, -1) for n in (5, 6, 7, 8)]
        mats += [_cyclic(4, 4, -3), _cyclic(3, 40, -39)]
        for vm in mats:
            assert oracle.certify(vm, assemble_kernel(vm)) is None, vm.matrix.rows

    def test_accepts_special_witnesses(self, family_2x2):
        forms = [kernel_dim2(vm) for vm in family_2x2]
        forms += [kernel_unimodular(vm) for n in (2, 3, 4, 5) for vm in unimodular_family(n, 10)]
        forms += [kernel_signature_one(spec) for spec in subsample(signature_specs(), 300)]
        forms += [kernel_generalized_hartogs(spec) for spec in chain_specs()]
        for form in forms:
            # the witnesses' own prefactors, and their content folded in
            assert oracle.certify(form.source, form) is None, form.source.matrix.rows
            assert oracle.certify(form.source, form.canonicalized()) is None

    def test_refuses_a_changed_coefficient(self, family_2x2, family_3x3):
        for vm in subsample(family_2x2, 20) + subsample(family_3x3, 40) + valid_family(5, 4):
            form = assemble_kernel(vm)
            e, c = max(form.numerator.items(), key=lambda item: (item[1], item[0]))
            assert oracle.certify(vm, _with_term(form, e, c + 1)) == e
            assert oracle.certify(vm, _with_term(form, e, 0)) == e

    def test_refuses_a_term_outside_the_numerator_box(self, worked_vm, hartogs_vm):
        for vm in (worked_vm, hartogs_vm, _cyclic(3, 2, -1)):
            form = assemble_kernel(vm)
            box = form.box
            above = (box.upper[0] + 1,) + box.upper[1:]
            below = (box.lower[0] - 3,) + box.lower[1:]
            assert oracle.certify(vm, _with_term(form, above, 1)) == above
            assert oracle.certify(vm, _with_term(form, below, -2)) == below

    def test_refuses_a_doubled_prefactor(self, family_2x2):
        for vm in family_2x2:
            form = assemble_kernel(vm)
            doubled = dataclasses.replace(form, prefactor=2 * form.prefactor)
            assert oracle.certify(vm, doubled) == min(e for e, _ in form.numerator.items())

    def test_factors_are_the_rows_up_to_sign_and_order(self, worked_vm):
        form = assemble_kernel(worked_vm)
        f0, f1 = form.factors
        for factors in ((f1, f0), (-f0, f1), (f1, -f0)):
            assert oracle.certify(worked_vm, dataclasses.replace(form, factors=factors)) is None
        # t^(0,1) - t^(2,0) replaced by t^(0,1) - t^(3,0), by twice itself and
        # by itself plus t^(1,1); a row twice, a row left out
        wrong = LaurentPolynomial(2, {(0, 1): 1, (3, 0): -1})
        double = LaurentPolynomial(2, {(0, 1): 2, (2, 0): -2})
        three = LaurentPolynomial(2, {(0, 1): 1, (2, 0): -1, (1, 1): 1})
        for factors, want in (((wrong, f1), wrong), ((double, f1), double), ((three, f1), three),
                              ((f0, -f0), -f0), ((f0,), f1)):
            got = oracle.certify(worked_vm, dataclasses.replace(form, factors=factors))
            assert got == want

    @pytest.mark.parametrize(
        "mutant",
        [{"closed": True}, {"base_shift": 1}, {"base_shift": -1}, {"drop_empty": True}],
        ids=["closed-ends", "base+1", "base-1", "dropped-subset-term"],
    )
    def test_mutants_of_the_cone_numerator_fail(self, mutant, hartogs_vm, worked_vm):
        # a form whose numerator is built from a mutant of the cone is refused
        for vm in [hartogs_vm, worked_vm, _cyclic(3, 2, -1), *valid_family(4, 3)]:
            numerator = LaurentPolynomial(vm.n, cone_reference(vm, **mutant))
            form = dataclasses.replace(assemble_kernel(vm), numerator=numerator)
            assert oracle.certify(vm, form) is not None, vm.matrix.rows

    @pytest.mark.parametrize(
        "mutant",
        [{"mass": False}, {"closed": True}, {"s_shift": 1}, {"s_shift": -1}],
        ids=["no-mass-check", "closed-tent-ends", "s+1", "s-1"],
    )
    def test_mutants_of_the_certificate_fail(self, mutant, hartogs_vm, worked_vm):
        # right forms (assembled, content folded) and wrong ones (the least
        # term dropped, the largest coefficient raised): the certificate
        # and its reference judge every one rightly, and each mutant of the
        # reference judges at least one wrongly
        cases = []
        for vm in [hartogs_vm, worked_vm, _cyclic(3, 2, -1), *valid_family(4, 3)]:
            form = assemble_kernel(vm)
            least = min(e for e, _ in form.numerator.items())
            e, c = max(form.numerator.items(), key=lambda item: (item[1], item[0]))
            cases += [(vm, form, True), (vm, form.canonicalized(), True),
                      (vm, _with_term(form, least, 0), False), (vm, _with_term(form, e, c + 1), False)]
        for vm, form, right in cases:
            assert (oracle.certify(vm, form) is None) == right
            assert oracle._agrees(vm, form) == agrees_reference(vm, form) == right
        assert any(agrees_reference(vm, form, **mutant) != right for vm, form, right in cases)

    def test_sweep_agrees_with_the_window(self, sweep_family):
        for vm in sweep_family:
            form = assemble_kernel(vm)
            assert oracle.certify(vm, form) is None
            assert compare_uncut(vm, Window.cube(vm.n, 1), form=form).ok

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_certifies_exactly_what_the_window_accepts(self, data, family_2x2, family_3x3):
        # every corruption cut_cases draws lies in the window together with
        # the assembled numerator's box, so the window finds it; a correct
        # form passes both.  A corruption that zeroes an extreme term shrinks
        # the corrupted numerator's own box, so the window is widened to the
        # assembled one's (for B = (4 -3 / -3 4), t^(0, 12) dropped at the
        # radius-0 window is otherwise outside the compared box)
        vm, window, form = data.draw(cut_cases((family_2x2, family_3x3)))
        num = assemble_kernel(vm).numerator
        window = Window.of(
            [min(w, e) for w, e in zip(window.lower, num.min_exponents())],
            [max(w, e) for w, e in zip(window.upper, num.max_exponents())],
        )
        assert (oracle.certify(vm, form) is None) == compare_uncut(vm, window, form).ok


class TestNumericSpotCheck:
    def test_polydisc(self):
        vm = prepare(identity(2))
        err = numeric_spot_check(vm, [0.3, 0.4], [0.3, 0.4], terms=60)
        assert err < 1e-10

    def test_hartogs(self, hartogs_vm):
        err = numeric_spot_check(hartogs_vm, [0.1, 0.6], [0.1, 0.6], terms=80)
        assert err < 1e-8

    def test_off_diagonal_points(self, hartogs_vm):
        p = [0.1 * 1j, 0.55]
        q = [0.08, 0.5 * (1 + 1j) / math.sqrt(2)]
        err = numeric_spot_check(hartogs_vm, p, q, terms=80)
        assert err < 1e-8

    def test_singular_direction_flagged(self, hartogs_vm):
        with pytest.raises(NonConvergentError):
            numeric_spot_check(hartogs_vm, [0.69, 0.7], [0.69, 0.7], terms=40)

    def test_random_family_points(self, sweep_family):
        rng = random.Random(5)
        for vm in sweep_family[:4]:
            form = assemble_kernel(vm)
            p = sample_interior_point(vm, form, rng)
            assert p is not None
            assert numeric_spot_check(vm, p, p, terms=128, form=form) < 1e-8


def reference_partial_sum(vm, t, radius):
    """The monomial series summed from scratch over every admissible m with
    (m+1) adj B <= radius entrywise, one first coordinate of y at a time."""
    n = vm.n
    det = vm.det
    det_adj = det ** (n - 1)
    b = np.asarray([list(r) for r in vm.matrix.rows], dtype=np.int64)
    log_mod = np.log(np.abs(t))
    arg = np.angle(t)
    mesh = np.meshgrid(*[np.arange(1, radius + 1, dtype=np.int64)] * (n - 1), indexing="ij")
    tail = np.stack([g.reshape(-1) for g in mesh], axis=1)
    total = 0.0 + 0.0j
    for y0 in range(1, radius + 1):
        y = np.concatenate([np.full((tail.shape[0], 1), y0, dtype=np.int64), tail], axis=1)
        yb = y @ b
        mask = (yb % det == 0).all(axis=1)
        m = (yb[mask] // det - 1).astype(np.float64)
        weights = y[mask].astype(np.float64).prod(axis=1) / det_adj
        total += complex(np.sum(weights * np.exp(m @ log_mod + 1j * (m @ arg))))
    return total


def reference_walk(vm, t, terms, tol=1e-9):
    """(radius, from-scratch partial sum) at every radius the Cauchy walk
    visits, up to the one where it stops (or the last one)."""
    step = max(4, terms // 10)
    visited = []
    prev = None
    stable = 0
    for radius in list(range(step, terms, step)) + [terms]:
        total = reference_partial_sum(vm, t, radius)
        visited.append((radius, total))
        cur = total / math.pi**vm.n
        if prev is not None:
            if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
                stable += 1
                if stable >= 2:
                    break
            else:
                stable = 0
        prev = cur
    return visited


class TestSpotWalk:
    """The walk's coset-by-coset partial sums against from-scratch cube scans."""

    def _walk(self, monkeypatch, vm, p, terms):
        seen = []
        shells = oracle._partial_sums

        def recording(*args):
            for item in shells(*args):
                seen.append(item)
                yield item

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_partial_sums", recording)
            try:
                numeric_spot_check(vm, p, p, terms=terms)
            except NonConvergentError:
                pass
        return seen

    def _check(self, monkeypatch, vm, p, terms):
        t = np.asarray([complex(z) * complex(z).conjugate() for z in p])
        seen = self._walk(monkeypatch, vm, p, terms)
        want = reference_walk(vm, t, terms)
        # the same radii, so the walk stops at the same one
        assert [r for r, _ in seen] == [r for r, _ in want]
        for (_, got), (_, ref) in zip(seen, want):
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_sweep_matrices(self, monkeypatch, family_2x2, family_3x3):
        rng = random.Random(17)
        cases = families.subsample(family_2x2, 4) + families.subsample(family_3x3, 4)
        for vm in cases:
            form = assemble_kernel(vm)
            p = sample_interior_point(vm, form, rng)
            assert p is not None
            self._check(monkeypatch, vm, p, terms=128)
        # n = 4 at terms 32: the reference scans a 32^4 cube per radius
        for vm in [vm for vm in valid_family(4, 8) if vm.det > 1][:2]:
            p = sample_interior_point(vm, assemble_kernel(vm), rng)
            assert p is not None
            self._check(monkeypatch, vm, p, terms=32)

    def test_cosets_beyond_the_largest_radius(self, monkeypatch):
        # det 4096, and all but 128 cosets have y'_2 > 128
        vm = prepare(IntMatrix(((4096, -1), (0, 1))))
        assert vm.det == 4096
        self._check(monkeypatch, vm, [0.9995, 0.5], terms=128)

    def test_walk_without_convergence(self, monkeypatch, hartogs_vm):
        self._check(monkeypatch, hartogs_vm, [0.69, 0.7], terms=40)
