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

from bergpoly import (
    BergmanKernelForm,
    EvaluationAtSingularityError,
    GeneralizedHartogsSpec,
    IntMatrix,
    LaurentPolynomial,
    NumeratorTooLargeError,
    assemble_kernel,
    canonicity_check,
    denominator_factors,
    eval_kernel,
    exponent_box,
    kernel_generalized_hartogs,
    kernel_unimodular,
    numerator_polynomial,
    prepare,
    same_kernel,
)

from bergpoly import kernel, oracle
from bergpoly.int_linalg import parallelepiped

import families
from _reference import (
    add,
    identity,
    in_canonical_order,
    mul,
    numerator_coefficient,
    one,
    scaled,
)
from conftest import sample_interior_point


def poly(n, terms):
    return LaurentPolynomial(n, {e: Fraction(c) for e, c in terms.items()})


class TestBoxCeiling:
    def test_identity(self):
        vm = prepare(identity(3))
        assert exponent_box(vm).ceilings == (1, 1, 1)

    def test_hartogs(self, hartogs_vm):
        assert exponent_box(hartogs_vm).ceilings[0] == 1
        assert exponent_box(hartogs_vm).ceilings[1] == 2  # column abs-sum 2, det 1

    def test_worked(self, worked_vm):
        assert exponent_box(worked_vm).ceilings[0] == 1  # column abs-sum 2, det 2
        assert exponent_box(worked_vm).ceilings[1] == 1


class TestExponentBox:
    def test_identity_collapses(self):
        box = exponent_box(prepare(identity(2)))
        assert box.lower == (0, 0) and box.upper == (0, 0)

    def test_hartogs(self, hartogs_vm):
        box = exponent_box(hartogs_vm)
        assert box.lower == (0, 1) and box.upper == (0, 1)
        assert box.ceilings == (1, 2)

    def test_worked(self, worked_vm):
        box = exponent_box(worked_vm)
        assert box.lower == (0, 0) and box.upper == (2, 2)
        assert box.ceilings == (1, 1)


class TestNumeratorCoefficient:
    def test_identity(self):
        vm = prepare(identity(3))
        assert numerator_coefficient(vm, (0, 0, 0)) == 1

    def test_worked_values(self, worked_vm):
        assert numerator_coefficient(worked_vm, (1, 1)) == 4
        assert numerator_coefficient(worked_vm, (0, 0)) == 0

    def test_nonnegative_on_family(self, sweep_family):
        for vm in sweep_family[:40]:
            box = exponent_box(vm)
            for nu in itertools.product(
                *[range(l, u + 1) for l, u in zip(box.lower, box.upper)]
            ):
                assert numerator_coefficient(vm, nu) >= 0


class TestNumeratorPolynomial:
    def test_identity(self):
        vm = prepare(identity(2))
        assert numerator_polynomial(vm) == one(2)

    def test_hartogs(self, hartogs_vm):
        assert numerator_polynomial(hartogs_vm) == poly(2, {(0, 1): 1})

    def test_worked(self, worked_vm):
        assert numerator_polynomial(worked_vm) == poly(
            2, {(2, 0): 1, (0, 1): 1, (1, 1): 4, (0, 2): 1, (2, 1): 1}
        )

    def test_matches_pointwise_coefficients(self, sweep_family):
        for vm in sweep_family[:25]:
            num = numerator_polynomial(vm)
            for e, c in num.items():
                assert type(c) is int
                assert c == numerator_coefficient(vm, e)


    def test_one_term_per_coset_and_free_subset(self, family_2x2, family_3x3):
        # the terms never collide: the coset of y has 2^#{j : y_j < det}
        # terms, the count the cap is checked against
        for vm in family_2x2 + family_3x3:
            count = sum(2 ** sum(v < vm.det for v in y) for y in parallelepiped(vm).tolist())
            assert len(numerator_polynomial(vm)) == count, vm.matrix.rows


def _hook(d):
    """(d -1 / 0 1): the coset r = 0 has y = (d, d) and one term, each of
    the other d - 1 cosets has y = (r_0, r_0) and four: 4d - 3 terms."""
    return prepare(IntMatrix(((d, -1), (0, 1))))


def _corner(d):
    """(d -1 0 0 0 0 / e_2 / ... / e_6): the coset r = 0 has
    y = (d, ..., d) and the coefficient d^6."""
    return prepare(IntMatrix([[d, -1, 0, 0, 0, 0]]
                             + [[int(i == j) for j in range(6)] for i in range(1, 6)]))


class TestNumeratorBounds:
    def test_cap_at_its_edge(self):
        assert kernel.NUMERATOR_BUDGET_TERMS == 2**18
        assert len(numerator_polynomial(_hook(2**16))) == 2**18 - 3
        with pytest.raises(NumeratorTooLargeError, match=(
                r"^the numerator in dimension 2 with det 65537 has 262145 terms, "
                r"more than the cap of 262144$")):
            numerator_polynomial(_hook(2**16 + 1))

    def test_det_over_the_cap_is_refused_before_the_walk(self):
        with mock.patch.object(kernel, "parallelepiped", side_effect=AssertionError):
            with pytest.raises(NumeratorTooLargeError, match=(
                    r"^the numerator in dimension 2 with det 262145 has at least 262145 "
                    r"terms, more than the cap of 262144$")):
                numerator_polynomial(_hook(2**18 + 1))

    def test_exponent_dtype_at_its_edge(self):
        # (1 -m / 0 1) has det 1, and its largest bound is
        # (det + 4) max_i (1|B|)_i + 1 = 5 (m + 1) + 1
        k = (2**62 - 1) // 5
        for m, dtype in ((k - 1, np.int64), (k, object)):
            vm = prepare(IntMatrix(((1, -m), (0, 1))))
            assert kernel._numerator_dtypes(vm) == (dtype, np.int64)
            assert numerator_polynomial(vm) == kernel_unimodular(vm).numerator

    def test_coefficient_dtype_at_its_edge(self):
        # det^6 is below 2^62 at det 1290 and above it at 1291
        assert 1290**6 < 2**62 < 1291**6
        for d, dtype in ((1290, np.int64), (1291, object)):
            vm = _corner(d)
            assert kernel._numerator_dtypes(vm) == (np.int64, dtype)
            form = assemble_kernel(vm)
            assert max(c for _, c in form.numerator.items()) == d**6
            assert all(type(c) is int for _, c in form.numerator.items())
            assert oracle.certify(vm, form) is None

    def test_certificate_dtype_at_its_edge(self):
        # (1 -m / 0 1) has the one term t^(0, m), offsets (0, -m) and adj B
        # column sums (1, m + 1), so the certificate's bound is
        # m (m + 1) + m + 1 = (m + 1)^2
        for m, dtype in ((2**31 - 2, np.int64), (2**31 - 1, object)):
            vm = prepare(IntMatrix(((1, -m), (0, 1))))
            form = assemble_kernel(vm)
            assert [e for e, _ in form.numerator.items()] == [(0, m)]
            assert oracle._certificate_dtype(vm, m, [0, -m]) is dtype
            assert oracle.certify(vm, form) is None
            wrong = dataclasses.replace(form, numerator=LaurentPolynomial(2, {(0, m): 2}))
            assert oracle.certify(vm, wrong) == (0, m)

    def test_coefficient_beyond_int64(self):
        # the 8x8 cyclic (2, -1): det 255 and a coefficient of 1.79e19
        vm = prepare(IntMatrix([[2 if j == i else -1 if j == (i + 1) % 8 else 0
                                 for j in range(8)] for i in range(8)]))
        form = assemble_kernel(vm)
        assert len(form.numerator) == 65025
        assert max(c for _, c in form.numerator.items()) > 2**63
        assert oracle.certify(vm, form) is None


VALID_BY_N = {
    n: families.valid_family(n, count, seed=31) for n, count in ((2, 30), (3, 60), (4, 20))
}


def assert_palindromic(vm):
    box = exponent_box(vm)
    terms = dict(numerator_polynomial(vm).items())
    for nu, c in terms.items():
        assert terms.get(tuple(l + u - x for l, u, x in zip(box.lower, box.upper, nu))) == c


class TestNumeratorPalindrome:
    """c(nu) = c(lower + upper - nu) on the exponent box, because
    tent(k, r) = tent(k, 2k - 2 - r) and lower + upper + 2 * shift is twice
    the column sums of B: this checks the enumerator and the box together."""

    def test_2x2_family(self, family_2x2):
        for vm in family_2x2:
            assert_palindromic(vm)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 4]).flatmap(lambda n: st.sampled_from(VALID_BY_N[n])))
    def test_valid_families(self, vm):
        assert_palindromic(vm)


class TestDenominatorFactors:
    def test_polydisc(self):
        vm = prepare(identity(2))
        fs = denominator_factors(vm)
        assert fs[0] == poly(2, {(0, 0): 1, (1, 0): -1})
        assert fs[1] == poly(2, {(0, 0): 1, (0, 1): -1})

    def test_hartogs(self, hartogs_vm):
        fs = denominator_factors(hartogs_vm)
        assert fs[0] == poly(2, {(0, 1): 1, (1, 0): -1})  # t2 - t1
        assert fs[1] == poly(2, {(0, 0): 1, (0, 1): -1})  # 1 - t2

    def test_worked(self, worked_vm):
        fs = denominator_factors(worked_vm)
        assert fs[0] == poly(2, {(0, 1): 1, (2, 0): -1})  # t2 - t1^2
        assert fs[1] == poly(2, {(0, 0): 1, (0, 1): -1})

    def test_structure_on_family(self, sweep_family):
        for vm in sweep_family[:40]:
            for f in denominator_factors(vm):
                terms = dict(f.items())
                assert sorted(terms.values()) == [Fraction(-1), Fraction(1)]
                exps = list(terms)
                assert all(a * b == 0 for a, b in zip(*exps))  # disjoint supports


class TestAssemble:
    def test_polydisc(self):
        for n in range(2, 6):
            form = assemble_kernel(identity(n))
            assert form.prefactor == 1
            assert form.pi_exponent == -n
            assert form.numerator == one(n)
            for j, f in enumerate(form.factors):
                e = tuple(1 if i == j else 0 for i in range(n))
                assert f == poly(n, {(0,) * n: 1, e: -1})

    def test_hartogs_form(self, hartogs_vm):
        form = assemble_kernel(hartogs_vm)
        assert form.prefactor == 1
        assert form.numerator == poly(2, {(0, 1): 1})

    def test_worked_form(self, worked_vm):
        form = assemble_kernel(worked_vm)
        assert form.prefactor == Fraction(1, 2)
        assert form.det == 2

    def test_row_permutation_invariance(self, sweep_family):
        rng = random.Random(1)
        for vm in rng.sample(sweep_family, 20):
            rows = list(vm.matrix.rows)
            if vm.n == 2:
                perm = [rows[1], rows[0]]
            else:
                perm = [rows[1], rows[2], rows[0]]  # even permutation
            other = assemble_kernel(IntMatrix(perm))
            base = assemble_kernel(vm)
            assert same_kernel(base, other)
            assert base.numerator == other.numerator
            assert base.prefactor == other.prefactor

    def test_canonicalized_is_noop_on_assembled(self, hartogs_vm, worked_vm):
        for vm in (hartogs_vm, worked_vm):
            form = assemble_kernel(vm)
            canon = form.canonicalized()
            assert canon.numerator == form.numerator
            assert canon.prefactor == form.prefactor
            assert canon.factors == form.factors

    def test_canonicalized_folds_numerator_content(self):
        # The assembled form keeps integer content in its numerator.
        form = assemble_kernel(IntMatrix(((1, -3, 0), (0, 3, -1), (0, 0, 1))))
        chain = kernel_generalized_hartogs(GeneralizedHartogsSpec((1, 3, 1)))
        assert same_kernel(form, chain)
        assert form.prefactor == Fraction(1, 9)
        assert form.canonicalized().prefactor == Fraction(1, 3)
        assert chain.canonicalized().prefactor == Fraction(1, 3)

    def test_folded_content_stays_integral(self):
        form = assemble_kernel(IntMatrix(((1, -3, 0), (0, 3, -1), (0, 0, 1))))
        canon = form.canonicalized()
        assert all(type(c) is int for _, c in canon.numerator.items())
        assert scaled(canon.numerator, 3) == form.numerator


class TestCanonicalOrder:
    """Every polynomial a form holds keeps its terms in lexicographic order
    from construction; nothing sorts them afterwards."""

    def test_numerator_polynomial(self, family_2x2, family_3x3):
        larger = [vm for n in range(4, 9) for vm in families.valid_family(n, 20)]
        for vm in family_2x2 + family_3x3 + larger:
            assert in_canonical_order(numerator_polynomial(vm)), vm.matrix.rows

    def test_factors_and_derived_polynomials(self, sweep_family):
        content = prepare(IntMatrix(((1, -3, 0), (0, 3, -1), (0, 0, 1))))
        for vm in sweep_family[:60] + [content]:
            form = assemble_kernel(vm)
            canon = form.canonicalized()
            polys = [*denominator_factors(vm), canon.numerator, -form.numerator]
            polys += [f.sign_normalized() for f in form.factors]
            polys += [(-f).sign_normalized() for f in form.factors]
            for p in polys:
                assert in_canonical_order(p), vm.matrix.rows
        assert assemble_kernel(content).canonicalized().prefactor == Fraction(1, 3)


class TestCanonicity:
    def test_passes(self, hartogs_vm, worked_vm):
        for vm in (hartogs_vm, worked_vm, prepare(identity(3))):
            assert canonicity_check(assemble_kernel(vm)) is None

    def test_corrupted_form_fails(self, hartogs_vm):
        factor = poly(2, {(0, 1): 1, (1, 0): -1})
        corrupted = BergmanKernelForm(
            prefactor=Fraction(1),
            numerator=mul(factor, poly(2, {(0, 1): 1})),
            factors=(factor, poly(2, {(0, 0): 1, (0, 1): -1})),
            source=hartogs_vm,
        )
        assert canonicity_check(corrupted) == 0


class TestEval:
    def test_polydisc_origin(self):
        for n in (2, 3):
            form = assemble_kernel(identity(n))
            val = eval_kernel(form, [0.0] * n, [0.0] * n)
            assert val == pytest.approx(1 / math.pi**n, rel=1e-12)

    def test_hartogs_value(self, hartogs_vm):
        form = assemble_kernel(hartogs_vm)
        val = eval_kernel(form, [0, 0.5], [0, 0.5])
        assert val == pytest.approx(64 / (9 * math.pi**2), rel=1e-12)

    def test_singularity(self, hartogs_vm):
        form = assemble_kernel(hartogs_vm)
        r = math.sqrt(0.5)
        with pytest.raises(EvaluationAtSingularityError):
            eval_kernel(form, [r, r], [r, r])  # t1 = t2 kills t2 - t1

    def test_hermitian_symmetry(self, sweep_family):
        rng = random.Random(9)
        for vm in sweep_family[:8]:
            form = assemble_kernel(vm)
            p = sample_interior_point(vm, form, rng)
            q = sample_interior_point(vm, form, rng)
            if p is None or q is None:
                continue
            try:
                kpq = eval_kernel(form, p, q)
                kqp = eval_kernel(form, q, p)
            except EvaluationAtSingularityError:
                continue
            assert abs(kpq - kqp.conjugate()) <= 1e-10 * max(1.0, abs(kpq))


class TestVanishingOutsideBox:
    def test_widened_shell(self, sweep_family):
        for vm in sweep_family[:30]:
            box = exponent_box(vm)
            widened = [
                range(l - 2, u + 3) for l, u in zip(box.lower, box.upper)
            ]
            inside = lambda nu: all(
                l <= x <= u for x, l, u in zip(nu, box.lower, box.upper)
            )
            for nu in itertools.product(*widened):
                if not inside(nu):
                    assert numerator_coefficient(vm, nu) == 0


class TestDenominatorClearing:
    def test_monomial_clears_laurent_denominator(self, sweep_family):
        # t^(2 * colsums(B_-)) * prod_j (1 - t^(b^j))^2 equals the product
        # of the squared sign-split binomials: the monomial shift that
        # turns the Laurent-series denominator into a polynomial one.
        for vm in sweep_family[:40]:
            n = vm.n
            shift = tuple(2 * sum(max(-x, 0) for x in col) for col in zip(*vm.matrix.rows))
            laurent_q = LaurentPolynomial.monomial(n, 1, shift)
            squared = one(n)
            for row, f in zip(vm.matrix.rows, denominator_factors(vm)):
                binomial = add(one(n), LaurentPolynomial.monomial(n, -1, row))
                laurent_q = mul(laurent_q, binomial, binomial)
                squared = mul(squared, f, f)
            assert laurent_q == squared
