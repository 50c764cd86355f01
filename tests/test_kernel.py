import itertools
import math
import random
from fractions import Fraction

import pytest

from bergpoly import (
    BergmanKernelForm,
    EvaluationAtSingularityError,
    GeneralizedHartogsSpec,
    IntMatrix,
    LaurentPolynomial,
    assemble_kernel,
    box_ceiling,
    canonicity_check,
    denominator_factors,
    eval_kernel,
    exponent_box,
    irreducibility_precondition,
    kernel_generalized_hartogs,
    numerator_coefficient,
    numerator_polynomial,
    prepare,
    same_kernel,
)
from bergpoly.int_linalg import ValidatedMatrix, adjugate, determinant

from conftest import sample_interior_point


def poly(n, terms):
    return LaurentPolynomial(n, {e: Fraction(c) for e, c in terms.items()})


class TestBoxCeiling:
    def test_identity(self):
        vm = prepare(IntMatrix.identity(3))
        assert [box_ceiling(vm, j) for j in range(3)] == [1, 1, 1]

    def test_hartogs(self, hartogs_vm):
        assert box_ceiling(hartogs_vm, 0) == 1
        assert box_ceiling(hartogs_vm, 1) == 2  # column abs-sum 2, det 1

    def test_worked(self, worked_vm):
        assert box_ceiling(worked_vm, 0) == 1  # column abs-sum 2, det 2
        assert box_ceiling(worked_vm, 1) == 1


class TestExponentBox:
    def test_identity_collapses(self):
        box = exponent_box(prepare(IntMatrix.identity(2)))
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
        vm = prepare(IntMatrix.identity(3))
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
        vm = prepare(IntMatrix.identity(2))
        assert numerator_polynomial(vm) == LaurentPolynomial.one(2)

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


class TestDenominatorFactors:
    def test_polydisc(self):
        vm = prepare(IntMatrix.identity(2))
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
            for j, f in enumerate(denominator_factors(vm)):
                terms = dict(f.items())
                assert sorted(terms.values()) == [Fraction(-1), Fraction(1)]
                exps = list(terms)
                assert all(a * b == 0 for a, b in zip(*exps))  # disjoint supports
                assert irreducibility_precondition(vm, j)


class TestAssemble:
    def test_polydisc(self):
        for n in range(2, 6):
            form = assemble_kernel(IntMatrix.identity(n))
            assert form.prefactor == 1
            assert form.pi_exponent == -n
            assert form.numerator == LaurentPolynomial.one(n)
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


class TestCanonicity:
    def test_passes(self, hartogs_vm, worked_vm):
        for vm in (hartogs_vm, worked_vm, prepare(IntMatrix.identity(3))):
            assert canonicity_check(assemble_kernel(vm)).ok

    def test_corrupted_form_fails(self, hartogs_vm):
        factor = poly(2, {(0, 1): 1, (1, 0): -1})
        corrupted = BergmanKernelForm(
            n=2,
            det=1,
            prefactor=Fraction(1),
            pi_exponent=-2,
            numerator=factor * poly(2, {(0, 1): 1}),
            factors=(factor, poly(2, {(0, 0): 1, (0, 1): -1})),
            source=hartogs_vm,
        )
        verdict = canonicity_check(corrupted)
        assert not verdict.ok and verdict.failed_index == 0


class TestIrreducibilityPrecondition:
    def test_normalized_rows_pass(self, hartogs_vm, worked_vm):
        for vm in (hartogs_vm, worked_vm):
            for j in range(vm.n):
                assert irreducibility_precondition(vm, j)

    def test_unnormalized_row_fails(self):
        # unreachable through prepare(); construct the record directly
        m = IntMatrix(((2, -2), (0, 1)))
        vm = ValidatedMatrix(m, determinant(m), adjugate(m))
        assert not irreducibility_precondition(vm, 0)


class TestEval:
    def test_polydisc_origin(self):
        for n in (2, 3):
            form = assemble_kernel(IntMatrix.identity(n))
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
        from bergpoly.int_linalg import sign_split
        from bergpoly.laurent import product

        for vm in sweep_family[:40]:
            n = vm.n
            split = sign_split(vm.matrix)
            shift = tuple(2 * s for s in split.minus.column_abs_sums())
            laurent_q = product(
                (
                    (
                        LaurentPolynomial.one(n)
                        - LaurentPolynomial.monomial(n, 1, vm.matrix.row(j))
                    )
                    ** 2
                    for j in range(n)
                ),
                n,
            )
            squared = product(
                (f * f for f in denominator_factors(vm)), n
            )
            assert laurent_q.shifted(shift) == squared
