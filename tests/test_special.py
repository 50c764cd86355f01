import itertools
import math

import pytest

from bergpoly import (
    GcdViolationError,
    GeneralizedHartogsSpec,
    IntMatrix,
    LaurentPolynomial,
    NotUnimodularError,
    SignatureOneSpec,
    WrongDimensionError,
    assemble_kernel,
    denominator_factors,
    kernel_dim2,
    kernel_generalized_hartogs,
    kernel_signature_one,
    kernel_unimodular,
    prepare,
    same_kernel,
)
from bergpoly.special import chain_bounds, chain_matrix, signature_matrix
from bergpoly.tent import tent

from _reference import (
    chain_coefficient,
    chain_weight,
    identity,
    in_canonical_order,
    numerator_coefficient,
    signature_coefficient,
)
from families import chain_specs, signature_specs, subsample, unimodular_family


class TestUnimodular:
    def test_polydisc(self):
        vm = prepare(identity(3))
        assert same_kernel(kernel_unimodular(vm), assemble_kernel(vm))

    def test_hartogs_monomial(self, hartogs_vm):
        form = kernel_unimodular(hartogs_vm)
        assert form.numerator == LaurentPolynomial.monomial(2, 1, (0, 1))
        assert form.prefactor == 1

    def test_positive_offdiag_3x3(self):
        # column abs-sums (1, 1, 2) -> numerator t3
        vm = prepare(IntMatrix(((1, 0, -1), (0, 1, 0), (0, 0, 1))))
        form = kernel_unimodular(vm)
        assert form.numerator == LaurentPolynomial.monomial(3, 1, (0, 0, 1))
        assert same_kernel(form, assemble_kernel(vm))

    def test_mixed_sign_3x3(self):
        vm = prepare(IntMatrix(((1, -1, 1), (0, 1, -1), (0, 0, 1))))
        assert same_kernel(kernel_unimodular(vm), assemble_kernel(vm))

    def test_not_unimodular(self, worked_vm):
        with pytest.raises(NotUnimodularError):
            kernel_unimodular(worked_vm)

    def test_random_unimodular_agreement(self):
        for n in (2, 3, 4):
            for vm in unimodular_family(n, 12, seed=20 + n):
                assert same_kernel(kernel_unimodular(vm), assemble_kernel(vm))


class TestDim2:
    def test_hartogs(self, hartogs_vm):
        assert same_kernel(kernel_dim2(hartogs_vm), assemble_kernel(hartogs_vm))

    def test_worked(self, worked_vm):
        assert same_kernel(kernel_dim2(worked_vm), assemble_kernel(worked_vm))

    def test_dense_valid_matrix(self):
        vm = prepare(IntMatrix(((3, -2), (-1, 1))))
        assert vm.adj == IntMatrix(((1, 2), (1, 3)))
        assert same_kernel(kernel_dim2(vm), assemble_kernel(vm))

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimensionError):
            kernel_dim2(prepare(identity(3)))

    def test_family_agreement(self, family_2x2):
        for vm in family_2x2:
            assert same_kernel(kernel_dim2(vm), assemble_kernel(vm))


class TestSignatureOne:
    def test_gcd_violation(self):
        with pytest.raises(GcdViolationError):
            SignatureOneSpec((2, 4))
        with pytest.raises(GcdViolationError):
            SignatureOneSpec((0, 1))

    def test_matrix_shape(self):
        b = signature_matrix(SignatureOneSpec((2, 3, 5)))
        assert b == IntMatrix(((2, -3, -5), (0, 1, 0), (0, 0, 1)))

    def test_hartogs_is_signature_11(self, hartogs_vm):
        form = kernel_signature_one(SignatureOneSpec((1, 1)))
        assert same_kernel(form, assemble_kernel(hartogs_vm))

    def test_worked_is_signature_21(self, worked_vm):
        form = kernel_signature_one(SignatureOneSpec((2, 1)))
        assert same_kernel(form, assemble_kernel(worked_vm))

    def test_235_regression(self):
        spec = SignatureOneSpec((2, 3, 5))
        form = kernel_signature_one(spec)
        core = assemble_kernel(signature_matrix(spec))
        assert same_kernel(form, core)

    def test_prefactor_identity(self):
        # l_1^n * c(nu) == (prod_{a>=2} k_a) * E(nu) across the box
        for k in [(1, 1), (2, 1), (2, 3), (3, 4), (2, 3, 5), (5, 3, 2), (1, 2, 3, 4)]:
            spec = SignatureOneSpec(k)
            n = len(k)
            big_k = math.lcm(*k)
            ell1 = big_k // k[0]
            rhs_scale = math.prod(k[1:])
            vm = prepare(signature_matrix(spec))
            core = assemble_kernel(vm)
            box = core.box
            for nu in itertools.product(
                *[range(l, u + 1) for l, u in zip(box.lower, box.upper)]
            ):
                lhs = ell1**n * numerator_coefficient(vm, nu)
                rhs = rhs_scale * signature_coefficient(spec, nu)
                assert lhs == rhs, (k, nu)


class TestGeneralizedHartogs:
    def test_gcd_violation(self):
        with pytest.raises(GcdViolationError):
            GeneralizedHartogsSpec((2, 4))

    def test_matrix_construction(self):
        assert chain_matrix(GeneralizedHartogsSpec((1, 2))) == IntMatrix(
            ((1, -2), (0, 1))
        )
        assert chain_matrix(GeneralizedHartogsSpec((2, 3, 1))) == IntMatrix(
            ((2, -3, 0), (0, 3, -1), (0, 0, 1))
        )

    def test_hartogs_is_chain_11(self, hartogs_vm):
        form = kernel_generalized_hartogs(GeneralizedHartogsSpec((1, 1)))
        assert same_kernel(form, assemble_kernel(hartogs_vm))

    def test_chain_12(self):
        form = kernel_generalized_hartogs(GeneralizedHartogsSpec((1, 2)))
        core = assemble_kernel(IntMatrix(((1, -2), (0, 1))))
        assert same_kernel(form, core)

    def test_chain_231_regression(self):
        spec = GeneralizedHartogsSpec((2, 3, 1))
        form = kernel_generalized_hartogs(spec)
        core = assemble_kernel(chain_matrix(spec))
        assert same_kernel(form, core)

    def test_prefactor_identity(self):
        # Lambda^(n-1) * c(alpha) == prod_j weight(m_j, P_j) across the box
        for p in [(1, 1), (1, 2), (2, 3), (2, 3, 1), (3, 2, 4), (1, 2, 3, 1)]:
            spec = GeneralizedHartogsSpec(p)
            n = len(p)
            d = [math.gcd(p[j], p[j + 1]) for j in range(n - 1)] + [p[-1]]
            lam = math.prod(d)
            vm = prepare(chain_matrix(spec))
            for alpha in itertools.product(
                *[range(0, b + 1) for b in chain_bounds(spec)]
            ):
                lhs = lam ** (n - 1) * numerator_coefficient(vm, alpha)
                assert lhs == chain_coefficient(spec, alpha), (p, alpha)


def test_family_determinants():
    # det B of the chain matrix is P / Lambda, Lambda = prod_j d_j with
    # d_j = gcd(p_j, p_(j+1)) and d_n = p_n; the signature matrix has det k_1
    for spec in chain_specs():
        p = spec.p
        d = [math.gcd(a, b) for a, b in zip(p, p[1:])] + [p[-1]]
        assert prepare(chain_matrix(spec)).det == math.prod(p) // math.prod(d), p
    for spec in signature_specs():
        assert prepare(signature_matrix(spec)).det == spec.k[0], spec.k


class TestChainWeight:
    @pytest.mark.parametrize(
        "m,value,expected", [(5, 3, 2), (5, 1, 0), (5, 6, 5), (5, 10, 1), (5, 11, 0)]
    )
    def test_examples(self, m, value, expected):
        assert chain_weight(m, value) == expected

    def test_matches_tent(self):
        for m in range(1, 21):
            for value in range(-5, 2 * m + 6):
                assert chain_weight(m, value) == tent(m, value - 2)


def test_constructors_write_their_rows_binomials(family_2x2):
    # factor j of every constructor's form is row j's t^(b_-) - t^(b_+),
    # sign included, so canonicalized need not re-orient any factor
    forms = [assemble_kernel(vm) for vm in family_2x2]
    forms += [kernel_dim2(vm) for vm in family_2x2]
    for n in (2, 3, 4, 5):
        forms += [kernel_unimodular(vm) for vm in unimodular_family(n, 20, seed=n)]
    forms += [kernel_signature_one(spec) for spec in subsample(signature_specs(), 300)]
    forms += [kernel_generalized_hartogs(spec) for spec in chain_specs()]
    for form in forms:
        assert form.factors == tuple(denominator_factors(form.source)), form.source.matrix.rows


def test_witnesses_keep_canonical_order(family_2x2):
    # the witnesses hand tent_product_over_box's maps to the polynomial
    # unsorted, so those maps must already be in lexicographic order
    forms = [kernel_dim2(vm) for vm in family_2x2]
    for n in (2, 3, 4, 5):
        forms += [kernel_unimodular(vm) for vm in unimodular_family(n, 5, seed=n)]
    forms += [kernel_signature_one(spec) for spec in subsample(signature_specs(), 60)]
    forms += [kernel_generalized_hartogs(spec) for spec in chain_specs()]
    for form in forms:
        for p in (form.numerator, *form.factors):
            assert in_canonical_order(p), form.source.matrix.rows
