import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergpoly import (
    DimensionMismatchError,
    LaurentPolynomial,
    PoleAtZeroError,
)
from bergpoly.render import LATEX, poly_terms

from _reference import add, in_canonical_order, mul, one, try_exact_divide

P = poly = LaurentPolynomial


def small_polys(n=2, max_terms=4, span=2):
    exps = st.tuples(*[st.integers(-span, span)] * n)
    coeffs = st.integers(-4, 4).filter(lambda c: c != 0)
    return st.dictionaries(exps, coeffs, min_size=0, max_size=max_terms).map(
        lambda d: P(n, d)
    )


def binomials(n=2, span=3):
    """c t^a - c t^b with a != b and c = +-1."""
    exps = st.tuples(*[st.integers(-span, span)] * n)
    coeffs = st.sampled_from([1, -1])
    return (
        st.tuples(exps, exps, coeffs)
        .filter(lambda t: t[0] != t[1])
        .map(lambda t: P(n, {t[0]: t[2], t[1]: -t[2]}))
    )


def exists_quotient_up_to_degree(num, div, deg):
    """Brute-force oracle: is there q with support in exponents of total
    degree <= deg (componentwise in [0, deg]) and q * div == num?  Solves
    the linear system in the coefficients by Fraction Gaussian elimination."""
    support = [
        e
        for e in itertools.product(range(deg + 1), repeat=num.n)
        if sum(e) <= deg
    ]
    # unknown x_e; equations: for each exponent f of q*div: sum matches num
    rows_idx = sorted(
        {
            tuple(a + b for a, b in zip(e, d))
            for e in support
            for d, _ in div.items()
        }
        | {e for e, _ in num.items()}
    )
    div_c, num_c = dict(div.items()), dict(num.items())
    a = [
        [div_c.get(tuple(x - y for x, y in zip(f, e)), 0) for e in support]
        + [num_c.get(f, 0)]
        for f in rows_idx
    ]
    ncols = len(support)
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        row += 1
    # inconsistent iff some row reads 0 = nonzero
    return not any(
        all(x == 0 for x in r[:-1]) and r[-1] != 0 for r in a
    )


class TestArithmetic:
    """The package has no ring operations; the tests build sums and
    products with `_reference.add` and `mul`, which are checked here."""

    def test_add_cancels(self):
        t1 = P.monomial(2, 1, (1, 0))
        assert add(t1, -t1).is_zero()

    def test_add(self):
        left = add(poly(2, {(0, 0): 1, (0, 1): 1}), P.monomial(2, 1, (1, 0)))
        assert left == poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_add_negative_exponents(self):
        inv = P.monomial(2, 1, (-1, 0))
        assert add(inv, inv) == P.monomial(2, 2, (-1, 0))

    def test_square(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})  # t2 - t1
        assert mul(d, d) == poly(2, {(0, 2): 1, (1, 1): -2, (2, 0): 1})

    def test_mul_identity(self):
        p = poly(2, {(1, -2): 3, (0, 0): 1})
        assert mul(p, one(2)) == p

    def test_telescoping(self):
        a = poly(1, {(0,): 1, (1,): -1})
        b = poly(1, {(0,): 1, (1,): 1, (2,): 1})
        assert mul(a, b) == poly(1, {(0,): 1, (3,): -1})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            add(one(2), one(3))

    @settings(max_examples=120, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_ring_axioms(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


class TestDivision:
    def test_square_by_factor(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})
        sq = mul(d, d)
        assert try_exact_divide(sq, d) == d

    def test_self_division(self):
        p = poly(2, {(2, -1): 3, (0, 1): 5})
        assert try_exact_divide(p, p) == one(2)

    def test_not_divisible_with_oracle(self):
        num = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        div = poly(2, {(0, 1): 1, (1, 0): -1})
        assert try_exact_divide(num, div) is None
        assert not exists_quotient_up_to_degree(num, div, 1)
        # sanity: the oracle does find genuine quotients
        assert exists_quotient_up_to_degree(mul(div, div), div, 1)

    def test_zero_numerator(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})
        assert try_exact_divide(P(2), d) == P(2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            try_exact_divide(one(2), P(2))

    def test_laurent_shift_round_trip(self):
        q = poly(2, {(-1, 2): 2, (0, 0): 1})
        d = poly(2, {(0, -1): 1, (-2, 0): -1})
        prod = mul(q, d)
        assert try_exact_divide(prod, d) == q

    @settings(max_examples=120, deadline=None)
    @given(small_polys(), small_polys())
    def test_round_trip(self, q, d):
        if d.is_zero():
            return
        assert try_exact_divide(mul(q, d), d) == q


class TestBinomialDivisibility:
    """divisible_by_binomial (coset sums) against try_exact_divide."""

    @settings(max_examples=300, deadline=None)
    @given(small_polys(max_terms=6), binomials())
    def test_matches_exact_division(self, num, f):
        assert num.divisible_by_binomial(f) == (try_exact_divide(num, f) is not None)

    @settings(max_examples=200, deadline=None)
    @given(small_polys(max_terms=6), binomials())
    def test_multiples_are_divisible(self, g, f):
        assert mul(g, f).divisible_by_binomial(f)
        assert try_exact_divide(mul(g, f), f) is not None

    @pytest.mark.parametrize(
        "f",
        [
            poly(2, {(0, 0): 1, (2, 2): -1}),  # a - b = (2, 2), not primitive
            poly(2, {(0, 1): 1, (3, 0): -1}),  # pivot s_p = -3 < 0
            poly(2, {(1, -1): -1, (-2, 0): 1}),  # c = -1, negative exponents
            poly(3, {(0, 2, 0): 1, (0, 0, 1): -1}),
        ],
    )
    def test_edge_divisors(self, f):
        n = f.n
        g = poly(n, {(1,) + (0,) * (n - 1): 2, (0,) * n: 3})
        t = poly(n, {(0,) * (n - 1) + (1,): 1})
        cases = [mul(g, f), mul(f, f), add(mul(g, f), t), g, add(f, mul(t, f, f)), P(n)]
        for num in cases:
            want = try_exact_divide(num, f) is not None
            assert num.divisible_by_binomial(f) == want
        assert [num.divisible_by_binomial(f) for num in cases] == [
            True, True, False, False, True, True
        ]

    @settings(max_examples=300, deadline=None)
    @given(small_polys(max_terms=6), binomials())
    def test_nonzero_total_is_never_divisible(self, num, f):
        # f(1) = 0, so f | num forces num(1) = 0: the total-sum shortcut
        assume(sum(c for _, c in num.items()) != 0)
        assert not num.divisible_by_binomial(f)
        assert try_exact_divide(num, f) is None

    def test_zero_total_still_runs_coset_sums(self):
        # t1 - t2 totals zero, yet its cosets of Z(1, 0) sum to 1 and -1
        f = poly(2, {(0, 0): 1, (1, 0): -1})
        num = poly(2, {(1, 0): 1, (0, 1): -1})
        assert not num.divisible_by_binomial(f)
        assert try_exact_divide(num, f) is None
        assert mul(num, f).divisible_by_binomial(f)

    def test_non_primitive_half_step(self):
        # 1 - t^(1,1) divides 1 - t^(2,2), not the other way round
        f = poly(2, {(0, 0): 1, (2, 2): -1})
        half = poly(2, {(0, 0): 1, (1, 1): -1})
        assert not half.divisible_by_binomial(f)
        assert f.divisible_by_binomial(half)

    def test_binomial_reads_the_plus_one_term_first(self):
        assert poly(2, {(0, 1): 1, (1, 0): -1}).binomial() == ((0, 1), (1, 0))
        assert poly(2, {(0, 1): -1, (1, 0): 1}).binomial() == ((1, 0), (0, 1))

    @pytest.mark.parametrize(
        "f",
        [
            poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): 1}),  # three terms
            poly(2, {(1, 0): 1, (0, 1): 1}),  # t^a + t^b
            poly(2, {(1, 0): 2, (0, 1): -1}),  # unequal magnitudes
            poly(2, {(1, 0): 1}),  # a monomial
            P(2),
            poly(2, {(1, -1): 3, (-2, 0): -3}),  # c = 3
            poly(3, {(0, 2, 0): 2, (0, 0, 1): -2}),  # c = 2 in three variables
        ],
    )
    def test_non_binomial_raises(self, f):
        with pytest.raises(ValueError, match="binomials"):
            one(f.n).divisible_by_binomial(f)


class TestEvaluate:
    def test_linear(self):
        p = poly(1, {(0,): 1, (1,): -1})
        assert p.evaluate([0.5]) == pytest.approx(0.5)

    def test_pole(self):
        with pytest.raises(PoleAtZeroError):
            P.monomial(1, 1, (-1,)).evaluate([0])

    def test_imaginary(self):
        p = P.monomial(2, 1, (1, 1))
        assert p.evaluate([1j, 1j]) == pytest.approx(-1)

    def test_zero_base_positive_exponent(self):
        p = add(P.monomial(2, 1, (1, 0)), one(2))
        assert p.evaluate([0, 5]) == pytest.approx(1)

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_multiplicative(self, a, b):
        point = [0.73 + 0.11j, -0.52 + 0.4j]
        va, vb = a.evaluate(point), b.evaluate(point)
        vab = mul(a, b).evaluate(point)
        assert abs(vab - va * vb) <= 1e-10 * max(1.0, abs(va * vb))


class TestMonomialConstructor:
    def test_constant_one(self):
        assert P.monomial(3, 1, (0, 0, 0)) == P(3, {(0, 0, 0): 1})

    def test_zero_coeff(self):
        assert P.monomial(2, 0, (1, 1)).is_zero()

    def test_integral_coefficients_are_int(self):
        p = P(2, {(0, 0): Fraction(4, 2), (1, 0): 3, (0, 1): np.int64(-5)})
        assert all(type(c) is int for _, c in p.items())
        for c in (Fraction(1, 2), 0.5):
            with pytest.raises(ValueError):
                P(2, {(0, 0): c})

    @settings(max_examples=150, deadline=None)
    @given(small_polys())
    def test_operations_keep_terms_clean(self, a):
        # negation skips the public constructor's checks and sort, so its
        # term map must already be what that constructor would build, in
        # the same order
        for r in (-a, a.sign_normalized()):
            assert list(r.items()) == list(P(2, dict(r.items())).items())
            for e, c in r.items():
                assert type(e) is tuple and len(e) == 2 and c != 0
                assert type(c) is int


class TestCanonicalOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-4, 4)),
        st.randoms(use_true_random=False),
    )
    def test_constructor_sorts_a_shuffled_map(self, terms, rng):
        items = list(terms.items())
        rng.shuffle(items)
        p = P(2, dict(items))
        assert in_canonical_order(p)
        assert dict(p.items()) == {e: c for e, c in terms.items() if c}


class TestSerialization:
    def test_json_round_trip(self):
        p = poly(2, {(1, -2): 3, (0, 0): -1, (2, 1): 7})
        data = p.to_json_dict()
        assert data["n"] == 2
        exps = [tuple(t["exp"]) for t in data["terms"]]
        assert exps == sorted(exps)  # lexicographic order
        assert data["terms"] == [
            {"exp": [0, 0], "num": "-1", "den": "1"},
            {"exp": [1, -2], "num": "3", "den": "1"},
            {"exp": [2, 1], "num": "7", "den": "1"},
        ]

    def test_latex(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})
        assert poly_terms(d, LATEX) == "t_{2} - t_{1}"
        assert poly_terms(P(2), LATEX) == "0"
        assert poly_terms(poly(2, {(2, 0): -3}), LATEX) == r"-3 t_{1}^{2}"

    def test_sign_normalized(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})  # leading (1,0) coeff -1
        flipped = d.sign_normalized()
        assert flipped == -d
        assert flipped.sign_normalized() == flipped
