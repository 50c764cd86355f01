import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergpoly import (
    DimensionMismatchError,
    DivisionByZeroPolynomialError,
    LaurentPolynomial,
    PoleAtZeroError,
)

P = LaurentPolynomial


def poly(n, terms):
    return P(n, {e: Fraction(c) for e, c in terms.items()})


def small_polys(n=2, max_terms=4, span=2):
    exps = st.tuples(*[st.integers(-span, span)] * n)
    coeffs = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    ).filter(lambda c: c != 0)
    return st.dictionaries(exps, coeffs, min_size=0, max_size=max_terms).map(
        lambda d: P(n, d)
    )


def binomials(n=2, span=3):
    """c t^a - c t^b with a != b and c a nonzero Fraction."""
    exps = st.tuples(*[st.integers(-span, span)] * n)
    coeffs = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    ).filter(lambda c: c != 0)
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
    a = [
        [div.coefficient(tuple(x - y for x, y in zip(f, e))) for e in support]
        + [num.coefficient(f)]
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
    def test_add_cancels(self):
        t1 = P.monomial(2, 1, (1, 0))
        assert (t1 + (-t1)).is_zero()

    def test_add(self):
        left = poly(2, {(0, 0): 1, (0, 1): 1}) + P.monomial(2, 1, (1, 0))
        assert left == poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_add_negative_exponents(self):
        inv = P.monomial(2, 1, (-1, 0))
        assert inv + inv == P.monomial(2, 2, (-1, 0))

    def test_square(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})  # t2 - t1
        assert d * d == poly(2, {(0, 2): 1, (1, 1): -2, (2, 0): 1})

    def test_mul_identity(self):
        p = poly(2, {(1, -2): Fraction(3, 2), (0, 0): 1})
        assert p * P.one(2) == p

    def test_telescoping(self):
        a = poly(1, {(0,): 1, (1,): -1})
        b = poly(1, {(0,): 1, (1,): 1, (2,): 1})
        assert a * b == poly(1, {(0,): 1, (3,): -1})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            P.one(2) + P.one(3)

    @settings(max_examples=120, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestDivision:
    def test_square_by_factor(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})
        sq = d * d
        assert sq.try_exact_divide(d) == d

    def test_self_division(self):
        p = poly(2, {(2, -1): 3, (0, 1): Fraction(1, 2)})
        assert p.try_exact_divide(p) == P.one(2)

    def test_not_divisible_with_oracle(self):
        num = poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        div = poly(2, {(0, 1): 1, (1, 0): -1})
        assert num.try_exact_divide(div) is None
        assert not exists_quotient_up_to_degree(num, div, 1)
        # sanity: the oracle does find genuine quotients
        assert exists_quotient_up_to_degree(div * div, div, 1)

    def test_zero_numerator(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})
        assert P.zero(2).try_exact_divide(d) == P.zero(2)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroPolynomialError):
            P.one(2).try_exact_divide(P.zero(2))

    def test_integer_operands_divide_exactly(self):
        q = P(1, {(1,): 1, (0,): -1}).try_exact_divide(P(1, {(1,): 2, (0,): -2}))
        assert q == P(1, {(0,): Fraction(1, 2)})
        assert type(q.coefficient((0,))) is Fraction

    def test_laurent_shift_round_trip(self):
        q = poly(2, {(-1, 2): Fraction(2, 3), (0, 0): 1})
        d = poly(2, {(0, -1): 1, (-2, 0): -1})
        prod = q * d
        assert prod.try_exact_divide(d) == q

    @settings(max_examples=120, deadline=None)
    @given(small_polys(), small_polys())
    def test_round_trip(self, q, d):
        if d.is_zero():
            return
        assert (q * d).try_exact_divide(d) == q


class TestBinomialDivisibility:
    """divisible_by_binomial (coset sums) against try_exact_divide."""

    @settings(max_examples=300, deadline=None)
    @given(small_polys(max_terms=6), binomials())
    def test_matches_exact_division(self, num, f):
        assert num.divisible_by_binomial(f) == (num.try_exact_divide(f) is not None)

    @settings(max_examples=200, deadline=None)
    @given(small_polys(max_terms=6), binomials())
    def test_multiples_are_divisible(self, g, f):
        assert (g * f).divisible_by_binomial(f)
        assert (g * f).try_exact_divide(f) is not None

    @pytest.mark.parametrize(
        "f",
        [
            poly(2, {(0, 0): 1, (2, 2): -1}),  # a - b = (2, 2), not primitive
            poly(2, {(0, 1): 1, (3, 0): -1}),  # pivot s_p = -3 < 0
            poly(2, {(1, -1): 3, (-2, 0): -3}),  # c = 3, negative exponents
            poly(3, {(0, 2, 0): Fraction(2, 3), (0, 0, 1): Fraction(-2, 3)}),
        ],
    )
    def test_edge_divisors(self, f):
        n = f.n
        g = poly(n, {(1,) + (0,) * (n - 1): Fraction(1, 2), (0,) * n: Fraction(2, 3)})
        t = poly(n, {(0,) * (n - 1) + (1,): 1})
        cases = [g * f, f * f, g * f + t, g, f + t * f * f, P.zero(n)]
        for num in cases:
            want = num.try_exact_divide(f) is not None
            assert num.divisible_by_binomial(f) == want
        assert [num.divisible_by_binomial(f) for num in cases] == [
            True, True, False, False, True, True
        ]

    def test_non_primitive_half_step(self):
        # 1 - t^(1,1) divides 1 - t^(2,2), not the other way round
        f = poly(2, {(0, 0): 1, (2, 2): -1})
        half = poly(2, {(0, 0): 1, (1, 1): -1})
        assert not half.divisible_by_binomial(f)
        assert f.divisible_by_binomial(half)

    @pytest.mark.parametrize(
        "f",
        [
            poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): 1}),  # three terms
            poly(2, {(1, 0): 1, (0, 1): 1}),  # t^a + t^b
            poly(2, {(1, 0): 2, (0, 1): -1}),  # unequal magnitudes
            poly(2, {(1, 0): 1}),  # a monomial
            P.zero(2),
        ],
    )
    def test_non_binomial_raises(self, f):
        with pytest.raises(ValueError):
            P.one(2).divisible_by_binomial(f)


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
        p = P.monomial(2, 1, (1, 0)) + P.one(2)
        assert p.evaluate([0, 5]) == pytest.approx(1)

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_multiplicative(self, a, b):
        point = [0.73 + 0.11j, -0.52 + 0.4j]
        va, vb = a.evaluate(point), b.evaluate(point)
        vab = (a * b).evaluate(point)
        assert abs(vab - va * vb) <= 1e-10 * max(1.0, abs(va * vb))


class TestMonomialConstructor:
    def test_constant_one(self):
        assert P.monomial(3, 1, (0, 0, 0)) == P.one(3)

    def test_zero_coeff(self):
        assert P.monomial(2, 0, (1, 1)).is_zero()

    def test_integral_coefficients_are_int(self):
        p = P(2, {(0, 0): Fraction(4, 2), (1, 0): 3, (0, 1): Fraction(1, 2)})
        assert type(p.coefficient((0, 0))) is int
        assert type(p.coefficient((1, 0))) is int
        assert type(p.coefficient((0, 1))) is Fraction
        assert type(p.coefficient((5, 5))) is int
        assert all(type(c) is int for _, c in (p * 2).items())

    def test_rational_laurent(self):
        p = P.monomial(2, Fraction(3, 2), (1, -2))
        assert p.coefficient((1, -2)) == Fraction(3, 2)
        assert len(p) == 1


class TestSerialization:
    def test_json_round_trip(self):
        p = poly(2, {(1, -2): Fraction(3, 2), (0, 0): -1, (2, 1): 7})
        data = p.to_json_dict()
        assert data["n"] == 2
        exps = [tuple(t["exp"]) for t in data["terms"]]
        assert exps == sorted(exps)  # lexicographic order
        assert LaurentPolynomial.from_json_dict(json.loads(json.dumps(data))) == p

    def test_latex(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})
        assert d.to_latex() == "t_{2} - t_{1}"
        assert P.zero(2).to_latex() == "0"
        assert poly(2, {(2, 0): Fraction(1, 2)}).to_latex() == r"\frac{1}{2} t_{1}^{2}"

    def test_sign_normalized(self):
        d = poly(2, {(0, 1): 1, (1, 0): -1})  # leading (1,0) coeff -1
        flipped = d.sign_normalized()
        assert flipped == -d
        assert flipped.sign_normalized() == flipped
