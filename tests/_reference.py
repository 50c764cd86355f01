"""Slow, obviously correct references that the tests compare the package
against."""

from fractions import Fraction

from bergpoly import DimensionMismatchError, DivisionByZeroPolynomialError, LaurentPolynomial


def try_exact_divide(num: LaurentPolynomial, divisor: LaurentPolynomial):
    """Return q with q * divisor == num, or None when no such Laurent
    polynomial exists.

    Monomials are units in the Laurent ring, so both operands are first
    shifted by their per-coordinate minimum exponents into the ordinary
    polynomial ring (the Newton-polytope vertex argument shows the
    quotient, if any, lands there too); then single-divisor reduction
    against the lex-leading term of the divisor runs to completion.  Any
    leading term the divisor's leading term cannot divide certifies a
    nonzero remainder, hence non-divisibility.
    """
    if num.n != divisor.n:
        raise DimensionMismatchError(f"{num.n} variables vs {divisor.n}")
    if divisor.is_zero():
        raise DivisionByZeroPolynomialError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPolynomial.zero(num.n)
    s_num = num.min_exponents()
    s_div = divisor.min_exponents()
    work = {tuple(a - b for a, b in zip(e, s_num)): c for e, c in num.items()}
    div_terms = [(tuple(a - b for a, b in zip(e, s_div)), c) for e, c in divisor.items()]
    lead_e = max(e for e, _ in div_terms)
    lead_c = dict(div_terms)[lead_e]
    rest = [(e, c) for e, c in div_terms if e != lead_e]
    quot = {}
    while work:
        e = max(work)
        q_exp = tuple(a - b for a, b in zip(e, lead_e))
        if any(x < 0 for x in q_exp):
            return None
        q_c = Fraction(work.pop(e)) / lead_c  # int / int would be a float
        quot[q_exp] = quot.get(q_exp, 0) + q_c
        for de, dc in rest:
            te = tuple(a + b for a, b in zip(q_exp, de))
            s = work.get(te, 0) - q_c * dc
            if s:
                work[te] = s
            else:
                work.pop(te, None)
    shift_back = tuple(a - b for a, b in zip(s_num, s_div))
    return LaurentPolynomial(
        num.n, {tuple(a + b for a, b in zip(e, shift_back)): c for e, c in quot.items()}
    )
