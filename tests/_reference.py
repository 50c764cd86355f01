"""Slow, obviously correct references that the tests compare the package
against."""

from fractions import Fraction

import numpy as np

from bergpoly import DimensionMismatchError, LaurentPolynomial
from bergpoly import _backend
from bergpoly.kernel import assemble_kernel
from bergpoly.oracle import OracleReport


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
        raise ZeroDivisionError("division by the zero polynomial")
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


def compare_uncut(vm, window, form=None):
    """The oracle comparison in its plainest form: the series is
    filled over the whole hull (the compared box widened by the squared
    denominator's exponent extents), in exact Python integers, and each
    factor multiplies it twice as a plain sum of c * shifted hull over its
    terms; every point of the compared box is then read off the product."""
    if form is None:
        form = assemble_kernel(vm)
    n = vm.n
    det_adj = vm.det ** (n - 1)
    ratio = det_adj * Fraction(form.prefactor)
    p, q = ratio.numerator, ratio.denominator
    dmin = [2 * sum(x) for x in zip(*(f.min_exponents() for f in form.factors))]
    dmax = [2 * sum(x) for x in zip(*(f.max_exponents() for f in form.factors))]
    num = form.numerator
    lo = tuple(min(w, e) for w, e in zip(window.lower, num.min_exponents()))
    hi = tuple(max(w, e) for w, e in zip(window.upper, num.max_exponents()))
    adj_rows = [list(r) for r in vm.adj.rows]
    acc = _backend.fill_products(
        adj_rows,
        tuple(l - d for l, d in zip(lo, dmax)),
        tuple(h - d for h, d in zip(hi, dmin)),
    ).astype(object)
    for f in form.factors:
        terms = [(e, int(c)) for e, c in f.items()]
        amin = [min(x) for x in zip(*(a for a, _ in terms))]
        amax = [max(x) for x in zip(*(a for a, _ in terms))]
        for _ in range(2):
            shape = tuple(s - (h - l) for s, l, h in zip(acc.shape, amin, amax))
            acc = sum(
                acc[tuple(slice(h - x, h - x + s) for h, x, s in zip(amax, a, shape))] * c
                for a, c in terms
            )
    assert acc.shape == tuple(h - l + 1 for l, h in zip(lo, hi))
    mismatches = []
    for offs in np.ndindex(acc.shape):
        e = tuple(l + o for l, o in zip(lo, offs))
        c = int(num.coefficient(e))
        g = int(acc[offs])
        if q * g != p * c:
            mismatches.append((e, Fraction(p * c, q * det_adj), Fraction(g, det_adj)))
    return OracleReport(tuple(mismatches), lo, hi)
