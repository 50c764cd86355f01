"""Slow, obviously correct references that the tests compare the package
against: pointwise formulas for single coefficients, and the plain
polynomial and matrix arithmetic that the tests build expected values
with."""

import functools
from fractions import Fraction
from typing import Sequence

import numpy as np

from bergpoly import DimensionMismatchError, IntMatrix, InvalidKError, LaurentPolynomial
from bergpoly import _backend
from bergpoly.int_linalg import ValidatedMatrix
from bergpoly.kernel import assemble_kernel
from bergpoly.oracle import OracleReport
from bergpoly.special import (
    GeneralizedHartogsSpec,
    SignatureOneSpec,
    _chain_data,
    _signature_data,
)
from bergpoly.tent import tent


def add(*polys: LaurentPolynomial) -> LaurentPolynomial:
    """The sum, through the checking constructor: a term with another
    number of variables raises DimensionMismatchError."""
    terms = {}
    for p in polys:
        for e, c in p.items():
            terms[e] = terms.get(e, 0) + c
    return LaurentPolynomial(polys[0].n, terms)


def mul(*polys: LaurentPolynomial) -> LaurentPolynomial:
    """The product, every pair of terms multiplied out."""
    n = polys[0].n
    terms = {(0,) * n: 1}
    for p in polys:
        out = {}
        for e1, c1 in terms.items():
            for e2, c2 in p.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        terms = out
    return LaurentPolynomial(n, terms)


def scaled(p: LaurentPolynomial, k: int) -> LaurentPolynomial:
    return LaurentPolynomial(p.n, {e: k * c for e, c in p.items()})


def in_canonical_order(p: LaurentPolynomial) -> bool:
    """Whether p's terms come out of items() in lexicographic order."""
    items = list(p.items())
    return items == sorted(items)


def one(n: int) -> LaurentPolynomial:
    return LaurentPolynomial.monomial(n, 1, (0,) * n)


def identity(n: int) -> IntMatrix:
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(*ms: IntMatrix) -> IntMatrix:
    """The matrix product, left to right."""
    return functools.reduce(
        lambda a, b: IntMatrix([[sum(x * y for x, y in zip(r, c)) for c in zip(*b.rows)]
                                for r in a.rows]),
        ms,
    )


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(zip(*m.rows))


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
        return LaurentPolynomial(num.n)
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
    coefficients = dict(num.items())
    mismatches = []
    for offs in np.ndindex(acc.shape):
        e = tuple(l + o for l, o in zip(lo, offs))
        c = coefficients.get(e, 0)
        g = int(acc[offs])
        if q * g != p * c:
            mismatches.append((e, Fraction(p * c, q * det_adj), Fraction(g, det_adj)))
    return OracleReport(tuple(mismatches), lo, hi)


def monomial_norm(vm: ValidatedMatrix, m: Sequence[int]) -> Fraction | None:
    """Squared L^2 norm of z^m on the domain, in units of pi^n; None when
    the monomial is not square-integrable ((m+1) adj B has an entry < 1)."""
    y = [
        sum((int(m[i]) + 1) * vm.adj.entry(i, j) for i in range(vm.n))
        for j in range(vm.n)
    ]
    if any(v < 1 for v in y):
        return None
    det_adj = vm.det ** (vm.n - 1)
    denom = 1
    for v in y:
        denom *= v
    return Fraction(det_adj, denom)


def numerator_coefficient(vm: ValidatedMatrix, nu: Sequence[int]) -> int:
    """c(nu): product over columns a_j of adj B of tent(det B, m . a_j - 1)
    with m = nu + (1 - 2*colsums(B_-))."""
    shift = [1 + 2 * sum(min(x, 0) for x in col) for col in zip(*vm.matrix.rows)]
    m = [int(v) + s for v, s in zip(nu, shift)]
    out = 1
    for j in range(vm.n):
        arg = sum(m[i] * vm.adj.entry(i, j) for i in range(vm.n)) - 1
        out *= tent(vm.det, arg)
        if out == 0:
            return 0
    return out


def tent_coefficients(k: int) -> list[int]:
    """Independent oracle: expand (1 + x + ... + x^(k-1))^2 by convolution
    and return the coefficients of x^0 .. x^(2k-2)."""
    if k < 1:
        raise InvalidKError(f"k must be >= 1, got {k}")
    box = [1] * k
    out = [0] * (2 * k - 1)
    for i, a in enumerate(box):
        for j, b in enumerate(box):
            out[i + j] += a * b
    return out


def signature_coefficient(spec: SignatureOneSpec, nu) -> int:
    """Numerator coefficient E(nu) of the signature-one formula."""
    k = spec.k
    n = len(k)
    big_k, ell, _ = _signature_data(spec)
    out = tent(big_k, 2 * big_k - ell[0] * (nu[0] + 1) - 1)
    for j in range(1, n):
        out *= tent(ell[j], ell[j] * (nu[j] + 1) + ell[0] * (nu[0] + 1) - 2 * big_k - 1)
        if out == 0:
            return 0
    return out


def chain_weight(m: int, value: int) -> int:
    """Piecewise weight of the chain-domain formula: value-1 on
    [2, m+1], 2m-value+1 on [m+2, 2m], zero outside; equals
    tent(m, value-2) everywhere."""
    if m < 1:
        raise InvalidKError(f"m must be >= 1, got {m}")
    if 2 <= value <= m + 1:
        return value - 1
    if m + 2 <= value <= 2 * m:
        return 2 * m - value + 1
    return 0


def chain_prefix_values(spec: GeneralizedHartogsSpec, alpha) -> list[int]:
    """The recursion P_1 = 2 m_1 - p'_1 + 1 - p'_1 a_1,
    P_j = 2 m_j - p'_j - p'_j a_j + P_{j-1}."""
    _, pprime, _, m = _chain_data(spec)
    out = []
    prev = 1
    for j, a in enumerate(alpha):
        prev = 2 * m[j] - pprime[j] - pprime[j] * int(a) + prev
        out.append(prev)
    return out


def chain_coefficient(spec: GeneralizedHartogsSpec, alpha) -> int:
    """prod_j weight(m_j, P_j(alpha)) for the chain-domain numerator."""
    _, _, _, m = _chain_data(spec)
    out = 1
    for j, value in enumerate(chain_prefix_values(spec, alpha)):
        out *= chain_weight(m[j], value)
        if out == 0:
            return 0
    return out
