"""Canonical Bergman kernel form of a monomial polyhedron.

Given a validated defining matrix B (det > 0, coprime rows, adj B >= 0),
the kernel of the domain is

    K(p, q) = (1 / (pi^n (det B)^(n-1)))
              * sum_nu c(nu) t^nu / prod_j (t^((b_-)^j) - t^((b_+)^j))^2,

in the variables t_j = p_j * conj(q_j), where each numerator coefficient
is a product of tent values driven by the columns of adj B:

    c(nu) = prod_j tent(det B, (nu - 2*colsums(B_-) + 1) . a_j - 1).

The coefficient support lives in a finite box.  NOTE the index
convention: the box bounds use COLUMN sums of |B| = B_+ + B_-, i.e.
(1|B|)_j, not row sums -- with ceil_j = ceil((1|B|)_j / det B), coordinate
j of the support satisfies ceil_j - 1 <= nu_j <= 2 (1|B|)_j - 1 - ceil_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CanonicityViolationError, EvaluationAtSingularityError
from .int_linalg import (
    IntMatrix,
    NormalizedMatrix,
    ValidatedMatrix,
    prepare,
    row_gcd,
    sign_split,
)
from .laurent import LaurentPolynomial
from .tent import tent, tent_product_over_box


@dataclass(frozen=True)
class ExponentBox:
    """Closed integer box certain to contain the numerator support."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    ceilings: tuple[int, ...]

    def is_empty(self) -> bool:
        return any(l > u for l, u in zip(self.lower, self.upper))

    def volume(self) -> int:
        v = 1
        for l, u in zip(self.lower, self.upper):
            v *= max(u - l + 1, 0)
        return v


def box_ceiling(vm: ValidatedMatrix, j: int) -> int:
    """ceil of (column-j absolute sum of B) / det B, exact integer ceiling."""
    colsum = sum(abs(r[j]) for r in vm.matrix.rows)
    return -((-colsum) // vm.det)


def exponent_box(vm: ValidatedMatrix) -> ExponentBox:
    n = vm.n
    colsums = vm.matrix.column_abs_sums()
    ceilings = tuple(box_ceiling(vm, j) for j in range(n))
    lower = tuple(c - 1 for c in ceilings)
    upper = tuple(2 * s - 1 - c for s, c in zip(colsums, ceilings))
    return ExponentBox(lower, upper, ceilings)


def _shift_vector(vm: ValidatedMatrix) -> tuple[int, ...]:
    """Row vector 1 - 2 * (column sums of B_-)."""
    minus = sign_split(vm.matrix).minus
    return tuple(1 - 2 * s for s in minus.column_abs_sums())


def numerator_coefficient(vm: ValidatedMatrix, nu: Sequence[int]) -> int:
    """c(nu): product over columns a_j of adj B of tent(det B, m . a_j - 1)
    with m = nu + (1 - 2*colsums(B_-))."""
    shift = _shift_vector(vm)
    m = [int(v) + s for v, s in zip(nu, shift)]
    out = 1
    for j in range(vm.n):
        arg = sum(m[i] * vm.adj.entry(i, j) for i in range(vm.n)) - 1
        out *= tent(vm.det, arg)
        if out == 0:
            return 0
    return out


def numerator_polynomial(vm: ValidatedMatrix) -> LaurentPolynomial:
    """Sum of c(nu) t^nu over the exponent box (exponents all >= 0)."""
    box = exponent_box(vm)
    if box.is_empty():
        return LaurentPolynomial.zero(vm.n)
    shift = _shift_vector(vm)
    weights = [list(vm.adj.row(i)) for i in range(vm.n)]
    offsets = [
        sum(shift[i] * vm.adj.entry(i, j) for i in range(vm.n)) - 1
        for j in range(vm.n)
    ]
    terms = tent_product_over_box(
        box.lower, box.upper, [vm.det] * vm.n, weights, offsets
    )
    return LaurentPolynomial(vm.n, terms)


def denominator_factors(vm: ValidatedMatrix) -> list[LaurentPolynomial]:
    """One unsquared binomial t^((b_-)^j) - t^((b_+)^j) per row of B;
    squaring is implicit in the assembled form."""
    split = sign_split(vm.matrix)
    out = []
    for j in range(vm.n):
        terms = {}
        minus_e = split.minus.row(j)
        plus_e = split.plus.row(j)
        terms[minus_e] = terms.get(minus_e, 0) + 1
        terms[plus_e] = terms.get(plus_e, 0) - 1
        out.append(LaurentPolynomial(vm.n, terms))
    return out


def irreducibility_precondition(vm: ValidatedMatrix, j: int) -> bool:
    """gcd over the combined exponents of factor j, i.e. gcd |b^j| = 1;
    the hypothesis under which each denominator binomial is irreducible.
    Always holds after normalization."""
    return row_gcd(vm.matrix.row(j)) == 1


@dataclass(frozen=True)
class CanonicityVerdict:
    ok: bool
    failed_index: int | None = None


@dataclass(frozen=True)
class BergmanKernelForm:
    """prefactor * pi^pi_exponent * numerator / prod(factors squared)."""

    n: int
    det: int
    prefactor: Fraction
    pi_exponent: int
    numerator: LaurentPolynomial
    factors: tuple[LaurentPolynomial, ...]
    source: ValidatedMatrix
    box: ExponentBox | None = None

    def canonicalized(self) -> "BergmanKernelForm":
        """Rewrite in the presentation of the general formula: the integer
        content of the numerator folded into the prefactor, and each
        squared binomial oriented as t^((b_-)^j) - t^((b_+)^j).

        The assembled form already has the row orientation, but its
        numerator may keep integer content (for B = (1 -3 0 / 0 3 -1 /
        0 0 1) the prefactor is 1/9 and every coefficient a multiple of 3;
        canonicalized gives 1/3).  Special-case constructions arrive in
        their own scalings/orientations; all of them need this before
        exact comparison.  A factor that does not match its row's binomial
        up to sign is left untouched, so genuine discrepancies stay
        visible.
        """
        content = 0
        for _, c in self.numerator.items():
            if c.denominator != 1:
                content = 1
                break
            content = math.gcd(content, c.numerator)
        if content in (0, 1):
            prefactor, numerator = self.prefactor, self.numerator
        else:
            prefactor = self.prefactor * content
            numerator = self.numerator.scaled(Fraction(1, content))
        row_oriented = denominator_factors(self.source)
        factors = tuple(
            t if (f == t or f == -t) else f
            for f, t in zip(self.factors, row_oriented)
        )
        return BergmanKernelForm(
            self.n,
            self.det,
            prefactor,
            self.pi_exponent,
            numerator,
            factors,
            self.source,
            self.box,
        )


def same_kernel(a: BergmanKernelForm, b: BergmanKernelForm) -> bool:
    """Exact equality of canonicalized forms: prefactor, numerator term map,
    and the multiset of sign-normalized factors (factors are squared, so a
    global sign on one binomial is immaterial; comparison fixes the sign by
    making the lex-leading coefficient positive)."""
    ca, cb = a.canonicalized(), b.canonicalized()
    if (ca.n, ca.pi_exponent, ca.prefactor) != (cb.n, cb.pi_exponent, cb.prefactor):
        return False
    if ca.numerator != cb.numerator:
        return False
    fa = sorted(tuple(f.sign_normalized().sorted_terms()) for f in ca.factors)
    fb = sorted(tuple(f.sign_normalized().sorted_terms()) for f in cb.factors)
    return fa == fb


def canonicity_check(form: BergmanKernelForm) -> CanonicityVerdict:
    """No denominator binomial may divide the numerator; returns the first
    offending factor index otherwise.

    Each factor is t^a - t^b with s = a - b != 0, and Q[Z^n]/(1 - t^s) is
    the group ring of Z^n / Zs, so the factor divides the numerator exactly
    when the numerator's coefficients sum to zero on every coset of Zs
    (LaurentPolynomial.divisible_by_binomial): O(terms * n) per factor,
    with no division."""
    for j, factor in enumerate(form.factors):
        if form.numerator.divisible_by_binomial(factor):
            return CanonicityVerdict(False, j)
    return CanonicityVerdict(True)


def assemble_kernel(
    m: IntMatrix | NormalizedMatrix | ValidatedMatrix,
) -> BergmanKernelForm:
    """Normalize, validate and assemble the canonical kernel form.

    Raises SingularMatrixError / UnboundedDomainError for bad input and
    CanonicityViolationError on internal inconsistency (an identically
    zero numerator or a common factor with the denominator can only mean
    a bug, never a property of a bounded domain's kernel).
    """
    vm = m if isinstance(m, ValidatedMatrix) else prepare(m)
    box = exponent_box(vm)
    numerator = numerator_polynomial(vm)
    if numerator.is_zero():
        raise CanonicityViolationError(
            "empty numerator: a Bergman kernel cannot vanish identically"
        )
    form = BergmanKernelForm(
        n=vm.n,
        det=vm.det,
        prefactor=Fraction(1, vm.det ** (vm.n - 1)),
        pi_exponent=-vm.n,
        numerator=numerator,
        factors=tuple(denominator_factors(vm)),
        source=vm,
        box=box,
    )
    verdict = canonicity_check(form)
    if not verdict.ok:
        raise CanonicityViolationError(
            f"denominator factor {verdict.failed_index} divides the numerator"
        )
    return form


def eval_kernel(
    form: BergmanKernelForm,
    p: Sequence[complex],
    q: Sequence[complex],
    epsilon: float = 1e-12,
) -> complex:
    """Evaluate at (p, q) through t_j = p_j * conj(q_j), double precision.

    Raises EvaluationAtSingularityError when any denominator binomial is
    smaller than epsilon in modulus at t.
    """
    if len(p) != form.n or len(q) != form.n:
        raise ValueError(f"points must have {form.n} coordinates")
    t = [complex(a) * complex(b).conjugate() for a, b in zip(p, q)]
    den = 1.0 + 0j
    for j, factor in enumerate(form.factors):
        val = factor.evaluate(t)
        if abs(val) < epsilon:
            raise EvaluationAtSingularityError(
                f"denominator factor {j} has modulus {abs(val):.3e} < {epsilon}"
            )
        den *= val * val
    num = form.numerator.evaluate(t)
    return float(form.prefactor) * math.pi**form.pi_exponent * num / den
