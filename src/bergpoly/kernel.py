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

A BergmanKernelForm stores its prefactor, integer numerator, binomial
factors and validated matrix; n, det B, the exponent -n of pi and the
exponent box are read off the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CanonicityViolationError, EvaluationAtSingularityError
from .int_linalg import IntMatrix, NormalizedMatrix, ValidatedMatrix, prepare
from .laurent import LaurentPolynomial
from .tent import tent, tent_product_over_box


@dataclass(frozen=True)
class ExponentBox:
    """Closed integer box certain to contain the numerator support."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    ceilings: tuple[int, ...]

    def volume(self) -> int:
        v = 1
        for l, u in zip(self.lower, self.upper):
            v *= max(u - l + 1, 0)
        return v


def exponent_box(vm: ValidatedMatrix) -> ExponentBox:
    """The box ceil_j - 1 <= nu_j <= 2 s_j - 1 - ceil_j, s_j = (1|B|)_j and
    ceil_j = ceil(s_j / det B).  It is never empty: upper_j - lower_j =
    2 (s_j - ceil_j) >= 0, since det B >= 1 gives ceil_j <= s_j."""
    colsums = vm.matrix.column_abs_sums()
    ceilings = tuple(-((-s) // vm.det) for s in colsums)
    lower = tuple(c - 1 for c in ceilings)
    upper = tuple(2 * s - 1 - c for s, c in zip(colsums, ceilings))
    return ExponentBox(lower, upper, ceilings)


def _shift_vector(vm: ValidatedMatrix) -> tuple[int, ...]:
    """Row vector 1 - 2 * (column sums of B_-), read off the rows of B."""
    return tuple(1 + 2 * sum(min(x, 0) for x in col) for col in zip(*vm.matrix.rows))


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
    shift = _shift_vector(vm)
    offsets = [sum(s * a for s, a in zip(shift, col)) - 1 for col in zip(*vm.adj.rows)]
    terms = tent_product_over_box(
        box.lower, box.upper, [vm.det] * vm.n, vm.adj.rows, offsets
    )
    return LaurentPolynomial._from_clean(vm.n, terms)


def denominator_factors(vm: ValidatedMatrix) -> list[LaurentPolynomial]:
    """One unsquared binomial t^((b_-)^j) - t^((b_+)^j) per row of B;
    squaring is implicit in the assembled form.  A normalized row is
    nonzero, so its two exponent vectors differ."""
    return [
        LaurentPolynomial._from_clean(
            vm.n, {tuple(max(-x, 0) for x in row): 1, tuple(max(x, 0) for x in row): -1}
        )
        for row in vm.matrix.rows
    ]


@dataclass(frozen=True)
class BergmanKernelForm:
    """prefactor * pi^pi_exponent * numerator / prod(factors squared)."""

    prefactor: Fraction
    numerator: LaurentPolynomial
    factors: tuple[LaurentPolynomial, ...]
    source: ValidatedMatrix

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def det(self) -> int:
        return self.source.det

    @property
    def pi_exponent(self) -> int:
        return -self.source.n

    @property
    def box(self) -> ExponentBox:
        return exponent_box(self.source)

    def canonicalized(self) -> "BergmanKernelForm":
        """Fold the integer content of the numerator into the prefactor.

        The assembled numerator may keep integer content (for B = (1 -3 0 /
        0 3 -1 / 0 0 1) the prefactor is 1/9 and every coefficient a
        multiple of 3; canonicalized gives 1/3), and the special-case
        constructions arrive in their own scalings; all of them need this
        before exact comparison.  Every constructor writes row j's binomial
        t^((b_-)^j) - t^((b_+)^j) as factor j, so the factors are kept.
        """
        content = math.gcd(*(c for _, c in self.numerator.items()))
        if content in (0, 1):
            return self
        numerator = LaurentPolynomial._from_clean(
            self.n, {e: c // content for e, c in self.numerator.items()}
        )
        return BergmanKernelForm(self.prefactor * content, numerator, self.factors, self.source)


def same_kernel(a: BergmanKernelForm, b: BergmanKernelForm) -> bool:
    """Exact equality of canonicalized forms: prefactor, numerator term map,
    and the multiset of sign-normalized factors (factors are squared, so a
    global sign on one binomial is immaterial; comparison fixes the sign by
    making the lex-leading coefficient positive)."""
    ca, cb = a.canonicalized(), b.canonicalized()
    if (ca.n, ca.prefactor) != (cb.n, cb.prefactor):
        return False
    if ca.numerator != cb.numerator:
        return False
    fa = sorted(tuple(f.sign_normalized().sorted_terms()) for f in ca.factors)
    fb = sorted(tuple(f.sign_normalized().sorted_terms()) for f in cb.factors)
    return fa == fb


def canonicity_check(form: BergmanKernelForm) -> int | None:
    """The index of the first denominator binomial that divides the
    numerator, or None when none does (the form is canonical).

    Each factor is t^a - t^b with s = a - b != 0, and Z[Z^n]/(1 - t^s) is
    the group ring of Z^n / Zs, so the factor divides the numerator exactly
    when the numerator's coefficients sum to zero on every coset of Zs
    (LaurentPolynomial.divisible_by_binomial): O(terms * n) per factor,
    with no division.  The coset sums add up to the total coefficient sum,
    so a numerator whose total is nonzero is divisible by no factor, and
    divisible_by_binomial says so after one sum.  Every general numerator
    is a sum of positive tent products, so this check costs one sum per
    factor there; the coset sums still run for a numerator that totals
    zero, such as a corrupted one or a multiple of a factor."""
    for j, factor in enumerate(form.factors):
        if form.numerator.divisible_by_binomial(factor):
            return j
    return None


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
    numerator = numerator_polynomial(vm)
    if numerator.is_zero():
        raise CanonicityViolationError(
            "empty numerator: a Bergman kernel cannot vanish identically"
        )
    form = BergmanKernelForm(
        Fraction(1, vm.det ** (vm.n - 1)), numerator, tuple(denominator_factors(vm)), vm
    )
    failed = canonicity_check(form)
    if failed is not None:
        raise CanonicityViolationError(f"denominator factor {failed} divides the numerator")
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
