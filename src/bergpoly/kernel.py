"""Canonical Bergman kernel form of a monomial polyhedron.

Given a validated defining matrix B (det > 0, coprime rows, adj B >= 0),
the kernel of the domain is

    K(p, q) = (1 / (pi^n (det B)^(n-1)))
              * sum_nu c(nu) t^nu / prod_j (t^((b_-)^j) - t^((b_+)^j))^2,

in the variables t_j = p_j * conj(q_j), where each numerator coefficient
is a product of tent values driven by the columns of adj B:

    c(nu) = prod_j tent(det B, (nu - 2*colsums(B_-) + 1) . a_j - 1).

The numerator is built from the lattice cone the rows b_j of B span
(Beck and Robins, *Computing the Continuous Discretely*, ch. 3; the
oracle module docstring derives it from the series):

    N = sum_{x' in Pi} t^(x' + base) prod_j (y_j + (d - y_j) t^(b_j)),

with d = det B, Pi = {x : 1 <= (x adj B)_j <= d} the det B points of
the half-open parallelepiped (`int_linalg.parallelepiped`), y = x' adj B
and base_i = 2 sum_j max(-b_ji, 0) - 1.  Its terms never collide: the
term of x' and a row subset S has exponent x with (x - base) adj B =
y + d 1_S, and since every y_j lies in [1, d] and row j enters S only
when y_j < d, (x', S) is read back from x.  So each term is its own
exponent, with coefficient prod_{j not in S} y_j prod_{j in S} (d - y_j)
= c(x), and N is expanded with no merge: all cosets at once, one row at
a time, row j adding the term e + b_j with coefficient c (d - y_j) only
where y_j < d.  A unimodular matrix gives one term.  The terms are
sorted into lexicographic order once, at the end, the canonical order
that LaurentPolynomial keeps.

One path, two dtype choices.  Every coefficient is at most det^n (each
factor y_j or det - y_j is at most det), so the coefficients are int64
when det^n < 2**62 and exact Python integers otherwise (the 8x8 cyclic
(2, -1) has det 255 and a coefficient of 1.79e19).  Every entry of
r adj B (the coset walk) lies in [0, det * max_j (column sum of adj B)_j],
|(y B)_i| <= det (1|B|)_i, and every exponent and partial sum is at
most 4 (1|B|)_i + 1 in absolute value, so the cosets and exponents are
int64 when det * max_j (column sum of adj B)_j and
(det + 4) max_i (1|B|)_i + 1 are below 2**62, and Python integers
otherwise.

The number of terms is known before they are built: det B cosets, the
one of y having 2^#{j : y_j < det} terms.  A matrix whose det B alone
is over NUMERATOR_BUDGET_TERMS is refused before any array exists, and
one whose exact count is over it right after the cosets' y are built,
with NumeratorTooLargeError naming n, det B and the count; a
MemoryError while the terms are built is a NumeratorTooLargeError too.

The coefficient support lives in a finite box.  NOTE the index
convention: the box bounds use COLUMN sums of |B| = B_+ + B_-, i.e.
(1|B|)_j, not row sums -- with ceil_j = ceil((1|B|)_j / det B), coordinate
j of the support satisfies ceil_j - 1 <= nu_j <= 2 (1|B|)_j - 1 - ceil_j.
No command scans that box for the numerator; the benchmark reads its
volume.

A BergmanKernelForm stores its prefactor, integer numerator, binomial
factors and validated matrix; n, det B, the exponent -n of pi and the
exponent box are read off the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    CanonicityViolationError,
    EvaluationAtSingularityError,
    NumeratorTooLargeError,
)
from .int_linalg import IntMatrix, NormalizedMatrix, ValidatedMatrix, parallelepiped, prepare
from .laurent import LaurentPolynomial

# terms the numerator may have (`numerator_polynomial`); a matrix over it
# is refused before its terms are built
NUMERATOR_BUDGET_TERMS = 2**18


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


def _numerator_dtypes(vm: ValidatedMatrix) -> tuple[type, type]:
    """The dtypes of the exponents (and cosets) and of the coefficients:
    int64 where the bounds of the module docstring stay below 2**62, else
    object."""
    det = vm.det
    walk = max(
        det * max(map(sum, zip(*vm.adj.rows))),
        (det + 4) * max(vm.matrix.column_abs_sums()) + 1,
    )
    return tuple(np.int64 if bound < 2**62 else object for bound in (walk, det**vm.n))


def _too_large(vm: ValidatedMatrix, terms: str) -> NumeratorTooLargeError:
    return NumeratorTooLargeError(
        f"the numerator in dimension {vm.n} with det {vm.det} has {terms} terms, "
        f"more than the cap of {NUMERATOR_BUDGET_TERMS}"
    )


def numerator_polynomial(vm: ValidatedMatrix) -> LaurentPolynomial:
    """The lattice-cone numerator N of the module docstring, sum of
    c(nu) t^nu, in lexicographic order; NumeratorTooLargeError over
    NUMERATOR_BUDGET_TERMS terms."""
    n, det = vm.n, vm.det
    if det > NUMERATOR_BUDGET_TERMS:
        raise _too_large(vm, f"at least {det}")
    exp_dtype, coeff_dtype = _numerator_dtypes(vm)
    try:
        y = parallelepiped(vm, exp_dtype)
        # det * 2^n bounds the count; the exact count is at most det * 2^16
        if det << n > NUMERATOR_BUDGET_TERMS:
            terms = int(np.left_shift(1, (y < det).sum(axis=1)).sum())
            if terms > NUMERATOR_BUDGET_TERMS:
                raise _too_large(vm, str(terms))
        rows = np.array(vm.matrix.rows, dtype=exp_dtype)
        base = [2 * sum(max(-x, 0) for x in col) - 1 for col in zip(*vm.matrix.rows)]
        # x' = y B / det, exact
        exps = y @ rows // det + np.array(base, dtype=exp_dtype)
        coeffs = np.ones(det, dtype=coeff_dtype)
        coset = np.arange(det)
        for j in range(n):
            yj = y[coset, j]
            grow = np.flatnonzero(yj < det)
            exps = np.concatenate((exps, exps[grow] + rows[j]))
            coeffs = np.concatenate((coeffs * yj, coeffs[grow] * (det - yj[grow])))
            coset = np.concatenate((coset, coset[grow]))
        order = np.lexsort(exps.T[::-1])
        return LaurentPolynomial._from_clean(
            n, dict(zip(zip(*exps[order].T.tolist()), coeffs[order].tolist()))
        )
    except MemoryError:
        raise NumeratorTooLargeError(
            f"the numerator in dimension {n} with det {det} does not fit in memory"
        ) from None


def denominator_factors(vm: ValidatedMatrix) -> list[LaurentPolynomial]:
    """One unsquared binomial t^((b_-)^j) - t^((b_+)^j) per row of B;
    squaring is implicit in the assembled form.  A normalized row is
    nonzero, so its two exponent vectors differ; each map is written in
    canonical order."""
    factors = []
    for row in vm.matrix.rows:
        a, b = tuple(max(-x, 0) for x in row), tuple(max(x, 0) for x in row)
        terms = {a: 1, b: -1} if a < b else {b: -1, a: 1}
        factors.append(LaurentPolynomial._from_clean(vm.n, terms))
    return factors


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
    fa = sorted(tuple(f.sign_normalized().items()) for f in ca.factors)
    fb = sorted(tuple(f.sign_normalized().items()) for f in cb.factors)
    return fa == fb


def canonicity_check(form: BergmanKernelForm) -> int | None:
    """The index of the first denominator binomial that divides the
    numerator, or None when none does (the form is canonical).

    Each factor is t^a - t^b with s = a - b != 0, and Z[Z^n]/(1 - t^s) is
    the group ring of Z^n / Zs, so the factor divides the numerator exactly
    when the numerator's coefficients sum to zero on every coset of Zs
    (LaurentPolynomial.divisible_by_binomial): O(terms * n) per factor,
    with no division.  The coset sums add up to the total coefficient sum,
    so a numerator whose total is nonzero is divisible by no factor.  Every
    general numerator is a sum of positive tent products, so this check
    costs one sum per form there; the coset sums run only for a numerator
    that totals zero, such as a corrupted one or a multiple of a factor."""
    if sum(form.numerator.values()):
        return None
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
