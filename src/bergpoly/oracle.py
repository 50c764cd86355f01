"""Independent series oracle for the closed kernel form.

Math note (the norm formula used here, derived once and validated in the
test suite against direct 2-D numeric integration):

The domain cut out by a validated matrix B is the image of a product
Omega of unit discs / punctured discs under the monomial map
w -> w^A with A = adj B, a proper map of multiplicity det A whose
holomorphic Jacobian is det A * w^(1A - 1).  Pulling |z^m|^2 back,

    ||z^m||^2 = (1/det A) * (det A)^2 * prod_j Int_D |w|^(2 y_j - 2) dV
              = det A * pi^n / prod_j y_j,      y = (m + 1) A,

using Int_D |w|^(2k) dV = pi/(k+1); the integral is finite exactly when
every y_j >= 1, which is also the square-integrability condition for the
monomial on the domain (punctured-disc factors change nothing: an L^2
holomorphic function extends across the puncture).  Since the domain is
Reinhardt, the monomials are a complete orthogonal system and

    pi^n K(p, q) = sum_{y >= 1} (prod_j y_j / det A) t^m,   t = p (.) conj(q).

Every coefficient is a positive rational with denominator dividing det A;
all comparisons against the closed form happen on the integer multiples
det A * coefficient, so the whole pipeline is exact.

The series sums to a finite form over the lattice cone.  Write
x = m + 1 and d = det B, so y = x adj B and x = sum_j (y_j / d) b_j over
the rows b_j of B: the admissible x are the lattice points of the open
cone the rows span.  Each is uniquely x' + sum_j k_j b_j with every
k_j >= 0 and x' in the half-open parallelepiped
Pi = {x : 1 <= (x adj B)_j <= d}, which has d points; adding b_j adds
d to y_j.  With lambda = y_j / d,

    sum_{k>=0} (lambda + k) u^k = (lambda + (1 - lambda) u) / (1 - u)^2,

summed over k_j with u = t^(b_j), d^(n-1) pi^n K is t^(-1) times
sum_{x' in Pi} t^(x') prod_j (y_j + (d - y_j) t^(b_j)) / (1 - t^(b_j))^2.
Since 1 - t^(b_j) = t^(-(b_-)^j) (t^((b_-)^j) - t^((b_+)^j)), K times the
squared row binomials is pi^-n d^-(n-1) N with

    N = sum_{x' in Pi} t^(x' + base) prod_j (y_j + (d - y_j) t^(b_j)),
    base_i = 2 sum_j max(-b_ji, 0) - 1,

a finite polynomial (Beck and Robins, *Computing the Continuous
Discretely*, ch. 3), which `kernel.numerator_polynomial` builds.

The certificate (`certify`) does not build N.  It checks a form against
the paper's tent formula, with B, det B, adj B and tent values only.
Write s_i = 1 - 2 sum_j max(-b_ji, 0) = -base_i and

    c(e) = prod_j tent(d, (e + s) . a_j - 1),  a_j the columns of adj B,

the coefficient of N at e (the kernel module docstring shows that N's
terms never collide).  Every c(e) is >= 0, and the mass identity
sum_{e in Z^n} c(e) = d^(n+1) holds: e -> u = (e + s) adj B - 1 is
injective onto a coset of L = Z^n adj B, which has index d^(n-1) in Z^n
and contains d Z^n, since (z B) adj B = d z.  tent(d, .) is the
convolution of the indicator of [0, d - 1] with itself, so the sum
counts the pairs a, b in [0, d - 1]^n with a + b in the coset; for each
a, b runs once over the residues mod d, and the coset holds d of the
d^n residue classes, which gives d^n * d.  So with
d^(n-1) * prefactor = p/q in lowest terms, a form whose factors are the
row binomials, up to sign and order, is right on all of Z^n exactly
when p * num(e) = q * c(e) at each of its terms and
sum_e p * num(e) = q * d^(n+1): its terms then carry all of c's mass,
and c >= 0 vanishes off them.  That is O(terms * n^2) work with no
enumeration, in numpy: int64 when d^n and
max_i |e_i| * max_j (column sum of adj B)_j + max_j |s . a_j - d| + d
stay below 2**62 (they bound every value of the pass), else exact
Python integers.

`compare_with_closed_form` gives a form that the certificate accepts an
empty report.  For any other form it reads the report off c: when the
form's factors are the row binomials, det^(n-1) times the series times
prod_f f^2 is c at every exponent, so comparing that product with
det^(n-1) * prefactor * num point by point on a box, as a window
comparison would, compares c with the numerator: e is a mismatch
exactly when p * num(e) != q * c(e).  Only an exponent in the support
of num or c can be one, and c's support lies in the box where
z = (e + s) adj B is in [1, 2d - 1]^n, which `tent_product_over_box`
enumerates.  So every point of the box is checked and no window is
filled.  HULL_BUDGET_POINTS still caps the window: a window whose hull,
the box a point-by-point product would fill, has more points is
refused, whatever the form.  `oracle_series` fills a window straight
from the norm formula; it is the tests' plain reference for the series,
and no command calls it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _backend
from .errors import NonConvergentError, WindowTooLargeError
from .int_linalg import ValidatedMatrix, parallelepiped
from .kernel import BergmanKernelForm, _numerator_dtypes, assemble_kernel, eval_kernel
from .laurent import LaurentPolynomial
from .tent import tent_product_over_box

# relative change between partial sums below which the spot check's series
# counts as settled
CAUCHY_TOL = 1e-9

# points a window's hull may have (`_plan`); a window over it is refused
# whatever the form
HULL_BUDGET_POINTS = 2**27


@dataclass(frozen=True)
class Window:
    """Closed per-coordinate exponent window [lower_j, upper_j]."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("window bounds must have equal length")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise ValueError("empty window")

    @classmethod
    def cube(cls, n: int, radius: int) -> "Window":
        return cls((-radius,) * n, (radius,) * n)

    @classmethod
    def of(cls, lower: Sequence[int], upper: Sequence[int]) -> "Window":
        return cls(tuple(int(x) for x in lower), tuple(int(x) for x in upper))

    def contains(self, m: Sequence[int]) -> bool:
        return all(l <= x <= u for l, x, u in zip(self.lower, m, self.upper))


def oracle_series(vm: ValidatedMatrix, window: Window) -> dict[tuple[int, ...], Fraction]:
    """Exact kernel coefficients (of pi^n K) at the window's admissible
    exponents, in lexicographic order, straight from the norm formula
    (never from the closed form being tested); every one is positive."""
    det_adj = vm.det ** (vm.n - 1)
    adj_rows = [list(r) for r in vm.adj.rows]
    scaled = _backend.fill_products(adj_rows, window.lower, window.upper)
    return {
        tuple(l + int(o) for l, o in zip(window.lower, offs)): Fraction(int(scaled[offs]), det_adj)
        for offs in zip(*np.nonzero(scaled))
    }


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one closed-form-vs-series comparison: the mismatching
    points, and safe_lower..safe_upper, the compared box (the window
    together with the numerator's bounding box).  Every point of the box
    is compared, so `checked` is its number of points and `matched` those
    that are not mismatches."""

    mismatches: tuple[tuple[tuple[int, ...], Fraction, Fraction], ...]
    safe_lower: tuple[int, ...]
    safe_upper: tuple[int, ...]

    @property
    def checked(self) -> int:
        return math.prod(h - l + 1 for l, h in zip(self.safe_lower, self.safe_upper))

    @property
    def matched(self) -> int:
        return self.checked - len(self.mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _shift(vm: ValidatedMatrix) -> list[int]:
    """s_i = 1 - 2 sum_j max(-b_ji, 0), read off the columns of B."""
    return [1 + 2 * sum(min(x, 0) for x in col) for col in zip(*vm.matrix.rows)]


def _certificate_dtype(vm: ValidatedMatrix, reach: int, offsets: list[int]) -> type:
    """int64 when det^n and reach * max_j (column sum of adj B)_j +
    max_j |offsets_j| + det, with reach the largest |e_i| of the form,
    stay below 2**62 (module docstring), else object."""
    bound = reach * max(map(sum, zip(*vm.adj.rows))) + max(map(abs, offsets)) + vm.det
    return np.int64 if max(vm.det**vm.n, bound) < 2**62 else object


def _agrees(vm: ValidatedMatrix, form: BergmanKernelForm) -> bool:
    """p * num(e) = q * c(e) at every term of the form, with
    det^(n-1) * prefactor = p/q, and the mass identity
    sum_e p * num(e) = q * det^(n+1) (module docstring)."""
    det, n = vm.det, vm.n
    ratio = det ** (n - 1) * form.prefactor
    p, q = ratio.numerator, ratio.denominator
    if form.numerator.is_zero():
        return False
    exps, nums = zip(*form.numerator.items())
    if p * sum(nums) != q * det ** (n + 1):
        return False
    # tent(det, r) = max(det - |r - (det - 1)|, 0), and for
    # r = (e + s) . a_j - 1 the centred r - (det - 1) is e . a_j + offsets_j
    s = _shift(vm)
    offsets = [sum(map(operator.mul, s, col)) - det for col in zip(*vm.adj.rows)]
    try:
        e = np.fromiter(itertools.chain.from_iterable(exps), np.int64, len(exps) * n)
        reach = max(int(e.max()), -int(e.min()))
    except OverflowError:
        reach = 2**63
    dtype = _certificate_dtype(vm, reach, offsets)
    e = e.reshape(-1, n) if dtype is np.int64 else np.array(exps, dtype=object)
    centred = e @ np.array(vm.adj.rows, dtype=dtype) + np.array(offsets, dtype=dtype)
    c = np.maximum(det - abs(centred), 0).prod(axis=1)
    return list(map(p.__mul__, nums)) == list(map(q.__mul__, c.tolist()))


def _mismatches(
    vm: ValidatedMatrix, form: BergmanKernelForm
) -> dict[tuple[int, ...], tuple[Fraction, Fraction]]:
    """{e: (prefactor * num(e), c(e) / det^(n-1))} at every exponent where
    p * num(e) != q * c(e), with det^(n-1) * prefactor = p/q.  c is
    enumerated over the box of its support: c(e) != 0 needs
    z = (e + s) adj B in [1, 2 det - 1]^n, and e + s = z B / det."""
    det, n = vm.det, vm.n
    det_adj = det ** (n - 1)
    ratio = det_adj * form.prefactor
    p, q = ratio.numerator, ratio.denominator
    s = _shift(vm)
    cols = list(zip(*vm.matrix.rows))
    lower = [-(-sum(min(b, (2 * det - 1) * b) for b in col) // det) - si
             for col, si in zip(cols, s)]
    upper = [sum(max(b, (2 * det - 1) * b) for b in col) // det - si for col, si in zip(cols, s)]
    offsets = [sum(si * a for si, a in zip(s, col)) - 1 for col in zip(*vm.adj.rows)]
    tents = tent_product_over_box(lower, upper, [det] * n, vm.adj.rows, offsets)
    wrong = {}
    for e, c in form.numerator.items():
        g = tents.pop(e, 0)
        if p * c != q * g:
            wrong[e] = (c, g)
    # c's values are positive, so each one left differs from num's 0
    wrong.update((e, (0, g)) for e, g in tents.items())
    return {e: (Fraction(p * c, q * det_adj), Fraction(g, det_adj)) for e, (c, g) in wrong.items()}


def _unmatched_factor(vm: ValidatedMatrix, form: BergmanKernelForm) -> LaurentPolynomial | None:
    """The first factor of the form that is not one of B's row binomials
    t^((b_-)^j) - t^((b_+)^j) (up to sign and order), or else the first
    row binomial no factor matches; None when they match."""
    # +-(t^a - t^b) is known by {a, b}; a normalized row is nonzero, so
    # its two exponents differ
    rows = [(tuple(max(-x, 0) for x in r), tuple(max(x, 0) for x in r)) for r in vm.matrix.rows]
    unmatched = Counter(frozenset(ab) for ab in rows)
    for f in form.factors:
        try:
            key = frozenset(f.binomial())
        except ValueError:
            key = None
        if not unmatched[key]:
            return f
        unmatched[key] -= 1
    for a, b in rows:
        if unmatched[frozenset((a, b))]:
            return LaurentPolynomial(vm.n, {a: 1, b: -1})
    return None


def certify(
    vm: ValidatedMatrix, form: BergmanKernelForm
) -> tuple[int, ...] | LaurentPolynomial | None:
    """None when the form equals the series on all of Z^n.  Otherwise the
    factor `_unmatched_factor` names, or the least exponent, in
    lexicographic order, where det^(n-1) * prefactor * numerator and the
    tent formula c differ (`_mismatches`).

    It reads only B, det B, adj B and tent values: a form with the right
    factors is accepted by its own terms and the mass identity
    (`_agrees`), and only a refused one enumerates c."""
    factor = _unmatched_factor(vm, form)
    if factor is not None:
        return factor
    if _agrees(vm, form):
        return None
    return min(_mismatches(vm, form))


def _plan(window: Window, form: BergmanKernelForm):
    """The compared box lo..hi, the window together with the numerator's
    bounding box.  WindowTooLargeError naming the hull when its hull, the
    box widened by the squared denominator's exponent extents (twice the
    sum over the factors of their per-coordinate min/max exponents), has
    more than HULL_BUDGET_POINTS points.  Nothing is filled, so the
    refusal depends on the window's size alone."""
    num = form.numerator
    lo = tuple(min(w, e) for w, e in zip(window.lower, num.min_exponents()))
    hi = tuple(max(w, e) for w, e in zip(window.upper, num.max_exponents()))
    dmin = [2 * sum(x) for x in zip(*(f.min_exponents() for f in form.factors))]
    dmax = [2 * sum(x) for x in zip(*(f.max_exponents() for f in form.factors))]
    hull_lo = tuple(l - d for l, d in zip(lo, dmax))
    hull_hi = tuple(h - d for h, d in zip(hi, dmin))

    hull_points = math.prod(h - l + 1 for l, h in zip(hull_lo, hull_hi))
    if hull_points > HULL_BUDGET_POINTS:
        raise WindowTooLargeError(
            f"the oracle hull {hull_lo}..{hull_hi} has {hull_points} points, "
            f"more than the oracle's cap of {HULL_BUDGET_POINTS} points"
        )
    return lo, hi


def compare_with_closed_form(
    vm: ValidatedMatrix,
    window: Window,
    form: BergmanKernelForm | None = None,
) -> OracleReport:
    """Compare the closed form with the series at every point of the
    compared box, the window together with the numerator's bounding box,
    and report the mismatches there, closed form first, as coefficients of
    the series times the squared denominator, in lexicographic order.

    The window's size is checked first (`_plan`), so a window whose hull
    has more than HULL_BUDGET_POINTS points is refused with
    WindowTooLargeError whatever the form.  A form whose factors are not
    B's row binomials, up to sign and order, is a ValueError naming the
    factor `_unmatched_factor` names.  A form that the certificate
    accepts (`_agrees`) has no mismatch.  Otherwise det^(n-1) times the
    series times the squared denominator is the tent formula c at every
    exponent, so the mismatches are the differences from c
    (`_mismatches`) that lie in the box.  No window is filled."""
    if form is None:
        form = assemble_kernel(vm)
    lo, hi = _plan(window, form)
    factor = _unmatched_factor(vm, form)
    if factor is not None:
        raise ValueError(
            f"the factors must be B's row binomials, up to sign and order; {factor!r} is not matched"
        )
    if _agrees(vm, form):
        return OracleReport((), lo, hi)
    box = Window(lo, hi)
    wrong = _mismatches(vm, form)
    return OracleReport(tuple((e, *wrong[e]) for e in sorted(wrong) if box.contains(e)), lo, hi)


def _partial_sums(vm: ValidatedMatrix, t: np.ndarray, radii: Sequence[int]):
    """(radius, partial sum) along increasing radii: the monomial series
    summed over every admissible m with y = (m+1) adj B <= radius
    entrywise, one coset of the lattice cone at a time.  Truncating in y,
    not in m, gives geometric decay in every coordinate (each step of det
    in y_j multiplies a term by |u_j| < 1 below), which a box in m does
    not: admissible rays can be arbitrarily slanted.

    Every admissible y is uniquely y' + det k with k >= 0 and y' one of
    the det points of `parallelepiped` (module docstring), and then
    m + 1 = x' + sum_j k_j b_j with x' = y' B / det.  The cube y <= R
    bounds each k_j alone, by (R - y'_j) / det, and the term
    prod_j y_j t^m / det^(n-1) is lead * prod_j (y'_j + det k_j) u_j^k_j
    with lead = t^(x' - 1) / det^(n-1) and u_j = t^(b_j).  So a coset's
    part of the cube's sum is lead times the product over j of the
    one-dimensional sums of (y'_j + det k) u_j^k over
    0 <= k <= (R - y'_j) / det: the same terms, each summed once, and
    never in closed form.  A coset with some y'_j above the largest
    radius has no term in any of the cubes."""
    det = vm.det
    dtype = _numerator_dtypes(vm)[0]
    y = parallelepiped(vm, dtype)
    y = y[(y <= radii[-1]).all(axis=1)]
    # x' = y' B / det, exact
    x = y @ np.array(vm.matrix.rows, dtype=dtype) // det
    log_t = np.log(t)
    lead = np.exp((x - 1).astype(np.float64) @ log_t) / det ** (vm.n - 1)
    k = np.arange((radii[-1] - 1) // det + 1)
    # (coset, j, k) -> y'_j + det k, and u_j^k
    ys = y.astype(np.float64)[:, :, None] + det * k
    powers = np.exp(np.multiply.outer(np.array(vm.matrix.rows, np.float64) @ log_t, k))
    for radius in radii:
        sums = np.where(ys <= radius, ys * powers, 0).sum(axis=2)
        yield radius, complex(lead @ sums.prod(axis=1))


def numeric_spot_check(
    vm: ValidatedMatrix,
    p: Sequence[complex],
    q: Sequence[complex],
    terms: int,
    form: BergmanKernelForm | None = None,
) -> float:
    """Relative error between the closed form and the truncated orthonormal
    series at (p, q); the truncation radius walks up until a Cauchy
    criterion (relative step <= CAUCHY_TOL) holds twice in a row, else
    NonConvergentError.

    The radii are step, 2 step, ... and `terms`, step = max(4, terms // 10);
    the partial sum at a radius covers every admissible m with
    y = (m+1) adj B <= radius entrywise.  Those y are the lattice points
    y' + det k (k >= 0) of the det cosets, so each radius sums, per
    coset, t^(x' - 1) / det^(n-1) times a product of n one-dimensional
    sums over k_j (`_partial_sums`): the cube's terms, and none of its
    points that are not lattice points."""
    if form is None:
        form = assemble_kernel(vm)
    t = np.asarray(
        [complex(a) * complex(b).conjugate() for a, b in zip(p, q)], dtype=complex
    )
    if np.any(t == 0):
        raise ValueError("spot check requires coordinates away from the axes")
    closed = eval_kernel(form, p, q)

    step = max(4, terms // 10)
    radii = list(range(step, terms, step)) + [terms]
    prev = None
    stable = 0
    value = None
    for _, total in _partial_sums(vm, t, radii):
        cur = total / math.pi**vm.n
        if prev is not None:
            if abs(cur - prev) <= CAUCHY_TOL * max(abs(cur), 1e-300):
                stable += 1
                if stable >= 2:
                    value = cur
                    break
            else:
                stable = 0
        prev = cur
    if value is None:
        raise NonConvergentError(
            f"series failed the Cauchy criterion within radius {terms}"
        )
    return abs(closed - value) / abs(closed)
