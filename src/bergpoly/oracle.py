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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _backend
from .errors import NonConvergentError, WindowTooLargeError, WindowTooSmallError
from .int_linalg import ValidatedMatrix
from .kernel import BergmanKernelForm, assemble_kernel, eval_kernel
from .laurent import LaurentPolynomial, product


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

    @property
    def n(self) -> int:
        return len(self.lower)

    def contains(self, m: Sequence[int]) -> bool:
        return all(l <= x <= u for l, x, u in zip(self.lower, m, self.upper))


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


class OracleSeries:
    """Kernel coefficients (of pi^n K) on a window, stored densely as the
    integer multiples det A * coefficient; admissible entries are >= 1."""

    def __init__(self, vm: ValidatedMatrix, window: Window, scaled: np.ndarray):
        self.vm = vm
        self.window = window
        self.det_adj = vm.det ** (vm.n - 1)
        self._scaled = scaled

    def scaled_coefficient(self, m: Sequence[int]) -> int:
        idx = tuple(int(x) - l for x, l in zip(m, self.window.lower))
        return int(self._scaled[idx])

    def coefficient(self, m: Sequence[int]) -> Fraction:
        if not self.window.contains(m):
            raise KeyError(f"{tuple(m)} outside the window")
        return Fraction(self.scaled_coefficient(m), self.det_adj)

    def items(self):
        """(exponent, coefficient) for every admissible exponent, lex order."""
        lower = self.window.lower
        flat = self._scaled.reshape(-1)
        shape = self._scaled.shape
        for idx in np.nonzero(flat)[0]:
            offs = np.unravel_index(int(idx), shape)
            e = tuple(l + int(o) for l, o in zip(lower, offs))
            yield e, Fraction(int(flat[idx]), self.det_adj)

    def to_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.items())


def oracle_series(vm: ValidatedMatrix, window: Window, jobs: int = 1) -> OracleSeries:
    """Exact kernel coefficients on the window, straight from the norm
    formula (never from the closed form being tested)."""
    adj_rows = [list(r) for r in vm.adj.rows]
    scaled = _backend.fill_products(adj_rows, window.lower, window.upper, jobs=jobs)
    return OracleSeries(vm, window, scaled)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one closed-form-vs-series comparison."""

    checked: int
    matched: int
    mismatches: tuple[tuple[tuple[int, ...], Fraction, Fraction], ...]
    safe_lower: tuple[int, ...]
    safe_upper: tuple[int, ...]
    window: Window

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _squared_denominator(form: BergmanKernelForm) -> LaurentPolynomial:
    return product((f * f for f in form.factors), form.n)


def _convolve(wide, dtype, dterms, num_terms, lo, hi, grid_lo, grid_hi, hull_lo):
    """On the grid grid_lo..grid_hi, in accumulator dtype `dtype`: t, the
    window part of the series (`wide`, filled over the hull from hull_lo)
    times the squared denominator `dterms`; expected, the numerator
    `num_terms`; and safe, where no admissible exponent outside the window
    lo..hi contributes."""
    grid_shape = tuple(h - l + 1 for l, h in zip(grid_lo, grid_hi))
    if dtype == object:
        wide = wide.astype(object)
    t = np.zeros(grid_shape, dtype=dtype)
    expected = np.zeros(grid_shape, dtype=dtype)

    window_block = wide[
        tuple(slice(l - h, u - h + 1) for h, l, u in zip(hull_lo, lo, hi))
    ]
    admissible = wide != 0

    safe = np.ones(grid_shape, dtype=bool)
    for d, c in dterms:
        # Contribution of S(e - d): accumulate where e - d is in-window ...
        tlo = tuple(l + x for l, x in zip(lo, d))
        thi = tuple(u + x for u, x in zip(hi, d))
        tsl = tuple(
            slice(a - g, b - g + 1) for g, a, b in zip(grid_lo, tlo, thi)
        )
        t[tsl] += c * window_block
        # ... and mark e unsafe where e - d is outside yet admissible.
        adm_sl = tuple(
            slice(gl - x - al, gh - x - al + 1)
            for al, gl, gh, x in zip(hull_lo, grid_lo, grid_hi, d)
        )
        leak = admissible[adm_sl].copy()
        leak[tsl] = False
        safe &= ~leak

    for e, c in num_terms.items():
        expected[tuple(a - g for a, g in zip(e, grid_lo))] = c
    return t, expected, safe


def compare_with_closed_form(
    vm: ValidatedMatrix,
    window: Window,
    form: BergmanKernelForm | None = None,
    jobs: int = 1,
) -> OracleReport:
    """Multiply the truncated oracle series by the squared denominator and
    compare against the closed-form numerator, exactly, zeros included.

    A grid point e is compared only when provably uncontaminated by the
    window truncation: every contribution at m = e - d (d in the support
    of the squared denominator) must either lie inside the window or be
    inadmissible, i.e. have exact coefficient zero by the norm formula.
    The conservative safe box (window shrunk by the min/max exponents of
    the squared denominator) is always contained in that region and is
    what the report carries; an empty conservative box raises
    WindowTooSmallError.
    """
    if form is None:
        form = assemble_kernel(vm)
    n = vm.n
    det_adj = vm.det ** (n - 1)
    denom = _squared_denominator(form)
    dterms = [(e, int(c)) for e, c in denom.sorted_terms()]
    dmin = denom.min_exponents()
    dmax = denom.max_exponents()
    lo, hi = window.lower, window.upper

    safe_lower = tuple(l + d for l, d in zip(lo, dmax))
    safe_upper = tuple(u + d for u, d in zip(hi, dmin))
    if any(l > u for l, u in zip(safe_lower, safe_upper)):
        raise WindowTooSmallError(
            f"no truncation-safe sub-box inside window {lo}..{hi}"
        )

    num_terms = {e: int(c) for e, c in form.numerator.items()}
    num_min = form.numerator.min_exponents()
    num_max = form.numerator.max_exponents()
    grid_lo = tuple(min(a + b, c) for a, b, c in zip(lo, dmin, num_min))
    grid_hi = tuple(max(a + b, c) for a, b, c in zip(hi, dmax, num_max))
    grid_shape = tuple(h - l + 1 for l, h in zip(grid_lo, grid_hi))

    hull_lo = tuple(g - d for g, d in zip(grid_lo, dmax))
    hull_hi = tuple(g - d for g, d in zip(grid_hi, dmin))
    adj_rows = [list(r) for r in vm.adj.rows]
    wide = _backend.fill_products(adj_rows, hull_lo, hull_hi, jobs=jobs)

    # Accumulator dtype: int64 only if the convolution provably fits.
    sum_abs_d = sum(abs(c) for _, c in dterms)
    t_bound = _backend.product_bound(adj_rows, hull_lo, hull_hi) * sum_abs_d
    dtype = object if wide.dtype == object or t_bound >= 2**62 else np.int64
    try:
        t, expected, safe = _convolve(
            wide, dtype, dterms, num_terms, lo, hi, grid_lo, grid_hi, hull_lo
        )
        diff = safe & (t != expected)
    except MemoryError:
        points = math.prod(grid_shape)
        nbytes = wide.size + points * (2 * np.dtype(dtype).itemsize + 1)
        raise WindowTooLargeError(
            f"the oracle comparison grid {grid_lo}..{grid_hi} has {points} points "
            f"and needs at least {nbytes} bytes beside the hull, more than can "
            "be allocated"
        ) from None

    mismatches = []
    for flat_idx in np.nonzero(diff.reshape(-1))[0]:
        offs = np.unravel_index(int(flat_idx), grid_shape)
        e = tuple(g + int(o) for g, o in zip(grid_lo, offs))
        mismatches.append(
            (
                e,
                Fraction(int(expected[offs]), det_adj),
                Fraction(int(t[offs]), det_adj),
            )
        )
    checked = int(safe.sum())
    return OracleReport(
        checked=checked,
        matched=checked - len(mismatches),
        mismatches=tuple(mismatches),
        safe_lower=safe_lower,
        safe_upper=safe_upper,
        window=window,
    )


def _series_partial_sum(vm: ValidatedMatrix, t: np.ndarray, radius: int) -> complex:
    """Partial sum of the monomial series, truncated by the pulled-back
    degree vector: all admissible m with (m+1) adj B <= radius entrywise.

    Truncating in the pulled-back coordinates y = (m+1) adj B gives
    uniform geometric decay per unit radius in every coordinate (each
    y_j-step multiplies the term by |t^(b^j)|^(1/det) < 1), which a box
    in m itself does not: admissible rays can be arbitrarily slanted.
    The admissible exponents are exactly m = y B / det - 1 for lattice
    points y >= 1 with y B = 0 mod det.  Powers run in log space since
    single coordinates of m may be very negative even when the admissible
    products stay bounded.
    """
    n = vm.n
    det = vm.det
    det_adj = det ** (n - 1)
    b = np.asarray([list(r) for r in vm.matrix.rows], dtype=np.int64)
    log_mod = np.log(np.abs(t))
    arg = np.angle(t)
    tail_axes = [np.arange(1, radius + 1, dtype=np.int64) for _ in range(n - 1)]
    if tail_axes:
        mesh = np.meshgrid(*tail_axes, indexing="ij")
        tail = np.stack([g.reshape(-1) for g in mesh], axis=1)
    else:
        tail = np.zeros((1, 0), dtype=np.int64)
    total = 0.0 + 0.0j
    for y0 in range(1, radius + 1):
        y = np.concatenate(
            [np.full((tail.shape[0], 1), y0, dtype=np.int64), tail], axis=1
        )
        yb = y @ b
        mask = (yb % det == 0).all(axis=1)
        if not mask.any():
            continue
        m = (yb[mask] // det - 1).astype(np.float64)
        weights = y[mask].astype(np.float64).prod(axis=1) / det_adj
        powers = np.exp(m @ log_mod + 1j * (m @ arg))
        total += complex(np.sum(weights * powers))
    return total


def numeric_spot_check(
    vm: ValidatedMatrix,
    p: Sequence[complex],
    q: Sequence[complex],
    terms: int,
    form: BergmanKernelForm | None = None,
    cauchy_tol: float = 1e-9,
) -> float:
    """Relative error between the closed form and the truncated orthonormal
    series at (p, q); the truncation radius walks up until a Cauchy
    criterion holds twice in a row, else NonConvergentError."""
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
    for radius in radii:
        cur = _series_partial_sum(vm, t, radius) / math.pi**vm.n
        if prev is not None:
            if abs(cur - prev) <= cauchy_tol * max(abs(cur), 1e-300):
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
