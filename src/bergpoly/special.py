"""Independent kernel constructions for four special families.

Each function here evaluates its own closed formula for the kernel --
none of them calls the general assembly in bergpoly.kernel -- so they can
serve as independent witnesses in the cross-check tests:

* unimodular defining matrices (det B = 1): single-monomial numerator;
* arbitrary 2x2 defining matrices: numerator driven by the adjugate
  entries directly;
* "signature one" domains |z_1|^{k_1} < prod_{j>=2} |z_j|^{k_j} inside the
  polydisc, parametrized by a coprime positive vector k;
* generalized Hartogs triangles |z_1|^{p_1} < ... < |z_n|^{p_n} < 1,
  parametrized by a coprime positive vector p (bidiagonal defining
  matrix).

The last two formulas come out in their own scalings (prefactors 1/L
and 1/P^(n-1)); comparisons against the general form go through
BergmanKernelForm.canonicalized().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    GcdViolationError,
    InvalidKError,
    NotUnimodularError,
    WrongDimensionError,
)
from .int_linalg import IntMatrix, ValidatedMatrix, prepare, sign_split
from .kernel import BergmanKernelForm
from .laurent import LaurentPolynomial
from .tent import tent, tent_product_over_box


# -- det B = 1 -----------------------------------------------------------


def kernel_unimodular(vm: ValidatedMatrix) -> BergmanKernelForm:
    """Kernel for det B = 1: prefactor 1/pi^n and the single numerator
    monomial t^(colsums(|B|) - 1)."""
    if vm.det != 1:
        raise NotUnimodularError(f"det B = {vm.det}, expected 1")
    n = vm.n
    split = sign_split(vm.matrix)
    abs_colsums = vm.matrix.column_abs_sums()
    exponent = tuple(s - 1 for s in abs_colsums)
    numerator = LaurentPolynomial.monomial(n, 1, exponent)
    factors = []
    for j in range(n):
        factors.append(
            LaurentPolynomial(n, {split.minus.row(j): 1})
            - LaurentPolynomial(n, {split.plus.row(j): 1})
        )
    return BergmanKernelForm(
        n=n,
        det=1,
        prefactor=Fraction(1),
        pi_exponent=-n,
        numerator=numerator,
        factors=tuple(factors),
        source=vm,
    )


# -- n = 2 ----------------------------------------------------------------


def kernel_dim2(vm: ValidatedMatrix) -> BergmanKernelForm:
    """Two-variable kernel written directly in the adjugate entries a^j_k:

        (1 / (pi^2 det A)) * g(t1, t2)
            / ((t2^(a^1_2) - t1^(a^2_2))^2 (t1^(a^2_1) - t2^(a^1_1))^2),

    g = sum_nu tent(det A, z1(nu)) tent(det A, z2(nu)) t^nu with
    z_j(nu) = a^1_j nu_1 + a^2_j nu_2 - 2(a^2_1 a^1_j + a^1_2 a^2_j)
              + (a^1_j + a^2_j - 1).

    Requires a fully validated matrix: the formula's shape relies on the
    adjugate being nonnegative.
    """
    if vm.n != 2:
        raise WrongDimensionError(f"n = {vm.n}, expected 2")
    (b11, b12), (b21, b22) = vm.matrix.rows
    a11, a12 = b22, -b12
    a21, a22 = -b21, b11
    det_a = a11 * a22 - a12 * a21

    const = [
        -2 * (a21 * a11 + a12 * a21) + (a11 + a21 - 1),
        -2 * (a21 * a12 + a12 * a22) + (a12 + a22 - 1),
    ]
    # Support bounds: 0 <= nu . A + const <= 2 det A - 2 pulled back
    # through A^(-1) = B / det A; take the bounding box of the corner
    # images, clipped to nu >= 0.
    corners = []
    for x1 in (-const[0], 2 * det_a - 2 - const[0]):
        for x2 in (-const[1], 2 * det_a - 2 - const[1]):
            nu1 = Fraction(x1 * b11 + x2 * b21, det_a)
            nu2 = Fraction(x1 * b12 + x2 * b22, det_a)
            corners.append((nu1, nu2))
    lower = tuple(max(0, math.ceil(min(c[i] for c in corners))) for i in range(2))
    upper = tuple(math.floor(max(c[i] for c in corners)) for i in range(2))

    weights = [[a11, a12], [a21, a22]]
    terms = tent_product_over_box(lower, upper, [det_a, det_a], weights, const)
    numerator = LaurentPolynomial(2, terms)
    factor1 = LaurentPolynomial(2, {(0, a12): 1, (a22, 0): -1})
    factor2 = LaurentPolynomial(2, {(a21, 0): 1, (0, a11): -1})
    return BergmanKernelForm(
        n=2,
        det=vm.det,
        prefactor=Fraction(1, det_a),
        pi_exponent=-2,
        numerator=numerator,
        factors=(factor1, factor2),
        source=vm,
    )


# -- signature one --------------------------------------------------------


@dataclass(frozen=True)
class SignatureOneSpec:
    """Coprime positive exponents k for |z_1|^{k_1} < prod_{j>=2} |z_j|^{k_j}
    inside the unit polydisc."""

    k: tuple[int, ...]

    def __post_init__(self):
        if len(self.k) < 2 or any(x < 1 for x in self.k):
            raise GcdViolationError("need at least two positive exponents")
        if math.gcd(*self.k) != 1:
            raise GcdViolationError(f"gcd{self.k} != 1")


def signature_matrix(spec: SignatureOneSpec) -> IntMatrix:
    """(k_1, -k_2, ..., -k_n) stacked over rows of the identity."""
    k = spec.k
    n = len(k)
    rows = [[k[0]] + [-x for x in k[1:]]]
    for j in range(1, n):
        rows.append([1 if i == j else 0 for i in range(n)])
    return IntMatrix(rows)


def _signature_data(spec: SignatureOneSpec):
    k = spec.k
    big_k = math.lcm(*k)
    ell = [big_k // x for x in k]
    big_l = math.prod(ell)
    return big_k, ell, big_l


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


def kernel_signature_one(spec: SignatureOneSpec) -> BergmanKernelForm:
    """Kernel with prefactor 1/(pi^n L), numerator sum E(nu) t^nu and
    denominator (prod_{j>=2} t_j^{k_j} - t_1^{k_1})^2 prod_{j>=2}(1-t_j)^2."""
    k = spec.k
    n = len(k)
    big_k, ell, big_l = _signature_data(spec)

    # Factor 0 argument: 2K - l_1(nu_1 + 1) - 1; factor j >= 1 argument:
    # l_j(nu_j + 1) + l_1(nu_1 + 1) - 2K - 1.
    ks = [big_k] + ell[1:]
    weights = [[0] * n for _ in range(n)]
    offsets = [2 * big_k - ell[0] - 1] + [
        ell[j] + ell[0] - 2 * big_k - 1 for j in range(1, n)
    ]
    weights[0][0] = -ell[0]
    for j in range(1, n):
        weights[0][j] = ell[0]
        weights[j][j] = ell[j]

    nu1_max = (2 * big_k - 1) // ell[0] - 1
    upper = [nu1_max]
    for j in range(1, n):
        # l_j(nu_j + 1) <= 2 l_j - 1 + 2K - l_1(nu_1 + 1), worst at nu_1 = 0
        upper.append((2 * ell[j] - 1 + 2 * big_k - ell[0]) // ell[j] - 1)
    terms = tent_product_over_box((0,) * n, tuple(upper), ks, weights, offsets)
    numerator = LaurentPolynomial(n, terms)

    head = {tuple([0] + [x for x in k[1:]]): 1, tuple([k[0]] + [0] * (n - 1)): -1}
    factors = [LaurentPolynomial(n, head)]
    for j in range(1, n):
        e = tuple(1 if i == j else 0 for i in range(n))
        factors.append(LaurentPolynomial(n, {(0,) * n: 1, e: -1}))

    vm = prepare(signature_matrix(spec))
    return BergmanKernelForm(
        n=n,
        det=vm.det,
        prefactor=Fraction(1, big_l),
        pi_exponent=-n,
        numerator=numerator,
        factors=tuple(factors),
        source=vm,
    )


# -- generalized Hartogs triangles ---------------------------------------


@dataclass(frozen=True)
class GeneralizedHartogsSpec:
    """Coprime positive exponents p for |z_1|^{p_1} < ... < |z_n|^{p_n} < 1."""

    p: tuple[int, ...]

    def __post_init__(self):
        if len(self.p) < 2 or any(x < 1 for x in self.p):
            raise GcdViolationError("need at least two positive exponents")
        if math.gcd(*self.p) != 1:
            raise GcdViolationError(f"gcd{self.p} != 1")


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


def _chain_data(spec: GeneralizedHartogsSpec):
    p = spec.p
    n = len(p)
    big_p = math.prod(p)
    pprime = [big_p // x for x in p]
    d = [math.gcd(p[j], p[j + 1]) for j in range(n - 1)] + [p[n - 1]]
    lam = math.prod(d)
    # m_j = lcm(p'_j, p'_{j+1}) with p'_{n+1} = 1; uniformly P / d_j.
    m = [big_p // d[j] for j in range(n)]
    return big_p, pprime, d, lam, m


def chain_matrix(spec: GeneralizedHartogsSpec) -> IntMatrix:
    """Bidiagonal defining matrix: diagonal p_j/d_j, superdiagonal
    -p_{j+1}/d_j, last row scaled by d_n = p_n down to 1."""
    p = spec.p
    n = len(p)
    _, _, d, _, _ = _chain_data(spec)
    rows = []
    for j in range(n):
        row = [0] * n
        row[j] = p[j] // d[j]
        if j + 1 < n:
            row[j + 1] = -(p[j + 1] // d[j])
        rows.append(row)
    return IntMatrix(rows)


def chain_prefix_values(spec: GeneralizedHartogsSpec, alpha) -> list[int]:
    """The recursion P_1 = 2 m_1 - p'_1 + 1 - p'_1 a_1,
    P_j = 2 m_j - p'_j - p'_j a_j + P_{j-1}."""
    _, pprime, _, _, m = _chain_data(spec)
    out = []
    prev = 1
    for j, a in enumerate(alpha):
        prev = 2 * m[j] - pprime[j] - pprime[j] * int(a) + prev
        out.append(prev)
    return out


def chain_coefficient(spec: GeneralizedHartogsSpec, alpha) -> int:
    """prod_j weight(m_j, P_j(alpha)) for the chain-domain numerator."""
    _, _, _, _, m = _chain_data(spec)
    out = 1
    for j, value in enumerate(chain_prefix_values(spec, alpha)):
        out *= chain_weight(m[j], value)
        if out == 0:
            return 0
    return out


def chain_bounds(spec: GeneralizedHartogsSpec) -> tuple[int, ...]:
    """Per-coordinate caps N_j outside which every weight vanishes."""
    _, pprime, _, _, m = _chain_data(spec)
    n = len(spec.p)
    out = [(2 * m[0] - 1 - pprime[0]) // pprime[0]]
    for j in range(1, n):
        out.append((2 * m[j - 1] + 2 * m[j] - pprime[j] - 2) // pprime[j])
    return tuple(out)


def kernel_generalized_hartogs(spec: GeneralizedHartogsSpec) -> BergmanKernelForm:
    """Kernel with prefactor 1/(pi^n P^(n-1)), numerator
    sum_alpha prod_j weight(m_j, P_j) t^alpha over alpha in prod [0, N_j],
    and denominator (1-t_n)^2 prod_{j<n} (t_j^{p_j/d_j} - t_{j+1}^{p_{j+1}/d_j})^2."""
    p = spec.p
    n = len(p)
    big_p, pprime, d, lam, m = _chain_data(spec)

    # Expanded prefix form of the recursion: the argument of weight j is
    # affine in alpha_1..alpha_j, and weight(m, v) = tent(m, v - 2).
    weights = [[0] * n for _ in range(n)]
    offsets = []
    for j in range(n):
        for i in range(j + 1):
            weights[i][j] = -pprime[i]
        const = 2 * sum(m[: j + 1]) - sum(pprime[: j + 1]) + 1
        offsets.append(const - 2)
    bounds = chain_bounds(spec)
    terms = tent_product_over_box((0,) * n, bounds, m, weights, offsets)
    numerator = LaurentPolynomial(n, terms)

    factors = []
    for j in range(n - 1):
        terms = {
            tuple(p[j] // d[j] if i == j else 0 for i in range(n)): 1,
            tuple(p[j + 1] // d[j] if i == j + 1 else 0 for i in range(n)): -1,
        }
        factors.append(LaurentPolynomial(n, terms))
    last = tuple(1 if i == n - 1 else 0 for i in range(n))
    factors.append(LaurentPolynomial(n, {(0,) * n: 1, last: -1}))

    vm = prepare(chain_matrix(spec))
    return BergmanKernelForm(
        n=n,
        det=big_p // lam,
        prefactor=Fraction(1, big_p ** (n - 1)),
        pi_exponent=-n,
        numerator=numerator,
        factors=tuple(factors),
        source=vm,
    )
