"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Terms live in a map from integer exponent tuples (entries may be negative)
to nonzero coefficients, stored as int when integral and as Fraction
otherwise; both carry .numerator and .denominator, which every serializer
reads.  The canonical term order is lexicographic on the exponent tuple;
serialization, equality and evaluation all follow it.

Divisibility by a binomial c t^a - c t^b is decided by coset sums, in
O(terms * n): this is the canonicity check.  Exact single-divisor
division is kept as the reference the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    DivisionByZeroPolynomialError,
    PoleAtZeroError,
)

Exponent = tuple[int, ...]


def _coerce(c) -> int | Fraction:
    """c as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = c if isinstance(c, Fraction) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial in n variables."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Sequence[int], Fraction | int] | None = None):
        cleaned: dict[Exponent, int | Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _coerce(c)
                if c == 0:
                    continue
                e = tuple(int(x) for x in e)
                if len(e) != n:
                    raise DimensionMismatchError(
                        f"exponent {e} has length {len(e)}, expected {n}"
                    )
                cleaned[e] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "LaurentPolynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "LaurentPolynomial":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, n: int, coeff, exponent: Sequence[int]) -> "LaurentPolynomial":
        return cls(n, {tuple(exponent): _coerce(coeff)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, exponent: Sequence[int]) -> int | Fraction:
        return self._terms.get(tuple(exponent), 0)

    def items(self):
        return self._terms.items()

    def sorted_terms(self) -> list[tuple[Exponent, int | Fraction]]:
        """Terms in lexicographic exponent order (the canonical order)."""
        return sorted(self._terms.items())

    def min_exponents(self) -> Exponent:
        """Per-coordinate minimum over the support (zero polynomial: all 0)."""
        if not self._terms:
            return (0,) * self.n
        return tuple(min(e[i] for e in self._terms) for i in range(self.n))

    def max_exponents(self) -> Exponent:
        if not self._terms:
            return (0,) * self.n
        return tuple(max(e[i] for e in self._terms) for i in range(self.n))

    def leading_term(self) -> tuple[Exponent, int | Fraction]:
        e = max(self._terms)
        return e, self._terms[e]

    def sign_normalized(self) -> "LaurentPolynomial":
        """Negated if needed so the lex-leading coefficient is positive."""
        if not self._terms:
            return self
        if self._terms[max(self._terms)] < 0:
            return -self
        return self

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPolynomial"):
        if self.n != other.n:
            raise DimensionMismatchError(f"{self.n} variables vs {other.n}")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial(self.n, out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._check(other)
        out: dict[Exponent, int | Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPolynomial(self.n, out)

    def __rmul__(self, other) -> "LaurentPolynomial":
        return self.scaled(other)

    def scaled(self, factor) -> "LaurentPolynomial":
        factor = _coerce(factor)
        if factor == 0:
            return LaurentPolynomial.zero(self.n)
        return LaurentPolynomial(self.n, {e: c * factor for e, c in self._terms.items()})

    def shifted(self, offset: Sequence[int]) -> "LaurentPolynomial":
        """Multiply by the monomial t^offset."""
        off = tuple(offset)
        return LaurentPolynomial(
            self.n, {tuple(a + b for a, b in zip(e, off)): c for e, c in self._terms.items()}
        )

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = LaurentPolynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    # -- division ----------------------------------------------------------

    def divisible_by_binomial(self, f: "LaurentPolynomial") -> bool:
        """Whether f = c t^a - c t^b (c != 0, a != b) divides self exactly
        in the Laurent ring; any other f raises ValueError.

        Up to the unit c t^b, f is t^s - 1 with s = a - b, and for every
        nonzero s, primitive or not, Q[Z^n]/(1 - t^s) is Q[Z^n / Zs].  So f
        divides self exactly when self's coefficients sum to zero on every
        coset e + Zs.  With p the first nonzero coordinate of s, each coset
        has exactly one representative e - floor(e_p / s_p) s, the one whose
        p-th coordinate lies between 0 and s_p (s_p excluded).
        """
        self._check(f)
        if len(f) != 2 or sum(c for _, c in f.items()) != 0:
            raise ValueError(f"not a binomial c*t^a - c*t^b: {f!r}")
        a, b = f._terms
        s = tuple(x - y for x, y in zip(a, b))
        p = next(i for i, x in enumerate(s) if x)
        sums: dict[Exponent, int | Fraction] = {}
        for e, c in self._terms.items():
            k = e[p] // s[p]
            r = tuple(x - k * y for x, y in zip(e, s)) if k else e
            sums[r] = sums.get(r, 0) + c
        return not any(sums.values())

    def try_exact_divide(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial | None":
        """Return q with q * divisor == self, or None when no such Laurent
        polynomial exists.

        Monomials are units in the Laurent ring, so both operands are first
        shifted by their per-coordinate minimum exponents into the ordinary
        polynomial ring (the Newton-polytope vertex argument shows the
        quotient, if any, lands there too); then single-divisor reduction
        against the lex-leading term of the divisor runs to completion.  Any
        leading term the divisor's leading term cannot divide certifies a
        nonzero remainder, hence non-divisibility.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise DivisionByZeroPolynomialError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial.zero(self.n)
        s_num = self.min_exponents()
        s_div = divisor.min_exponents()
        work = {
            tuple(a - b for a, b in zip(e, s_num)): c for e, c in self._terms.items()
        }
        div_terms = [
            (tuple(a - b for a, b in zip(e, s_div)), c) for e, c in divisor._terms.items()
        ]
        lead_e = max(e for e, _ in div_terms)
        lead_c = dict(div_terms)[lead_e]
        rest = [(e, c) for e, c in div_terms if e != lead_e]
        quot: dict[Exponent, int | Fraction] = {}
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
            self.n, {tuple(a + b for a, b in zip(e, shift_back)): c for e, c in quot.items()}
        )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Evaluate at a complex point, summing terms in canonical order.

        Raises PoleAtZeroError when a negative exponent meets a zero
        coordinate; 0^0 counts as 1.
        """
        if len(point) != self.n:
            raise DimensionMismatchError(f"point has {len(point)} coords, expected {self.n}")
        pt = [complex(x) for x in point]
        total = 0j
        for e, c in self.sorted_terms():
            term = complex(c)
            for x, k in zip(pt, e):
                if k == 0:
                    continue
                if x == 0:
                    if k < 0:
                        raise PoleAtZeroError(
                            f"exponent {k} at a zero coordinate"
                        )
                    term = 0j
                    break
                term *= x**k
            total += term
        return total

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentPolynomial":
        terms = {
            tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
            for t in data["terms"]
        }
        return cls(int(data["n"]), terms)

    def to_latex(self, var: str = "t") -> str:
        """Render with variables var_1 .. var_n, terms in canonical order."""
        if not self._terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mono = " ".join(
                f"{var}_{{{i + 1}}}" if k == 1 else f"{var}_{{{i + 1}}}^{{{k}}}"
                for i, k in enumerate(e)
                if k != 0
            )
            pieces.append((mono, c))
        out = []
        for i, (mono, c) in enumerate(pieces):
            neg = c < 0
            mag = -c if neg else c
            if mag.denominator == 1:
                coeff = "" if (mag == 1 and mono) else str(mag.numerator)
            else:
                coeff = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            body = coeff + (" " if coeff and mono else "") + mono if mono else (coeff or "1")
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPolynomial(0)"
        parts = [f"{c}*t^{e}" for e, c in self.sorted_terms()]
        return "LaurentPolynomial(" + " + ".join(parts) + ")"


def product(polys: Iterable[LaurentPolynomial], n: int) -> LaurentPolynomial:
    out = LaurentPolynomial.one(n)
    for p in polys:
        out = out * p
    return out
