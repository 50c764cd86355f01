"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Terms live in a map from integer exponent tuples (entries may be negative)
to nonzero coefficients, stored as int when integral and as Fraction
otherwise; both carry .numerator and .denominator, which every serializer
reads.  The canonical term order is lexicographic on the exponent tuple;
serialization, equality and evaluation all follow it.

Divisibility by a binomial c t^a - c t^b is decided by the total
coefficient sum when it is nonzero, else by coset sums in O(terms * n):
this is the canonicity check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DimensionMismatchError, PoleAtZeroError

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
    def _from_clean(cls, n: int, terms: dict[Exponent, int | Fraction]) -> "LaurentPolynomial":
        """Wrap a term map that is already clean, without copying or checking
        it: tuple exponents of length n, nonzero coefficients, int when
        integral and Fraction otherwise.  The polynomial takes ownership of
        terms.  Only the class itself and its trusted builders call this;
        LaurentPolynomial(n, terms) checks everything."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        return self

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
                out[e] = s if type(s) is int else _coerce(s)
            else:
                out.pop(e, None)
        return LaurentPolynomial._from_clean(self.n, out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._from_clean(self.n, {e: -c for e, c in self._terms.items()})

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
                    out[e] = s if type(s) is int else _coerce(s)
                else:
                    out.pop(e, None)
        return LaurentPolynomial._from_clean(self.n, out)

    def __rmul__(self, other) -> "LaurentPolynomial":
        return self.scaled(other)

    def scaled(self, factor) -> "LaurentPolynomial":
        factor = _coerce(factor)
        if factor == 0:
            return LaurentPolynomial.zero(self.n)
        return LaurentPolynomial._from_clean(
            self.n, {e: _coerce(c * factor) for e, c in self._terms.items()}
        )

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

        The coset sums partition the total coefficient sum, so a nonzero
        total already means some coset sum is nonzero: f(1) = 0, and f | g
        forces g(1) = 0.  That case returns False after one sum, before any
        coset arithmetic; only a polynomial whose coefficients total zero
        (a multiple of f, or a corrupted numerator) runs the coset sums.
        """
        self._check(f)
        if len(f) != 2 or sum(c for _, c in f.items()) != 0:
            raise ValueError(f"not a binomial c*t^a - c*t^b: {f!r}")
        if sum(self._terms.values()):
            return False
        a, b = f._terms
        s = tuple(x - y for x, y in zip(a, b))
        p = next(i for i, x in enumerate(s) if x)
        sums: dict[Exponent, int | Fraction] = {}
        for e, c in self._terms.items():
            k = e[p] // s[p]
            r = tuple(x - k * y for x, y in zip(e, s)) if k else e
            sums[r] = sums.get(r, 0) + c
        return not any(sums.values())

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
                {"exp": [*e], "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in self.sorted_terms()
            ],
        }

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPolynomial(0)"
        parts = [f"{c}*t^{e}" for e, c in self.sorted_terms()]
        return "LaurentPolynomial(" + " + ".join(parts) + ")"
