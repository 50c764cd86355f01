"""Sparse multivariate Laurent polynomials with integer coefficients.

Terms live in a map from integer exponent tuples (entries may be negative)
to nonzero int coefficients: every kernel numerator is a sum of tent
products and every denominator factor a binomial +-(t^a - t^b), so no
polynomial the package builds needs another coefficient type; rational
scalars such as the prefactor live beside the polynomials.  The canonical
term order is lexicographic on the exponent tuple, and every polynomial
keeps its term map in that order from construction on: the public
constructor sorts once, and the trusted builders that skip it
(`_from_clean`) hand over maps already in order.  So nothing re-sorts
terms afterwards; serialization and evaluation read `items()` as they
stand, and the lex-leading term is the last one.

The class has no ring arithmetic: the package builds polynomials from
term maps and only negates, compares, tests for binomial divisibility
and evaluates them.  `binomial()` is the one parser of a factor
+-(t^a - t^b).  Divisibility by such a factor is decided by the total
coefficient sum when it is nonzero, else by coset sums in O(terms * n):
this is the canonicity check.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DimensionMismatchError, PoleAtZeroError

Exponent = tuple[int, ...]


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial in n variables."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Sequence[int], int] | None = None):
        """Integral coefficients of any type are stored as int; others raise ValueError."""
        cleaned: dict[Exponent, int] = {}
        if terms:
            for e, c in terms.items():
                if int(c) != c:
                    raise ValueError(f"non-integral coefficient {c!r}")
                c = int(c)
                if c == 0:
                    continue
                e = tuple(int(x) for x in e)
                if len(e) != n:
                    raise DimensionMismatchError(
                        f"exponent {e} has length {len(e)}, expected {n}"
                    )
                cleaned[e] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", dict(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, n: int, terms: dict[Exponent, int]) -> "LaurentPolynomial":
        """Wrap a term map that is already clean, without copying, checking
        or sorting it: tuple exponents of length n, nonzero int
        coefficients, keys in canonical (lexicographic) order.  The
        polynomial takes ownership of terms.  Only the class itself and its
        trusted builders call this; LaurentPolynomial(n, terms) checks and
        sorts everything."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def monomial(cls, n: int, coeff, exponent: Sequence[int]) -> "LaurentPolynomial":
        return cls(n, {tuple(exponent): coeff})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def items(self):
        """(exponent, coefficient) pairs in canonical order."""
        return self._terms.items()

    def keys(self):
        return self._terms.keys()

    def values(self):
        return self._terms.values()

    def min_exponents(self) -> Exponent:
        """Per-coordinate minimum over the support (zero polynomial: all 0)."""
        if not self._terms:
            return (0,) * self.n
        return tuple(map(min, zip(*self._terms)))

    def max_exponents(self) -> Exponent:
        if not self._terms:
            return (0,) * self.n
        return tuple(map(max, zip(*self._terms)))

    def sign_normalized(self) -> "LaurentPolynomial":
        """Negated if needed so the lex-leading coefficient is positive."""
        if not self._terms:
            return self
        if next(reversed(self._terms.values())) < 0:
            return -self
        return self

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._from_clean(self.n, {e: -c for e, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    # -- division ----------------------------------------------------------

    def binomial(self) -> tuple[Exponent, Exponent]:
        """(a, b) for self = +-(t^a - t^b), a != b, with a the exponent of
        the +1 term; ValueError for any other polynomial."""
        if len(self._terms) == 2:
            (a, ca), (b, cb) = self._terms.items()
            if ca == -cb and ca in (1, -1):
                return (a, b) if ca == 1 else (b, a)
        raise ValueError(f"only binomials +-(t^a - t^b) are factors, not {self!r}")

    def divisible_by_binomial(self, f: "LaurentPolynomial") -> bool:
        """Whether f = +-(t^a - t^b) (a != b) divides self exactly in the
        Laurent ring; any other f raises ValueError (`binomial()`).

        Up to the unit +-t^b, f is t^s - 1 with s = a - b, and for every
        nonzero s, primitive or not, Z[Z^n]/(1 - t^s) is Z[Z^n / Zs].  So f
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
        if self.n != f.n:
            raise DimensionMismatchError(f"{self.n} variables vs {f.n}")
        a, b = f.binomial()
        if sum(self._terms.values()):
            return False
        s = tuple(x - y for x, y in zip(a, b))
        p = next(i for i, x in enumerate(s) if x)
        sums: dict[Exponent, int] = {}
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
        for e, c in self._terms.items():
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
                {"exp": [*e], "num": str(c), "den": "1"}
                for e, c in self._terms.items()
            ],
        }

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPolynomial(0)"
        parts = [f"{c}*t^{e}" for e, c in self._terms.items()]
        return "LaurentPolynomial(" + " + ".join(parts) + ")"
