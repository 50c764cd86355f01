"""Exception hierarchy.

InputError subclasses signal bad user input (CLI exit code 1); the
remaining classes signal runtime conditions with their own contracts.
"""


class BergpolyError(Exception):
    """Base class for all package errors."""


class InputError(BergpolyError):
    """A user-supplied matrix, spec or parameter is unusable."""


class SingularMatrixError(InputError):
    """det B = 0: the sublevel sets do not cut out an open domain."""


class UnboundedDomainError(InputError):
    """adj B has a negative entry: B does not define a bounded domain."""


class AllZeroRowError(InputError):
    """gcd of an all-zero vector requested."""


class MatrixTooLargeError(InputError):
    """A user matrix has more rows than the fixed cap of 16 (int_linalg.MAX_N)."""


class WindowTooLargeError(InputError):
    """The oracle's window hull is over its point cap, or a window fill cannot allocate it."""


class NumeratorTooLargeError(InputError):
    """The numerator has more terms than its cap (kernel.NUMERATOR_BUDGET_TERMS),
    or its terms or a special family's enumeration do not fit in memory."""


class InvalidKError(InputError):
    """Tent coefficient requested with k < 1."""


class NotUnimodularError(InputError):
    """Unimodular-only construction called with det B != 1."""


class WrongDimensionError(InputError):
    """Dimension-specific construction called with the wrong n."""


class GcdViolationError(InputError):
    """Exponent vector for a special-case family must have gcd 1."""


class DimensionMismatchError(BergpolyError):
    """Operands live in polynomial rings with different variable counts."""


class PoleAtZeroError(BergpolyError):
    """Negative exponent evaluated at a zero coordinate."""


class EvaluationAtSingularityError(BergpolyError):
    """Kernel evaluated too close to a denominator zero set."""


class CanonicityViolationError(BergpolyError):
    """Internal consistency failure of an assembled kernel (a bug, not bad input)."""


class NonConvergentError(BergpolyError):
    """Truncated kernel series failed the Cauchy criterion at the given radius."""
