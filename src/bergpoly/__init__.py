"""Exact Bergman kernels of monomial polyhedra.

Build the canonical rational kernel form of the bounded domain cut out
by an integer matrix, verify it coefficient-by-coefficient against an
independent series oracle, and cross-check the special-case formulas.
"""

from .errors import (
    AllZeroRowError,
    BergpolyError,
    CanonicityViolationError,
    DimensionMismatchError,
    EvaluationAtSingularityError,
    GcdViolationError,
    InputError,
    InvalidKError,
    MatrixTooLargeError,
    NonConvergentError,
    NotUnimodularError,
    NumeratorTooLargeError,
    PoleAtZeroError,
    SingularMatrixError,
    UnboundedDomainError,
    WindowTooLargeError,
    WrongDimensionError,
)
from .int_linalg import (
    IntMatrix,
    NormalizedMatrix,
    ValidatedMatrix,
    adjugate,
    determinant,
    normalize,
    parse_matrix,
    prepare,
    row_gcd,
)
from .kernel import (
    BergmanKernelForm,
    ExponentBox,
    assemble_kernel,
    canonicity_check,
    denominator_factors,
    eval_kernel,
    exponent_box,
    numerator_polynomial,
    same_kernel,
)
from .laurent import LaurentPolynomial
from .oracle import (
    OracleReport,
    Window,
    compare_with_closed_form,
    numeric_spot_check,
    oracle_series,
)
from .special import (
    GeneralizedHartogsSpec,
    SignatureOneSpec,
    kernel_dim2,
    kernel_generalized_hartogs,
    kernel_signature_one,
    kernel_unimodular,
)

__version__ = "0.1.0"
