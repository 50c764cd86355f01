"""The public names of `bergpoly`, pinned: a name added to or dropped from
the package surface shows up here, such as a test-only reference that is
exported again."""

import types

import bergpoly

PUBLIC_NAMES = [
    "AllZeroRowError",
    "BergmanKernelForm",
    "BergpolyError",
    "CanonicityViolationError",
    "DimensionMismatchError",
    "EvaluationAtSingularityError",
    "ExponentBox",
    "GcdViolationError",
    "GeneralizedHartogsSpec",
    "InputError",
    "IntMatrix",
    "InvalidKError",
    "LaurentPolynomial",
    "MatrixTooLargeError",
    "NonConvergentError",
    "NormalizedMatrix",
    "NotUnimodularError",
    "NumeratorTooLargeError",
    "OracleReport",
    "PoleAtZeroError",
    "SignatureOneSpec",
    "SingularMatrixError",
    "UnboundedDomainError",
    "ValidatedMatrix",
    "Window",
    "WindowTooLargeError",
    "WrongDimensionError",
    "adjugate",
    "assemble_kernel",
    "canonicity_check",
    "compare_with_closed_form",
    "denominator_factors",
    "determinant",
    "eval_kernel",
    "exponent_box",
    "kernel_dim2",
    "kernel_generalized_hartogs",
    "kernel_signature_one",
    "kernel_unimodular",
    "normalize",
    "numerator_polynomial",
    "numeric_spot_check",
    "oracle_series",
    "parse_matrix",
    "prepare",
    "row_gcd",
    "same_kernel",
]


def test_public_names():
    # submodules are attributes too, once imported, but not exports
    exported = sorted(
        name for name, value in vars(bergpoly).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES
