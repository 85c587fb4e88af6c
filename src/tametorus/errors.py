"""Exception classes shared across the package.

Each class carries a stable ``code`` string and the CLI ``exit_code``
it maps to (input errors -> 2, precondition errors -> 3, cap/limit
errors -> 4).
"""

__all__ = [
    "TameTorusError",
    "InputError",
    "MalformedInputError",
    "DimensionInputError",
    "NonIntegerInputError",
    "PreconditionError",
    "DeterminantNotUnitError",
    "StreamExhaustedError",
    "CapExceededError",
    "DimensionMismatchError",
]


class TameTorusError(Exception):
    """Base class for all package-specific errors."""

    code = "ERROR"
    exit_code = 2


class InputError(TameTorusError, ValueError):
    """Invalid user-supplied input (CLI exit code 2)."""

    code = "INPUT"


class MalformedInputError(InputError):
    code = "MALFORMED"


class DimensionInputError(InputError):
    code = "DIMENSION"


class NonIntegerInputError(InputError):
    code = "NONINTEGER"


class PreconditionError(TameTorusError, ValueError):
    """Operation undefined for this input (CLI exit code 3)."""

    code = "PRECONDITION"
    exit_code = 3


class DeterminantNotUnitError(PreconditionError):
    """Cascade requested for a matrix with |det| != 1."""

    code = "DETERMINANT_NOT_UNIT"


class StreamExhaustedError(PreconditionError):
    """Vector stream could not supply enough admissible vectors."""

    code = "STREAM_EXHAUSTED"


class CapExceededError(TameTorusError, ValueError):
    """A documented cap or bound was exceeded (CLI exit code 4)."""

    code = "CAP_EXCEEDED"
    exit_code = 4


class DimensionMismatchError(TameTorusError, ValueError):
    """Operands have incompatible dimensions."""

    code = "DIMENSION_MISMATCH"
