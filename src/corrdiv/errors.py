"""Exception types shared across the package."""

import math
import numbers


class CorrDivError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CorrDivError):
    """A constructor or operation received an out-of-contract argument.

    ``field`` names the dataclass field that failed, when one did, so a
    parser can point at the input that set it. A check that relates several
    fields names them all as a tuple, the likeliest culprit first.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def require_finite(**values):
    """Raise ``InvalidParameterError`` naming the first value that is not a
    finite real number; a bool is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidParameterError(f"{name} must be a real number, got {value!r}", field=name)
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value}", field=name)


class DimensionMismatchError(CorrDivError):
    """Matrix or list operands do not share a common order."""


class IndefiniteMatrixError(CorrDivError):
    """A correlation matrix has an eigenvalue below the -1e-10 floor, beyond
    what rounding in its factor explains."""


class QuadratureNonconvergenceError(CorrDivError):
    """Node doubling hit its cap without the integral stabilizing."""


class ScenarioError(CorrDivError):
    """Scenario file failed parsing or validation.

    Carries an optional file/line location for diagnostics.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)


class RunFailureError(CorrDivError):
    """A Monte Carlo run aborted (too many rejected trials or failed drops)."""
