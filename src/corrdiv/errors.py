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


def is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not one."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def finite_float(value, name, field=None) -> float:
    """``value`` as a float. Raises ``InvalidParameterError`` naming ``field``
    (``name`` by default) unless it is a finite real number."""
    field = field or name
    if not is_real(value):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}", field=field)
    try:
        number = float(value)
    except OverflowError:
        raise InvalidParameterError(
            f"{name} must be finite, got a value beyond the float range", field=field
        ) from None
    if not math.isfinite(number):
        raise InvalidParameterError(f"{name} must be finite, got {value}", field=field)
    return number


def require_finite(obj, *names):
    """Check each named field of the frozen dataclass ``obj`` with
    ``finite_float`` and store it back as a float."""
    for name in names:
        object.__setattr__(obj, name, finite_float(getattr(obj, name), name))


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
