"""Exception hierarchy shared by all lmmx modules, and their argument checks.

Each class names the CLI exit code it maps to: 1 usage, 2 data/format,
3 numeric.
"""

import math
import numbers


class LmmError(Exception):
    """Base class for all lmmx errors."""

    exit_code = 1


class DimensionError(LmmError):
    """Array shapes do not match the network or each other."""

    exit_code = 2


class ParameterError(LmmError):
    """A parameter value is outside its valid range."""

    exit_code = 1


class NumericError(LmmError):
    """Non-finite values where finite ones are required."""

    exit_code = 3


class DataError(LmmError):
    """A dataset violates its invariants (empty class, bad labels, ...)."""

    exit_code = 2


class FormatError(LmmError):
    """A file does not conform to its on-disk format."""

    exit_code = 2


class CalibrationError(LmmError):
    """Temperature calibration cannot reach the requested confidence."""

    exit_code = 3


class UnsupportedConfigError(LmmError):
    """The operation is not defined for this network configuration."""

    exit_code = 1


def require_count(value, name: str, floor: int = 1) -> int:
    """``value`` as an int, if it is an integer >= ``floor``; otherwise a ParameterError.

    Counts use floor 1, seeds and epochs floor 0.  ``bool`` is an integer
    type, so True counts as 1 and False as 0.
    """
    if not isinstance(value, numbers.Integral) or value < floor:
        raise ParameterError(f"{name} must be an integer >= {floor}")
    return int(value)


def require_real(value, name: str) -> float:
    """``value`` as a float, if it is a finite real number; otherwise a ParameterError.

    Callers check their own range.  ``bool`` is a real type, so True counts as 1.0.
    """
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite real number")
    return float(value)
