"""Exception hierarchy shared by all lmmx modules, and their count check."""

import numbers


class LmmError(Exception):
    """Base class for all lmmx errors."""


class DimensionError(LmmError):
    """Array shapes do not match the network or each other."""


class ParameterError(LmmError):
    """A parameter value is outside its valid range."""


class NumericError(LmmError):
    """Non-finite values where finite ones are required."""


class DataError(LmmError):
    """A dataset violates its invariants (empty class, bad labels, ...)."""


class FormatError(LmmError):
    """A file does not conform to its on-disk format."""


class CalibrationError(LmmError):
    """Temperature calibration cannot reach the requested confidence."""


class UnsupportedConfigError(LmmError):
    """The operation is not defined for this network configuration."""


def require_count(value, name: str) -> int:
    """``value`` as an int, if it is an integer >= 1; otherwise a ParameterError."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ParameterError(f"{name} must be an integer >= 1")
    return int(value)
