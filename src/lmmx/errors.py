"""Exception hierarchy shared by all lmmx modules, and their argument checks.

Each class names the CLI exit code it maps to: 1 usage, 2 data/format,
3 numeric.
"""

import math
import numbers

import numpy as np


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


def require_floats(value, name: str, error: type[LmmError], finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array, if it holds bool, integer or float entries and no
    NaN (nor, unless ``finite`` is False, an infinity); otherwise ``error``.

    Strings, ragged lists and other objects never convert.  Callers check shapes.
    """
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise error(f"{name} must be an array of real numbers: {exc}") from exc
    if arr.dtype.kind not in "biuf":
        raise error(f"{name} must be an array of real numbers, got {arr.dtype} entries")
    arr = arr.astype(np.float64, copy=False)
    if not (np.isfinite(arr).all() if finite else not np.isnan(arr).any()):
        raise error(f"{name} must not hold {'non-finite' if finite else 'NaN'} values")
    return arr


def require_int64(values, name: str) -> np.ndarray:
    """``values`` as int64, same shape, if each is an integral int, bool or float in int64's
    range; otherwise a ``DataError``, never a truncated or overflowed value."""
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"{name} must be integers: {exc}") from exc
    if arr.dtype.kind == "f":
        ok = np.all((arr == np.floor(arr)) & (arr >= -2.0 ** 63) & (arr < 2.0 ** 63))
    else:
        ok = arr.dtype.kind in "biu" and np.all(arr <= np.iinfo(np.int64).max)
    if not ok:
        raise DataError(f"{name} must be integers within the int64 range, got {arr.dtype} values")
    return arr.astype(np.int64)
