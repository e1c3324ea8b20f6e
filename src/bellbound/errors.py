"""Exception types shared across the package, and the shared input checks."""

import math
import numbers

import numpy as np


class BellboundError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(BellboundError, ValueError):
    """An argument is outside its documented domain."""


class DimensionError(BellboundError, ValueError):
    """Shapes or index ranges of the inputs do not line up."""


class ResourceLimitError(BellboundError, RuntimeError):
    """An enumeration or construction would exceed the configured guard."""


class ConvergenceError(BellboundError, RuntimeError):
    """An iterative routine hit its cap without reaching tolerance."""


def check_guard(size: int, guard: int, what: str) -> None:
    """Refuse a run of size what (variables, generators, ...) above its guard."""
    if size > guard:
        raise ResourceLimitError(
            f"{size} {what} exceeds the guard of {guard}; "
            "raise the guard explicitly for a deliberate larger run"
        )


def is_finite(value) -> bool:
    """math.isfinite, except that an int too large for a float is not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _all_numbers(values) -> bool:
    """Whether every entry of nested lists, tuples or arrays is a real number.

    Strings and booleans are not numbers here, although numpy converts them.
    """
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf" or all(map(_all_numbers, values.flat))
    if isinstance(values, (list, tuple)):
        # an exact-type test passes JSON numbers without the slow ABC test
        return all(type(v) in (float, int) or _all_numbers(v) for v in values)
    return isinstance(values, numbers.Real) and not isinstance(values, bool)


def finite_array(values, what: str) -> np.ndarray:
    """values as a float array, refusing ragged, non-numeric or non-finite input."""
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError as exc:
        raise ParameterError(f"{what} must be finite: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{what} must be a rectangular array of numbers: {exc}") from exc
    if not _all_numbers(values):
        raise ParameterError(f"{what} must hold numbers, not strings or booleans")
    if not np.isfinite(array).all():
        raise ParameterError(f"{what} must be finite")
    return array


def json_int(value, what: str) -> int:
    """A JSON index or size as an int; booleans and fractions are refused, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParameterError(f"{what} must be an integer, got {value!r}")


def json_number(value, what: str) -> float:
    """A JSON number as a float; strings and booleans are refused, not converted."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError as exc:
            raise ParameterError(f"{what} is too large for a float") from exc
    raise ParameterError(f"{what} must be a number, got {value!r}")
