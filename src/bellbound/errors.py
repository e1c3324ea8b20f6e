"""Exception types shared across the package, and the numeric input check."""

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


def finite_array(values, what: str) -> np.ndarray:
    """values as a float array, refusing ragged, non-numeric or non-finite input."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{what} must be a rectangular array of numbers: {exc}") from exc
    if not np.isfinite(array).all():
        raise ParameterError(f"{what} must be finite")
    return array
