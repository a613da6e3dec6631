"""Exception types shared across the package, and the one rule each for an integer count and a length."""

import math
import numbers


def integer_in(value: object, lo: float, hi: float, what: str) -> int:
    """``value`` as an int if it is an integer in [lo, hi]; a bool, a float or any other type is refused.

    An int and a NumPy integer pass (``numbers.Integral`` minus ``bool``);
    ``np.bool_`` is no Integral.  Type and range share one ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ValueError(f"{what} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def positive(value: object, what: str) -> float:
    """``value`` as a float if it is a real number in (0, inf), a float tested first; a bool or other type fails."""
    if isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool):
        if 0.0 < value < math.inf:  # not NaN; math.inf, unlike the float maximum, warns of no np.float32 overflow
            return float(value)  # an int past the float range raises OverflowError
    raise ValueError(f"{what} must be positive and finite, got {value!r}")


class DegeneratePoint(ValueError):
    """Observation point coincides with (or touches) the transmit segment."""


class DegenerateGeometry(ValueError):
    """Geometry carries no usable angular extent (subtended angle is zero)."""


class NonIntegerGrid(ValueError):
    """Array length is not an integer multiple of the antenna spacing."""


class CoincidentAntennas(ValueError):
    """A transmit and a receive antenna occupy the same position."""


class NumericalFailure(RuntimeError):
    """An iterative numerical kernel exhausted its budget without converging."""


class AllZeroSpectrum(ValueError):
    """Singular spectrum is identically zero; the requested functional is undefined."""


class SchemaError(ValueError):
    """Scenario document is malformed; message carries the offending field path."""


class RangeError(ValueError):
    """Scenario field is outside its allowed range; message carries the value."""
