"""Exception types shared across the package, and its internal checks of arguments:
`is_real` is the one rule for a real, `SEQUENCE_TYPES` the one for what holds reals."""

import math
import numbers

import numpy as np

#: Containers of a point, a range, a vector field or a row; bytes, a set or a dict is not.
SEQUENCE_TYPES = (tuple, list, range, np.ndarray)


def is_real(value) -> bool:
    """Not a container, text or array (0-d ones too), and read by numpy as a 0-d integer or
    float: a bool, a Fraction, a Decimal, an int beyond 64 bits, None or a complex is not."""
    if hasattr(value, "__len__"):
        return False
    v = np.asarray(value)
    return v.ndim == 0 and v.dtype.kind in "iuf"


class InvalidInputError(ValueError):
    """A numeric argument violates a precondition (not a number, non-finite, bad shape or sign)."""


class InvalidDirectionError(ValueError):
    """A search direction is unusable (zero vector or nonpositive curvature)."""


class LineSearchFailedError(RuntimeError):
    """A step-size selector could not produce a finite candidate."""


class IncomparableVariantsError(RuntimeError):
    """A variant comparison was requested over missing or non-converged results."""


def check_real(name: str, value, low: float = 0.0, *, closed=False, inf_ok=False) -> float:
    """`value` as a float: a real (see is_real) above `low` (or at it when `closed`)
    and finite (or +inf when `inf_ok`); else InvalidInputError."""
    v = float(value) if is_real(value) else math.nan
    if (v >= low if closed else v > low) and (inf_ok or v < math.inf):
        return v
    bound = f">= {low}" if closed else "positive" if low == 0.0 else f"> {low}"
    raise InvalidInputError(f"{name} must be {bound}{'' if inf_ok else ' and finite'}, got {value!r}")


def check_count(name: str, value, low: int) -> int:
    """`value` as an int: an integer (Python or numpy), not a bool, at least `low`."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}")

