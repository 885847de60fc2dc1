"""Exception types shared across the package, and its internal checks of scalar arguments."""

import math
import numbers


class InvalidInputError(ValueError):
    """A numeric argument violates a precondition (not a number, non-finite, bad shape or sign)."""


class InvalidDirectionError(ValueError):
    """A search direction is unusable (zero vector or nonpositive curvature)."""


class LineSearchFailedError(RuntimeError):
    """A step-size selector could not produce a finite candidate."""


class IncomparableVariantsError(RuntimeError):
    """A variant comparison was requested over missing or non-converged results."""


def check_real(name: str, value, low: float = 0.0, *, closed=False, inf_ok=False) -> float:
    """`value` as a float: a real number, not a bool, above `low` (or at it when
    `closed`) and finite (or +inf when `inf_ok`); else InvalidInputError."""
    # A float first: RandomQuadraticFit builds a QuadraticFit per iteration, and ABCs are slow.
    real = isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        v = float(value) if real else math.nan
    except OverflowError:  # an integer beyond the float range
        v = math.nan
    if (v >= low if closed else v > low) and (inf_ok or v < math.inf):
        return v
    bound = f">= {low}" if closed else "positive" if low == 0.0 else f"> {low}"
    raise InvalidInputError(f"{name} must be {bound}{'' if inf_ok else ' and finite'}, got {value!r}")


def check_count(name: str, value, low: int) -> int:
    """`value` as an int: an integer (Python or numpy), not a bool, at least `low`."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}")


def check_tuple(name: str, value) -> tuple:
    """`value` as a tuple: any iterable, whose elements the caller checks; else InvalidInputError."""
    try:
        return tuple(value)
    except TypeError:  # not iterable
        raise InvalidInputError(f"{name} must be a sequence, got {value!r}") from None
