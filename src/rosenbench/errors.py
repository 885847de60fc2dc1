"""Exception types shared across the package, and every internal check of its arguments:
`is_real` is the one rule for a real, `SEQUENCE_TYPES` the one for what holds reals, and
`check_real`, `check_count`, `real_array` and `as_vector` apply them."""

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


def _holds_reals(x) -> bool:
    # An ndarray of integer or float dtype and at least one dimension, or another of
    # SEQUENCE_TYPES whose every entry is a real (is_real) or holds reals in turn.
    if isinstance(x, np.ndarray):
        return x.ndim > 0 and x.dtype.kind in "iuf"
    return isinstance(x, SEQUENCE_TYPES) and all(is_real(e) or _holds_reals(e) for e in x)


def real_array(x, name: str = "array") -> np.ndarray:
    """`x` as a float64 array; InvalidInputError, whose message starts with `name`, unless
    `x` and its rows are SEQUENCE_TYPES and its entries reals (is_real).  So text,
    bytes, sets, dicts, iterators, bools, 0-d arrays, complex numbers and None are refused
    as entries, rows or `x`, and so is a ragged nesting.  A float64 ndarray, such as a
    driver's iterate, is returned as it is, unchecked."""
    if not isinstance(x, SEQUENCE_TYPES):
        raise InvalidInputError(f"{name} must be an array of reals, got {x!r}")
    try:
        v = np.asarray(x)
    except ValueError as exc:  # a ragged nesting, or one deeper than numpy reads
        raise InvalidInputError(f"{name} must be an array of reals: {exc}") from None
    if not (v is x and v.dtype == np.float64 or _holds_reals(x)):
        raise InvalidInputError(f"{name} must be an array of reals, got {x!r}")
    return v if v.dtype == np.float64 else v.astype(np.float64)


def as_vector(x, dim: int | None = None, name: str = "point") -> np.ndarray:
    """Validate and convert `x` to a finite float64 vector.

    Raises InvalidInputError, whose message starts with `name`, on entries
    that are not finite reals, empty input, or a dimension mismatch with `dim`.
    """
    v = real_array(x, name)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-d vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise InvalidInputError(f"{name} must be a vector of dimension {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise InvalidInputError(f"{name} has non-finite components: {v}")
    return v
