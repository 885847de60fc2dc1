"""Differentiable test objectives and finite-difference derivative oracles.

The central objective is the two-dimensional valley function

    f(x1, x2) = kappa * (x1^2 - x2)^2 + (x1 - 1)^2,    kappa > 0,

whose global minimum sits at (1, 1) regardless of kappa.  Large kappa
stretches the curved valley and makes first-order methods crawl.  A
strictly convex quadratic objective 0.5 x'Qx - x'b is provided for
exercising conjugate-direction theory, and central finite differences
serve as an independent check on any analytic derivative.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Protocol

import numpy as np
from numpy.typing import NDArray

from .errors import SEQUENCE_TYPES, InvalidInputError, check_real, is_real

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

#: Default finite-difference steps: the usual truncation/round-off balance
#: for central differences in double precision.
DEFAULT_GRADIENT_STEP = 1e-6
DEFAULT_HESSIAN_STEP = 1e-4


class Objective(Protocol):
    """A real function of an n-vector with first and second derivatives.

    ``hessian`` may raise for objectives that do not supply one.

    A two-dimensional objective may also be fused: ``value_and_gradient(x1,
    x2)`` returns the floats ``(f, g1, g2)``, and ``line(x, d)``, at pairs x
    and d, returns phi(a) = f(x + a*d) as a plain callable that reads +inf
    wherever f is not finite; every argument is a finite Python float,
    already validated.  SD and CG run a fused objective in the drivers' float-pair
    loop through these two methods alone, and any other in the ndarray loop, where
    Newton-Raphson runs every objective through ``value``, ``gradient`` and
    ``hessian``.  A ``RosenbrockObjective`` subclass that changes f overrides
    ``line``, ``hessian`` and ``value_and_gradient``, which ``value`` and ``gradient`` call.
    """

    def value(self, x: Vector) -> float: ...

    def gradient(self, x: Vector) -> Vector: ...

    def hessian(self, x: Vector) -> Matrix: ...


def _holds_reals(x) -> bool:
    # An ndarray of integer or float dtype and at least one dimension, or another of
    # SEQUENCE_TYPES whose every entry is a real (errors.is_real) or holds reals in turn.
    if isinstance(x, np.ndarray):
        return x.ndim > 0 and x.dtype.kind in "iuf"
    return isinstance(x, SEQUENCE_TYPES) and all(is_real(e) or _holds_reals(e) for e in x)


def real_array(x, name: str = "array") -> Vector:
    """`x` as a float64 array; InvalidInputError, whose message starts with `name`, unless
    `x` and its rows are SEQUENCE_TYPES and its entries reals (errors.is_real).  So text,
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


def as_vector(x, dim: int | None = None, name: str = "point") -> Vector:
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


def valley_value(kappa, x1, x2):
    """kappa*(x1^2 - x2)^2 + (x1 - 1)^2 at floats or elementwise at arrays.

    The operations are those of RosenbrockObjective.value_and_gradient, in
    its order, so the two agree to the bit.  An overflow gives inf or nan.
    """
    t = x1 * x1 - x2
    u = x1 - 1.0
    return kappa * t * t + u * u


class RosenbrockObjective:
    """The kappa-parameterized valley function, fixed at dimension 2."""

    dim = 2

    def __init__(self, kappa: float = 1.0):
        self.kappa = check_real("kappa", kappa)

    def __repr__(self) -> str:
        return f"RosenbrockObjective(kappa={self.kappa!r})"

    def value(self, x) -> float:
        """kappa*(x1^2 - x2)^2 + (x1 - 1)^2; nonnegative, zero only at (1, 1)."""
        x1, x2 = as_vector(x, 2).tolist()
        return self.value_and_gradient(x1, x2)[0]

    def gradient(self, x) -> Vector:
        """Analytic gradient: (4k*x1*(x1^2 - x2) + 2(x1 - 1), -2k*(x1^2 - x2))."""
        x1, x2 = as_vector(x, 2).tolist()
        return np.array(self.value_and_gradient(x1, x2)[1:])

    def hessian(self, x) -> Matrix:
        """Analytic Hessian [[12k*x1^2 - 4k*x2 + 2, -4k*x1], [-4k*x1, 2k]]."""
        x1, x2 = as_vector(x, 2).tolist()
        k = self.kappa
        off = -4.0 * k * x1
        return np.array([[12.0 * k * x1 * x1 - 4.0 * k * x2 + 2.0, off], [off, 2.0 * k]])

    def value_and_gradient(self, x1: float, x2: float) -> tuple[float, float, float]:
        """(f, g1, g2) at validated floats x1, x2 (see Objective); f as in valley_value."""
        k = self.kappa
        t = x1 * x1 - x2
        u = x1 - 1.0
        return k * t * t + u * u, 4.0 * k * x1 * t + 2.0 * u, -2.0 * k * t

    def line(self, x, d) -> Callable[[float], float]:
        """phi(a) = f(x + a*d) at validated pairs of floats, +inf where f is not finite.

        A point that is not finite gives an f that is not finite, and float
        arithmetic does not raise, so phi needs neither a point check nor a
        try.  f >= 0, so the comparison with inf also maps nan to +inf.
        """
        x1, x2 = x
        d1, d2 = d
        k = self.kappa
        inf = math.inf

        def phi(a: float) -> float:
            y = valley_value(k, x1 + a * d1, x2 + a * d2)
            return y if y < inf else inf

        return phi


class QuadraticObjective:
    """Strictly convex quadratic 0.5 x'Qx - x'b with symmetric positive-definite Q.

    Symmetry is required exactly (construct Q symmetric); positive
    definiteness is checked by a Cholesky factorization at construction.
    """

    def __init__(self, Q, b):
        Q = real_array(Q, "Q")
        b = as_vector(b, name="b")
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise InvalidInputError(f"Q must be square, got shape {Q.shape}")
        if Q.shape[0] != b.size:
            raise InvalidInputError(
                f"dimension mismatch: Q is {Q.shape[0]}x{Q.shape[1]}, b has length {b.size}"
            )
        if not np.isfinite(Q).all():
            raise InvalidInputError("Q has non-finite entries")
        if not np.array_equal(Q, Q.T):
            raise InvalidInputError("Q must be exactly symmetric")
        try:
            np.linalg.cholesky(Q)
        except np.linalg.LinAlgError:
            raise InvalidInputError("Q must be positive definite") from None
        self.Q = Q
        self.b = b
        self.dim = b.size

    def __repr__(self) -> str:
        return f"QuadraticObjective(Q={self.Q.tolist()!r}, b={self.b.tolist()!r})"

    # A point whose value or gradient overflows gives inf or nan without a numpy warning.
    def value(self, x) -> float:
        v = as_vector(x, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            return 0.5 * float(v @ self.Q @ v) - float(v @ self.b)

    def gradient(self, x) -> Vector:
        v = as_vector(x, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.Q @ v - self.b

    def hessian(self, x) -> Matrix:
        as_vector(x, self.dim)
        return self.Q.copy()

    def minimizer(self) -> Vector:
        """Solve Q x = b for the unique stationary point."""
        return np.linalg.solve(self.Q, self.b)


def _moving_step(p, h) -> tuple[Vector, float]:
    """`p` as a vector and `h` as a float; InvalidInputError unless each p_i + h and
    p_i - h differ from p_i, since a step lost in rounding reads as a zero derivative."""
    h = check_real("finite-difference step", h)
    x = as_vector(p)
    if ((x + h == x) | (x - h == x)).any():
        raise InvalidInputError(f"finite-difference step {h!r} is lost in rounding at {x.tolist()}")
    return x, h


def _refuse_flat(f0, probes, h, x) -> None:
    """InvalidInputError if f(p) is finite and every probe reads exactly f(p): a step that
    moves the point but not f reads as a zero derivative.  Where f is not finite, the
    oracles give what the differences give."""
    if math.isfinite(f0) and all(v == f0 for v in probes):
        raise InvalidInputError(f"finite-difference step {h!r} leaves f unchanged at {x.tolist()}")


def finite_diff_gradient(f: Objective, p, h: float = DEFAULT_GRADIENT_STEP) -> Vector:
    """Central-difference gradient oracle: (f(p + h e_i) - f(p - h e_i)) / (2h)."""
    x, h = _moving_step(p, h)
    g = np.empty(x.size)
    probes = []
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        probes += f.value(x + step), f.value(x - step)
        g[i] = (probes[-2] - probes[-1]) / (2.0 * h)
    _refuse_flat(f.value(x), probes, h, x)
    return g


def finite_diff_hessian(f: Objective, p, h: float = DEFAULT_HESSIAN_STEP) -> Matrix:
    """Central second-difference Hessian oracle, symmetrized with its transpose."""
    x, h = _moving_step(p, h)
    if h * h == 0.0:  # the divisor
        raise InvalidInputError(f"finite-difference step {h!r} is so small that h*h is zero")
    n = x.size
    H = np.empty((n, n))
    f0, probes = f.value(x), []
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        probes += f.value(x + ei), f.value(x - ei)
        H[i, i] = (probes[-2] - 2.0 * f0 + probes[-1]) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            probes += (f.value(x + ei + ej), f.value(x + ei - ej), f.value(x - ei + ej),
                       f.value(x - ei - ej))
            pp, pm, mp, mm = probes[-4:]
            H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    _refuse_flat(f0, probes, h, x)
    return 0.5 * (H + H.T)
