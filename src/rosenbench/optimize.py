"""Iteration drivers: steepest descent, Newton-Raphson, Fletcher-Reeves CG.

All three run in one loop (on float pairs or on ndarrays), which differs
between them only in its step, and so share one termination discipline:

* converge when the gradient norm falls to ``epsilon`` or below (checked
  before the first step, so starting at a stationary point converges in
  zero iterations);
* declare divergence when the iterate norm exceeds ``blowup_norm``, when
  the objective value or an iterate component goes non-finite, or (Newton
  only) when the Hessian is numerically singular;
* give up at ``max_iterations`` steps.

Runs are deterministic: identical inputs replay identical trajectories.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from struct import Struct, unpack_from

import numpy as np

from .errors import (InvalidDirectionError, InvalidInputError, LineSearchFailedError,
                     as_vector, check_count, check_real)
from .linesearch import ExactQuadratic, Fixed, RandomQuadraticFit, StepRule, _LineRestriction
from .objectives import Objective, QuadraticObjective, RosenbrockObjective, Vector


class RunStatus(Enum):
    """How a run ended; the value is the results CSV's ``status`` label."""

    CONVERGED = "converged"
    DIVERGED_BLOWUP = "diverged_blowup"
    DIVERGED_NONFINITE = "diverged_nonfinite"
    DIVERGED_SINGULAR_HESSIAN = "diverged_singular_hessian"
    MAX_ITERATIONS = "max_iter"


@dataclass(frozen=True)
class TerminationPolicy:
    """Stopping rule: gradient tolerance, iteration cap, and blow-up guard."""

    epsilon: float = 1e-3
    max_iterations: int = 10_000_000
    blowup_norm: float = 1e8

    def __post_init__(self):
        epsilon = check_real("epsilon", self.epsilon)
        # The cap fires on k == max_iterations, which a non-integer never meets.
        cap = check_count("max_iterations", self.max_iterations, 1)
        blowup = check_real("blowup_norm", self.blowup_norm, inf_ok=True)
        if not blowup > epsilon:
            raise InvalidInputError(f"blowup_norm must exceed epsilon, got {blowup} <= {epsilon}")
        # Keep what the checks return, so a run compares in float (a np.float32 would not).
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "max_iterations", cap)
        object.__setattr__(self, "blowup_norm", blowup)


def trajectory_dtype(dim: int) -> np.dtype:
    """A trajectory record of a run in `dim` dimensions: 8 * (dim + 4) bytes, packed as the run
    packs its rows.

    ``alpha_used`` is the step applied in the transition from iterate k-1 to
    this one; it is 0.0 for the starting point and for every Newton-Raphson
    record (that method has no step-size concept).
    """
    return np.dtype([("k", "i8"), ("point", "f8", (dim,)), ("value", "f8"), ("grad_norm", "f8"),
                     ("alpha_used", "f8")])


@dataclass(eq=False)
class RunResult:
    """Outcome of one optimizer run with its recorded trajectory.

    `trajectory` is a read-only record array of trajectory_dtype(dim) over the run's packed
    rows, one record per recorded iterate."""

    status: RunStatus
    iterations: int
    final_point: Vector
    final_value: float
    final_grad_norm: float
    trajectory: np.recarray = field(repr=False)


def fletcher_reeves_beta(g_next, g, gg_next: float, gg: float) -> float:
    """Direction-mixing coefficient: squared-norm ratio (g_next'g_next)/(g'g).

    `gg_next` and `gg` are the squares, carried by the caller from one
    iteration to the next.  Should `gg` have underflowed to zero, the ratio
    is taken of the norms of `g_next` and `g` instead.
    """
    if gg == 0.0:
        r = math.hypot(*g_next) / math.hypot(*g)
        return r * r
    return gg_next / gg


def _finish(rows, status, k, point, f, gn, alpha) -> RunResult:
    """Add the final row (unless it already is the last one) and close the run.

    The trajectory is a view of `rows` through a read-only memoryview, so no flag makes it
    writeable again, and `rows` can no longer grow (BufferError)."""
    dtype = trajectory_dtype(len(point))
    if not rows or unpack_from("=q", rows, len(rows) - dtype.itemsize)[0] != k:
        rows += Struct(f"=q{len(point) + 3}d").pack(k, *point, f, gn, alpha)
    trajectory = np.frombuffer(memoryview(rows).toreadonly(), dtype).view(np.recarray)
    return RunResult(status, k, np.array(point), f, gn, trajectory)


def _judge(k, xn, f, gn, policy) -> RunStatus | None:
    """The status that ends the run at iterate k, or None if no test ends it there."""
    if gn <= policy.epsilon:
        return RunStatus.CONVERGED
    if xn > policy.blowup_norm:
        return RunStatus.DIVERGED_BLOWUP
    if not (math.isfinite(xn) and math.isfinite(f)):
        return RunStatus.DIVERGED_NONFINITE
    if k == policy.max_iterations:
        return RunStatus.MAX_ITERATIONS
    return None


def _guard_edge(blowup: float) -> float:
    """The edge of the box (-edge, edge)^2 in which hypot gives a finite norm <= blowup."""
    return min(blowup, sys.float_info.max) * 0.7071067811865475 * (1 - 2**-50)


def _descent_loop(
    objective: Objective,
    x0,
    rule: StepRule | None,
    policy: TerminationPolicy,
    record_trajectory: bool,
    restart_period: int | None = 1,
) -> RunResult:
    """The iteration loop of all three drivers.

    A `rule` of None is Newton-Raphson, which steps x - s with F(x) s = g.
    Otherwise iteration k steps along -g when k is a multiple of
    `restart_period`, and along the Fletcher-Reeves direction -g + beta*d
    otherwise: steepest descent is `restart_period` 1, and None never
    restarts.  A steepest-descent step is x - alpha*g, which equals
    x + alpha*(-g) to the bit, but for the sign of a nan, as negation is exact.

    The start is validated once.  SD and CG on the valley (a
    RosenbrockObjective) then run in _pair_loop, Newton and any other run in
    _array_loop; both evaluate, test and step in the same order.
    """
    _check_policy(policy)
    if isinstance(rule, ExactQuadratic) and not isinstance(objective, QuadraticObjective):
        raise InvalidInputError("the exact-quadratic rule requires a QuadraticObjective")
    x = as_vector(x0, getattr(objective, "dim", None), "start")
    rng = np.random.default_rng(rule.seed) if isinstance(rule, RandomQuadraticFit) else None
    select = None if rule is None else rule.select
    fixed_alpha = rule.alpha if isinstance(rule, Fixed) else None
    period = restart_period or policy.max_iterations + 1
    # Divergence is data: an overflow or an invalid operation gives an inf or
    # a nan, which the loops' checks turn into a status, never a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if rule is not None and isinstance(objective, RosenbrockObjective):
            return _pair_loop(objective, x, policy, record_trajectory, select, rng, fixed_alpha,
                              period)
        return _array_loop(objective, x, policy, record_trajectory, select, rng, period)


def _pair_loop(objective, x, policy, record, select, rng, fixed_alpha, period) -> RunResult:
    """_descent_loop under SD or CG on the valley, with x, g and d as floats.

    An iterate other than the start and the cap skips _judge when it is inside the box of
    _guard_edge, its value is finite and a gradient component lies outside [-epsilon,
    epsilon], which no gradient of norm <= epsilon has.
    """
    fg, along, hypot = objective.value_and_gradient, objective.line, math.hypot
    eps, edge, inf = policy.epsilon, _guard_edge(policy.blowup_norm), math.inf
    low, neg_eps, neg_inf = -edge, -eps, -inf
    cap, conjugate = policy.max_iterations, period != 1
    x1, x2 = x.tolist()
    rows, pack = bytearray(), Struct("=q5d").pack
    alpha = 0.0  # the step that produced (x1, x2)
    g_prev = gg_prev = d1 = d2 = None
    k = 0
    while True:
        inside = low < x1 < edge and low < x2 < edge
        try:
            if not (inside or math.isfinite(x1) and math.isfinite(x2)):
                raise InvalidInputError("non-finite iterate")
            f, g1, g2 = fg(x1, x2)
        except (InvalidInputError, OverflowError):
            # The iterate is not finite, or the objective refused it.
            return _finish(rows, RunStatus.DIVERGED_NONFINITE, k, (x1, x2), math.nan, math.nan,
                           alpha)
        if record or not k:
            rows += pack(k, x1, x2, f, hypot(g1, g2), alpha)
        if (not (inside and 0 < k < cap and neg_inf < f < inf)
                or neg_eps <= g1 <= eps and neg_eps <= g2 <= eps):
            gn = hypot(g1, g2)
            if status := _judge(k, hypot(x1, x2), f, gn, policy):
                return _finish(rows, status, k, (x1, x2), f, gn, alpha)
        if conjugate:
            # np.dot, not a Python sum of squares: the pinned CG results
            # rest on its rounding, that of an fma on 2-vectors where the
            # BLAS kernel uses one (test_dot_of_a_pair_rounds_like_an_fma).
            g = (g1, g2)
            gg = float(np.dot(g, g))
            if k % period:
                beta = fletcher_reeves_beta(g, g_prev, gg, gg_prev)
                d1, d2 = -g1 + beta * d1, -g2 + beta * d2
            else:
                d1, d2 = -g1, -g2
            g_prev, gg_prev = g, gg
        if fixed_alpha is not None:
            alpha = fixed_alpha
        else:
            if not conjugate:
                d1, d2 = -g1, -g2
            try:
                alpha = select(along((x1, x2), (d1, d2)), rng)
            except (LineSearchFailedError, InvalidDirectionError):
                # No finite step, or no positive curvature along the line.
                return _finish(rows, RunStatus.DIVERGED_NONFINITE, k, (x1, x2), f, hypot(g1, g2),
                               alpha)
        if conjugate:
            x1, x2 = x1 + alpha * d1, x2 + alpha * d2
        else:
            x1, x2 = x1 - alpha * g1, x2 - alpha * g2
        k += 1


def _array_loop(objective, x, policy, record, select, rng, period) -> RunResult:
    """_descent_loop on ndarrays: value and gradient, then hessian or a _LineRestriction, on
    which the rule selects every step (a fixed one probes nothing)."""
    newton, conjugate = select is None, period != 1
    rows, pack = bytearray(), Struct(f"=q{x.size + 3}d").pack
    alpha = 0.0  # the step that produced x
    g_prev = gg_prev = d = None
    k = 0
    while True:
        xn = math.hypot(*x)
        try:
            if not (math.isfinite(xn) or all(map(math.isfinite, x))):
                raise InvalidInputError("non-finite iterate")
            f, g = objective.value(x), objective.gradient(x)
            gn = math.hypot(*g)
        except (InvalidInputError, OverflowError):
            # The iterate is not finite, or the objective refused it.
            return _finish(rows, RunStatus.DIVERGED_NONFINITE, k, x.tolist(), math.nan, math.nan,
                           alpha)
        if record or not k:
            rows += pack(k, *x.tolist(), f, gn, alpha)
        if status := _judge(k, xn, f, gn, policy):
            return _finish(rows, status, k, x.tolist(), f, gn, alpha)
        if newton:
            H = objective.hessian(x)
            # Singular where |det H| <= 1e-12 * scale^n, tested on H/scale to avoid overflow.
            scale = float(np.linalg.norm(H, "fro"))
            if (not (math.isfinite(scale) and scale > 0.0)
                    or abs(float(np.linalg.det(H / scale))) <= 1e-12):
                return _finish(rows, RunStatus.DIVERGED_SINGULAR_HESSIAN, k, x.tolist(), f, gn,
                               alpha)
            x = x - np.linalg.solve(H, g)
            k += 1
            continue
        if conjugate:
            gg = float(np.dot(g, g))
            d = -g + fletcher_reeves_beta(g, g_prev, gg, gg_prev) * d if k % period else -g
            g_prev, gg_prev = g, gg
        else:
            d = -g
        try:
            alpha = select(_LineRestriction(objective, x, d), rng)
        except (LineSearchFailedError, InvalidDirectionError):
            return _finish(rows, RunStatus.DIVERGED_NONFINITE, k, x.tolist(), f, gn, alpha)
        x = x + alpha * d if conjugate else x - alpha * g
        k += 1


def _check_policy(policy) -> None:
    """Refuse a `policy` that is not a TerminationPolicy, which would fail in the first test."""
    if not isinstance(policy, TerminationPolicy):
        raise InvalidInputError(f"policy must be a TerminationPolicy, got {policy!r}")


def _check_rule(method: str, rule) -> None:
    """Refuse a `rule` that is not a StepRule, before the run's first evaluation."""
    if not isinstance(rule, StepRule):
        why = f"{method} needs a step rule" if rule is None else "unknown step rule"
        raise InvalidInputError(f"{why}, got {rule!r}")


def steepest_descent(
    objective: Objective,
    x0,
    rule: StepRule,
    policy: TerminationPolicy = TerminationPolicy(),
    record_trajectory: bool = True,
) -> RunResult:
    """Minimize by stepping along the negative gradient.

    Iterates x(k+1) = x(k) - alpha(k) * grad f(x(k)), with alpha(k) chosen
    by `rule` on the restriction along -grad f(x(k)).
    """
    _check_rule("steepest_descent", rule)
    return _descent_loop(objective, x0, rule, policy, record_trajectory)


def fletcher_reeves_cg(
    objective: Objective,
    x0,
    rule: StepRule,
    policy: TerminationPolicy = TerminationPolicy(),
    restart_period: int | None = None,
    record_trajectory: bool = True,
) -> RunResult:
    """Nonlinear conjugate gradient with the squared-norm mixing ratio.

    d(0) = -g(0), then d(k+1) = -g(k+1) + beta(k) d(k) with
    beta(k) = (g(k+1)'g(k+1)) / (g(k)'g(k)).  With `restart_period` = m the
    direction is reset to the raw negative gradient every m iterations
    (m = 1 reproduces steepest descent exactly).  No descent check is made:
    with fixed steps an ascent direction is followed and may blow up, which
    is a legitimate experimental outcome.
    """
    _check_rule("fletcher_reeves_cg", rule)
    if restart_period is not None:
        check_count("restart_period", restart_period, 1)
    return _descent_loop(objective, x0, rule, policy, record_trajectory, restart_period)


def newton_raphson(
    objective: Objective,
    x0,
    policy: TerminationPolicy = TerminationPolicy(),
    record_trajectory: bool = True,
) -> RunResult:
    """Second-order iteration solving F(x) s = grad f(x) and stepping x - s.

    The Hessian system is solved by direct factorization with partial
    pivoting; the explicit inverse is never formed.  A Hessian whose
    determinant is at or below 1e-12 * ||F||_fro^n stops the run as
    diverged (singular Hessian); no definiteness repair is attempted.
    """
    return _descent_loop(objective, x0, None, policy, record_trajectory)

