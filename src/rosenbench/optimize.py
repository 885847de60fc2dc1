"""Iteration drivers: steepest descent, Newton-Raphson, Fletcher-Reeves CG.

All three run in one loop, which differs between them only in its step,
and so share one termination discipline:

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

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (InvalidDirectionError, InvalidInputError, LineSearchFailedError,
                     check_count, check_real)
from .linesearch import (
    ExactQuadratic,
    Fixed,
    LineRestriction,
    RandomQuadraticFit,
    StepRule,
)
from .objectives import Objective, QuadraticObjective, Vector, as_vector


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
        check_count("max_iterations", self.max_iterations, 1)
        blowup = check_real("blowup_norm", self.blowup_norm, inf_ok=True)
        if not blowup > epsilon:
            raise InvalidInputError(f"blowup_norm must exceed epsilon, got {blowup} <= {epsilon}")


@dataclass(frozen=True, eq=False)
class IterateRecord:
    """One trajectory entry.

    ``alpha_used`` is the step applied in the transition from iterate k-1
    to this one; it is 0.0 for the starting point and for every
    Newton-Raphson record (that method has no step-size concept).
    """

    k: int
    point: Vector
    value: float
    grad_norm: float
    alpha_used: float


@dataclass(eq=False)
class RunResult:
    """Outcome of one optimizer run with its recorded trajectory."""

    status: RunStatus
    iterations: int
    final_point: Vector
    final_value: float
    final_grad_norm: float
    trajectory: list[IterateRecord] = field(default_factory=list)


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


def _finish(trajectory, status, k, x, f, gn, alpha) -> RunResult:
    """Record the final iterate (unless it already is the last record) and close the run."""
    if not trajectory or trajectory[-1].k != k:
        trajectory.append(IterateRecord(k, np.array(x), f, gn, alpha))
    return RunResult(status, k, np.array(x), f, gn, trajectory)


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
    x + alpha*(-g) to the bit because negation is exact.

    The start is validated once.  A fused objective (see Objective) then
    has its iterate carried as a pair of Python floats, evaluated through
    ``value_and_gradient``, and each adaptive step probes the phi of its
    ``line``; any other is evaluated through ``value`` and ``gradient`` at
    ndarrays and probed through a LineRestriction.  Points become ndarrays
    only in the records, the result and Newton's ``hessian`` call.  A rule
    that is not a StepRule is refused before the first evaluation.
    """
    if rule is not None and not isinstance(rule, StepRule):
        raise InvalidInputError(f"unknown step rule: {rule!r}")
    if isinstance(rule, ExactQuadratic) and not isinstance(objective, QuadraticObjective):
        raise InvalidInputError("the exact-quadratic rule requires a QuadraticObjective")
    x = as_vector(x0, getattr(objective, "dim", None))
    pair = hasattr(objective, "value_and_gradient")
    if pair:
        x = tuple(x.tolist())
        evaluate = objective.value_and_gradient
        along = objective.line
    else:
        value_at, gradient_at = objective.value, objective.gradient

        def evaluate(x):
            return value_at(x), gradient_at(x)

        along = functools.partial(LineRestriction, objective)
    rng = np.random.default_rng(rule.seed) if isinstance(rule, RandomQuadraticFit) else None
    select = None if rule is None else rule.select
    eps = policy.epsilon
    blowup = policy.blowup_norm
    cap = policy.max_iterations
    newton = rule is None
    conjugate = restart_period != 1
    special = conjugate or newton
    period = restart_period or cap + 1
    fixed_alpha = float(rule.alpha) if isinstance(rule, Fixed) else None
    hypot = math.hypot
    isfinite = math.isfinite
    dot = np.dot
    trajectory: list[IterateRecord] = []
    alpha = 0.0  # the step that produced x
    g_prev = gg_prev = d = None
    k = 0
    # Divergence is data: an overflow or an invalid operation gives an inf or
    # a nan, which the checks below turn into a status, never a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            xn = hypot(*x)
            try:
                if not (isfinite(xn) or all(map(isfinite, x))):
                    raise InvalidInputError("non-finite iterate")
                f, g = evaluate(x)
                gn = hypot(*g)
            except (InvalidInputError, OverflowError):
                # The iterate is not finite, or the objective refused it.
                return _finish(trajectory, RunStatus.DIVERGED_NONFINITE, k, x, math.nan, math.nan,
                               alpha)
            if record_trajectory or k == 0:
                trajectory.append(IterateRecord(k, np.array(x), f, gn, alpha))
            if gn <= eps:
                return _finish(trajectory, RunStatus.CONVERGED, k, x, f, gn, alpha)
            if xn > blowup:
                return _finish(trajectory, RunStatus.DIVERGED_BLOWUP, k, x, f, gn, alpha)
            if not (isfinite(xn) and isfinite(f)):
                return _finish(trajectory, RunStatus.DIVERGED_NONFINITE, k, x, f, gn, alpha)
            if k == cap:
                return _finish(trajectory, RunStatus.MAX_ITERATIONS, k, x, f, gn, alpha)
            if special:
                if newton:
                    H = objective.hessian(np.array(x) if pair else x)
                    # |det H| <= 1e-12 * scale^n, tested on H/scale to avoid overflow.
                    scale = float(np.linalg.norm(H, "fro"))
                    if (not (isfinite(scale) and scale > 0.0)
                            or abs(float(np.linalg.det(H / scale))) <= 1e-12):
                        return _finish(trajectory, RunStatus.DIVERGED_SINGULAR_HESSIAN, k, x, f,
                                       gn, alpha)
                    if pair:
                        s1, s2 = np.linalg.solve(H, g).tolist()
                        x = (x[0] - s1, x[1] - s2)
                    else:
                        x = x - np.linalg.solve(H, g)
                    k += 1
                    continue
                # np.dot, not a Python sum of squares: the pinned CG results
                # rest on its rounding, that of an fma on 2-vectors where the
                # BLAS kernel uses one (test_dot_of_a_pair_rounds_like_an_fma).
                gg = float(dot(g, g))
                if k % period:
                    beta = fletcher_reeves_beta(g, g_prev, gg, gg_prev)
                    d = (-g[0] + beta * d[0], -g[1] + beta * d[1]) if pair else -g + beta * d
                else:
                    d = (-g[0], -g[1]) if pair else -g
                g_prev = g
                gg_prev = gg
            if fixed_alpha is not None:
                alpha = fixed_alpha
            else:
                if not conjugate:
                    d = (-g[0], -g[1]) if pair else -g
                try:
                    alpha = float(select(along(x, d), rng))
                except (LineSearchFailedError, InvalidDirectionError):
                    # No finite step, or no positive curvature along the line.
                    return _finish(trajectory, RunStatus.DIVERGED_NONFINITE, k, x, f, gn, alpha)
            if conjugate:
                x = (x[0] + alpha * d[0], x[1] + alpha * d[1]) if pair else x + alpha * d
            else:
                x = (x[0] - alpha * g[0], x[1] - alpha * g[1]) if pair else x - alpha * g
            k += 1


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

