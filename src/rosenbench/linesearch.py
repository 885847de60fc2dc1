"""Step-size selection along a one-dimensional restriction phi(a) = f(x + a*d).

Six rules are provided:

* ``Fixed`` -- one constant step for every iteration.
* ``VariableCandidates`` -- evaluate phi at a small candidate list and keep
  the argmin (ties go to the smallest candidate).
* ``QuadraticFit`` -- interpolate phi through three sample abscissae with a
  parabola a*x^2 + b*x + c and step to its vertex -b/(2a); if the fit is
  concave or the vertex is nonpositive, fall back to the best positive
  sample.
* ``RandomQuadraticFit`` -- same fit, but the three abscissae are redrawn
  uniformly from a range each iteration with a seeded generator.
* ``GoldenSection`` -- bracket shrinking on [lo, hi] by the golden ratio
  until the bracket is narrower than ``width_tol``; returns the midpoint.
* ``ExactQuadratic`` -- closed-form exact minimization, valid only for
  quadratic objectives; used to exercise conjugate-direction theory.

Each rule's ``select(line, rng=None)`` returns the step it chooses on a
restriction, and its ``label()`` is the text that `parse_rule` reads back.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1

from .errors import (InvalidDirectionError, InvalidInputError, LineSearchFailedError,
                     as_vector, check_count, check_real, real_array)
from .objectives import Objective, QuadraticObjective

# Golden ratio conjugate: bracket width shrinks by this factor per probe.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

DEFAULT_VARIABLE_ALPHAS = (0.000124, 0.0124, 0.124)
DEFAULT_QUADFIT_SAMPLES = (1e-5, 6.7e-5, 1.24e-4)
DEFAULT_GOLDEN_LO = 1.24e-6
DEFAULT_GOLDEN_HI = 1.5
DEFAULT_GOLDEN_WIDTH_TOL = 1e-8

#: A restriction phi(a) = f(x + a*d): a LineRestriction or a fused objective's ``line``.
Line = Callable[[float], float]

# A fitted quadratic coefficient at or below this is treated as degenerate
# (flat or concave fit) and triggers the fallback step.
_MIN_FIT_CURVATURE = 1e-18


def fmt_real(v: float) -> str:
    """Render a real with 17 significant digits (exact float round-trip)."""
    return format(float(v), ".17g")


@dataclass(frozen=True)
class Fixed:
    """One constant step size used at every iteration."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_real("fixed step", self.alpha))

    def label(self) -> str:
        return f"fixed:{fmt_real(self.alpha)}"

    def select(self, line: Line, rng=None) -> float:
        return self.alpha


@dataclass(frozen=True)
class VariableCandidates:
    """A nonempty set of candidate steps; the one with smallest phi wins."""

    alphas: tuple[float, ...] = DEFAULT_VARIABLE_ALPHAS

    def __post_init__(self):
        alphas = tuple(check_real("candidate steps", a)
                       for a in as_vector(self.alphas, name="candidate steps").tolist())
        object.__setattr__(self, "alphas", alphas)

    def label(self) -> str:
        return "variable:" + ",".join(map(fmt_real, self.alphas))

    def select(self, line: Line, rng=None) -> float:
        """Candidate with smallest phi; ties broken toward the smallest step."""
        best, best_y, inf = None, math.inf, math.inf
        for a in self.alphas:
            y = line(a)
            if -inf < y < inf and (y < best_y or y == best_y and a < best):
                best, best_y = a, y
        if best is None:
            raise LineSearchFailedError(
                f"phi is non-finite at every candidate step {self.alphas}"
            )
        return best


def _parabola_step(line: Line, samples, rows) -> float:
    # QuadraticFit.select on three `samples`, whose interpolation rows (s*s, s, 1) are `rows`.
    # _solve1 is the LAPACK gesv gufunc that np.linalg.solve calls, so the bits are its bits;
    # a singular system gives nan coefficients, which fail the curvature test below.
    y = y0, y1, y2 = line(samples[0]), line(samples[1]), line(samples[2])
    inf = math.inf
    if -inf < y0 < inf and -inf < y1 < inf and -inf < y2 < inf:
        with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore"):
            a, b, _ = _solve1(rows, y, signature="dd->d").tolist()
        if a > _MIN_FIT_CURVATURE:
            vertex = -b / (2.0 * a)
            if vertex > 0.0 and math.isfinite(vertex):
                return vertex
    # Fall back to the best positive abscissa with finite phi; ties toward the smallest step.
    best = None
    for s, v in zip(samples, y):
        if s > 0.0 and math.isfinite(v) and (best is None or (v, s) < best):
            best = (v, s)
    if best is None:
        raise LineSearchFailedError(
            f"phi is non-finite at every positive sample abscissa {samples}"
        )
    return best[1]


@dataclass(frozen=True)
class QuadraticFit:
    """Three distinct sample abscissae for the parabola interpolation.

    Abscissae must be nonnegative and pairwise distinct; the returned step
    is always strictly positive (a zero abscissa can be probed but never
    chosen).
    """

    sample_alphas: tuple[float, float, float] = DEFAULT_QUADFIT_SAMPLES
    #: Rows (s*s, s, 1) of the interpolation system, built once per rule.
    vandermonde: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        samples = tuple(check_real("sample abscissae", a, closed=True)
                        for a in as_vector(self.sample_alphas, 3, "sample abscissae").tolist())
        if len(set(samples)) != 3:
            raise InvalidInputError(f"sample abscissae must be pairwise distinct: {samples}")
        object.__setattr__(self, "sample_alphas", samples)
        object.__setattr__(self, "vandermonde", np.array([[a * a, a, 1.0] for a in samples]))

    def label(self) -> str:
        return "quadfit:" + ",".join(map(fmt_real, self.sample_alphas))

    def select(self, line: Line, rng=None) -> float:
        """Vertex of the parabola through (a_i, phi(a_i)), i = 1..3.

        Solves the 3x3 interpolation system for the coefficients (a, b, c)
        of a*x^2 + b*x + c.  Returns -b/(2a) when the fit is convex with a
        positive vertex; otherwise the best positive sampled abscissa.
        """
        return _parabola_step(line, self.sample_alphas, self.vandermonde)


@dataclass(frozen=True)
class RandomQuadraticFit:
    """Parabola fit with three abscissae redrawn from [lo, hi] per iteration."""

    lo: float = 1e-5
    hi: float = 1.24e-4
    seed: int = 0

    def __post_init__(self):
        lo = check_real("lo", self.lo)
        hi = check_real("hi", self.hi, lo)
        # draw() retries until three abscissae differ, so [lo, hi] must hold
        # floats besides lo and hi.
        if math.nextafter(math.nextafter(lo, math.inf), math.inf) >= hi:
            raise InvalidInputError(f"[{lo}, {hi}] holds too few floats for three samples")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))

    def label(self) -> str:
        return f"quadfit-random:{fmt_real(self.lo)},{fmt_real(self.hi)},seed={self.seed}"

    def draw(self, rng: np.random.Generator) -> tuple[float, float, float]:
        """Three distinct abscissae as floats (redraw on the measure-zero collision)."""
        while True:
            s0, s1, s2 = rng.uniform(self.lo, self.hi, 3).tolist()
            if s0 != s1 and s1 != s2 and s0 != s2:
                return s0, s1, s2

    def select(self, line: Line, rng: np.random.Generator | None = None) -> float:
        """The quadratic-fit step on abscissae drawn from `rng`, or a new one seeded `seed`."""
        if rng is None:
            rng = np.random.default_rng(self.seed)
        s = self.draw(rng)
        return _parabola_step(line, s, [[a * a, a, 1.0] for a in s])


@dataclass(frozen=True)
class GoldenSection:
    """Bracketing interval [lo, hi] and the terminal bracket width."""

    lo: float = DEFAULT_GOLDEN_LO
    hi: float = DEFAULT_GOLDEN_HI
    width_tol: float = DEFAULT_GOLDEN_WIDTH_TOL
    #: (c, d, shrinks, half): the first two abscissae, one (INV_PHI_SQ*w, INV_PHI*w) pair
    #: per shrink to width w, and half the final width, built once per rule.
    _schedule: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = check_real("interval start", self.lo, closed=True)
        hi = check_real("interval end", self.hi, closed=True)
        width_tol = check_real("width tolerance", self.width_tol)
        if not hi - lo > width_tol:
            raise InvalidInputError(f"need hi - lo > width_tol, got interval ({lo}, {hi}) "
                                    f"with tolerance {width_tol}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "width_tol", width_tol)
        # The widths do not depend on phi: each shrink multiplies the width by
        # exactly INV_PHI until it is at most width_tol.
        width = hi - lo
        c, d = lo + INV_PHI_SQ * width, lo + INV_PHI * width
        shrinks = []
        while width > width_tol:
            width *= INV_PHI
            shrinks.append((INV_PHI_SQ * width, INV_PHI * width))
        # A final width of one subnormal halves to 0.0, a zero step that never moves a run.
        half = 0.5 * width
        if not half > 0.0:
            raise InvalidInputError(f"width tolerance {width_tol} leaves a zero final half-width")
        object.__setattr__(self, "_schedule", (c, d, tuple(shrinks), half))

    def label(self) -> str:
        return f"golden:{fmt_real(self.lo)}:{fmt_real(self.hi)}:{fmt_real(self.width_tol)}"

    def select(self, line: Line, rng=None) -> float:
        """Golden-ratio bracket shrinking; returns the final bracket midpoint.

        Each shrink step costs one new phi evaluation and multiplies the
        bracket width by exactly INV_PHI, so a select makes 2 + len(shrinks)
        probes.  No unimodality check is made: on a multimodal phi the result
        is whatever the elimination keeps.
        """
        c, d, shrinks, half = self._schedule
        lo, inf = self.lo, math.inf
        yc = line(c)
        yd = line(d)
        if -inf < yc < inf and -inf < yd < inf:
            for near, far in shrinks:
                if yc < yd:
                    # Minimum is trapped in [lo, d]: drop the right section.
                    d, yd = c, yc
                    c = lo + near
                    yc = line(c)
                    if not -inf < yc < inf:
                        break
                else:
                    lo, c, yc = c, d, yd
                    d = lo + far
                    yd = line(d)
                    if not -inf < yd < inf:
                        break
            else:
                return lo + half
        raise LineSearchFailedError("phi is non-finite inside the golden-section bracket")


@dataclass(frozen=True)
class ExactQuadratic:
    """Closed-form exact line minimization; requires a quadratic objective."""

    def label(self) -> str:
        return "exact-quadratic"

    def select(self, line: Line, rng=None) -> float:
        """Exact minimizer -(g'd)/(d'Qd) of phi for a quadratic objective.

        The step may be negative along a direction that climbs.  An overflow
        of d'Qd or of g'd leaves no usable step and raises LineSearchFailedError.
        """
        objective = getattr(line, "objective", None)  # a fused objective's phi has none
        if not isinstance(objective, QuadraticObjective):
            raise InvalidInputError("exact line minimization requires a QuadraticObjective")
        d = line.d
        # An overflow gives an inf or a nan quietly, as it does inside a run.
        with np.errstate(over="ignore", invalid="ignore"):
            curvature = float(d @ objective.Q @ d)
            if curvature <= 0.0:
                raise InvalidDirectionError(
                    f"direction has nonpositive curvature d'Qd = {curvature}")
            step = -float(objective.gradient(line.x) @ d) / curvature
        # An infinite d'Qd turns any finite g'd into a step of zero.
        if not (curvature < math.inf and -math.inf < step < math.inf):
            raise LineSearchFailedError(f"no finite exact step: d'Qd = {curvature}, step {step}")
        return step


StepRule = Fixed | VariableCandidates | QuadraticFit | RandomQuadraticFit | GoldenSection | ExactQuadratic


def parse_rule(text: str) -> StepRule:
    """The rule whose ``label()`` is `text`; golden's tolerance may be left out.

    Raises InvalidInputError for an unknown, malformed or invalid rule.
    """
    kind, _, spec = text.partition(":")
    try:
        if kind == "fixed":
            return Fixed(float(spec))
        if kind == "variable":
            return VariableCandidates(tuple(map(float, spec.split(","))))
        if kind == "quadfit":
            return QuadraticFit(tuple(map(float, spec.split(","))))
        if kind == "quadfit-random":
            lo, hi, seed = spec.split(",")
            if not seed.startswith("seed="):
                raise ValueError(f"expected seed=<n>, got {seed!r}")
            return RandomQuadraticFit(float(lo), float(hi), int(seed[len("seed="):]))
        if kind == "golden":
            bounds = spec.split(":")
            if len(bounds) not in (2, 3):
                raise InvalidInputError("golden rule takes <lo>:<hi>[:<tol>]")
            return GoldenSection(*map(float, bounds))
        if text == "exact-quadratic":
            return ExactQuadratic()
    except InvalidInputError:
        raise
    except ValueError as exc:
        raise InvalidInputError(f"malformed step rule {text!r}: {exc}") from None
    raise InvalidInputError(
        f"unknown step rule {text!r}; expected fixed:, variable:, quadfit:, "
        "quadfit-random:, golden: or exact-quadratic"
    )


class LineRestriction:
    """The slice phi(a) = f(x + a*d) of an objective along direction d.

    A probe fails when its point is not finite, its value is not finite, or
    the objective raises OverflowError or InvalidInputError there; a failed
    probe reads +inf, so selectors treat it as an ordinary non-finite value.
    The drivers build one per adaptive step of an objective that is not
    fused; `restrict` builds a validated one.
    """

    def __init__(self, objective: Objective, x, d):
        self.objective = objective
        self.x = x
        self.d = d

    def __call__(self, alpha: float) -> float:
        with np.errstate(all="ignore"):
            point = self.x + alpha * self.d
            if not np.isfinite(point).all():
                return math.inf
            try:
                y = self.objective.value(point)
            except (InvalidInputError, OverflowError):
                return math.inf
        return y if math.isfinite(y) else math.inf


def restrict(objective: Objective, x, d) -> Line:
    """Build the restriction phi(a) = f(x + a*d); phi(0) equals f(x).

    A fused objective (see Objective) gives the plain callable of its
    ``line``; any other a LineRestriction.  Raises InvalidInputError for a
    point of the wrong dimension or a point or direction that is not made
    of reals, and InvalidDirectionError for a zero or non-finite direction.
    """
    x = as_vector(x, getattr(objective, "dim", None))
    d = real_array(d, "direction")
    if d.shape != x.shape:
        raise InvalidInputError(f"direction shape {d.shape} does not match point shape {x.shape}")
    if not np.isfinite(d).all():
        raise InvalidDirectionError(f"direction has non-finite components: {d}")
    if not np.any(d != 0.0):
        raise InvalidDirectionError("direction must be nonzero")
    if hasattr(objective, "value_and_gradient"):
        return objective.line(tuple(x.tolist()), tuple(d.tolist()))
    return LineRestriction(objective, x, d)


def select_step(line: Line, rule: StepRule,
                rng: np.random.Generator | None = None) -> float:
    """The step `rule` selects on `line`; `rng` feeds RandomQuadraticFit only."""
    return rule.select(line, rng)
