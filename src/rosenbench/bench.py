"""Benchmark harness: the full experiment grid, contour data, CSV output.

:func:`run_matrix` sweeps every optimizer cell of the convergence study --
steepest descent under the four step rules, the Fletcher-Reeves method
under the fixed steps, and Newton-Raphson -- over kappa in {1, 100} and
starting points (2,2) and (5,5), stopping at a gradient norm of 1e-3.
Rows come back in a fixed order and rerunning the matrix reproduces them
bit-for-bit except for wall-clock timings.
"""

from __future__ import annotations

import math
import reprlib
import time
from dataclasses import dataclass
from struct import unpack

import numpy as np

from .errors import IncomparableVariantsError, InvalidInputError, as_vector, check_count, check_real
from .linesearch import (
    Fixed,
    GoldenSection,
    QuadraticFit,
    StepRule,
    VariableCandidates,
    fmt_real,
)
from .objectives import Matrix, RosenbrockObjective, valley_value
from .optimize import (
    RunResult,
    RunStatus,
    TerminationPolicy,
    _check_policy,
    fletcher_reeves_cg,
    newton_raphson,
    steepest_descent,
    trajectory_dtype,
)

DEFAULT_FIXED_ALPHAS = (0.124, 0.0124, 0.00124, 0.000124)
KAPPAS = (1.0, 100.0)
STARTS = ((2.0, 2.0), (5.0, 5.0))


def status_label(result: RunResult) -> str:
    return result.status.value


def rule_label(rule: StepRule | None) -> str:
    """Textual form of a step rule, "none" for Newton-Raphson's.

    `parse_rule` reads back every label but "none": Newton takes no rule.
    """
    return "none" if rule is None else rule.label()


# The study's cells, built once, in run order: SD fixed sweep, SD adaptive rules, Newton,
# CG fixed sweep.  A fixed step's SD and CG cells share its one rule.
_FIXED = [Fixed(a) for a in DEFAULT_FIXED_ALPHAS]
_CELLS = (*[("sd", r) for r in _FIXED], ("sd", VariableCandidates()), ("sd", QuadraticFit()),
          ("sd", GoldenSection()), ("newton", None), *[("cg", r) for r in _FIXED])


@dataclass(frozen=True)
class ExperimentMatrix:
    """The termination `policy` under which `run_matrix` runs the study."""

    policy: TerminationPolicy = TerminationPolicy()

    def __post_init__(self):
        _check_policy(self.policy)  # else it would get past construction and fail in a cell


@dataclass(frozen=True)
class ResultRow:
    """One benchmark cell outcome.

    `final_point` is kept for re-verification of the reported gradient
    norm; it is not a CSV column.
    """

    method: str
    step_rule: str
    kappa: float
    x0: tuple[float, float]
    status: str
    iterations: int
    final_f: float
    final_grad_norm: float
    wall_ms: float
    final_point: tuple[float, ...]


def run_method(
    method: str,
    objective,
    x0,
    rule: StepRule | None,
    policy: TerminationPolicy,
    restart_period: int | None = None,
    record_trajectory: bool = True,
) -> RunResult:
    """Run the driver named `method`: "sd", "cg" (which alone restarts) or "newton" (no rule)."""
    if method == "newton" and rule is not None:
        raise InvalidInputError(f"method 'newton' takes no step rule, got {rule!r}")
    if method != "cg" and restart_period is not None:
        raise InvalidInputError(f"only method 'cg' takes a restart_period, not {method!r}")
    if method == "sd":
        return steepest_descent(objective, x0, rule, policy, record_trajectory)
    if method == "cg":
        return fletcher_reeves_cg(objective, x0, rule, policy, restart_period, record_trajectory)
    if method == "newton":
        return newton_raphson(objective, x0, policy, record_trajectory)
    raise InvalidInputError(f"unknown method: {method!r}")


def run_matrix(matrix: ExperimentMatrix = ExperimentMatrix()) -> list[ResultRow]:
    """Run each cell at each of KAPPAS and STARTS; no cell is ever skipped (failures land in
    `status`), and only the run itself is timed."""
    rows = []
    for method, rule in _CELLS:
        for kappa in KAPPAS:
            for start in STARTS:
                # The module's name is read per cell, so a caller may swap in another class.
                objective = RosenbrockObjective(kappa)
                t0 = time.perf_counter()
                result = run_method(method, objective, start, rule, matrix.policy,
                                    record_trajectory=False)
                ms = (time.perf_counter() - t0) * 1e3
                rows.append(ResultRow(
                    method=method,
                    step_rule=rule_label(rule),
                    kappa=kappa,
                    x0=start,
                    status=result.status.value,
                    iterations=result.iterations,
                    final_f=result.final_value,
                    final_grad_norm=result.final_grad_norm,
                    wall_ms=ms,
                    final_point=tuple(float(c) for c in result.final_point),
                ))
    return rows


def compare_sd_variants(rows: list[ResultRow], kappa: float, start: tuple[float, float]) -> list[str]:
    """Order the four steepest-descent step-rule variants by iteration count.

    Returns the labels {fixed, variable, quadratic-fit, golden-section}
    sorted ascending by iterations, ties broken alphabetically.  The fixed
    variant is the study's smallest step, the others any row of their rule.
    Raises IncomparableVariantsError naming the variant whose row is missing
    or did not converge.
    """
    kappa = check_real("kappa", kappa)
    start = tuple(as_vector(start, 2, "start").tolist())
    counts: dict[str, int] = {}
    for variant, label in (("fixed", Fixed(min(DEFAULT_FIXED_ALPHAS)).label()),
                           ("variable", "variable:"), ("quadratic-fit", "quadfit:"),
                           ("golden-section", "golden:")):
        match = [
            r for r in rows
            if r.method == "sd" and r.kappa == kappa and r.x0 == start
            and (r.step_rule == label if variant == "fixed" else r.step_rule.startswith(label))
        ]
        if not match:
            raise IncomparableVariantsError(
                f"no steepest-descent row for variant {variant!r} at kappa={kappa}, start={start}"
            )
        row = match[0]
        if row.status != RunStatus.CONVERGED.value:
            raise IncomparableVariantsError(
                f"variant {variant!r} did not converge at kappa={kappa}, start={start} "
                f"(status {row.status})"
            )
        counts[variant] = row.iterations
    return sorted(counts, key=lambda name: (counts[name], name))


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """Objective values on a uniform inclusive grid, for level-curve plots.

    ``values[i, j]`` is the objective at (xs[i], ys[j]).
    """

    kappa: float
    xs: np.ndarray
    ys: np.ndarray
    values: Matrix


def contour_grid(
    kappa: float,
    x_range: tuple[float, float] = (-2.0, 6.0),
    y_range: tuple[float, float] = (-2.0, 6.0),
    resolution: int = 401,
) -> ContourGrid:
    """Sample the valley function on a resolution x resolution grid.

    Endpoints are included; grid values match scalar evaluation exactly.
    """
    check_count("resolution", resolution, 2)
    x_lo, x_hi = as_vector(x_range, 2, "x_range").tolist()
    y_lo, y_hi = as_vector(y_range, 2, "y_range").tolist()
    if not (x_hi > x_lo and y_hi > y_lo):
        raise InvalidInputError(f"degenerate grid ranges x={x_range}, y={y_range}")
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise InvalidInputError(f"grid range widths overflow: x={x_range}, y={y_range}")
    kappa = check_real("kappa", kappa)
    xs = np.linspace(x_lo, x_hi, resolution)
    ys = np.linspace(y_lo, y_hi, resolution)
    # values[i, j] = f(xs[i], ys[j]); an overflow is inf, as the scalar evaluation gives.
    with np.errstate(over="ignore", invalid="ignore"):
        values = valley_value(kappa, xs[:, None], ys)
    return ContourGrid(kappa=kappa, xs=xs, ys=ys, values=values)


RESULTS_HEADER = "method,step_rule,kappa,x0_1,x0_2,status,iterations,final_f,final_grad_norm,wall_ms"

# Every CSV real is "%.17g", which formats as fmt_real does; a writer builds its row
# template once and fills a whole block of rows with one `%`.
_RESULTS_ROW = "%s,%s,%.17g,%.17g,%.17g,%s,%d,%.17g,%.17g,%.17g\n"
_TRAJECTORY_BLOCK = 1024  # rows per `%`, so no argument tuple spans a long run


def results_csv(rows: list[ResultRow]) -> str:
    """Benchmark table as CSV text (deterministic except the wall_ms column)."""
    fields = []
    for r in rows:
        fields += (r.method, r.step_rule, r.kappa, r.x0[0], r.x0[1], r.status, r.iterations,
                   r.final_f, r.final_grad_norm, r.wall_ms)
    return RESULTS_HEADER + "\n" + _RESULTS_ROW * len(rows) % tuple(fields)


def trajectory_csv(result: RunResult) -> str:
    """Iterate history as CSV, one coordinate column per dimension of `final_point`.

    The trajectory must be an array of trajectory_dtype(dim), whose records are written from
    their bytes."""
    return "".join(_trajectory_blocks(result))


def _trajectory_blocks(result: RunResult):
    # trajectory_csv's text: the header, then one block of up to _TRAJECTORY_BLOCK records,
    # each unpacked from its bytes as (k, *point, f, grad_norm, alpha).
    dim, records = len(result.final_point), result.trajectory
    # A record of trajectory_dtype(n) is 8 * (n + 4) bytes.
    n = records.dtype.itemsize // 8 - 4 if isinstance(records, np.ndarray) else 0
    if n < 1 or records.ndim != 1 or records.dtype != trajectory_dtype(n):
        raise InvalidInputError("trajectory must be a 1-d array of (k, point, value, grad_norm, "
                                f"alpha_used) records, got {reprlib.repr(records)}")
    if n != dim:
        raise InvalidInputError(f"trajectory has {n} coordinates, not {dim}")
    yield "k," + ",".join(f"x{i + 1}" for i in range(dim)) + ",f,grad_norm,alpha\n"
    row, fields = "%d," + "%.17g," * dim + "%.17g,%.17g,%.17g\n", f"q{dim + 3}d"
    for start in range(0, len(records), _TRAJECTORY_BLOCK):
        block = records[start:start + _TRAJECTORY_BLOCK]
        yield row * len(block) % unpack("=" + fields * len(block), block.tobytes())


def grid_csv(grid: ContourGrid) -> str:
    """Grid samples as x,y,f rows in row-major order; values must be len(xs) x len(ys)."""
    return "".join(_grid_blocks(grid))


def _grid_blocks(grid: ContourGrid):
    # grid_csv's text: the header, then one block per x.
    n, shape = len(grid.ys), getattr(grid.values, "shape", None)
    if shape != (len(grid.xs), n):
        raise InvalidInputError(f"grid values must be {len(grid.xs)}x{n}, got shape {shape}")
    row = "".join("%s," + fmt_real(y) + ",%.17g\n" for y in grid.ys)
    fields = [None] * (2 * n)
    yield "x,y,f\n"
    for x, values in zip(grid.xs, grid.values):
        fields[::2] = [fmt_real(x)] * n
        fields[1::2] = values.tolist()
        yield row % tuple(fields)
