"""Benchmark harness: the full experiment grid, contour data, CSV output.

:func:`run_matrix` sweeps every optimizer cell of the convergence study --
steepest descent under the four step rules, the Fletcher-Reeves method
under the fixed steps, and Newton-Raphson -- over kappa in {1, 100} and
starting points (2,2) and (5,5), stopping at a gradient norm of 1e-3.
Rows come back in a fixed order and rerunning the matrix reproduces them
bit-for-bit except for wall-clock timings.
"""

from __future__ import annotations

import functools
import math
import reprlib
import time
from dataclasses import dataclass

import numpy as np

from .errors import (IncomparableVariantsError, InvalidInputError, as_vector, check_count,
                     check_real, real_array)
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
_BLOCK = 4096  # grid values or CSV reals per numpy call, so each call's arrays stay small


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
    # values[i, j] = f(xs[i], ys[j]), a block of x-rows per call; an overflow is inf, as the
    # scalar evaluation gives.
    values = np.empty((resolution, resolution))
    rows = max(1, _BLOCK // resolution)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, resolution, rows):
            values[i:i + rows] = valley_value(kappa, xs[i:i + rows, None], ys)
    return ContourGrid(kappa=kappa, xs=xs, ys=ys, values=values)


RESULTS_HEADER = "method,step_rule,kappa,x0_1,x0_2,status,iterations,final_f,final_grad_norm,wall_ms"

# Every CSV real is "%.17g", as fmt_real formats it.  results_csv fills this row for each of
# the study's rows with one `%`; the grid and trajectory writers format _BLOCK reals at a time
# in numpy (_rows17), whose fixed cost only their hundreds of thousands of reals repay.
_RESULTS_ROW = "%s,%s,%.17g,%.17g,%.17g,%s,%d,%.17g,%.17g,%.17g\n"

# A real's field in _fields17 is _W bytes, and the text keeps those that are not NUL:
#   0       the sign "-"
#   1-5     "0.000": the "0." and up to three zeros of a positional value below 1
#   6 + 2j  digit j of the 17 (j = 0..16)
#   7 + 2j  the decimal point, where it follows digit j
#   39-42   the exponent "e-dd"
#   _SEP    "\n", or the separator that a writer puts there
_W, _SEP = 48, 43


@functools.cache
def _fmt17_tables():
    """_fields17's tables, built on first use.

    10**q for q = 0..56 as a double-double (hi, lo), with hi split into 26-bit halves; one
    uint64 word per 4-digit group, each digit followed by 0xFF (entry 10000 + d is a lead
    digit d after six 0xFF bytes, entry 10010 all 0xFF); per group the place of its last digit
    that is not a trailing zero; and one field per (E, k digits shown, sign) that holds its
    fixed bytes, 0xFF where a digit shows and NUL where none does.
    """
    hi = np.array([float(10**q) for q in range(57)])
    lo = np.array([float(10**q - int(float(10**q))) for q in range(57)])
    c = hi * 134217729.0
    hh = c - (c - hi)
    d = np.indices((10,) * 4, np.uint8).reshape(4, 10000)  # the digits of 0..9999
    words = np.full((10011, 8), 0xFF, np.uint8)
    words[:10000, ::2] = d.T + ord("0")
    words[10000:10010, 6] = np.arange(ord("0"), ord("9") + 1)
    last = np.where(d.any(0), ((d != 0) * np.arange(1, 5, dtype=np.int8)[:, None]).max(0), -20)
    E, k, neg = np.ogrid[-40:16, 1:18, 0:2]
    below_1 = (E < 0) & (E >= -4)
    fields = np.zeros((56, 17, 2, _W), np.uint8)
    fields[..., 0] = np.where(neg, ord("-"), 0)
    for i, byte in enumerate(b"0.000"):  # "0." and -E - 1 zeros
        fields[..., 1 + i] = np.where(below_1 & (i < 1 - E), byte, 0)
    for j in range(17):
        fields[..., 6 + 2 * j] = np.where((j < k) | (j <= E), 0xFF, 0)
    for j in range(16):
        point = np.where(E < -4, j == 0, j == E) & (j + 1 < k)
        fields[..., 7 + 2 * j] = np.where(point, ord("."), 0)
    for i, byte in enumerate((ord("e"), ord("-"), ord("0") + -E // 10, ord("0") + -E % 10)):
        fields[..., 39 + i] = np.where(E < -4, byte, 0)
    fields[..., _SEP] = ord("\n")
    return hi, lo, hh, hi - hh, words.view(np.uint64).ravel(), last, fields.reshape(-1, _W)


_GROUP_PLACES = np.array([1, 5, 9, 13], np.int8)[:, None]  # digits before each 4-digit group


def _fields17(values: np.ndarray) -> np.ndarray:
    """The _W-byte field of "%.17g" % v for each v of a 1-d float64 array.

    For |v| in [1e-40, 1e16), E = floor(log10|v|) and N, the 17-digit integer nearest
    |v| * 10**(16 - E), hold the digits.  Dekker's product (Numer. Math. 18, 1971) gives
    |v| * 10**q as p + t, exact but for 10**q's double-double error: below 2**-44 of N's unit
    (numpy fuses no multiply-add).  "%.17g" writes every other v, every v whose fraction lies
    within 1e-6 of one half, and every v whose N is not in (10**16, 10**17): E misread by
    log10 next to a power of ten (a v just below 10**E may then round up to N = 10**16), N
    rounded up to 10**17, and the powers of ten themselves.
    """
    hi, lo, hh, hl, words, last, fields = _fmt17_tables()
    a = np.abs(values)
    ok = (a >= 1e-40) & (a < 1e16)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -40, 15, out=e)  # log10 may round past either end of the range
    q = 16 - e
    c = a * 134217729.0  # a = ah + al and hi = hh + hl in halves of 26 bits: exact products
    ah = c - (c - a)
    al = a - ah
    bh, bl = hh.take(q), hl.take(q)
    p = a * hi.take(q)
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo.take(q)
    r = np.rint(t)
    ok &= np.abs(t - r) < 0.5 - 1e-6
    n = p.astype(np.int64) + r.astype(np.int64)
    ok &= (n > 10**16) & (n < 10**17)
    n[~ok] = 10**16
    # The 6 words of each field: the lead digit, four 4-digit groups, then all 0xFF.
    h = n // 10**8
    halves = np.empty((2, len(n)))
    halves[0], halves[1] = h, n - h * 10**8
    q4 = np.floor(halves / 1e4)
    lead = np.floor(q4[0] / 1e4)
    groups = np.empty((6, len(n)), np.intp)
    groups[0] = lead + 10000
    groups[1] = q4[0] - lead * 1e4
    groups[2::2] = halves - q4 * 1e4
    groups[3] = q4[1]
    groups[5] = 10010
    k = np.maximum((last.take(groups[1:5]) + _GROUP_PLACES).max(0), 1)
    out = fields.take(((e + 40) * 17 + k - 1) * 2 + np.signbit(values), 0)
    out.view(np.uint64)[...] &= words.take(groups.T)
    for i in np.flatnonzero(~ok).tolist():
        text = b"%.17g" % values[i]
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
        out[i, _SEP] = ord("\n")
    return out


def _rows17(values: np.ndarray, *columns: np.ndarray) -> str:
    # Each row's NUL-padded text `columns`, then its reals of `values` in "%.17g", joined by ","
    # and ended by "\n": the bytes that are not NUL.
    m, c = values.shape
    fields = _fields17(values.ravel()).reshape(m, c, _W)
    fields[:, :-1, _SEP] = ord(",")
    text = np.concatenate((*columns, fields.reshape(m, c * _W)), axis=1)
    return text.tobytes().translate(None, b"\0").decode()


def _padded(texts: list[str]) -> np.ndarray:
    # The texts as rows of NUL-padded bytes.
    rows = np.array(texts, "S")
    return rows.view(np.uint8).reshape(len(texts), rows.itemsize)


def results_csv(rows: list[ResultRow]) -> str:
    """Benchmark table as CSV text (deterministic except the wall_ms column)."""
    fields = []
    for r in rows:
        fields += (r.method, r.step_rule, r.kappa, r.x0[0], r.x0[1], r.status, r.iterations,
                   r.final_f, r.final_grad_norm, r.wall_ms)
    return RESULTS_HEADER + "\n" + _RESULTS_ROW * len(rows) % tuple(fields)


def trajectory_csv(result: RunResult) -> str:
    """Iterate history as CSV, one coordinate column per dimension of `final_point`.

    The trajectory must be a 1-d array of trajectory_dtype(dim), whose records are written
    from their fields."""
    return "".join(_trajectory_blocks(result))


def _trajectory_blocks(result: RunResult):
    # trajectory_csv's text: the header, then one block of records per _BLOCK reals, each
    # written from its fields as (k, *point, value, grad_norm, alpha_used).
    dim, records = len(result.final_point), result.trajectory
    if not (dim >= 1 and isinstance(records, np.ndarray) and records.ndim == 1
            and records.dtype == trajectory_dtype(dim)):
        raise InvalidInputError(f"trajectory must be a 1-d array of trajectory_dtype({dim}) "
                                f"records, got {reprlib.repr(records)}")
    yield "k," + ",".join(f"x{i + 1}" for i in range(dim)) + ",f,grad_norm,alpha\n"
    step = max(1, _BLOCK // (dim + 3))
    for start in range(0, len(records), step):
        block = records[start:start + step]
        reals = np.column_stack((block["point"], block["value"], block["grad_norm"],
                                 block["alpha_used"]))
        yield _rows17(reals, _padded(["%d," % k for k in block["k"].tolist()]))


def grid_csv(grid: ContourGrid) -> str:
    """Grid samples as x,y,f rows in row-major order; values must be len(xs) x len(ys)."""
    return "".join(_grid_blocks(grid))


def _grid_blocks(grid: ContourGrid):
    # grid_csv's text: the header, then one block of x-rows per _BLOCK values, each row's
    # text columns "x," and "y," before its value.
    x, y = real_array(grid.xs, "grid xs"), real_array(grid.ys, "grid ys")
    values = real_array(grid.values, "grid values")
    if x.ndim != 1 or y.ndim != 1:
        raise InvalidInputError(f"grid xs and ys must be 1-d, got shapes {x.shape} and {y.shape}")
    n = len(y)
    if values.shape != (len(x), n):
        raise InvalidInputError(f"grid values must be {len(x)}x{n}, got shape {values.shape}")
    xs, ys = (_padded([fmt_real(v) + "," for v in axis]) for axis in (x, y))
    step = max(1, _BLOCK // max(n, 1))
    yield "x,y,f\n"
    for i in range(0, len(xs), step):
        block = values[i:i + step]
        yield _rows17(block.reshape(-1, 1), np.repeat(xs[i:i + step], n, 0),
                      np.tile(ys, (len(block), 1)))
