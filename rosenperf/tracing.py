"""The traced run: per-layer metrics, kept apart from the timed run.

Spans are recorded from the benchmark's own files, around its calls into
each layer, and held in memory until the run ends.  The objective layer is
reached through recording subclasses of the package's objectives: the
benchmark passes them to the drivers, or, where the package builds its own
objective (`run_matrix`, the CLI), substitutes the class name the calling
module looks up for the length of one call.

Two kinds of numbers come out:

* counts and shares of the workload's own traced pass (objective calls,
  iterations, statuses, failures, warnings, CSV bytes, tracing overhead);
* layer timings from a fixed probe suite that every traced run repeats, so
  a layer reads the same way whichever workload it is reported under.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from rosenbench import (
    ExactQuadratic,
    Fixed,
    GoldenSection,
    QuadraticFit,
    QuadraticObjective,
    RandomQuadraticFit,
    ResultRow,
    RosenbrockObjective,
    TerminationPolicy,
    VariableCandidates,
    contour_grid,
    fletcher_reeves_cg,
    grid_csv,
    newton_raphson,
    restrict,
    results_csv,
    select_step,
    steepest_descent,
    trajectory_csv,
)
from rosenbench import cli as rb_cli

import workloads as wl

STATUS_LABELS = ("converged", "diverged_blowup", "diverged_nonfinite",
                 "diverged_singular_hessian", "max_iter")
RULE_KEYS = ("variable", "quadfit", "quadfit_random", "golden", "exact")
#: Timed driver cases stop here: the time per iteration is what is wanted.
TIMING_ITERATIONS = 500
METHOD_RULES = ("sd-fixed", "cg-fixed", "sd-variable", "sd-quadfit", "sd-golden",
                "newton", "sd-exact", "cg-exact")


class Tracer:
    """In-memory spans plus the recording objectives created under them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.objectives: list = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._open[-1] if self._open else None,
                  "start_ns": time.perf_counter_ns(), **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end_ns"] = time.perf_counter_ns()

    def recording(self, objective):
        """A recording copy of a Rosenbrock or quadratic objective."""
        if isinstance(objective, QuadraticObjective):
            return RecordingQuadratic(objective.Q, objective.b, tracer=self)
        return RecordingRosenbrock(objective.kappa, tracer=self)

    @contextlib.contextmanager
    def substitute_objectives(self, module):
        """Make `module` build recording valley objectives while in the block."""
        original = module.RosenbrockObjective
        module.RosenbrockObjective = functools.partial(RecordingRosenbrock, tracer=self)
        try:
            yield
        finally:
            module.RosenbrockObjective = original

    def objective_spans(self) -> list[dict]:
        """One span per recording objective: its calls and its busy time."""
        return [{"name": repr(o), "layer": "objectives", "parent": o.parent,
                 "start_ns": o.created_ns, "value": o.n_value, "gradient": o.n_gradient,
                 "hessian": o.n_hessian, "busy_ns": o.busy_ns} for o in self.objectives]


class _Recording:
    """Counts and times every call; mixed in ahead of an objective class."""

    def _start_recording(self, tracer: Tracer):
        self.n_value = self.n_gradient = self.n_hessian = 0
        self.busy_ns = 0
        self.created_ns = time.perf_counter_ns()
        self.parent = tracer._open[-1] if tracer._open else None
        tracer.objectives.append(self)

    def value(self, x):
        t = time.perf_counter_ns()
        try:
            return super().value(x)
        finally:
            self.busy_ns += time.perf_counter_ns() - t
            self.n_value += 1

    def gradient(self, x):
        t = time.perf_counter_ns()
        try:
            return super().gradient(x)
        finally:
            self.busy_ns += time.perf_counter_ns() - t
            self.n_gradient += 1

    def hessian(self, x):
        t = time.perf_counter_ns()
        try:
            return super().hessian(x)
        finally:
            self.busy_ns += time.perf_counter_ns() - t
            self.n_hessian += 1


class RecordingRosenbrock(_Recording, RosenbrockObjective):
    def __init__(self, kappa: float = 1.0, *, tracer: Tracer):
        RosenbrockObjective.__init__(self, kappa)
        self._start_recording(tracer)


class RecordingQuadratic(_Recording, QuadraticObjective):
    def __init__(self, Q, b, *, tracer: Tracer):
        QuadraticObjective.__init__(self, Q, b)
        self._start_recording(tracer)


# ------------------------------------------------------- the traced pass


def traced_pass(workload, tracer: Tracer) -> tuple[dict, "wl.PassOutput", float]:
    """Run the workload once with recording objectives; return its counts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with tracer.span(f"workload {workload.name}", "workload"):
            t0 = time.perf_counter()
            out = workload.run(tracer)
            wall = time.perf_counter() - t0
        repro_raised = 0
        if workload.name == "linesearch":
            # ROADMAP item 2: runs here, unfiltered, so that its escape and
            # its overflow warnings are counted.
            case = wl.REPRO_CASE
            with tracer.span(case.label, "optimize") as span:
                try:
                    wl.run_case(case, tracer.recording(case.objective))
                except Exception as exc:
                    span["raised"] = type(exc).__name__
                    repro_raised = 1
    objs = tracer.objectives
    statuses = Counter(out.statuses)
    counts = {
        "objectives.calls.value": sum(o.n_value for o in objs),
        "objectives.calls.gradient": sum(o.n_gradient for o in objs),
        "objectives.calls.hessian": sum(o.n_hessian for o in objs),
        "objectives.self_share": sum(o.busy_ns for o in objs) / 1e9 / wall,
        "optimize.iterations": out.iterations,
        **{f"optimize.status.{s}": statuses.get(s, 0) for s in STATUS_LABELS},
        "linesearch.failed": out.raised + out.ls_failures + repro_raised,
        "linesearch.warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
        "bench.csv_bytes": out.csv_bytes,
    }
    return counts, out, wall


# ------------------------------------------------------- the probe suite


def _best_time(fn, repeats: int, inner: int = 1) -> float:
    """Seconds one call of `fn` takes, in the fastest of `repeats` batches.

    Contention on a shared host only adds time (see NOTES.md).
    """
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _per_iteration_us(run, min_batch_s: float = 0.02, repeats: int = 5) -> float:
    """Microseconds per driver iteration of the case `run`, fastest batch."""
    t0 = time.perf_counter()
    iterations = run().iterations
    inner = max(1, math.ceil(min_batch_s / max(time.perf_counter() - t0, 1e-6)))
    return _best_time(run, repeats, inner) / max(iterations, 1) * 1e6


def _even_sample(items: list, k: int) -> list:
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


def _probes_per_iter(runs) -> float:
    # Each driver iteration calls value and gradient once at the iterate
    # (plus once more at the final iterate); every other call is a probe.
    iterations = sum(r.iterations for _, r in runs)
    calls = sum(o.n_value + o.n_gradient for o, _ in runs)
    own = sum(2 * (r.iterations + 1) for _, r in runs)
    return (calls - own) / max(iterations, 1)


def _pairs(runs, first: int = TIMING_ITERATIONS, k: int = 128) -> list[tuple]:
    """(objective, x, d) at the first iterates of recorded steepest-descent runs."""
    pairs = []
    for obj, r in runs:
        plain = (QuadraticObjective(obj.Q, obj.b) if isinstance(obj, QuadraticObjective)
                 else RosenbrockObjective(obj.kappa))
        pairs += [(plain, rec.point) for rec in r.trajectory[:-1][:first]]
    return [(plain, x, -plain.gradient(x)) for plain, x in _even_sample(pairs, k)]


def _select_us(pairs, rule, repeats: int = 5) -> float:
    def sweep():
        rng = np.random.default_rng(rule.seed) if isinstance(rule, RandomQuadraticFit) else None
        for obj, x, d in pairs:
            select_step(restrict(obj, x, d), rule, rng)
    return _best_time(sweep, repeats) / len(pairs) * 1e6


def _call_ns(points, method, repeats: int = 5, inner: int = 20) -> float:
    def sweep():
        for p in points:
            method(p)
    return _best_time(sweep, repeats, inner) / len(points) * 1e9


def _cli_ms(argv: list[str], repeats: int) -> float:
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            if rb_cli.main(argv) != 0:
                raise RuntimeError(f"rosenbench {' '.join(argv)} failed")
    return _best_time(call, repeats) * 1e3


def _golden_result_rows() -> list[ResultRow]:
    """The study's 48 rows rebuilt from the matrix golden, for results_csv."""
    rows = []
    for line in (wl.GOLDEN_DIR / "matrix.csv").read_text().splitlines()[1:]:
        f = line.split(",")
        kappa, x1, x2, status, iters, final_f, gn = f[-7:]
        rows.append(ResultRow(f[0], ",".join(f[1:-7]), float(kappa), (float(x1), float(x2)),
                              status, int(iters), float(final_f), float(gn), 1.0,
                              (math.nan, math.nan)))
    return rows


def probe_layers(seed: int, workdir: Path) -> tuple[dict, list[str]]:
    """Layer timings and ratios from fixed study cells; the same on every workload.

    Also returns the gate failures of the two full runs on the seed's
    50-d quadratic, SD and CG under the exact line search.
    """
    m: dict[str, float] = {}
    tracer = Tracer()
    rules = {"variable": VariableCandidates(), "quadfit": QuadraticFit(),
             "golden": GoldenSection()}
    study_starts = ((2.0, 2.0), (5.0, 5.0))
    # The study cell whose first iterations the driver and selector timings use.
    timed_kappa, timed_start = 100.0, (5.0, 5.0)

    # Recorded trajectories, (objective, result) per rule: the study's SD
    # cells, the seeded random-quadfit cases and SD on a 50-d quadratic.
    runs: dict[str, list] = {}
    for key, rule in rules.items():
        runs[key] = []
        for kappa in wl.KAPPAS:
            for start in study_starts:
                obj = RecordingRosenbrock(kappa, tracer=tracer)
                runs[key].append((obj, steepest_descent(obj, start, rule)))
    random_cases = [case for case in wl.LinesearchWorkload.build_cases(seed)
                    if isinstance(case.rule, RandomQuadraticFit)]
    runs["quadfit_random"] = []
    for case in random_cases:
        obj = tracer.recording(case.objective)
        runs["quadfit_random"].append((obj, steepest_descent(obj, case.x0, case.rule, case.policy)))
    quad = wl.make_quadratic(50, 1e3, np.random.default_rng(seed))
    x0_quad = np.zeros(quad.dim)
    obj = tracer.recording(quad)
    runs["exact"] = [(obj, steepest_descent(obj, x0_quad, ExactQuadratic()))]
    eps = TerminationPolicy().epsilon
    failures = wl.check_quadratic_run(quad, "sd exact n=50", runs["exact"][0][1], eps)
    failures += wl.check_quadratic_run(
        quad, "cg exact n=50",
        fletcher_reeves_cg(quad, x0_quad, ExactQuadratic(), record_trajectory=False), eps)

    for key in RULE_KEYS:
        m[f"linesearch.probes_per_iter.{key}"] = _probes_per_iter(runs[key])
    quadfit, golden = rules["quadfit"], rules["golden"]
    alphas = [rec.alpha_used for _, r in runs["quadfit"] for rec in r.trajectory[1:]]
    m["linesearch.quadfit_fallback_frac"] = (
        sum(a in quadfit.sample_alphas for a in alphas) / len(alphas))
    alphas = [rec.alpha_used for _, r in runs["golden"] for rec in r.trajectory[1:]]
    m["linesearch.golden_edge_frac"] = sum(
        a - golden.lo <= golden.width_tol or golden.hi - a <= golden.width_tol
        for a in alphas) / len(alphas)

    # Selector calls on (x, d) pairs from the first iterations of the timed
    # cell, which the driver timings below also run.
    select_runs = {key: [(o, r) for o, r in runs[key]
                         if o.kappa == timed_kappa and tuple(r.trajectory[0].point) == timed_start]
                   for key in rules}
    select_runs["quadfit_random"] = runs["quadfit_random"]
    select_runs["exact"] = runs["exact"]
    select_rules = {**rules, "quadfit_random": random_cases[0].rule, "exact": ExactQuadratic()}
    for key in RULE_KEYS:
        m[f"linesearch.select_us.{key}"] = _select_us(_pairs(select_runs[key]), select_rules[key])

    # Objective calls at iterates of a study trajectory.
    valley = RosenbrockObjective(timed_kappa)
    trajectory = select_runs["variable"][0][1].trajectory
    points = [rec.point for rec in _even_sample(trajectory, 256)]
    m["objectives.value_ns"] = _call_ns(points, valley.value)
    m["objectives.gradient_ns"] = _call_ns(points, valley.gradient)
    m["objectives.hessian_ns"] = _call_ns(points, valley.hessian)
    qpoints = [rec.point for rec in _even_sample(runs["exact"][0][1].trajectory, 64)]
    m["objectives.quad_value_us"] = _call_ns(qpoints, quad.value) / 1e3
    m["objectives.quad_gradient_us"] = _call_ns(qpoints, quad.gradient) / 1e3

    # Driver time per iteration, untraced, and what is left of it once the
    # objective and selector costs measured above are taken away.
    cap = TerminationPolicy(max_iterations=TIMING_ITERATIONS)

    def sd_valley(rule, kappa=timed_kappa, start=timed_start, policy=cap):
        return lambda: steepest_descent(RosenbrockObjective(kappa), start, rule, policy,
                                        record_trajectory=False)

    cases = {
        "sd-fixed": sd_valley(Fixed(0.0124), 1.0, (5.0, 5.0), TerminationPolicy()),
        "cg-fixed": lambda: fletcher_reeves_cg(RosenbrockObjective(1.0), (5.0, 5.0),
                                               Fixed(0.000124), record_trajectory=False),
        "sd-variable": sd_valley(rules["variable"]),
        "sd-quadfit": sd_valley(rules["quadfit"]),
        "sd-golden": sd_valley(rules["golden"]),
        "newton": lambda: newton_raphson(RosenbrockObjective(timed_kappa), timed_start,
                                         record_trajectory=False),
        "sd-exact": lambda: steepest_descent(quad, x0_quad, ExactQuadratic(), cap,
                                             record_trajectory=False),
        "cg-exact": lambda: fletcher_reeves_cg(quad, x0_quad, ExactQuadratic(),
                                               record_trajectory=False),
    }
    valley_us = (m["objectives.value_ns"] + m["objectives.gradient_ns"]) / 1e3
    quad_us = m["objectives.quad_value_us"] + m["objectives.quad_gradient_us"]
    others = {
        "sd-fixed": valley_us,
        "cg-fixed": valley_us,
        "sd-variable": valley_us + m["linesearch.select_us.variable"],
        "sd-quadfit": valley_us + m["linesearch.select_us.quadfit"],
        "sd-golden": valley_us + m["linesearch.select_us.golden"],
        "newton": valley_us + m["objectives.hessian_ns"] / 1e3,
        "sd-exact": quad_us + m["linesearch.select_us.exact"],
        "cg-exact": quad_us + m["linesearch.select_us.exact"],
    }
    for name in METHOD_RULES:
        m[f"optimize.iter_us.{name}"] = _per_iteration_us(cases[name])
        m[f"optimize.overhead_us.{name}"] = m[f"optimize.iter_us.{name}"] - others[name]

    # CSV emission.
    rows = _golden_result_rows()
    m["bench.results_csv_ms"] = _best_time(lambda: results_csv(rows), 5, 20) * 1e3
    traj = steepest_descent(RosenbrockObjective(1.0), (5.0, 5.0), Fixed(0.00124))
    m["bench.trajectory_csv_ms"] = _best_time(lambda: trajectory_csv(traj), 3) * 1e3
    grid = contour_grid(1.0)
    m["bench.grid_csv_ms"] = _best_time(lambda: grid_csv(grid), 3) * 1e3
    m["bench.contour_grid_ms"] = _best_time(lambda: contour_grid(100.0), 7) * 1e3

    # The command-line front end, in-process; run.py times its import.
    out = workdir / "probe.csv"
    m["cli.main_ms.run"] = _cli_ms(["run", "--method", "sd", "--step", "fixed:0.00124",
                                    "--kappa", "1", "--start", "5,5", "--traj", str(out)], 3)
    m["cli.main_ms.contour"] = _cli_ms(["contour", "--kappa", "100", "--out", str(out)], 3)
    m["cli.main_ms.checkgrad"] = _cli_ms(["checkgrad", "--kappa", "100"], 5)
    out.unlink()
    return m, failures
