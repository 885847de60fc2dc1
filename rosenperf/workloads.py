"""Workload inputs, timed passes and correctness gates.

Every workload is a single-process closed loop: one caller runs the cases
one after another, each starting when the previous one has finished.  A
workload object is built once (that is the set-up `setup_s` measures),
then `run()` is the timed section and `gate()` checks what it produced.

`run()` accepts a tracer; with one, every objective the workload creates
is a recording subclass (see tracing.py) and nothing else changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rosenbench import (
    ExperimentMatrix,
    GoldenSection,
    QuadraticFit,
    QuadraticObjective,
    RandomQuadraticFit,
    RosenbrockObjective,
    TerminationPolicy,
    VariableCandidates,
    results_csv,
    run_matrix,
    steepest_descent,
)
from rosenbench import bench as rb_bench
from rosenbench import cli as rb_cli
from rosenbench.bench import fmt_real, status_label

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: The goldens of the seeded workloads were taken with this seed.
DEFAULT_SEED = 0

STARTS = ((2.0, 2.0), (5.0, 5.0), (-1.2, 1.0))
KAPPAS = (1.0, 100.0)

#: Seeded random-quadfit cases stop after this many iterations.  Without
#: the cap one seed ends a case after 7 iterations and another after
#: 11,859, so wall time would measure the seed rather than the code.
RANDOM_QUADFIT_CAP = 500
RANDOM_QUADFIT_SEEDS_PER_CASE = 2


@dataclass
class PassOutput:
    """What one pass produced: gated text rows plus the counts it reports."""

    rows: list[str]          # one gated row per case, in case order
    case_walls: list[float]  # seconds per timed case, in a fixed order
    iterations: int          # sum of RunResult.iterations
    csv_bytes: int           # bytes of CSV the program emitted
    statuses: list[str]      # status label per completed run
    raised: int = 0          # cases that raised
    ls_failures: int = 0     # runs stopped by a LineSearchFailedError
    wall: float = 0.0        # seconds the whole pass took, set by the caller


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _ls_failure(status: str, final_f: float, final_point) -> bool:
    # The drivers report a LineSearchFailedError as diverged_nonfinite at a
    # finite iterate; a non-finite objective gives the same status with a
    # non-finite value or point.
    return (status == "diverged_nonfinite" and math.isfinite(final_f)
            and all(math.isfinite(c) for c in final_point))


def corrupt_digit(row: str, field: int) -> str:
    """The row with the first digit of comma-separated `field` changed.

    The gate self-test feeds this to the gate, which must then fail.
    """
    head = row.split(",", field)
    start = len(row) - len(head[-1])
    for i in range(start, len(row)):
        if row[i].isdigit():
            return row[:i] + str((int(row[i]) + 1) % 10) + row[i + 1:]
    raise ValueError(f"field {field} of {row!r} has no digit")


def _read_golden(name: str, load: bool) -> list[str] | None:
    return (GOLDEN_DIR / name).read_text().splitlines() if load else None


# ---------------------------------------------------------------- matrix


class MatrixWorkload:
    """The default 48-cell study through run_matrix and results_csv.

    The study has no random input, so the seed is not used.
    """

    name = "matrix"
    corrupt_field = 7  # final_f

    def __init__(self, seed: int, workdir: Path, goldens: bool):
        self.matrix = ExperimentMatrix()
        self.golden = _read_golden("matrix.csv", goldens)

    def run(self, tracer=None) -> PassOutput:
        t0 = time.perf_counter()
        if tracer is None:
            rows = run_matrix(self.matrix)
        else:
            with tracer.span("bench.run_matrix", "bench"), tracer.substitute_objectives(rb_bench):
                rows = run_matrix(self.matrix)
        text = results_csv(rows)
        wall = time.perf_counter() - t0
        # The cells time themselves (the wall_ms column); the rest of the
        # pass, matrix bookkeeping and CSV, is one more case.
        cells = [r.wall_ms / 1e3 for r in rows]
        gated = [line.rsplit(",", 1)[0] for line in text.splitlines()]
        return PassOutput(
            rows=gated[1:],
            case_walls=cells + [wall - sum(cells)],
            iterations=sum(r.iterations for r in rows),
            # The width of the wall_ms column changes from run to run, so
            # the count leaves that column out and repeats exactly.
            csv_bytes=sum(len(line.encode()) + 1 for line in gated),
            statuses=[r.status for r in rows],
            ls_failures=sum(_ls_failure(r.status, r.final_f, r.final_point) for r in rows),
        )

    def gate(self, rows: list[str]) -> list[str]:
        header, golden = self.golden[0], self.golden[1:]
        if header != rb_bench.RESULTS_HEADER.rsplit(",", 1)[0]:
            return ["results header changed"]
        return _compare_rows(rows, golden)


def _compare_rows(rows: list[str], golden: list[str]) -> list[str]:
    failures = [f"row {i}: {row!r} != golden {want!r}"
                for i, (row, want) in enumerate(zip(rows, golden)) if row != want]
    if len(rows) != len(golden):
        failures.append(f"{len(rows)} rows, golden has {len(golden)}")
    return failures


# ------------------------------------------------------------ linesearch


@dataclass(frozen=True)
class Case:
    label: str
    objective: object
    x0: tuple
    rule: object
    policy: TerminationPolicy = TerminationPolicy()


def _pt(p) -> str:
    return "/".join(f"{c:g}" for c in p)


def run_case(case: Case, objective):
    """Steepest descent on the case, through `objective`."""
    return steepest_descent(objective, case.x0, case.rule, case.policy, record_trajectory=False)


def result_row(label: str, result) -> str:
    point = ";".join(fmt_real(c) for c in result.final_point)
    return (f"{label},{status_label(result)},{result.iterations},"
            f"{fmt_real(result.final_value)},{fmt_real(result.final_grad_norm)},{point}")


def check_row(objective, epsilon: float, row: str) -> list[str]:
    """Invariants of a result row that hold for every seed.

    The row is read back as emitted: `final_f` and `final_grad_norm` must
    recompute bit for bit from the final point, and the status must be
    `converged` exactly when the gradient norm is at most `epsilon`.
    """
    fields = row.split(",")
    if len(fields) != 6:
        return [f"malformed row {row!r}"]
    _, status, _, final_f, gn, point = fields
    final_f, gn = float(final_f), float(gn)
    x = np.array([float(c) for c in point.split(";")])
    failures = []
    try:
        f_again = objective.value(x)
        gn_again = math.hypot(*objective.gradient(x))
    except ValueError:  # the objective refuses a non-finite point
        f_again = gn_again = math.nan
    if not _same_float(f_again, final_f):
        failures.append(f"final_f {final_f!r} recomputes as {f_again!r}")
    if not _same_float(gn_again, gn):
        failures.append(f"final_grad_norm {gn!r} recomputes as {gn_again!r}")
    if (status == "converged") != (gn <= epsilon):
        failures.append(f"status {status} with grad norm {gn!r}")
    return failures


class LinesearchWorkload:
    """Steepest descent under every adaptive step rule on the valley."""

    name = "linesearch"
    corrupt_field = 3  # final_f

    def __init__(self, seed: int, workdir: Path, goldens: bool):
        self.cases = self.build_cases(seed)
        self.default_seed = seed == DEFAULT_SEED
        golden = _read_golden("linesearch-seed0.csv", goldens)
        self.golden = None if golden is None else {row.split(",", 1)[0]: row for row in golden}

    def run(self, tracer=None) -> PassOutput:
        rows, statuses, results, walls = [], [], [], []
        raised = 0
        for case in self.cases:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = run_case(case, case.objective)
                else:
                    with tracer.span(case.label, "optimize"):
                        result = run_case(case, tracer.recording(case.objective))
            except Exception as exc:  # a case that raises is counted, not fatal
                raised += 1
                rows.append(f"{case.label},raised {type(exc).__name__}")
                continue
            finally:
                walls.append(time.perf_counter() - t0)
            results.append(result)
            statuses.append(status_label(result))
            rows.append(result_row(case.label, result))
        return PassOutput(
            rows=rows,
            case_walls=walls,
            iterations=sum(r.iterations for r in results),
            csv_bytes=0,
            statuses=statuses,
            raised=raised,
            ls_failures=sum(_ls_failure(status_label(r), r.final_value, r.final_point)
                            for r in results),
        )

    def gate(self, rows: list[str]) -> list[str]:
        failures = []
        for case, row in zip(self.cases, rows):
            msgs = check_row(case.objective, case.policy.epsilon, row)
            # The random-quadfit cases depend on the seed, so their golden
            # rows apply at the default seed only; every other row always.
            if self.golden is not None and (self.default_seed
                                            or not isinstance(case.rule, RandomQuadraticFit)):
                want = self.golden.get(case.label)
                if want is None:
                    msgs.append("no golden row")
                elif row != want:
                    msgs.append(f"{row!r} != golden {want!r}")
            if msgs:
                failures.append(f"{case.label}: " + "; ".join(msgs))
        if len(rows) != len(self.cases):
            failures.append(f"{len(rows)} rows for {len(self.cases)} cases")
        return failures

    @staticmethod
    def build_cases(seed: int) -> list[Case]:
        rules = {
            "variable": VariableCandidates(),
            "quadfit": QuadraticFit(),
            "golden": GoldenSection(),
        }
        cases = []
        for kappa in KAPPAS:
            objective = RosenbrockObjective(kappa)
            for start in STARTS:
                for name, rule in rules.items():
                    cases.append(Case(f"sd {name} k={kappa:g} x0={_pt(start)}",
                                      objective, start, rule))
        rng = np.random.default_rng(seed)
        capped = TerminationPolicy(max_iterations=RANDOM_QUADFIT_CAP)
        for kappa in KAPPAS:
            objective = RosenbrockObjective(kappa)
            for start in STARTS:
                for rule_seed in rng.integers(0, 2**32, RANDOM_QUADFIT_SEEDS_PER_CASE):
                    rule = RandomQuadraticFit(seed=int(rule_seed))
                    cases.append(Case(f"sd quadfit_random:{rule_seed} k={kappa:g} x0={_pt(start)}",
                                      objective, start, rule, capped))
        return cases


#: The item-2 repro of ROADMAP: a probe point that overflows escapes the
#: driver as InvalidInputError.  The traced linesearch run executes it.
REPRO_CASE = Case(
    "repro variable:1e-4:1e306 k=100 x0=5/5 blowup=1e300",
    RosenbrockObjective(100.0), (5.0, 5.0),
    VariableCandidates((1e-4, 1e306)), TerminationPolicy(blowup_norm=1e300),
)


def make_quadratic(n: int, cond: float, rng: np.random.Generator) -> QuadraticObjective:
    """SPD quadratic with spectrum geomspace(1, cond, n) in random eigenvectors.

    The minimizer has fixed coordinates (all ones) in the eigenbasis, so a
    seed rotates the problem without changing how hard it is: descent
    methods and line searches are invariant under rotation.
    """
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (V * np.geomspace(1.0, cond, n)) @ V.T
    Q = 0.5 * (A + A.T)
    return QuadraticObjective(Q, Q @ (V @ np.ones(n)))


def check_quadratic_run(objective: QuadraticObjective, label: str, result,
                        epsilon: float) -> list[str]:
    """check_row for a run on a quadratic; a converged run must also lie near Q^-1 b."""
    row = result_row(label, result)
    failures = check_row(objective, epsilon, row)
    if row.split(",")[1] == "converged":
        # ||x - x*|| = ||Q^-1 g|| <= ||g|| / lambda_min, with room for rounding.
        x_star = objective.minimizer()
        err = float(np.linalg.norm(result.final_point - x_star))
        bound = (1.01 * result.final_grad_norm / float(np.linalg.eigvalsh(objective.Q)[0])
                 + 1e-9 * float(np.linalg.norm(x_star)))
        if err > bound:
            failures.append(f"converged {err!r} away from Q^-1 b (bound {bound!r})")
    return [f"{label}: " + "; ".join(failures)] if failures else []



# ------------------------------------------------------------------ emit


def emit_commands(outdir: Path) -> list[tuple[str, list[str], Path | None]]:
    """(label, argv, output file) for each CLI call of the emit workload."""
    return [
        ("run-sd", ["run", "--method", "sd", "--step", "fixed:0.00124", "--kappa", "1",
                    "--start", "5,5", "--traj", str(outdir / "traj-sd.csv")],
         outdir / "traj-sd.csv"),
        ("run-cg", ["run", "--method", "cg", "--step", "fixed:0.000124", "--kappa", "100",
                    "--start", "2,2", "--traj", str(outdir / "traj-cg.csv")],
         outdir / "traj-cg.csv"),
        ("contour-k1", ["contour", "--kappa", "1", "--out", str(outdir / "contour-k1.csv")],
         outdir / "contour-k1.csv"),
        ("contour-k100", ["contour", "--kappa", "100", "--out", str(outdir / "contour-k100.csv")],
         outdir / "contour-k100.csv"),
        ("checkgrad", ["checkgrad", "--kappa", "100"], None),
    ]


class EmitWorkload:
    """CLI subcommands that write contour grids and trajectories.

    Every command is fixed, so the seed is not used.
    """

    name = "emit"
    corrupt_field = 3  # stdout of the first command

    def __init__(self, seed: int, workdir: Path, goldens: bool):
        self.commands = emit_commands(workdir)
        self.golden = _read_golden("emit.csv", goldens)

    def run(self, tracer=None) -> PassOutput:
        outputs, walls = [], []
        for label, argv, _ in self.commands:
            out = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    if tracer is None:
                        code = rb_cli.main(argv)
                    else:
                        with tracer.span(f"cli.main {argv[0]}", "cli"), \
                                tracer.substitute_objectives(rb_cli):
                            code = rb_cli.main(argv)
            except Exception as exc:  # a command that raises is counted, not fatal
                code = f"raised {type(exc).__name__}"
            walls.append(time.perf_counter() - t0)
            outputs.append((code, out.getvalue()))
        rows, statuses, iterations, csv_bytes = [], [], 0, 0
        for (label, argv, path), (code, stdout) in zip(self.commands, outputs):
            digest = "-"
            if path is not None and path.exists():
                data = path.read_bytes()
                csv_bytes += len(data)
                digest = hashlib.sha256(data).hexdigest()
                path.unlink()
            rows.append(f"{label},{code},{digest},{stdout.encode('unicode_escape').decode()}")
            if argv[0] == "run" and code == 0:
                status, *fields = stdout.split()
                iterations += int(dict(f.split("=", 1) for f in fields if "=" in f)
                                  .get("iterations", 0))
                statuses.append(status)
        return PassOutput(rows=rows, case_walls=walls, iterations=iterations, csv_bytes=csv_bytes,
                          statuses=statuses, raised=sum(code != 0 for code, _ in outputs))

    def gate(self, rows: list[str]) -> list[str]:
        return _compare_rows(rows, self.golden)


WORKLOADS = {
    "matrix": MatrixWorkload,
    "linesearch": LinesearchWorkload,
    "emit": EmitWorkload,
}


def build(name: str, seed: int, workdir: Path, goldens: bool = True):
    """Set-up: build the workload's inputs and load its goldens."""
    return WORKLOADS[name](seed, workdir, goldens)
