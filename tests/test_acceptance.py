"""Acceptance suite: the convergence-study verdicts and theory checks.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in the captured output of a failure).  Criteria 1-7 assert
the narrated converge/diverge verdicts of the benchmark matrix; 8-10 assert
derivative correctness and line-search/CG theory; 11 asserts determinism.

Stopping rule throughout: gradient norm <= 1e-3.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rosenbench import (
    ExactQuadratic,
    ExperimentMatrix,
    Fixed,
    GoldenSection,
    QuadraticFit,
    QuadraticObjective,
    RandomQuadraticFit,
    RosenbrockObjective,
    RunStatus,
    TerminationPolicy,
    VariableCandidates,
    compare_sd_variants,
    contour_grid,
    fletcher_reeves_cg,
    finite_diff_gradient,
    finite_diff_hessian,
    grid_csv,
    newton_raphson,
    restrict,
    results_csv,
    run_matrix,
    steepest_descent,
    trajectory_csv,
)
from rosenbench.bench import rule_label
from rosenbench.linesearch import fmt_real

GOLDENS = Path(__file__).resolve().parent.parent / "rosenperf" / "goldens"
EPSILON = 1e-3
STARTS = ((2.0, 2.0), (5.0, 5.0))
KAPPAS = (1.0, 100.0)


@pytest.fixture(scope="module")
def rows():
    return run_matrix(ExperimentMatrix())


def report(criterion: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}")


def get_row(rows, method, label, kappa, start):
    for r in rows:
        if r.method == method and r.step_rule == label and r.kappa == kappa and r.x0 == start:
            return r
    raise AssertionError(f"missing matrix row ({method}, {label}, {kappa}, {start})")


def verdict(row) -> str:
    if row.status == "converged":
        return "converged"
    if row.status.startswith("diverged_"):
        return "diverged"
    return row.status


def check_verdicts(rows, alpha, expected):
    """expected: {(method, kappa, start): 'converged'|'diverged'}"""
    label = rule_label(Fixed(alpha))
    failures = []
    for (method, kappa, start), want in expected.items():
        got = verdict(get_row(rows, method, label, kappa, start))
        if got != want:
            failures.append(f"{method} kappa={kappa} x0={start}: want {want}, got {got}")
    return failures


def test_criterion_1_alpha_0_124(rows):
    expected = {
        ("sd", 1.0, (2.0, 2.0)): "converged",
        ("sd", 1.0, (5.0, 5.0)): "diverged",
        ("cg", 1.0, (2.0, 2.0)): "diverged",
        ("cg", 1.0, (5.0, 5.0)): "diverged",
        ("sd", 100.0, (2.0, 2.0)): "diverged",
        ("sd", 100.0, (5.0, 5.0)): "diverged",
        ("cg", 100.0, (2.0, 2.0)): "diverged",
        ("cg", 100.0, (5.0, 5.0)): "diverged",
    }
    failures = check_verdicts(rows, 0.124, expected)
    report("1 (alpha=0.124 verdicts)", not failures, "; ".join(failures))
    assert not failures


def test_criterion_2_alpha_0_0124(rows):
    expected = {}
    for method in ("sd", "cg"):
        for start in STARTS:
            expected[(method, 1.0, start)] = "converged"
            expected[(method, 100.0, start)] = "diverged"
    failures = check_verdicts(rows, 0.0124, expected)
    report("2 (alpha=0.0124 verdicts)", not failures, "; ".join(failures))
    assert not failures


def test_criterion_3_alpha_0_00124(rows):
    expected = {}
    for method in ("sd", "cg"):
        for start in STARTS:
            expected[(method, 1.0, start)] = "converged"
    expected[("sd", 100.0, (2.0, 2.0))] = "converged"
    expected[("sd", 100.0, (5.0, 5.0))] = "diverged"
    failures = check_verdicts(rows, 0.00124, expected)
    # CG at kappa=100 is recorded but not asserted.
    label = rule_label(Fixed(0.00124))
    recorded = {
        start: verdict(get_row(rows, "cg", label, 100.0, start)) for start in STARTS
    }
    report("3 (alpha=0.00124 verdicts)", not failures,
           "; ".join(failures) or f"cg kappa=100 recorded: {recorded}")
    assert not failures


def test_criterion_4_alpha_0_000124(rows):
    expected = {
        (method, kappa, start): "converged"
        for method in ("sd", "cg")
        for kappa in KAPPAS
        for start in STARTS
    }
    failures = check_verdicts(rows, 0.000124, expected)
    label = rule_label(Fixed(0.000124))
    worst = max(get_row(rows, m, label, k, s).iterations
                for m in ("sd", "cg") for k in KAPPAS for s in STARTS)
    report("4 (alpha=0.000124 all converge)", not failures,
           "; ".join(failures) or f"max iterations {worst} <= 10000000")
    assert not failures


def test_criterion_5_newton(rows):
    failures = []
    for kappa in KAPPAS:
        for start in STARTS:
            row = get_row(rows, "newton", "none", kappa, start)
            if row.status != "converged" or row.iterations > 50:
                failures.append(f"kappa={kappa} x0={start}: {row.status} in {row.iterations}")
    hand = newton_raphson(RosenbrockObjective(1.0), (0.0, 0.0))
    if not (hand.status is RunStatus.CONVERGED and hand.iterations == 2):
        failures.append(f"run from (0,0): {hand.status} in {hand.iterations}")
    if np.max(np.abs(hand.final_point - np.array([1.0, 1.0]))) > 1e-10:
        failures.append(f"run from (0,0) ended at {hand.final_point}")
    report("5 (Newton-Raphson)", not failures, "; ".join(failures))
    assert not failures


def test_criterion_6_golden_section_fastest(rows):
    failures = []
    details = []
    for start in STARTS:
        order = compare_sd_variants(rows, 1.0, start)
        counts = {}
        for r in rows:
            if r.method != "sd" or r.kappa != 1.0 or r.x0 != start:
                continue
            kind = r.step_rule.split(":", 1)[0]
            if kind == "fixed" and r.step_rule != rule_label(Fixed(0.000124)):
                continue
            counts[kind] = r.iterations
        details.append(f"x0={start}: order={order}")
        golden = counts["golden"]
        others = {k: v for k, v in counts.items() if k != "golden"}
        if order[0] != "golden-section" or golden >= min(others.values()):
            failures.append(f"x0={start}: golden-section is not strictly fastest ({counts})")
    report("6 (golden section strictly fastest, kappa=1)", not failures,
           "; ".join(failures) or "; ".join(details))
    assert not failures, (
        "the golden-section variant is not strictly fastest under the pinned "
        "deterministic defaults: " + "; ".join(failures)
    )


def test_criterion_7_variable_step_converges(rows):
    failures = []
    for kappa in KAPPAS:
        for start in STARTS:
            match = [r for r in rows
                     if r.method == "sd" and r.step_rule.startswith("variable:")
                     and r.kappa == kappa and r.x0 == start]
            assert len(match) == 1
            if match[0].status != "converged":
                failures.append(f"kappa={kappa} x0={start}: {match[0].status}")
    report("7 (variable step converges everywhere)", not failures, "; ".join(failures))
    assert not failures


def test_criterion_8_derivative_correctness():
    probes = np.linspace(-2.0, 2.0, 5)
    failures = []
    for kappa in KAPPAS:
        f = RosenbrockObjective(kappa)
        for a in probes:
            for b in probes:
                p = (float(a), float(b))
                pairs = [
                    ("gradient", f.gradient(p).ravel(),
                     finite_diff_gradient(f, p).ravel()),
                    ("hessian", f.hessian(p).ravel(),
                     finite_diff_hessian(f, p).ravel()),
                ]
                for what, analytic, fd in pairs:
                    for ai, fi in zip(analytic, fd):
                        err = abs(ai - fi)
                        if abs(ai) < 1e-3:
                            if err > 1e-7:
                                failures.append(f"{what} kappa={kappa} p={p}: abs err {err:.2e}")
                        elif err / abs(ai) > 1e-5:
                            failures.append(f"{what} kappa={kappa} p={p}: rel err {err/abs(ai):.2e}")
    report("8 (derivatives vs central differences)", not failures, "; ".join(failures[:3]))
    assert not failures


def test_criterion_9_line_search_oracles():
    failures = []

    class ScalarObjective:
        def __init__(self, fn):
            self.fn = fn

        def value(self, x):
            return float(self.fn(float(x[0])))

    # (a) quadratic fit recovers synthetic parabola vertices to 1e-10.
    rng = np.random.default_rng(101)
    for _ in range(100):
        a = float(rng.uniform(0.1, 50.0))
        vertex = float(rng.uniform(0.05, 5.0))
        b = -2.0 * a * vertex
        c = float(rng.uniform(-5.0, 5.0))
        line = restrict(ScalarObjective(lambda t, a=a, b=b, c=c: a * t * t + b * t + c),
                        [0.0], [1.0])
        while True:
            s = tuple(float(v) for v in rng.uniform(0.01, 6.0, 3))
            if len(set(s)) == 3:
                break
        got = QuadraticFit(s).select(line)
        if abs(got - vertex) > 1e-10 * abs(vertex):
            failures.append(f"quadfit vertex {vertex}: got {got}")

    # (b) golden section on (t-1)^2 over [0,2].
    line = restrict(ScalarObjective(lambda t: (t - 1.0) ** 2), [0.0], [1.0])
    got = GoldenSection(0.0, 2.0, 1e-6).select(line)
    if abs(got - 1.0) > 1e-6:
        failures.append(f"golden section got {got}")

    # (c) variable selection equals brute-force argmin on 100 random lines.
    rng = np.random.default_rng(103)
    for _ in range(100):
        obj = RosenbrockObjective(float(rng.uniform(0.5, 150.0)))
        x = rng.uniform(-3.0, 3.0, 2)
        d = rng.standard_normal(2)
        if not np.any(d != 0.0):
            continue
        line = restrict(obj, x, d)
        cands = tuple(float(v) for v in 10.0 ** rng.uniform(-5.0, 0.0, int(rng.integers(1, 6))))
        got = VariableCandidates(cands).select(line)
        want = min((line(aa), aa) for aa in cands)[1]
        if got != want:
            failures.append(f"variable on {cands}: got {got}, want {want}")

    report("9 (line-search oracles)", not failures, "; ".join(failures[:3]))
    assert not failures


def test_criterion_10_cg_theory():
    rng = np.random.default_rng(107)
    policy = TerminationPolicy(epsilon=1e-8)
    failures = []
    for n in (2, 5):
        for trial in range(10):
            M = rng.standard_normal((n, n))
            q = QuadraticObjective(M @ M.T + n * np.eye(n), rng.standard_normal(n))
            x0 = rng.standard_normal(n) * 3.0
            r = fletcher_reeves_cg(q, x0, ExactQuadratic(), policy)
            if r.status is not RunStatus.CONVERGED or r.iterations > n:
                failures.append(f"n={n} trial={trial}: CG {r.status} in {r.iterations}")
                continue
            pts = [rec.point for rec in r.trajectory]
            dirs = [b - a for a, b in zip(pts, pts[1:])]
            qnorm = float(np.linalg.norm(q.Q, 2))
            for i in range(len(dirs)):
                for j in range(i + 1, len(dirs)):
                    bound = 1e-6 * _n2(dirs[i]) * _n2(dirs[j]) * qnorm
                    if abs(float(dirs[i] @ q.Q @ dirs[j])) > bound:
                        failures.append(f"n={n} trial={trial}: conjugacy violated ({i},{j})")
            newton = newton_raphson(q, x0)
            if newton.status is not RunStatus.CONVERGED or newton.iterations != 1:
                failures.append(f"n={n} trial={trial}: Newton {newton.status} "
                                f"in {newton.iterations}")
    report("10 (CG finite termination and Q-conjugacy)", not failures, "; ".join(failures[:3]))
    assert not failures


def _n2(v) -> float:
    return math.hypot(*v)


def test_criterion_11_determinism(rows):
    first = results_csv(rows)
    second = results_csv(run_matrix(ExperimentMatrix()))
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    ok = strip(first) == strip(second)
    report("11 (bench matrix determinism)", ok)
    assert ok


def _strip_wall_ms(text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def test_matrix_bits_match_golden(rows):
    # Every iteration count, final value and gradient norm of the study, as
    # the benchmark's golden pinned them.
    golden = (GOLDENS / "matrix.csv").read_text().splitlines()
    got = _strip_wall_ms(results_csv(rows))
    mismatched = [f"{g!r} != {w!r}" for g, w in zip(got, golden) if g != w]
    report("matrix bits (results CSV vs golden)", got == golden, "; ".join(mismatched[:2]))
    assert got == golden


def linesearch_case(label: str):
    """(kappa, start, rule, policy) of a linesearch golden row, rebuilt from its label.

    A label reads "sd <rule> k=<kappa> x0=<x1>/<x2>"; a random quadfit rule
    is "quadfit_random:<seed>", capped at 500 iterations.
    """
    _, rule, kappa, start = label.split(" ")
    name, _, seed = rule.partition(":")
    rules = {"variable": VariableCandidates(), "quadfit": QuadraticFit(), "golden": GoldenSection()}
    policy = TerminationPolicy(max_iterations=500) if seed else TerminationPolicy()
    return (float(kappa.removeprefix("k=")),
            tuple(float(c) for c in start.removeprefix("x0=").split("/")),
            RandomQuadraticFit(seed=int(seed)) if seed else rules[name], policy)


def test_linesearch_bits_match_golden():
    # The adaptive-rule runs of the benchmark's seed-0 golden, the start
    # (-1.2, 1) and the seeded random quadfit rules among them.
    golden = (GOLDENS / "linesearch-seed0.csv").read_text().splitlines()
    got = []
    for row in golden:
        label = row.split(",", 1)[0]
        kappa, start, rule, policy = linesearch_case(label)
        r = steepest_descent(RosenbrockObjective(kappa), start, rule, policy,
                             record_trajectory=False)
        point = ";".join(fmt_real(c) for c in r.final_point)
        got.append(f"{label},{r.status.value},{r.iterations},{fmt_real(r.final_value)},"
                   f"{fmt_real(r.final_grad_norm)},{point}")
    mismatched = [f"{g!r} != {w!r}" for g, w in zip(got, golden) if g != w]
    report("linesearch bits (seed-0 rows vs golden)", got == golden, "; ".join(mismatched[:2]))
    assert len(golden) == 30 and got == golden


def emit_digests():
    """sha256 of each file the emit workload writes, by its label in emit.csv."""
    digests = {}
    for line in (GOLDENS / "emit.csv").read_text().splitlines():
        label, _, digest, _ = line.split(",", 3)
        digests[label] = digest
    return digests


def test_trajectory_bits_match_golden():
    # Whole recorded trajectories: every iterate, value, norm and step.
    digests = emit_digests()
    runs = {
        "run-sd": steepest_descent(RosenbrockObjective(1.0), (5.0, 5.0), Fixed(0.00124)),
        "run-cg": fletcher_reeves_cg(RosenbrockObjective(100.0), (2.0, 2.0), Fixed(0.000124)),
    }
    got = {label: hashlib.sha256(trajectory_csv(r).encode()).hexdigest()
           for label, r in runs.items()}
    ok = all(got[label] == digests[label] for label in runs)
    report("trajectory bits (sha256 vs golden)", ok)
    assert ok, got


def test_contour_grid_bits_match_golden():
    # Both default 401x401 grids, as `rosenbench contour` writes them.
    digests = emit_digests()
    got = {f"contour-k{kappa:g}": hashlib.sha256(grid_csv(contour_grid(kappa)).encode()).hexdigest()
           for kappa in KAPPAS}
    ok = all(got[label] == digests[label] for label in got)
    report("contour grid bits (sha256 vs golden)", ok)
    assert ok, got
