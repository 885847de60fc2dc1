"""Property tests: every validated run ends in a reproducible RunResult.

Hypothesis draws kappa, a finite start, a termination policy and every
parameter of each step rule; Newton-Raphson, which has no step rule, is
drawn with the same objectives, starts and policies.  Anything that passes
construction-time validation must run to a status -- without raising,
without a warning and with the same bits on a repeat run -- and report
`converged` exactly when its final gradient norm is at most epsilon.  The
same holds on quadratics 0.5 x'Qx - x'b of dimension up to 6, whose SPD Q
is drawn from a seeded spectrum and whose start and b span magnitudes down
to the subnormals.  Every rule's label parses back to the rule, and every
argv drawn from the command-line flags exits 0, 1 or 2 without a traceback
or a warning.  Iteration caps stay small so the suite stays fast; the
examples are derandomized so it is repeatable.
"""

import contextlib
import io
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rosenbench import (
    ExactQuadratic,
    Fixed,
    GoldenSection,
    InvalidInputError,
    QuadraticFit,
    QuadraticObjective,
    RandomQuadraticFit,
    RosenbrockObjective,
    RunStatus,
    TerminationPolicy,
    VariableCandidates,
    fletcher_reeves_cg,
    newton_raphson,
    steepest_descent,
)
from rosenbench.cli import main
from rosenbench.linesearch import parse_rule

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
QUADRATIC_SETTINGS = settings(SETTINGS, max_examples=80)


def positive(max_value: float = 1e300):
    return st.floats(min_value=0.0, max_value=max_value, exclude_min=True)


def valid(build, *args):
    """The rule or policy `build(*args)`, or a rejected example if validation refuses it."""
    try:
        return build(*args)
    except InvalidInputError:
        assume(False)


@st.composite
def policies(draw):
    epsilon = draw(st.floats(min_value=1e-300, max_value=10.0))
    blowup = draw(st.one_of(positive(), st.just(math.inf)))
    return valid(TerminationPolicy, epsilon, draw(st.integers(1, 40)), blowup)


@st.composite
def step_rules(draw, kinds=("fixed", "variable", "quadfit", "random", "golden")):
    kind = draw(st.sampled_from(kinds))
    if kind == "fixed":
        return Fixed(draw(positive()))
    if kind == "variable":
        return VariableCandidates(tuple(draw(st.lists(positive(), min_size=1, max_size=5))))
    if kind == "quadfit":
        samples = draw(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=3,
                                max_size=3, unique=True))
        return QuadraticFit(tuple(samples))
    if kind == "random":
        lo = draw(positive(1e3))
        hi = draw(st.floats(min_value=lo, max_value=1e6, exclude_min=True))
        return valid(RandomQuadraticFit, lo, hi, draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.floats(min_value=0.0, max_value=1e3))
    width_tol = draw(st.floats(min_value=1e-12, max_value=1.0))
    hi = lo + width_tol * draw(st.floats(min_value=1.0, max_value=1e12, exclude_min=True))
    return valid(GoldenSection, lo, hi, width_tol)


kappas = positive(1e12)
starts = st.tuples(*[st.floats(min_value=-1e8, max_value=1e8)] * 2)
drivers = st.sampled_from((steepest_descent, fletcher_reeves_cg))


@st.composite
def quadratic_problems(draw):
    """An SPD quadratic of dimension n <= 6 and a start, both from one seed."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q = (basis * 10.0 ** rng.uniform(-3.0, 3.0, n)) @ basis.T
    scale = 10.0 ** draw(st.integers(-330, 8))
    b = scale * draw(st.sampled_from((0.0, 1.0))) * rng.standard_normal(n)
    return valid(QuadraticObjective, 0.5 * (Q + Q.T), b), scale * rng.standard_normal(n)


quadratic_rules = st.one_of(st.just(ExactQuadratic()), step_rules())


def run(driver, objective, x0, *args):
    """One run, with warnings as errors; `args` is (rule, policy), or (policy,) for Newton."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return driver(objective, x0, *args)


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def check_status(driver, objective, x0, *args):
    policy = args[-1]
    result = run(driver, objective, x0, *args)
    assert result.status in RunStatus
    assert 0 <= result.iterations <= policy.max_iterations
    assert (result.final_grad_norm <= policy.epsilon) == (result.status is RunStatus.CONVERGED)
    assert result.trajectory[-1].k == result.iterations


def check_same_bits(driver, objective, x0, *args):
    a = run(driver, objective, x0, *args)
    b = run(driver, objective, x0, *args)
    assert (a.status, a.divergence_reason, a.iterations) == (b.status, b.divergence_reason,
                                                             b.iterations)
    assert a.final_point.tobytes() == b.final_point.tobytes()
    assert same_float(a.final_value, b.final_value)
    assert same_float(a.final_grad_norm, b.final_grad_norm)
    assert len(a.trajectory) == len(b.trajectory)
    for ra, rb in zip(a.trajectory, b.trajectory):
        assert ra.point.tobytes() == rb.point.tobytes()
        assert same_float(ra.value, rb.value) and same_float(ra.grad_norm, rb.grad_norm)
        assert ra.alpha_used == rb.alpha_used


@SETTINGS
@given(drivers, kappas, starts, step_rules(), policies())
def test_validated_run_completes_and_reports_its_status(driver, kappa, x0, rule, policy):
    check_status(driver, RosenbrockObjective(kappa), x0, rule, policy)


@SETTINGS
@given(drivers, kappas, starts, step_rules(), policies())
def test_repeat_run_gives_the_same_bits(driver, kappa, x0, rule, policy):
    check_same_bits(driver, RosenbrockObjective(kappa), x0, rule, policy)


@QUADRATIC_SETTINGS
@given(drivers, quadratic_problems(), quadratic_rules, policies())
def test_validated_quadratic_run_completes_and_reports_its_status(driver, problem, rule, policy):
    check_status(driver, *problem, rule, policy)


@QUADRATIC_SETTINGS
@given(drivers, quadratic_problems(), quadratic_rules, policies())
def test_repeat_quadratic_run_gives_the_same_bits(driver, problem, rule, policy):
    check_same_bits(driver, *problem, rule, policy)


@SETTINGS
@given(kappas, starts, policies())
def test_newton_run_completes_repeats_and_reports_its_status(kappa, x0, policy):
    check_status(newton_raphson, RosenbrockObjective(kappa), x0, policy)
    check_same_bits(newton_raphson, RosenbrockObjective(kappa), x0, policy)


@QUADRATIC_SETTINGS
@given(quadratic_problems(), policies())
def test_newton_quadratic_run_completes_repeats_and_reports_its_status(problem, policy):
    check_status(newton_raphson, *problem, policy)
    check_same_bits(newton_raphson, *problem, policy)


@SETTINGS
@given(st.one_of(step_rules(), st.just(ExactQuadratic())))
def test_label_parses_back_to_the_rule(rule):
    assert parse_rule(rule.label()) == rule


def mostly(common, odd):
    """`common` three times in four, else `odd`."""
    return st.integers(0, 3).flatmap(lambda i: common if i < 3 else odd)


reals = mostly(
    st.floats(min_value=1e-6, max_value=1e3).map(repr),
    st.one_of(st.sampled_from(("0", "-1", "1e308", "-1e308", "5e-324")), st.floats().map(repr)),
)
step_texts = mostly(
    step_rules().map(lambda rule: rule.label()),
    st.one_of(
        st.sampled_from(("exact-quadratic", "brent:0.1", "quadfit-random:1e-5,1e-4,seed=-1")),
        st.builds(lambda kind, values, sep: f"{kind}:{sep.join(values)}",
                  st.sampled_from(("fixed", "variable", "quadfit", "quadfit-random", "golden")),
                  st.lists(reals, max_size=4), st.sampled_from((",", ":"))),
    ),
)
usually = st.integers(0, 9).map(lambda i: i < 9)
rarely = st.integers(0, 9).map(lambda i: i == 9)


@st.composite
def cli_argvs(draw, out_dir):
    """An argv of one subcommand, mostly of flags that belong together."""
    def flag(name, values, present=st.booleans()):
        return [f"--{name}={draw(values)}"] if draw(present) else []

    paths = st.sampled_from((out_dir / "out.csv", out_dir / "missing" / "out.csv"))
    command = draw(st.sampled_from(("run", "bench", "contour", "checkgrad")))
    argv = [command]
    if command in ("run", "bench"):
        argv += [f"--max-iter={draw(st.integers(-1, 50))}"]
        argv += flag("eps", reals) + flag("blowup", reals)
    if command == "run":
        method = draw(st.sampled_from(("sd", "newton", "cg")))
        argv += [f"--method={method}"]
        argv += flag("step", step_texts, rarely if method == "newton" else usually)
        argv += flag("kappa", reals) + flag("traj", paths)
        argv += flag("start", st.builds(lambda a, b: f"{a},{b}", reals, reals))
        argv += flag("restart", st.integers(-1, 5), st.booleans() if method == "cg" else rarely)
        argv += flag("seed", st.integers(-1, 2**32), rarely)
    if command == "bench":
        argv += flag("out", paths)
    if command == "contour":
        argv += [f"--resolution={draw(st.integers(-1, 64))}"]
        for name in ("kappa", "xmin", "xmax", "ymin", "ymax"):
            argv += flag(name, reals)
        argv += flag("out", paths)
    if command == "checkgrad":
        argv += flag("kappa", reals)
    return argv


@settings(SETTINGS, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_exits_0_1_or_2_without_a_traceback_or_a_warning(tmp_path, data):
    argv = data.draw(cli_argvs(tmp_path))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a usage error
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
