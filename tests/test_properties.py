"""Property tests: every validated run ends in a reproducible RunResult.

Hypothesis draws kappa, a finite start, a termination policy and every
parameter of each step rule; Newton-Raphson, which has no step rule, is
drawn with the same objectives, starts and policies.  Anything that passes
construction-time validation must run to a status -- without raising,
without a warning and with the same bits on a repeat run -- and report
`converged` exactly when its final gradient norm is at most epsilon.  The
same holds on quadratics 0.5 x'Qx - x'b of dimension up to 6, whose SPD Q
is drawn from a seeded spectrum and whose start and b span magnitudes down
to the subnormals.  Every scalar argument that validation refuses (text, a
bool, None, a complex number, nan, an infinity or a value out of range),
every tuple field that is not a sequence and every point of non-reals
raises InvalidInputError and nothing else.  The valley's phi equals its
fused f along the line bit for bit, or +inf where that overflows.  Every
rule's label parses back to the rule, and every argv drawn from the
command-line flags exits 0, 1 or 2 without a traceback or a warning.
Iteration caps stay small so the suite stays fast; the examples are
derandomized so it is repeatable.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rosenbench import (
    ExactQuadratic,
    ExperimentMatrix,
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
    contour_grid,
    finite_diff_gradient,
    finite_diff_hessian,
    fletcher_reeves_cg,
    newton_raphson,
    restrict,
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
    assert (a.status, a.iterations) == (b.status, b.iterations)
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


def bad_reals(out_of_range, inf_ok=False):
    """What a real parameter refuses: text, bools, None, complex numbers, nan,
    the infinities (but +inf where `inf_ok`) and its `out_of_range` reals."""
    infinities = (-math.inf,) if inf_ok else (-math.inf, math.inf)
    return st.one_of(st.text(max_size=8), st.booleans(), st.none(), st.complex_numbers(),
                     st.sampled_from((math.nan,) + infinities), out_of_range)


def bad_counts(low, none_ok=False):
    """What an integer parameter of at least `low` refuses; None too unless `none_ok`."""
    bad = st.one_of(st.text(max_size=8), st.booleans(), st.complex_numbers(), st.floats(),
                    st.integers(max_value=low - 1))
    return bad if none_ok else st.one_of(bad, st.none())


# (v, v) is a point of non-reals: numpy would read (True, 2.0) as a float pair.
bad_points = bad_reals(st.nothing()).map(lambda v: (v, v))
# What a tuple field or a point refuses as a whole.
non_sequences = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(),
                          st.complex_numbers())
# A direction of non-reals; a nan or inf one is an InvalidDirectionError.
non_real_directions = st.one_of(
    st.one_of(st.text(max_size=8), st.booleans(), st.none(), st.complex_numbers()).map(
        lambda v: (v, v)),
    non_sequences)
not_positive = st.floats(max_value=0.0)
negative = st.floats(max_value=-5e-324)
valley = RosenbrockObjective()
REFUSALS = {
    "Fixed.alpha": (Fixed, bad_reals(not_positive)),
    "VariableCandidates.alphas": (lambda v: VariableCandidates((0.1, v)), bad_reals(not_positive)),
    "QuadraticFit.sample_alphas": (lambda v: QuadraticFit((1e-5, 6.7e-5, v)), bad_reals(negative)),
    "RandomQuadraticFit.lo": (lambda v: RandomQuadraticFit(lo=v), bad_reals(not_positive)),
    "RandomQuadraticFit.hi": (lambda v: RandomQuadraticFit(hi=v),
                              bad_reals(st.floats(max_value=1e-5))),
    "RandomQuadraticFit.seed": (lambda v: RandomQuadraticFit(seed=v), bad_counts(0)),
    "GoldenSection.lo": (lambda v: GoldenSection(lo=v), bad_reals(negative)),
    "GoldenSection.hi": (lambda v: GoldenSection(hi=v), bad_reals(st.floats(max_value=1.24e-6))),
    "GoldenSection.width_tol": (lambda v: GoldenSection(width_tol=v), bad_reals(not_positive)),
    "TerminationPolicy.epsilon": (lambda v: TerminationPolicy(epsilon=v),
                                  bad_reals(not_positive)),
    "TerminationPolicy.max_iterations": (lambda v: TerminationPolicy(max_iterations=v),
                                         bad_counts(1)),
    "TerminationPolicy.blowup_norm": (lambda v: TerminationPolicy(blowup_norm=v),
                                      bad_reals(st.floats(max_value=1e-3), inf_ok=True)),
    "RosenbrockObjective.kappa": (RosenbrockObjective, bad_reals(not_positive)),
    "ExperimentMatrix.kappas": (lambda v: ExperimentMatrix(kappas=(1.0, v)),
                                bad_reals(not_positive)),
    "ExperimentMatrix.starts": (lambda v: ExperimentMatrix(starts=((2.0, 2.0), v)), bad_points),
    "ExperimentMatrix.fixed_alphas": (lambda v: ExperimentMatrix(fixed_alphas=(0.1, v)),
                                      bad_reals(not_positive)),
    "ExperimentMatrix.policy": (lambda v: ExperimentMatrix(policy=v), bad_reals(st.floats())),
    "contour_grid.resolution": (lambda v: contour_grid(1.0, resolution=v), bad_counts(2)),
    "fletcher_reeves_cg.restart_period": (
        lambda v: fletcher_reeves_cg(valley, (2.0, 2.0), Fixed(0.1), restart_period=v),
        bad_counts(1, none_ok=True)),
    "finite_diff_gradient.h": (lambda v: finite_diff_gradient(valley, (2.0, 2.0), v),
                               bad_reals(not_positive)),
    "finite_diff_hessian.h": (lambda v: finite_diff_hessian(valley, (2.0, 2.0), v),
                              bad_reals(not_positive)),
    "steepest_descent.x0": (lambda v: steepest_descent(valley, v, Fixed(0.1)), bad_points),
    "fletcher_reeves_cg.x0": (lambda v: fletcher_reeves_cg(valley, v, Fixed(0.1)), bad_points),
    "newton_raphson.x0": (lambda v: newton_raphson(valley, v), bad_points),
    "RosenbrockObjective.value": (valley.value, st.one_of(bad_points, non_sequences)),
    "RosenbrockObjective.gradient": (valley.gradient, st.one_of(bad_points, non_sequences)),
    "RosenbrockObjective.hessian": (valley.hessian, st.one_of(bad_points, non_sequences)),
    "restrict.d": (lambda v: restrict(valley, (2.0, 2.0), v), non_real_directions),
    "VariableCandidates(non-sequence)": (VariableCandidates, non_sequences),
    "QuadraticFit(non-sequence)": (QuadraticFit, non_sequences),
    "ExperimentMatrix(kappas=non-sequence)": (lambda v: ExperimentMatrix(kappas=v),
                                              non_sequences),
    "ExperimentMatrix(starts=non-sequence)": (lambda v: ExperimentMatrix(starts=v),
                                              non_sequences),
    "ExperimentMatrix(fixed_alphas=non-sequence)": (lambda v: ExperimentMatrix(fixed_alphas=v),
                                                    non_sequences),
}


@pytest.mark.parametrize("call, values", REFUSALS.values(), ids=REFUSALS.keys())
@settings(SETTINGS, max_examples=40)
@given(st.data())
def test_refused_argument_raises_invalid_input_error_only(call, values, data):
    value = data.draw(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            call(value)


finite = st.floats(allow_nan=False, allow_infinity=False)


@SETTINGS
@given(st.floats(min_value=1e-5, max_value=1e11), finite, finite, finite, finite,
       st.floats(min_value=0.0))
def test_line_is_f_along_the_line(kappa, x1, x2, d1, d2, a):
    # phi(a) is value_and_gradient's f at (x1 + a*d1, x2 + a*d2), bit for bit,
    # where that is finite, and +inf where it is not: the points and steps
    # span the whole float range, so many of them overflow.
    obj = RosenbrockObjective(kappa)
    y = obj.line((x1, x2), (d1, d2))(a)
    f = obj.value_and_gradient((x1 + a * d1, x2 + a * d2))[0]
    assert type(y) is float
    assert y.hex() == (f if math.isfinite(f) else math.inf).hex()


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
