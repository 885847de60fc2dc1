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
bool, None, a complex number, a 0-d array, a Fraction, an integer beyond
64 bits, nan, an infinity or a value out of range),
every tuple field or point that is not a sequence (bytes, text, a set, a
dict or an iterator among them) and every point of non-reals raises
InvalidInputError and nothing else.  Every rule's select on a restriction
of the valley or a quadratic, through points and directions from the
subnormals up to 1e308, returns a float or raises a package error, without
a warning.  The valley's phi equals its
fused f along the line bit for bit, or +inf where that overflows.  Every
rule's label parses back to the rule, and every argv drawn from the
command-line flags exits 0, 1 or 2 without a traceback or a warning.
Iteration caps stay small so the suite stays fast; the examples are
derandomized so it is repeatable.
"""

import contextlib
import io
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rosenbench import (
    ExactQuadratic,
    ExperimentMatrix,
    Fixed,
    GoldenSection,
    IncomparableVariantsError,
    InvalidDirectionError,
    InvalidInputError,
    LineSearchFailedError,
    QuadraticFit,
    QuadraticObjective,
    RandomQuadraticFit,
    RosenbrockObjective,
    RunStatus,
    TerminationPolicy,
    VariableCandidates,
    compare_sd_variants,
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
from rosenbench.optimize import _guard_edge

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
    """What a real parameter refuses: text, bools, None, complex numbers, 0-d arrays
    (bool or float), a Fraction, an integer that numpy holds in no 64-bit type, nan,
    the infinities (but +inf where `inf_ok`) and its `out_of_range` reals."""
    infinities = (-math.inf,) if inf_ok else (-math.inf, math.inf)
    not_reals = (np.array(True), np.array(0.5), Fraction(1, 2), 2**70, -2**63 - 1)
    return st.one_of(st.text(max_size=8), st.booleans(), st.none(), st.complex_numbers(),
                     st.sampled_from(not_reals + (math.nan,) + infinities), out_of_range)


def bad_counts(low, none_ok=False):
    """What an integer parameter of at least `low` refuses; None too unless `none_ok`."""
    bad = st.one_of(st.text(max_size=8), st.booleans(), st.complex_numbers(), st.floats(),
                    st.integers(max_value=low - 1))
    return bad if none_ok else st.one_of(bad, st.none())


# A point of non-reals, (v, v), or one non-real beside a float: numpy reads
# (True, 2.0) as a float pair.  Or a container that unpacks into two reals
# but is not a sequence of them: bytes give their codes, a set its iteration
# order, a dict its keys.
bad_points = st.one_of(
    bad_reals(st.nothing()).flatmap(lambda v: st.sampled_from(((v, v), (v, 2.0)))),
    st.sampled_from((b"ab", bytearray(b"ab"), memoryview(b"ab"), frozenset((1.0, 2.0)),
                     {2.0, 1.0}, {1.0: "a", 2.0: "b"})),
    st.builds(iter, st.just((1.0, 2.0))))


def containers(*elements):
    """Containers of valid `elements` that are not sequences: a set, a frozenset, a dict
    and an iterator; and bytes, a bytearray and text, which give codes or characters."""
    return st.one_of(st.sampled_from((set(elements), frozenset(elements),
                                      dict.fromkeys(elements), b"abc", bytearray(b"abc"),
                                      "abc")),
                     st.builds(iter, st.just(elements)))


# What a tuple field or a point refuses as a whole.
non_sequences = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(),
                          st.complex_numbers())
# A direction of non-reals; a nan or inf one is an InvalidDirectionError.
non_real_directions = st.one_of(
    st.one_of(st.text(max_size=8), st.booleans(), st.none(), st.complex_numbers()).flatmap(
        lambda v: st.sampled_from(((v, v), (v, 0.5)))),
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
    # A tolerance of one subnormal leaves a final half-width of 0.0.
    "GoldenSection.width_tol": (lambda v: GoldenSection(width_tol=v),
                                bad_reals(st.one_of(not_positive, st.just(5e-324)))),
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
    # A range is read like a point: neither "-2" nor True is a number.
    "contour_grid.x_range": (lambda v: contour_grid(1.0, v, resolution=2),
                             st.one_of(st.just(("-2", 6.0)), bad_points, non_sequences)),
    "fletcher_reeves_cg.restart_period": (
        lambda v: fletcher_reeves_cg(valley, (2.0, 2.0), Fixed(0.1), restart_period=v),
        bad_counts(1, none_ok=True)),
    "finite_diff_gradient.h": (lambda v: finite_diff_gradient(valley, (2.0, 2.0), v),
                               bad_reals(not_positive)),
    # Below about 1.57e-162, h*h, the divisor, is zero.
    "finite_diff_hessian.h": (lambda v: finite_diff_hessian(valley, (2.0, 2.0), v),
                              bad_reals(st.floats(max_value=1.5e-162))),
    # Rows are never looked at: the arguments are judged first.
    "compare_sd_variants.kappa": (lambda v: compare_sd_variants([], v, (2.0, 2.0)),
                                  bad_reals(not_positive)),
    "compare_sd_variants.start": (lambda v: compare_sd_variants([], 1.0, v),
                                  st.one_of(st.sampled_from(("22", (2.0,), (2.0, 2.0, 7.0))),
                                            bad_points, non_sequences)),
    "steepest_descent.x0": (lambda v: steepest_descent(valley, v, Fixed(0.1)), bad_points),
    "fletcher_reeves_cg.x0": (lambda v: fletcher_reeves_cg(valley, v, Fixed(0.1)), bad_points),
    "newton_raphson.x0": (lambda v: newton_raphson(valley, v), bad_points),
    "steepest_descent.policy": (lambda v: steepest_descent(valley, (2.0, 2.0), Fixed(0.1), v),
                                bad_reals(st.floats())),
    "fletcher_reeves_cg.policy": (lambda v: fletcher_reeves_cg(valley, (2.0, 2.0), Fixed(0.1), v),
                                  bad_reals(st.floats())),
    "newton_raphson.policy": (lambda v: newton_raphson(valley, (2.0, 2.0), v),
                              bad_reals(st.floats())),
    "RosenbrockObjective.value": (valley.value, st.one_of(bad_points, non_sequences)),
    "RosenbrockObjective.gradient": (valley.gradient, st.one_of(bad_points, non_sequences)),
    "RosenbrockObjective.hessian": (valley.hessian, st.one_of(bad_points, non_sequences)),
    "restrict.d": (lambda v: restrict(valley, (2.0, 2.0), v), non_real_directions),
    "VariableCandidates(non-sequence)": (
        VariableCandidates, st.one_of(non_sequences, containers(0.3, 0.1, 0.2))),
    "QuadraticFit(non-sequence)": (
        QuadraticFit, st.one_of(non_sequences, containers(1e-5, 6.7e-5, 1.24e-4))),
    "ExperimentMatrix(kappas=non-sequence)": (lambda v: ExperimentMatrix(kappas=v),
                                              st.one_of(non_sequences, containers(100.0, 1.0))),
    "ExperimentMatrix(starts=non-sequence)": (
        lambda v: ExperimentMatrix(starts=v),
        st.one_of(non_sequences, containers((2.0, 2.0), (5.0, 5.0)))),
    "ExperimentMatrix(fixed_alphas=non-sequence)": (lambda v: ExperimentMatrix(fixed_alphas=v),
                                                    st.one_of(non_sequences,
                                                              containers(0.124, 0.0124))),
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

PACKAGE_ERRORS = (IncomparableVariantsError, InvalidDirectionError, InvalidInputError,
                  LineSearchFailedError)
SELECT_OBJECTIVES = (
    RosenbrockObjective(1.0), RosenbrockObjective(1e300), RosenbrockObjective(5e-324),
    QuadraticObjective(np.eye(2), [0.0, 0.0]),
    QuadraticObjective([[3.0, 1.0], [1.0, 2.0]], [1.0, -1.0]),
)
# Subnormals up to the largest magnitudes a point or a direction may take.
coordinates = st.one_of(st.floats(min_value=-1e308, max_value=1e308),
                        st.sampled_from((0.0, 5e-324, -5e-324, 1e308, -1e308)))


@settings(SETTINGS, max_examples=300)
@given(st.sampled_from(SELECT_OBJECTIVES), st.tuples(coordinates, coordinates),
       st.tuples(coordinates, coordinates), st.one_of(step_rules(), st.just(ExactQuadratic())))
def test_select_outside_a_run_returns_a_float_or_a_package_error(objective, x, d, rule):
    # Outside a run's errstate, where the user calls a rule on restrict(), an
    # overflow or a singular parabola fit must stay silent too.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            step = rule.select(restrict(objective, x, d))
        except PACKAGE_ERRORS:
            return
    assert type(step) is float
    # An exact step is negative where d climbs; every other rule steps forward, finitely.
    assert isinstance(rule, ExactQuadratic) or 0.0 < step < math.inf


@SETTINGS
@given(st.floats(min_value=1e-5, max_value=1e11), finite, finite, finite, finite,
       st.floats(min_value=0.0))
def test_line_is_f_along_the_line(kappa, x1, x2, d1, d2, a):
    # phi(a) is value_and_gradient's f at (x1 + a*d1, x2 + a*d2), bit for bit,
    # where that is finite, and +inf where it is not: the points and steps
    # span the whole float range, so many of them overflow.
    obj = RosenbrockObjective(kappa)
    y = obj.line((x1, x2), (d1, d2))(a)
    f = obj.value_and_gradient(x1 + a * d1, x2 + a * d2)[0]
    assert type(y) is float
    assert y.hex() == (f if math.isfinite(f) else math.inf).hex()


# The two premises of the float-pair loop's guard, over the whole float
# range, subnormals included: a gradient with a component beyond epsilon
# has a norm beyond it, and an iterate inside the box of _guard_edge has a
# finite norm no larger than blowup_norm, so both skip their tests safely.
@SETTINGS
@given(finite, finite)
def test_hypot_is_at_least_either_component(a, b):
    assert math.hypot(a, b) >= max(abs(a), abs(b))


@SETTINGS
@given(st.one_of(st.floats(min_value=5e-324), st.sampled_from(
    (5e-324, 1e-308, 1.0, math.nextafter(sys.float_info.max, 0.0), sys.float_info.max))),
    st.data())
def test_inside_the_guard_box_the_norm_is_finite_and_at_most_blowup(blowup, data):
    edge = _guard_edge(blowup)
    assert 0.0 <= edge < math.inf
    largest_inside = math.nextafter(edge, 0.0)
    coordinate = st.one_of(
        st.sampled_from((largest_inside, -largest_inside, 0.0)),
        st.floats(min_value=-1.0, max_value=1.0).map(lambda u: u * largest_inside))
    x1, x2 = data.draw(coordinate), data.draw(coordinate)
    assert -edge < x1 < edge and -edge < x2 < edge
    norm = math.hypot(x1, x2)
    assert math.isfinite(norm) and norm <= blowup


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
