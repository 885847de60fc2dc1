"""Tests for the iteration drivers and termination policy."""

import dataclasses
import math
import sys
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
    restrict,
    select_step,
    steepest_descent,
)
from rosenbench.optimize import fletcher_reeves_beta

POLICY = TerminationPolicy()


def random_spd_objective(rng, n):
    M = rng.standard_normal((n, n))
    return QuadraticObjective(M @ M.T + n * np.eye(n), rng.standard_normal(n))


def sd(objective, x0, policy=POLICY):
    return steepest_descent(objective, x0, Fixed(0.5), policy)


def cg(objective, x0, policy=POLICY):
    return fletcher_reeves_cg(objective, x0, Fixed(0.5), policy)


DRIVERS = (sd, cg, newton_raphson)
BOWL = QuadraticObjective(np.eye(2), [0.0, 0.0])


class SteepWall:
    """f = 0 with gradient (g1, 0) and Hessian 1e-150*I everywhere.

    From x1 = 1.5e308, a g1 of -1e308 sends the first step of every driver
    (a step of 0.5, or the Newton step of 1e458) to inf; a nan g1 gives it a
    nan component.
    """

    def __init__(self, g1):
        self.g1 = g1
        self.evaluated = []

    def value(self, x):
        self.evaluated.append(x.tolist())
        return 0.0

    def gradient(self, x):
        return np.array([self.g1, 0.0])

    def hessian(self, x):
        return 1e-150 * np.eye(2)


def refused_next_iterates(g1):
    """Each driver's final point after its first step from SteepWall(g1), which it refuses."""
    points = []
    for driver in DRIVERS:
        objective = SteepWall(g1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = driver(objective, (1.5e308, 0.0), TerminationPolicy(blowup_norm=sys.float_info.max))
        assert (r.status, r.iterations) == (RunStatus.DIVERGED_NONFINITE, 1), driver.__name__
        assert math.isnan(r.final_value) and math.isnan(r.final_grad_norm)
        assert objective.evaluated == [[1.5e308, 0.0]]
        points.append(r.final_point)
    return points


class TestCheckConvergence:
    """Every driver's convergence test, at the start of a run."""

    def test_zero_gradient(self):
        for driver in DRIVERS:
            r = driver(BOWL, (0.0, 0.0))
            assert (r.status, r.iterations, r.final_grad_norm) == (RunStatus.CONVERGED, 0, 0.0)

    def test_large_gradient(self):
        for driver in DRIVERS:
            r = driver(RosenbrockObjective(1.0), (2.0, 2.0), TerminationPolicy(max_iterations=1))
            assert r.trajectory[0].grad_norm == math.hypot(18.0, -4.0)
            assert r.iterations == 1, driver.__name__

    def test_boundary_is_inclusive(self):
        # ||(6e-4, 8e-4)|| is exactly 1e-3 in binary64.
        assert math.hypot(6e-4, 8e-4) == 1e-3
        for driver in DRIVERS:
            r = driver(BOWL, (6e-4, 8e-4), TerminationPolicy(epsilon=1e-3))
            assert (r.status, r.iterations, r.final_grad_norm) == (RunStatus.CONVERGED, 0, 1e-3)


class TestDetectDivergence:
    """Every driver's divergence tests, at the start of a run and after one step."""

    def test_blowup(self):
        for driver in DRIVERS:
            r = driver(BOWL, (1e9, 0.0))
            assert (r.status, r.iterations) == (RunStatus.DIVERGED_BLOWUP, 0), driver.__name__

    def test_healthy(self):
        for driver in DRIVERS:
            r = driver(RosenbrockObjective(1.0), (2.0, 2.0), TerminationPolicy(max_iterations=1))
            assert r.trajectory[0].value == 5.0
            assert r.iterations == 1 and r.status is RunStatus.MAX_ITERATIONS, driver.__name__

    def test_nan_value(self):
        class NanValue(SteepWall):
            def value(self, x):
                return math.nan

        for driver in DRIVERS:
            r = driver(NanValue(1.0), (2.0, 2.0))
            assert (r.status, r.iterations) == (RunStatus.DIVERGED_NONFINITE, 0), driver.__name__
            assert math.isnan(r.final_value)

    def test_nan_component(self):
        assert all(math.isnan(p[0]) for p in refused_next_iterates(math.nan))

    def test_inf_component_is_refused_as_nonfinite(self):
        # The step overflows.  An iterate with an inf component is refused
        # before it is evaluated, as non-finite rather than as a blow-up.
        assert all(p[0] == math.inf for p in refused_next_iterates(-1e308))


class TestTerminationPolicy:
    def test_defaults(self):
        assert POLICY.epsilon == 1e-3
        assert POLICY.max_iterations == 10_000_000
        assert POLICY.blowup_norm == 1e8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"max_iterations": 0},
            {"blowup_norm": 1e-9},  # must exceed epsilon
            # The cap is met by k == max_iterations, so it must be an integer.
            {"max_iterations": 2.5},
            {"max_iterations": math.inf},
            {"max_iterations": True},
            {"max_iterations": "3"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidInputError):
            TerminationPolicy(**kwargs)


class TestSteepestDescent:
    def test_converges_from_2_2(self):
        r = steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), Fixed(0.124))
        assert r.status is RunStatus.CONVERGED
        assert r.final_grad_norm <= 1e-3

    def test_diverges_from_5_5(self):
        r = steepest_descent(RosenbrockObjective(1.0), (5.0, 5.0), Fixed(0.124))
        assert r.status is RunStatus.DIVERGED_BLOWUP

    def test_start_at_minimum_is_zero_iterations(self):
        for rule in (Fixed(0.124), VariableCandidates((0.1, 0.2))):
            r = steepest_descent(RosenbrockObjective(1.0), (1.0, 1.0), rule)
            assert r.status is RunStatus.CONVERGED
            assert r.iterations == 0
            assert len(r.trajectory) == 1

    def test_unknown_rule_is_refused_before_any_evaluation(self):
        objective = SteepWall(1.0)
        # None is not Newton-Raphson, which is a driver of its own.
        for rule, reason in (("fixed:0.5", "unknown step rule"), (None, "needs a step rule")):
            for driver in (steepest_descent, fletcher_reeves_cg):
                with pytest.raises(InvalidInputError, match=reason):
                    driver(objective, (1.0, 0.0), rule)
        assert objective.evaluated == []

    def test_first_iterate_hand_computed(self):
        # (2,2) - 0.0124*(18,-4) = (1.7768, 2.0496)
        r = steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), Fixed(0.0124))
        assert_allclose(r.trajectory[1].point, (1.7768, 2.0496), rtol=1e-12)
        assert r.trajectory[1].alpha_used == 0.0124

    def test_trajectory_structure(self):
        x0 = (2.0, 2.0)
        obj = RosenbrockObjective(1.0)
        r = steepest_descent(obj, x0, Fixed(0.124))
        assert_allclose(r.trajectory[0].point, x0, rtol=0, atol=0)
        assert r.trajectory[0].alpha_used == 0.0
        ks = [rec.k for rec in r.trajectory]
        assert ks == list(range(len(ks)))
        assert r.trajectory[-1].k == r.iterations
        # Reported gradient norm is reproducible from the final point.
        gn = math.hypot(*obj.gradient(r.final_point))
        assert abs(gn - r.final_grad_norm) <= 1e-12

    def test_max_iterations_exceeded(self):
        policy = TerminationPolicy(epsilon=1e-3, max_iterations=5, blowup_norm=1e8)
        r = steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), Fixed(0.0124), policy)
        assert r.status is RunStatus.MAX_ITERATIONS
        assert r.iterations == 5

    def test_record_off_keeps_endpoints(self):
        r = steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), Fixed(0.124),
                             record_trajectory=False)
        assert len(r.trajectory) == 2
        assert r.trajectory[0].k == 0
        assert r.trajectory[-1].k == r.iterations

    def test_deterministic_replay(self):
        a = steepest_descent(RosenbrockObjective(100.0), (2.0, 2.0), Fixed(0.0124))
        b = steepest_descent(RosenbrockObjective(100.0), (2.0, 2.0), Fixed(0.0124))
        assert a.status == b.status and a.iterations == b.iterations
        assert np.array_equal(
            np.vstack([r.point for r in a.trajectory]),
            np.vstack([r.point for r in b.trajectory]),
        )

    def test_random_quadfit_replays_with_same_seed(self):
        from rosenbench import RandomQuadraticFit

        rule = RandomQuadraticFit(1e-5, 1.24e-4, seed=6)
        a = steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), rule)
        b = steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), rule)
        assert a.status is RunStatus.CONVERGED
        assert a.iterations == b.iterations
        assert np.array_equal(
            np.vstack([r.point for r in a.trajectory]),
            np.vstack([r.point for r in b.trajectory]),
        )

    def test_exact_rule_requires_quadratic(self):
        with pytest.raises(InvalidInputError):
            steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), ExactQuadratic())

    def test_start_dimension_must_match_objective(self):
        with pytest.raises(InvalidInputError):
            steepest_descent(RosenbrockObjective(1.0), (1.0, 2.0, 3.0), Fixed(0.1))
        with pytest.raises(InvalidInputError):
            steepest_descent(RosenbrockObjective(1.0), ((1.0, 2.0), (3.0,)), Fixed(0.1))
        with pytest.raises(InvalidInputError):
            newton_raphson(QuadraticObjective(np.eye(3), np.zeros(3)), (1.0, 2.0))

    def test_nonfinite_start_rejected(self):
        with pytest.raises(InvalidInputError):
            steepest_descent(RosenbrockObjective(1.0), (math.nan, 2.0), Fixed(0.1))

    @pytest.mark.parametrize("start", [bytearray(b"ab"), memoryview(b"ab")],
                             ids=["bytearray", "memoryview"])
    def test_byte_buffer_start_rejected(self, start):
        # numpy would read either as its byte codes, (97, 98).
        for driver in DRIVERS:
            with pytest.raises(InvalidInputError):
                driver(RosenbrockObjective(1.0), start, TerminationPolicy(max_iterations=1))

    def test_exact_line_search_orthogonal_gradients(self):
        rng = np.random.default_rng(29)
        q = random_spd_objective(rng, 3)
        policy = TerminationPolicy(epsilon=1e-9)
        r = steepest_descent(q, rng.standard_normal(3), ExactQuadratic(), policy)
        assert r.status is RunStatus.CONVERGED
        pts = [rec.point for rec in r.trajectory]
        for a, b in zip(pts, pts[1:]):
            ga, gb = q.gradient(a), q.gradient(b)
            assert abs(float(ga @ gb)) <= 1e-8 * max(1.0, float(ga @ ga))

    @pytest.mark.parametrize("driver", [steepest_descent, fletcher_reeves_cg])
    def test_curvature_underflow_ends_the_run(self, driver):
        # At (1e-170, 0) on the unit bowl d'Qd = 1e-340 underflows to zero, so
        # the exact rule has no step; the run ends with a status.
        q = QuadraticObjective(np.eye(2), [0.0, 0.0])
        r = driver(q, (1e-170, 0.0), ExactQuadratic(), TerminationPolicy(epsilon=1e-300))
        assert (r.status, r.iterations) == (RunStatus.DIVERGED_NONFINITE, 0)
        assert r.final_point.tolist() == [1e-170, 0.0]

    @pytest.mark.parametrize("driver", [steepest_descent, fletcher_reeves_cg])
    def test_curvature_overflow_ends_the_run(self, driver):
        # At (1e60, 0) d = (-1e160, 0) and d'Qd = 1e100 * 1e320 overflows to inf,
        # so the exact rule has no step; the run ends before a nan step.
        q = QuadraticObjective(np.diag([1e100, 1.0]), [0.0, 0.0])
        r = driver(q, (1e60, 0.0), ExactQuadratic(), TerminationPolicy(blowup_norm=math.inf))
        assert (r.status, r.iterations) == (RunStatus.DIVERGED_NONFINITE, 0)
        assert r.final_point.tolist() == [1e60, 0.0]

    def test_line_search_failure_maps_to_nonfinite_divergence(self):
        class WallObjective:
            def value(self, x):
                return 0.0 if x[0] == 0.0 else math.nan

            def gradient(self, x):
                return np.array([1.0, 0.0])

        r = steepest_descent(WallObjective(), (0.0, 0.0), VariableCandidates((0.1, 0.2)))
        assert r.status is RunStatus.DIVERGED_NONFINITE
        assert r.iterations == 0


class DuckValley:
    """The valley through value and gradient only, so drivers take the ndarray path."""

    def __init__(self, kappa):
        self.valley = RosenbrockObjective(kappa)

    def value(self, x):
        return self.valley.value(x)

    def gradient(self, x):
        return self.valley.gradient(x)

    def hessian(self, x):
        return self.valley.hessian(x)


def bits(*values):
    """The float64 bytes of `values`, so that a nan equals a nan with the same bits."""
    return np.array(values, dtype=np.float64).tobytes()


def assert_same_run(a, b):
    def records(run):
        return [(r.k, r.point.tobytes(), bits(r.value, r.grad_norm, r.alpha_used))
                for r in run.trajectory]

    assert (a.status, a.iterations) == (b.status, b.iterations)
    assert a.final_point.tobytes() == b.final_point.tobytes()
    assert bits(a.final_value, a.final_grad_norm) == bits(b.final_value, b.final_grad_norm)
    assert records(a) == records(b)


def nudged(v):
    """`v` and the floats one ulp either side of it."""
    return st.sampled_from((v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)))


class TestFloatPath:
    """The valley's float-pair path against the generic ndarray path."""

    RULES = {"Fixed0": Fixed(0.0124), "Fixed1": Fixed(0.000124),
             "VariableCandidates": VariableCandidates(), "QuadraticFit": QuadraticFit(),
             "GoldenSection": GoldenSection(), "RandomQuadraticFit": RandomQuadraticFit(seed=3)}

    @pytest.mark.parametrize("driver, rule", [
        pytest.param(driver, rule, id=f"{name}-{driver.__name__}")
        for name, rule in RULES.items() for driver in (steepest_descent, fletcher_reeves_cg)
    ] + [pytest.param(newton_raphson, None, id="newton_raphson")])
    def test_same_bits_as_duck_typed_objective(self, driver, rule):
        # Without recording, the float-pair loop skips most of its tests.
        policy = TerminationPolicy(max_iterations=300)
        args = (policy,) if rule is None else (rule, policy)
        for kappa, x0 in ((1.0, (2.0, 2.0)), (100.0, (-1.2, 1.0)), (100.0, (5.0, 5.0))):
            for record in (True, False):
                fused = driver(RosenbrockObjective(kappa), x0, *args, record_trajectory=record)
                generic = driver(DuckValley(kappa), x0, *args, record_trajectory=record)
                assert_same_run(fused, generic)

    # One run per way to end, named by its status, each on both paths.
    ENDINGS = {
        "converged": (steepest_descent, 1.0, (2.0, 2.0), Fixed(0.124), POLICY),
        # epsilon is the gradient norm at iterate 4.
        "converged-at-epsilon": (steepest_descent, 1.0, (1.5, 1.5), Fixed(0.124),
                                 TerminationPolicy(epsilon=0.9758565547693262)),
        # The iterate leaves the guard's box along one axis and stays inside
        # it along the other.
        "diverged_blowup-along-x1": (steepest_descent, 1.0, (5.0, 5.0), Fixed(0.124),
                                     TerminationPolicy(blowup_norm=1000.0)),
        "diverged_blowup-along-x2": (steepest_descent, 1.0, (0.0, 10.0), Fixed(1.5),
                                     TerminationPolicy(blowup_norm=15.0)),
        # blowup_norm is the iterate norm at 2, so the run blows up at 3.
        "diverged_blowup-at-the-norm": (steepest_descent, 1.0, (5.0, 5.0), Fixed(0.124),
                                        TerminationPolicy(blowup_norm=46749.04090477415)),
        "diverged_nonfinite-iterate": (steepest_descent, 1.0, (1e70, 0.0), Fixed(1e100),
                                       TerminationPolicy(blowup_norm=math.inf)),
        "diverged_nonfinite-value": (steepest_descent, 1e300, (1e10, 1.0), Fixed(1e-300),
                                     TerminationPolicy(blowup_norm=math.inf)),
        "diverged_nonfinite-line": (fletcher_reeves_cg, 1.0, (0.0, 0.0),
                                    VariableCandidates((7.0,)),
                                    TerminationPolicy(epsilon=1.0, max_iterations=4,
                                                      blowup_norm=math.inf)),
        "diverged_singular_hessian": (newton_raphson, 1.0, (0.0, 0.5), None, POLICY),
        "max_iter": (steepest_descent, 1.0, (2.0, 2.0), Fixed(0.000124),
                     TerminationPolicy(max_iterations=300)),
    }

    @pytest.mark.parametrize("ending", ENDINGS)
    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
    def test_each_ending_has_the_same_bits_on_both_paths(self, ending, record):
        driver, kappa, x0, rule, policy = self.ENDINGS[ending]
        args = (policy,) if rule is None else (rule, policy)
        runs = []
        for objective in (RosenbrockObjective(kappa), DuckValley(kappa)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append(driver(objective, x0, *args, record_trajectory=record))
        assert_same_run(*runs)
        assert runs[0].status.value == ending.split("-")[0]

    @pytest.mark.parametrize("ending", ENDINGS)
    @pytest.mark.parametrize("path", ["fused", "ndarray"])
    def test_recording_changes_no_result(self, ending, path):
        # A recorded iterate takes the float-pair loop's guard, as an unrecorded one does.
        driver, kappa, x0, rule, policy = self.ENDINGS[ending]
        args = (policy,) if rule is None else (rule, policy)
        objective = RosenbrockObjective(kappa) if path == "fused" else DuckValley(kappa)
        recorded, unrecorded = (driver(objective, x0, *args, record_trajectory=record)
                                for record in (True, False))
        assert (recorded.status, recorded.iterations) == (unrecorded.status, unrecorded.iterations)
        assert recorded.final_point.tobytes() == unrecorded.final_point.tobytes()
        assert (bits(recorded.final_value, recorded.final_grad_norm)
                == bits(unrecorded.final_value, unrecorded.final_grad_norm))
        n = recorded.iterations
        assert [rec.k for rec in recorded.trajectory] == list(range(n + 1))
        assert [rec.k for rec in unrecorded.trajectory] == sorted({0, n})
        for a, b in ((recorded.trajectory[0], unrecorded.trajectory[0]),
                     (recorded.trajectory[-1], unrecorded.trajectory[-1])):
            assert a.point.tobytes() == b.point.tobytes()
            assert bits(a.value, a.grad_norm, a.alpha_used) == bits(b.value, b.grad_norm,
                                                                     b.alpha_used)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_guard_edges_keep_the_bits(self, data):
        # The float-pair loop skips its tests for an iterate inside a box
        # drawn from blowup_norm and a gradient outside one drawn from
        # epsilon.  Draw both bounds within an ulp of the norms and the
        # components at the start or at the first step, where the box is
        # first used, over the whole float range.
        finite = st.floats(allow_nan=False, allow_infinity=False)
        kappa = data.draw(st.floats(min_value=1e-300, max_value=1e300))
        x0 = data.draw(st.tuples(finite, finite))
        rule = data.draw(st.one_of(
            st.floats(min_value=5e-324, max_value=1e300).map(Fixed),
            st.sampled_from((VariableCandidates(), QuadraticFit(), GoldenSection(),
                             RandomQuadraticFit(seed=3), None))))
        valley = RosenbrockObjective(kappa)
        g = valley.value_and_gradient(*x0)[1:]
        alpha = rule.alpha if isinstance(rule, Fixed) else 1e-4
        p = data.draw(st.sampled_from((x0, (x0[0] - alpha * g[0], x0[1] - alpha * g[1]))))
        top = max(abs(p[0]), abs(p[1]))
        blowup = data.draw(st.one_of(
            nudged(math.hypot(*p)), nudged(top * math.sqrt(2.0)),
            nudged(top / 0.7071067811865475 / (1 - 2**-50)), nudged(sys.float_info.max),
            st.just(math.inf), st.floats(min_value=1e-300, max_value=1e300)))
        gp = valley.value_and_gradient(*p)[1:] if math.isfinite(top) else g
        epsilon = data.draw(st.one_of(nudged(math.hypot(*gp)), nudged(max(map(abs, gp))),
                                      st.floats(min_value=1e-12, max_value=1e3)))
        try:
            policy = TerminationPolicy(epsilon, data.draw(st.integers(1, 30)), blowup)
        except InvalidInputError:
            assume(False)
        if rule is None:
            driver, args = newton_raphson, (policy,)
        else:
            driver = data.draw(st.sampled_from((steepest_descent, fletcher_reeves_cg)))
            args = (rule, policy)
        record = data.draw(st.booleans())
        runs = []
        for objective in (valley, DuckValley(kappa)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append(driver(objective, x0, *args, record_trajectory=record))
        assert_same_run(*runs)

    def test_nonfinite_iterate_diverges_quietly(self):
        # With no blow-up bound the step overflows to inf; the iterate is
        # refused without being evaluated.
        policy = TerminationPolicy(blowup_norm=math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = steepest_descent(RosenbrockObjective(1.0), (1e70, 0.0), Fixed(1e100), policy)
        assert r.status is RunStatus.DIVERGED_NONFINITE
        assert r.iterations == 1
        assert math.isnan(r.final_value) and math.isnan(r.final_grad_norm)
        assert not np.isfinite(r.final_point).all()

    @pytest.mark.parametrize("driver, iterations", [(steepest_descent, 49),
                                                    (fletcher_reeves_cg, 6)])
    def test_ndarray_overflow_diverges_quietly(self, driver, iterations):
        # The iterate grows until x'Qx and then the step overflow; the run
        # ends with a status and no RuntimeWarning.
        policy = TerminationPolicy(blowup_norm=math.inf, max_iterations=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = driver(QuadraticObjective(np.eye(2), [0.0, 0.0]), (1e8, 1e8), Fixed(1e3), policy)
        assert (r.status, r.iterations) == (RunStatus.DIVERGED_NONFINITE, iterations)

    def test_start_array_is_not_aliased(self):
        x0 = np.array([1.0, 1.0])
        r = steepest_descent(RosenbrockObjective(1.0), x0, Fixed(0.1))
        x0[0] = 7.0
        assert r.final_point[0] == 1.0 and r.trajectory[0].point[0] == 1.0


class TestFailedProbeRepro:
    """A probe whose point overflows reads +inf; the finite candidate wins.

    The first case is the item-2 repro of the roadmap, capped at 20 steps
    (uncapped it converges after 239,606).
    """

    POLICY = TerminationPolicy(max_iterations=20, blowup_norm=1e300)

    @pytest.mark.parametrize("rule", [VariableCandidates((1e-4, 1e306)),
                                      QuadraticFit((1e-4, 1e300, 1e306))],
                             ids=["variable", "quadfit"])
    def test_overflowing_candidate_is_skipped(self, rule):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = steepest_descent(RosenbrockObjective(100.0), (5.0, 5.0), rule, self.POLICY)
        assert r.status is RunStatus.MAX_ITERATIONS
        assert [rec.alpha_used for rec in r.trajectory[1:]] == [1e-4] * 20

    def test_ndarray_path_probe_is_contained(self):
        q = QuadraticObjective(np.diag([1.0, 2.0]), [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = steepest_descent(q, (5.0, 5.0), VariableCandidates((0.1, 1e306)),
                                 TerminationPolicy(blowup_norm=1e300))
        assert r.status is RunStatus.CONVERGED
        assert all(rec.alpha_used == 0.1 for rec in r.trajectory[1:])


class CountingValley(RosenbrockObjective):
    """The fused valley, counting its calls of value, gradient and hessian."""

    def __init__(self, kappa):
        super().__init__(kappa)
        self.calls = Counter()

    def value(self, x):
        self.calls["value"] += 1
        return super().value(x)

    def gradient(self, x):
        self.calls["gradient"] += 1
        return super().gradient(x)

    def hessian(self, x):
        self.calls["hessian"] += 1
        return super().hessian(x)


class TestNewtonRaphson:
    def test_two_step_run_from_origin(self):
        r = newton_raphson(RosenbrockObjective(1.0), (0.0, 0.0))
        assert r.status is RunStatus.CONVERGED
        assert r.iterations == 2
        assert_allclose(r.final_point, (1.0, 1.0), rtol=0, atol=1e-10)
        pts = np.vstack([rec.point for rec in r.trajectory])
        assert_allclose(pts, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], rtol=0, atol=1e-12)
        assert all(rec.alpha_used == 0.0 for rec in r.trajectory)

    def test_single_iteration_on_quadratics(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 5):
            q = random_spd_objective(rng, n)
            r = newton_raphson(q, rng.standard_normal(n) * 10.0)
            assert r.status is RunStatus.CONVERGED
            assert r.iterations == 1

    def test_singular_hessian_detected(self):
        # det F = 8*x1^2 - 8*x2 + 4 vanishes at (0, 1/2).
        r = newton_raphson(RosenbrockObjective(1.0), (0.0, 0.5))
        assert r.status is RunStatus.DIVERGED_SINGULAR_HESSIAN
        assert r.iterations == 0

    def test_overflowing_hessian_is_singular_without_a_warning(self):
        # At kappa = 1e300 the Frobenius norm of F(2, 2) overflows to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = newton_raphson(RosenbrockObjective(1e300), (2.0, 2.0))
        assert (r.status, r.iterations) == (RunStatus.DIVERGED_SINGULAR_HESSIAN, 0)

    @pytest.mark.parametrize("kappa", [1.0, 100.0])
    @pytest.mark.parametrize("x0", [(2.0, 2.0), (5.0, 5.0)])
    def test_fast_convergence_both_functions(self, kappa, x0):
        r = newton_raphson(RosenbrockObjective(kappa), x0)
        assert r.status is RunStatus.CONVERGED
        assert r.iterations <= 50

    # Newton runs in the ndarray loop on every objective, the fused valley included: one
    # value and one gradient per iterate, one hessian per step or singular stop.
    @pytest.mark.parametrize("kappa", [1.0, 100.0])
    @pytest.mark.parametrize("x0", [(2.0, 2.0), (5.0, 5.0)])
    def test_evaluation_counts_on_the_matrix_problems(self, kappa, x0):
        valley = CountingValley(kappa)
        n = newton_raphson(valley, x0, record_trajectory=False).iterations
        assert valley.calls == {"value": n + 1, "gradient": n + 1, "hessian": n}

    def test_singular_stop_evaluates_each_once(self):
        valley = CountingValley(1e300)
        r = newton_raphson(valley, (2.0, 2.0))
        assert (r.status, r.iterations) == (RunStatus.DIVERGED_SINGULAR_HESSIAN, 0)
        assert valley.calls == {"value": 1, "gradient": 1, "hessian": 1}


class TestCheckedFieldsAreKept:
    """A constructor keeps the float or int that its check returns, so a numpy scalar
    field runs like its Python twin; a np.float32 would compare and step in float32."""

    F32, I64 = np.float32, np.int64

    @pytest.mark.parametrize("value, types", [
        (TerminationPolicy(F32(1e-3), I64(5), F32(1e8)), (float, int, float)),
        (Fixed(F32(0.5)), (float,)),
        (GoldenSection(F32(1e-6), F32(1.5), F32(1e-8)), (float, float, float)),
        (RandomQuadraticFit(F32(1e-5), F32(1e-4), I64(3)), (float, float, int)),
    ], ids=["TerminationPolicy", "Fixed", "GoldenSection", "RandomQuadraticFit"])
    def test_fields_are_python_numbers(self, value, types):
        # The fields a caller passes; GoldenSection's derived schedule is not one.
        fields = [f for f in dataclasses.fields(value) if f.init]
        assert tuple(type(getattr(value, f.name)) for f in fields) == types

    def test_float32_epsilon_converges_as_its_float_twin(self):
        # The start's gradient norm lies between epsilon and its float32 rounding.
        eps = float(self.F32(1e-3))
        x0 = (eps + 2.5e-12, 0.0)
        runs = [steepest_descent(BOWL, x0, Fixed(0.5), TerminationPolicy(epsilon=e))
                for e in (self.F32(1e-3), eps)]
        assert_same_run(*runs)
        assert runs[0].iterations == 1

    def test_float32_blowup_norm_diverges_as_its_float_twin(self):
        # The iterate norm at k = 2 lies above its float32 rounding, the bound.
        bound = self.F32(46749.04090477415)
        runs = [steepest_descent(RosenbrockObjective(1.0), (5.0, 5.0), Fixed(0.124),
                                 TerminationPolicy(blowup_norm=b)) for b in (bound, float(bound))]
        assert_same_run(*runs)
        assert (runs[0].status, runs[0].iterations) == (RunStatus.DIVERGED_BLOWUP, 2)

    def test_float32_golden_bracket_runs_as_its_float_twin(self):
        lo = self.F32(1.24e-6)
        runs = [steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), GoldenSection(a, 1.5))
                for a in (lo, float(lo))]
        assert_same_run(*runs)
        assert runs[0].iterations == 45


def reference_beta(g_next, g):
    """Fletcher-Reeves beta as it was before the square was carried: both squares afresh."""
    with np.errstate(over="ignore", invalid="ignore"):
        num = float(np.dot(g_next, g_next))
        den = float(np.dot(g, g))
    if den == 0.0:
        r = math.hypot(*g_next) / math.hypot(*g)
        return r * r
    return num / den


def reference_cg_points(objective, x0, rule, steps, restart_period=None):
    """The first `steps` + 1 CG iterates, through value/gradient on ndarrays."""
    x = np.array(x0, dtype=np.float64)
    points = [x]
    g_prev = d = None
    for k in range(steps):
        g = objective.gradient(x)
        if k == 0 or (restart_period is not None and k % restart_period == 0):
            d = -g
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                d = -g + reference_beta(g, g_prev) * d
        g_prev = g
        alpha = rule.alpha if isinstance(rule, Fixed) else select_step(restrict(objective, x, d),
                                                                        rule)
        with np.errstate(over="ignore", invalid="ignore"):
            x = x + alpha * d
        points.append(x)
    return points


class UnitBowl:
    """0.5*(x1^2 + x2^2) with a fused kernel, so drivers take the float-pair path."""

    dim = 2

    def value(self, x):
        return 0.5 * float(x[0] * x[0] + x[1] * x[1])

    def gradient(self, x):
        return np.array([float(x[0]), float(x[1])])

    def value_and_gradient(self, x1, x2):
        return 0.5 * (x1 * x1 + x2 * x2), x1, x2

    def line(self, x, d):
        return lambda a: self.value_and_gradient(x[0] + a * d[0], x[1] + a * d[1])[0]


class TestFletcherReeves:
    def test_beta_is_squared_norm_ratio(self):
        assert fletcher_reeves_beta(np.array([2.0, 0.0]), np.array([1.0, 0.0]), 4.0, 1.0) == 4.0
        assert fletcher_reeves_beta((2.0, 0.0), (1.0, 0.0), 4.0, 1.0) == 4.0
        # The loop's squares, on the float-pair and the ndarray path: from
        # (1, 0) with step 0.5, g = (1, 0) and then (0.5, 0), so beta = 0.25,
        # d = -0.5 - 0.25 = -0.75 and x2 = 0.5 - 0.5*0.75 = 0.125.
        for objective in (UnitBowl(), QuadraticObjective(np.eye(2), [0.0, 0.0])):
            r = fletcher_reeves_cg(objective, (1.0, 0.0), Fixed(0.5),
                                   TerminationPolicy(max_iterations=2))
            assert [rec.point.tolist() for rec in r.trajectory] == [[1.0, 0.0], [0.5, 0.0],
                                                                    [0.125, 0.0]]

    def test_beta_when_squares_underflow(self):
        # g'g = 1e-340 underflows to zero; the ratio of norms still gives 4.
        assert float(np.dot((1e-170, 0.0), (1e-170, 0.0))) == 0.0
        assert fletcher_reeves_beta((2e-170, 0.0), (1e-170, 0.0), 0.0, 0.0) == 4.0

    def test_dot_of_a_pair_rounds_like_an_fma(self):
        # The pinned CG bits rest on this rounding of g'g, which numpy's dot
        # gives where its BLAS kernel uses an fma; a plain g1*g1 + g2*g2
        # rounds twice and differs.  Should the golden CG rows change on
        # another CPU or BLAS build, this test names the cause.
        rng = np.random.default_rng(2024)
        twice_rounded = 0
        for _ in range(400):
            g1, g2 = (rng.standard_normal(2) * 10.0 ** int(rng.integers(-100, 100))).tolist()
            exact_fma = float(Fraction(g2) * Fraction(g2) + Fraction(g1 * g1))
            assert float(np.dot((g1, g2), (g1, g2))) == exact_fma
            twice_rounded += g1 * g1 + g2 * g2 != exact_fma
        assert twice_rounded > 0

    def test_beta_when_squares_overflow(self):
        # At k = 3 the gradient norm is 1.4e161, so g'g overflows to inf:
        # beta is inf, the direction is not finite and the line search fails.
        policy = TerminationPolicy(epsilon=1.0, max_iterations=4, blowup_norm=math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = fletcher_reeves_cg(RosenbrockObjective(1.0), (0.0, 0.0),
                                   VariableCandidates((7.0,)), policy)
        assert r.trajectory[3].grad_norm > math.sqrt(sys.float_info.max)
        assert (r.status, r.iterations) == (RunStatus.DIVERGED_NONFINITE, 3)

    @pytest.mark.parametrize("case", [
        (1.0, (2.0, 2.0), Fixed(0.0124), None, POLICY),
        (100.0, (2.0, 2.0), Fixed(0.000124), None, TerminationPolicy(max_iterations=400)),
        (100.0, (5.0, 5.0), VariableCandidates(), 4, TerminationPolicy(max_iterations=200)),
        (1.0, (-1.2, 1.0), GoldenSection(), 3, POLICY),
        # g'g underflows to zero, so beta is the ratio of norms.
        (1e-300, (1.0, 5.0), Fixed(0.1), None, TerminationPolicy(epsilon=1e-300,
                                                                  max_iterations=5)),
        # g'g overflows at k = 3.
        (1.0, (0.0, 0.0), VariableCandidates((7.0,)), None,
         TerminationPolicy(epsilon=1.0, max_iterations=4, blowup_norm=math.inf)),
    ], ids=["fixed", "fixed-k100", "variable-restart", "golden-restart", "underflow",
            "overflow"])
    def test_carried_square_matches_recomputed_squares(self, case):
        kappa, x0, rule, restart_period, policy = case
        for objective in (RosenbrockObjective(kappa), DuckValley(kappa)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = fletcher_reeves_cg(objective, x0, rule, policy, restart_period)
            expected = reference_cg_points(objective, x0, rule, r.iterations, restart_period)
            assert [rec.point.tobytes() for rec in r.trajectory] == [
                p.tobytes() for p in expected]

    def test_converges_kappa1(self):
        r = fletcher_reeves_cg(RosenbrockObjective(1.0), (2.0, 2.0), Fixed(0.0124))
        assert r.status is RunStatus.CONVERGED

    def test_diverges_kappa100(self):
        r = fletcher_reeves_cg(RosenbrockObjective(100.0), (5.0, 5.0), Fixed(0.0124))
        assert r.status is RunStatus.DIVERGED_BLOWUP

    def test_finite_termination_and_conjugacy_on_quadratic(self):
        rng = np.random.default_rng(37)
        policy = TerminationPolicy(epsilon=1e-8)
        q = random_spd_objective(rng, 2)
        r = fletcher_reeves_cg(q, rng.standard_normal(2), ExactQuadratic(), policy)
        assert r.status is RunStatus.CONVERGED
        assert r.iterations <= 2
        pts = [rec.point for rec in r.trajectory]
        dirs = [b - a for a, b in zip(pts, pts[1:])]
        if len(dirs) == 2:
            d0, d1 = dirs
            bound = 1e-8 * math.hypot(*d0) * math.hypot(*d1) * float(np.linalg.norm(q.Q, 2))
            assert abs(float(d0 @ q.Q @ d1)) <= bound

    def test_restart_every_step_equals_steepest_descent(self):
        obj = RosenbrockObjective(1.0)
        sd = steepest_descent(obj, (2.0, 2.0), Fixed(0.0124))
        cg = fletcher_reeves_cg(obj, (2.0, 2.0), Fixed(0.0124), restart_period=1)
        assert sd.status == cg.status and sd.iterations == cg.iterations
        assert np.array_equal(
            np.vstack([r.point for r in sd.trajectory]),
            np.vstack([r.point for r in cg.trajectory]),
        )

    def test_underflowing_beta_does_not_escape(self):
        # At kappa = 1e-300 from x1 = 1 the gradient is ~1e-299, so g'g
        # underflows to zero; the run still ends with a status.
        policy = TerminationPolicy(epsilon=1e-300, max_iterations=5)
        r = fletcher_reeves_cg(RosenbrockObjective(1e-300), (1.0, 5.0), Fixed(0.1), policy)
        assert r.status is RunStatus.MAX_ITERATIONS
        assert r.final_grad_norm > policy.epsilon

    def test_bad_restart_period(self):
        with pytest.raises(InvalidInputError):
            fletcher_reeves_cg(RosenbrockObjective(1.0), (2.0, 2.0), Fixed(0.0124),
                               restart_period=0)

    def test_start_at_minimum(self):
        r = fletcher_reeves_cg(RosenbrockObjective(1.0), (1.0, 1.0), Fixed(0.0124))
        assert r.status is RunStatus.CONVERGED
        assert r.iterations == 0
