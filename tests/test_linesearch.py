"""Tests for the step-size selection rules."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rosenbench import (
    ExactQuadratic,
    Fixed,
    GoldenSection,
    InvalidDirectionError,
    InvalidInputError,
    LineSearchFailedError,
    QuadraticFit,
    QuadraticObjective,
    RandomQuadraticFit,
    RosenbrockObjective,
    VariableCandidates,
    restrict,
)
from rosenbench.linesearch import (
    INV_PHI,
    LineRestriction,
    parse_rule,
    select_step,
)


class ScalarObjective:
    """1-d stub: value([t]) = fn(t), for synthetic line restrictions."""

    def __init__(self, fn):
        self.fn = fn

    def value(self, x):
        return float(self.fn(float(x[0])))


def scalar_line(fn):
    return restrict(ScalarObjective(fn), [0.0], [1.0])


class TestRestrict:
    def test_phi_zero_is_f_of_x(self):
        line = restrict(RosenbrockObjective(1.0), (2.0, 2.0), (-18.0, 4.0))
        assert line(0.0) == 5.0

    def test_phi_at_sample_alpha(self):
        line = restrict(RosenbrockObjective(1.0), (2.0, 2.0), (-18.0, 4.0))
        assert_allclose(line(0.0124), 1.8297933982846972, rtol=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(InvalidDirectionError):
            restrict(RosenbrockObjective(1.0), (2.0, 2.0), (0.0, 0.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            restrict(RosenbrockObjective(1.0), (2.0, 2.0), (1.0, 0.0, 0.0))

    def test_overflow_maps_to_inf(self):
        line = scalar_line(lambda t: math.exp(t))
        assert line(1e6) == math.inf

    def test_point_dimension_checked_against_objective(self):
        with pytest.raises(InvalidInputError):
            restrict(RosenbrockObjective(1.0), (1.0, 2.0, 3.0), (1.0, 0.0, 0.0))

    def test_valley_restriction_probes_on_floats(self):
        # restrict() on the valley gives the phi of its fused `line`, which
        # agrees bit for bit with the ndarray restriction through value(),
        # overflowing probes included.
        rng = np.random.default_rng(19)
        for _ in range(50):
            obj = RosenbrockObjective(float(rng.uniform(0.5, 150.0)))
            x, d = rng.uniform(-3.0, 3.0, 2), rng.standard_normal(2)
            line = restrict(obj, x, d)
            generic = LineRestriction(obj, x, d)
            for a in [*(10.0 ** rng.uniform(-6.0, 1.0, 5)).tolist(), 1e77, 1e160, 1e308, math.inf]:
                assert line(a) == generic(a)
                assert type(line(a)) is float


class TestFailedProbes:
    """Every failed probe reads +inf, silently, whatever the point type."""

    def test_nonfinite_point_on_valley(self):
        line = restrict(RosenbrockObjective(100.0), (5.0, 5.0), (-1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert line(1e308 * 10.0) == math.inf
            assert line(1e306) == math.inf

    def test_nonfinite_point_on_ndarray_path(self):
        line = restrict(QuadraticObjective(np.eye(2), [0.0, 0.0]), [5.0, 5.0], [-1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert line(1e308 * 10.0) == math.inf
            assert line(1e306) == math.inf  # finite point, value overflows

    def test_nan_value_reads_inf(self):
        assert scalar_line(lambda t: math.nan)(0.5) == math.inf

    def test_refused_point_reads_inf(self):
        def refuse(t):
            raise InvalidInputError("outside the domain")

        assert scalar_line(refuse)(0.5) == math.inf


class TestRuleValidation:
    def test_fixed_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            Fixed(0.0)
        with pytest.raises(InvalidInputError):
            Fixed(-1.0)

    def test_variable_nonempty_positive(self):
        with pytest.raises(InvalidInputError):
            VariableCandidates(())
        with pytest.raises(InvalidInputError):
            VariableCandidates((0.1, -0.2))

    def test_quadfit_distinct(self):
        with pytest.raises(InvalidInputError):
            QuadraticFit((1e-5, 1e-5, 2e-5))
        with pytest.raises(InvalidInputError):
            QuadraticFit((1e-5, -1e-5, 2e-5))

    def test_golden_interval(self):
        with pytest.raises(InvalidInputError):
            GoldenSection(1.0, 0.5, 1e-8)
        with pytest.raises(InvalidInputError):
            GoldenSection(0.0, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            GoldenSection(0.0, 1e-9, 1e-8)

    def test_random_quadfit_range(self):
        with pytest.raises(InvalidInputError):
            RandomQuadraticFit(2e-4, 1e-4)

    def test_random_quadfit_seed_is_a_nonnegative_integer(self):
        # numpy refuses the first two seeds; the label of the third,
        # "seed=True", would not parse back.  The rule refuses all three.
        for seed in (-1, 1.5, True):
            with pytest.raises(InvalidInputError):
                RandomQuadraticFit(1e-5, 1e-4, seed=seed)
        assert RandomQuadraticFit(1e-5, 1e-4, seed=np.int64(3)) == RandomQuadraticFit(1e-5, 1e-4, 3)

    def test_random_quadfit_range_must_hold_three_samples(self):
        # Three distinct draws from [1, 1 + 2 ulp] could never be found.
        two_ulps = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
        for hi in (math.nextafter(1.0, 2.0), two_ulps):
            with pytest.raises(InvalidInputError):
                RandomQuadraticFit(1.0, hi)
        rule = RandomQuadraticFit(1.0, math.nextafter(two_ulps, 2.0))
        assert len(set(rule.draw(np.random.default_rng(0)).sample_alphas)) == 3

    def test_quadfit_system_built_with_the_rule(self):
        rule = QuadraticFit((1.0, 2.0, 3.0))
        assert_allclose(rule.vandermonde, [[1, 1, 1], [4, 2, 1], [9, 3, 1]], rtol=0, atol=0)
        assert rule == QuadraticFit((1.0, 2.0, 3.0))
        assert hash(rule) == hash(QuadraticFit((1.0, 2.0, 3.0)))
        assert "vandermonde" not in repr(rule)


class TestFixed:
    @pytest.mark.parametrize("alpha", [0.124, 0.000124, 1.0])
    def test_passthrough(self, alpha):
        assert select_step(scalar_line(lambda t: t), Fixed(alpha)) == alpha


class TestVariable:
    def test_example_candidates(self):
        line = restrict(RosenbrockObjective(1.0), (2.0, 2.0), (-18.0, 4.0))
        rule = VariableCandidates((0.000124, 0.0124, 0.124))
        assert rule.select(line) == 0.0124

    def test_single_candidate(self):
        line = restrict(RosenbrockObjective(1.0), (2.0, 2.0), (-18.0, 4.0))
        assert VariableCandidates((0.7,)).select(line) == 0.7

    def test_exact_minimizer_among_candidates(self):
        line = scalar_line(lambda t: (t - 1.0) ** 2)
        assert VariableCandidates((0.5, 1.0, 2.0)).select(line) == 1.0

    def test_tie_breaks_to_smallest(self):
        line = scalar_line(lambda t: (t - 1.5) ** 2)  # phi(1) == phi(2)
        assert VariableCandidates((1.0, 2.0)).select(line) == 1.0

    def test_all_nonfinite_raises(self):
        line = scalar_line(lambda t: math.nan)
        with pytest.raises(LineSearchFailedError):
            VariableCandidates((0.1, 0.2)).select(line)

    def test_matches_bruteforce_argmin(self):
        # Against a direct scan of the candidate list on randomized lines.
        rng = np.random.default_rng(11)
        for _ in range(100):
            kappa = float(rng.uniform(0.5, 150.0))
            obj = RosenbrockObjective(kappa)
            x = rng.uniform(-3.0, 3.0, 2)
            d = rng.standard_normal(2)
            if not np.any(d != 0.0):
                continue
            line = restrict(obj, x, d)
            cands = tuple(float(a) for a in 10.0 ** rng.uniform(-5.0, 0.0, rng.integers(1, 6)))
            got = VariableCandidates(cands).select(line)
            best = min((line(a), a) for a in cands)
            assert got == best[1]
            assert line(got) <= min(line(a) for a in cands)


class TestQuadraticFit:
    def test_hand_solved_system(self):
        # Parabola through (0,1), (1,-1), (2,1) is 2a^2 - 4a + 1: vertex 1.
        line = scalar_line(lambda t: 2.0 * t * t - 4.0 * t + 1.0)
        got = QuadraticFit((0.0, 1.0, 2.0)).select(line)
        assert_allclose(got, 1.0, rtol=1e-10)

    def test_parabola_through_own_vertex(self):
        line = scalar_line(lambda t: (t - 3.0) ** 2)
        got = QuadraticFit((2.0, 3.0, 4.0)).select(line)
        assert_allclose(got, 3.0, rtol=1e-10)

    def test_concave_falls_back_to_best_positive_sample(self):
        # (0,0), (1,1), (2,0): a = -1 < 0; best positive sample is 2.
        line = scalar_line(lambda t: -t * t + 2.0 * t)
        got = QuadraticFit((0.0, 1.0, 2.0)).select(line)
        assert got == 2.0

    def test_nonpositive_vertex_falls_back(self):
        # Convex with vertex at -1: fall back to the sample with smallest phi.
        line = scalar_line(lambda t: (t + 1.0) ** 2)
        got = QuadraticFit((0.5, 1.0, 2.0)).select(line)
        assert got == 0.5

    def test_all_nonfinite_raises(self):
        line = scalar_line(lambda t: math.inf)
        with pytest.raises(LineSearchFailedError):
            QuadraticFit((0.5, 1.0, 2.0)).select(line)

    def test_exact_on_synthetic_parabolas(self):
        # Vertex recovered to 1e-10 relative for any distinct sample triple.
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = float(rng.uniform(0.1, 50.0))
            vertex = float(rng.uniform(0.05, 5.0))
            b = -2.0 * a * vertex
            c = float(rng.uniform(-10.0, 10.0))
            line = scalar_line(lambda t, a=a, b=b, c=c: a * t * t + b * t + c)
            while True:
                s = tuple(float(v) for v in rng.uniform(0.01, 6.0, 3))
                if len(set(s)) == 3:
                    break
            got = QuadraticFit(s).select(line)
            assert_allclose(got, vertex, rtol=1e-10)


class TestGoldenSection:
    def test_symmetric_minimum(self):
        line = scalar_line(lambda t: (t - 1.0) ** 2)
        got = GoldenSection(0.0, 2.0, 1e-6).select(line)
        assert abs(got - 1.0) <= 1e-6

    def test_monotone_collapses_to_lower_endpoint(self):
        line = scalar_line(lambda t: 3.0 * t + 1.0)
        got = GoldenSection(0.0, 1.0, 1e-6).select(line)
        assert abs(got) <= 1e-6

    def test_bracket_width_recursion(self):
        # One new evaluation per shrink step; width decays by INV_PHI each
        # time, so the evaluation count matches the multiplicative loop.
        calls = 0

        def phi(t):
            nonlocal calls
            calls += 1
            return (t - 0.7) ** 2

        lo, hi, tol = 0.0, 2.0, 1e-6
        line = scalar_line(phi)
        GoldenSection(lo, hi, tol).select(line)
        width = hi - lo
        shrinks = 0
        while width > tol:
            width *= INV_PHI
            shrinks += 1
        assert calls == shrinks + 2
        assert_allclose(width, (hi - lo) * INV_PHI**shrinks, rtol=1e-12)
        assert width <= tol < width / INV_PHI

    def test_against_dense_grid_oracle(self):
        rng = np.random.default_rng(3)
        tol = 1e-4
        grid = np.arange(0.0, 2.0, tol / 10.0)
        for _ in range(10):
            c = float(rng.uniform(0.1, 1.9))
            for fn in (lambda t, c=c: (t - c) ** 2, lambda t, c=c: (t - c) ** 4 + 0.5 * abs(t - c)):
                line = scalar_line(fn)
                got = GoldenSection(0.0, 2.0, tol).select(line)
                oracle = grid[np.argmin(fn(grid))]
                assert abs(got - oracle) <= 1.1 * tol

    def test_nonfinite_raises(self):
        line = scalar_line(lambda t: math.nan if t > 0.5 else t)
        with pytest.raises(LineSearchFailedError):
            GoldenSection(0.0, 1.0, 1e-6).select(line)


class TestExactQuadratic:
    def test_unit_curvature_lands_at_minimizer(self):
        q = QuadraticObjective(np.eye(2), [0.0, 0.0])
        line = restrict(q, [3.0, 0.0], [-3.0, 0.0])
        alpha = ExactQuadratic().select(line)
        assert alpha == 1.0
        assert_allclose(line.x + alpha * line.d, [0.0, 0.0], atol=0)

    def test_diagonal_example(self):
        q = QuadraticObjective(np.diag([2.0, 4.0]), [0.0, 0.0])
        line = restrict(q, [1.0, 0.0], [-2.0, 0.0])
        assert ExactQuadratic().select(line) == 0.5

    def test_landing_gradient_orthogonal_to_direction(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n))
            q = QuadraticObjective(M @ M.T + n * np.eye(n), rng.standard_normal(n))
            x = rng.standard_normal(n)
            d = rng.standard_normal(n)
            line = restrict(q, x, d)
            alpha = ExactQuadratic().select(line)
            g_land = q.gradient(line.x + alpha * line.d)
            assert abs(float(g_land @ d)) <= 1e-10 * max(1.0, float(d @ d))

    def test_requires_quadratic_objective(self):
        line = restrict(RosenbrockObjective(1.0), (2.0, 2.0), (-1.0, 0.0))
        with pytest.raises(InvalidInputError):
            ExactQuadratic().select(line)


class TestRandomQuadraticFit:
    def test_draw_is_seeded_and_in_range(self):
        rule = RandomQuadraticFit(1e-5, 1.24e-4, seed=9)
        rng1 = np.random.default_rng(rule.seed)
        rng2 = np.random.default_rng(rule.seed)
        for _ in range(20):
            s1 = rule.draw(rng1).sample_alphas
            s2 = rule.draw(rng2).sample_alphas
            assert s1 == s2
            assert all(1e-5 <= a <= 1.24e-4 for a in s1)
            assert len(set(s1)) == 3

    def test_select_step_dispatch(self):
        line = scalar_line(lambda t: (t - 1.0) ** 2)
        assert select_step(line, Fixed(0.25)) == 0.25
        assert select_step(line, VariableCandidates((0.5, 1.0))) == 1.0
        assert abs(select_step(line, GoldenSection(0.0, 2.0, 1e-6)) - 1.0) <= 1e-6
        got = select_step(line, RandomQuadraticFit(0.1, 0.5, seed=1))
        assert got > 0.0
        q = QuadraticObjective(np.eye(2), [0.0, 0.0])
        qline = restrict(q, [3.0, 0.0], [-3.0, 0.0])
        assert select_step(qline, ExactQuadratic()) == 1.0
