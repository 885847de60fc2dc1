"""Tests for the step-size selection rules."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from rosenbench import linesearch
from rosenbench.linesearch import (
    INV_PHI,
    INV_PHI_SQ,
    LineRestriction,
    parse_rule,
    select_step,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


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

    @pytest.mark.parametrize("d", [(math.inf, 0.0), (1.0, -math.inf), (math.nan, 1.0)])
    def test_nonfinite_direction_rejected(self, d):
        with pytest.raises(InvalidDirectionError, match="^direction has non-finite"):
            restrict(RosenbrockObjective(1.0), (2.0, 2.0), d)

    @pytest.mark.parametrize("d", [("a", "b"), (True, 0.5), b"ab", {1.0, 2.0}],
                             ids=["text", "mixed-bool", "bytes", "set"])
    def test_direction_not_made_of_reals_is_named(self, d):
        with pytest.raises(InvalidInputError, match="^direction must be an array of reals"):
            restrict(RosenbrockObjective(1.0), (2.0, 2.0), d)

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
        # The schedule's final width is one subnormal, whose half is a zero step.
        with pytest.raises(InvalidInputError, match="zero final half-width"):
            GoldenSection(0.0, 1.5, 5e-324)

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
        samples = rule.draw(np.random.default_rng(0))
        assert len(set(samples)) == 3 and all(type(a) is float for a in samples)

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

    @SETTINGS
    @given(st.lists(st.one_of(st.sampled_from((0.5, 1.0, 2.0)),
                              st.floats(min_value=5e-324, allow_infinity=False)),
                    min_size=1, max_size=6),
           st.data())
    def test_select_is_the_min_of_value_step_pairs(self, alphas, data):
        # Bit for bit against min((y, a)) over the finite probes: ties in y,
        # repeated candidates, -0.0 against 0.0 and nan or infinite probes.
        values = st.one_of(st.sampled_from((0.0, -0.0, 1.0, math.nan, math.inf, -math.inf)),
                           st.floats())
        table = {a: data.draw(values) for a in alphas}
        rule = VariableCandidates(tuple(alphas))
        finite = [(table[a], a) for a in rule.alphas if math.isfinite(table[a])]
        if not finite:
            with pytest.raises(LineSearchFailedError):
                rule.select(table.__getitem__)
        else:
            assert rule.select(table.__getitem__) == min(finite)[1]


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

    # The two singular systems below run outside a run's errstate, under the
    # suite's warnings-as-errors: the fit must fall back without a warning.
    def test_underflowing_first_column_falls_back(self):
        # 1e-200 squared underflows to zero, so the first column is all zero.
        rule = QuadraticFit((0.0, 1e-200, 2e-200))
        line = scalar_line(lambda t: (t - 1.0) ** 2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(rule.vandermonde, [line(a) for a in rule.sample_alphas])
        assert rule.select(line) == 1e-200  # the three probes tie at 1.0

    def test_singular_fit_on_a_line_of_about_1e300_falls_back(self):
        rule = QuadraticFit((1e-300, 2e-300, 3e-300))
        line = scalar_line(lambda t: 1e300 * (t * 1e300 - 2.0) ** 2)
        y = [line(a) for a in rule.sample_alphas]
        assert y[0] > 1e299 and y[2] > 1e299 and y[1] < y[0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(rule.vandermonde, y)
        assert rule.select(line) == 2e-300

    def test_coefficients_are_those_of_np_linalg_solve(self, monkeypatch):
        # 100k seeded systems, half on the default rule's rows and half on
        # rows of RandomQuadraticFit draws: the fit's coefficients equal
        # np.linalg.solve's bit for bit, and so does the step taken from them.
        real_solve1, solved = linesearch._solve1, []

        def recording_solve1(rows, y, **kwargs):
            solved.append(real_solve1(rows, y, **kwargs))
            return solved[-1]

        monkeypatch.setattr(linesearch, "_solve1", recording_solve1)
        rng = np.random.default_rng(20)
        default, drawn = QuadraticFit(), RandomQuadraticFit()
        n = 100_000
        centres = 10.0 ** rng.uniform(-5.0, 5.0, (n, 1))
        ys = (centres * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0, (n, 1))
                         * rng.standard_normal((n, 3)))).tolist()
        vertices = 0
        for i, y in enumerate(ys):
            if i % 2:
                samples, rows = default.sample_alphas, default.vandermonde
            else:
                samples = drawn.draw(rng)
                rows = [[a * a, a, 1.0] for a in samples]
            probes = iter(y)
            got = linesearch._parabola_step(lambda a: next(probes), samples, rows)
            ref = np.linalg.solve(rows, y)
            assert solved.pop().tobytes() == ref.tobytes()
            a, b = float(ref[0]), float(ref[1])
            if a > 1e-18 and 0.0 < -b / (2.0 * a) < math.inf:
                assert got == -b / (2.0 * a)
                vertices += 1
            else:
                assert got == min((v, s) for v, s in zip(y, samples) if s > 0.0)[1]
        assert 0.3 * n < vertices < 0.7 * n


def golden_or_none(lo, width, tol):
    """GoldenSection(lo, lo + width, width * tol), or None where rounding refuses it."""
    try:
        return GoldenSection(lo, lo + width, width * tol)
    except InvalidInputError:
        return None


def golden_reference(rule, line):
    """GoldenSection.select with each width shrunk inside the loop, not read from a schedule."""
    lo = rule.lo
    width = rule.hi - rule.lo
    c = lo + INV_PHI_SQ * width
    d = lo + INV_PHI * width
    yc = line(c)
    yd = line(d)
    y = yd if math.isfinite(yc) else yc  # the probe still to be tested
    while math.isfinite(y) and width > rule.width_tol:
        width *= INV_PHI
        if yc < yd:
            d = c
            yd = yc
            c = lo + INV_PHI_SQ * width
            y = yc = line(c)
        else:
            lo = c
            c = d
            yc = yd
            d = lo + INV_PHI * width
            y = yd = line(d)
    if math.isfinite(y):
        return lo + 0.5 * width
    raise LineSearchFailedError("phi is non-finite inside the golden-section bracket")


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

    @pytest.mark.parametrize("fn", [lambda t: math.nan if t < 0.5 else t,  # the first probe
                                    lambda t: math.nan if t < 0.2 else t,  # a shrink probing c
                                    lambda t: -t if t < 0.8 else math.inf])  # one probing d
    def test_nonfinite_probe_ends_the_search(self, fn):
        probes = []
        line = scalar_line(lambda t: probes.append(t) or fn(t))
        with pytest.raises(LineSearchFailedError):
            GoldenSection(0.0, 1.0, 1e-6).select(line)
        # The first two probes are made together; a shrink's probe is tested at once.
        finite = [math.isfinite(fn(t)) for t in probes]
        assert finite.count(False) == 1 and (len(probes) == 2 or not finite[-1])

    def test_default_rule_makes_42_probes(self):
        probes = []
        phi = restrict(RosenbrockObjective(100.0), (-1.2, 1.0), (215.6, 88.0))
        GoldenSection().select(lambda t: probes.append(t) or phi(t))
        assert len(probes) == 42  # 2, then 40 shrinks of [1.24e-6, 1.5] to 1e-8

    @SETTINGS
    @given(st.one_of(
               st.sampled_from((GoldenSection(), GoldenSection(0.0, 1.5, 1e-323))),
               st.builds(golden_or_none, st.floats(min_value=0.0, max_value=1e3),
                         st.floats(min_value=1e-300, max_value=1e3),
                         st.floats(min_value=1e-15, max_value=0.99)).filter(bool)),
           st.lists(st.one_of(st.sampled_from((math.nan, math.inf, -math.inf)), st.floats()),
                    max_size=60),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_select_is_the_multiplicative_loop(self, rule, values, centre):
        # The probes read `values` in turn, then a parabola: result, probe
        # sequence and raise match a loop that shrinks the width as it goes.
        def outcome(select):
            probes = []

            def phi(t):
                probes.append(t)
                i = len(probes) - 1
                return values[i] if i < len(values) else (t - centre) ** 2

            try:
                return select(phi), probes
            except LineSearchFailedError:
                return "raised", probes

        assert outcome(rule.select) == outcome(lambda phi: golden_reference(rule, phi))


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

    @pytest.mark.parametrize("x, d", [((1.0, 1.0), (1e200, 1e200)),
                                      ((1e300, 1e300), (1e200, -1e308))])
    def test_overflowing_curvature_has_no_step(self, x, d):
        # d'Qd overflows to inf: the quotient would be a step of -0.0 that does
        # not move, or nan where g'd overflows too.
        line = restrict(QuadraticObjective(np.eye(2), [0.0, 0.0]), x, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LineSearchFailedError):
                ExactQuadratic().select(line)


class TestRandomQuadraticFit:
    def test_draw_is_seeded_and_in_range(self):
        rule = RandomQuadraticFit(1e-5, 1.24e-4, seed=9)
        rng1 = np.random.default_rng(rule.seed)
        rng2 = np.random.default_rng(rule.seed)
        for _ in range(20):
            s1 = rule.draw(rng1)
            s2 = rule.draw(rng2)
            assert s1 == s2
            assert len(s1) == 3 and all(type(a) is float for a in s1)
            assert all(1e-5 <= a <= 1.24e-4 for a in s1)
            assert len(set(s1)) == 3

    def test_select_is_quadratic_fit_on_the_drawn_samples(self):
        # Bit for bit, on lines where the fit takes its vertex (along -g on the
        # valley, and on a quadratic's LineRestriction) and where it falls back
        # to a sample (along +g away from (5, 5)).
        valley = RosenbrockObjective(100.0)
        q = QuadraticObjective(np.array([[3.0, 1.0], [1.0, 2.0]]), [1.0, -1.0])
        lines = [restrict(q, [4.0, -3.0], -q.gradient([4.0, -3.0]))]
        for p in ((5.0, 5.0), (2.0, 2.0), (-1.2, 1.0), (0.5, 0.3)):
            g = valley.gradient(p)
            lines += [restrict(valley, p, -g), restrict(valley, p, g)]
        vertices = fallbacks = 0
        for seed in range(4):
            rule = RandomQuadraticFit(1e-5, 1.24e-4, seed)
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            for _ in range(20):
                for line in lines:
                    samples = rule.draw(rng_b)
                    step = QuadraticFit(samples).select(line)
                    assert rule.select(line, rng_a) == step
                    fallbacks += step in samples
                    vertices += step not in samples
        assert vertices > 200 and fallbacks > 200

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
