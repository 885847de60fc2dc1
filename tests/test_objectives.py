"""Tests for the objective functions and finite-difference oracles."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rosenbench import (
    GoldenSection,
    InvalidInputError,
    QuadraticObjective,
    RosenbrockObjective,
    TerminationPolicy,
    finite_diff_gradient,
    finite_diff_hessian,
    steepest_descent,
)
from rosenbench.errors import check_tuple
from rosenbench.objectives import _pair, as_vector


@pytest.mark.parametrize(
    "p, kappa, expected",
    [
        ((1, 1), 1.0, 0.0),      # global minimizer
        ((2, 2), 1.0, 5.0),      # 1*(4-2)^2 + (2-1)^2
        ((2, 2), 100.0, 401.0),  # 100*(4-2)^2 + 1
        ((5, 5), 1.0, 416.0),    # (25-5)^2 + 16
    ],
)
def test_value_examples(p, kappa, expected):
    assert RosenbrockObjective(kappa).value(p) == expected


@pytest.mark.parametrize(
    "p, kappa, expected",
    [
        ((1, 1), 100.0, (0.0, 0.0)),
        ((2, 2), 1.0, (18.0, -4.0)),
        ((0, 0), 1.0, (-2.0, 0.0)),
    ],
)
def test_gradient_examples(p, kappa, expected):
    assert_allclose(RosenbrockObjective(kappa).gradient(p), expected, rtol=0, atol=0)


@pytest.mark.parametrize(
    "p, kappa, expected",
    [
        ((0, 0), 1.0, [[2, 0], [0, 2]]),
        ((1, 1), 1.0, [[10, -4], [-4, 2]]),
        ((2, 2), 100.0, [[4002, -800], [-800, 200]]),
    ],
)
def test_hessian_examples(p, kappa, expected):
    assert_allclose(RosenbrockObjective(kappa).hessian(p), expected, rtol=0, atol=0)


@pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.inf), (1.0, -math.inf),
                                 ("a", "b"), ("1", "2"), (True, 1j), (1.0, None), 2.0])
def test_nonfinite_input_rejected(bad):
    with pytest.raises(InvalidInputError):
        RosenbrockObjective(1.0).value(bad)
    with pytest.raises(InvalidInputError):
        RosenbrockObjective(1.0).gradient(bad)
    with pytest.raises(InvalidInputError):
        RosenbrockObjective(1.0).hessian(bad)


@pytest.mark.parametrize("kappa", [1.0, 100.0, 3.7e-5, 2.9e11])
def test_fused_value_and_gradient_bit_identical(kappa):
    # The drivers evaluate the valley only through the fused method, and
    # value and gradient are views of it, so all three agree to the bit.
    obj = RosenbrockObjective(kappa)
    rng = np.random.default_rng(7)
    points = [(1.0, 1.0), (2.0, 2.0), (-1.2, 1.0), (1e150, -3.0), (0.0, 1e200)]
    points += [tuple(p) for p in rng.uniform(-10.0, 10.0, (200, 2)).tolist()]
    for p in points:
        f, g1, g2 = obj.value_and_gradient(*p)
        assert type(f) is float and type(g1) is float and type(g2) is float
        assert f == obj.value(p)
        assert np.array_equal(np.array((g1, g2)), obj.gradient(p))


def test_value_and_gradient_and_line_are_the_override_points():
    # A fused subclass that changes f overrides both methods; value,
    # gradient and a golden-section run then follow its f.  A tilt moves the
    # minimizer along every line, so a phi left on the plain valley would
    # pick other steps than the reference below.
    class Tilted(RosenbrockObjective):
        def value_and_gradient(self, x1, x2):
            f, g1, g2 = super().value_and_gradient(x1, x2)
            return f + x1, g1 + 1.0, g2

        def line(self, x, d):
            phi = super().line(x, d)
            return lambda a: phi(a) + (x[0] + a * d[0])

    class TiltedOnArrays:
        """The same f through value and gradient only, so runs take the ndarray path."""

        dim = 2

        def value(self, x):
            return RosenbrockObjective(100.0).value(x) + float(x[0])

        def gradient(self, x):
            return RosenbrockObjective(100.0).gradient(x) + np.array([1.0, 0.0])

    obj = Tilted(100.0)
    for p in [(2.0, 2.0), (-1.2, 1.0), (5.0, 5.0)]:
        f, g1, g2 = obj.value_and_gradient(*p)
        assert f == RosenbrockObjective(100.0).value(p) + p[0]
        assert obj.value(p) == f
        assert np.array_equal(obj.gradient(p), np.array((g1, g2)))
    policy = TerminationPolicy(max_iterations=5)
    runs = [steepest_descent(o, (2.0, 2.0), GoldenSection(), policy)
            for o in (obj, TiltedOnArrays(), RosenbrockObjective(100.0))]
    points = [[(r.point.tolist(), r.value, r.alpha_used) for r in run.trajectory] for run in runs]
    assert len(points[0]) == 6
    assert points[0] == points[1] != points[2]


def test_wrong_dimension_rejected():
    with pytest.raises(InvalidInputError):
        RosenbrockObjective(1.0).value((1.0, 2.0, 3.0))
    with pytest.raises(InvalidInputError):
        RosenbrockObjective(1.0).gradient([1.0])


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan])
def test_bad_kappa_rejected(kappa):
    with pytest.raises(InvalidInputError):
        RosenbrockObjective(kappa)


def test_as_vector_validation():
    v = as_vector([1.0, 2.0, 3.0])
    assert v.dtype == np.float64
    with pytest.raises(InvalidInputError):
        as_vector([])
    with pytest.raises(InvalidInputError):
        as_vector([1.0, math.nan])
    with pytest.raises(InvalidInputError):
        as_vector([1.0, 2.0], dim=3)


class TestQuadraticObjective:
    def test_identity_example(self):
        q = QuadraticObjective(np.eye(2), [0.0, 0.0])
        assert q.value([3.0, 4.0]) == 12.5
        assert_allclose(q.gradient([3.0, 4.0]), [3.0, 4.0], rtol=0, atol=0)

    def test_minimizer_gradient_vanishes(self):
        q = QuadraticObjective(np.diag([2.0, 4.0]), [2.0, 4.0])
        assert_allclose(q.gradient([1.0, 1.0]), [0.0, 0.0], rtol=0, atol=0)
        assert_allclose(q.minimizer(), [1.0, 1.0])

    def test_value_example(self):
        assert QuadraticObjective(np.diag([2.0, 4.0]), [0.0, 0.0]).value([1.0, 1.0]) == 3.0

    def test_hessian_is_Q(self):
        Q = np.array([[3.0, 1.0], [1.0, 2.0]])
        q = QuadraticObjective(Q, [0.0, 0.0])
        assert_allclose(q.hessian([5.0, -5.0]), Q, rtol=0, atol=0)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            QuadraticObjective([[1.0, 0.5], [0.4, 1.0]], [0.0, 0.0])

    def test_indefinite_rejected(self):
        with pytest.raises(InvalidInputError):
            QuadraticObjective([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            QuadraticObjective(np.eye(2), [1.0, 2.0, 3.0])
        q = QuadraticObjective(np.eye(2), [0.0, 0.0])
        with pytest.raises(InvalidInputError):
            q.value([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x", [(1e160, 1e160), (1e308, 1e308), (-1e308, -1e308),
                                   (1e308, -1e308)])
    @pytest.mark.parametrize("Q, b", [(np.eye(2), [0.0, 0.0]),
                                      ([[4.0, 1.0], [1.0, 4.0]], [1.0, -1.0])])
    def test_overflow_is_inf_or_nan_without_a_warning(self, Q, b, x):
        q = QuadraticObjective(Q, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = q.value(x)
            gradient = q.gradient(x)
            fd_gradient = finite_diff_gradient(q, x)
            fd_hessian = finite_diff_hessian(q, x)
        assert not math.isfinite(value)
        # x'Qx overflows at every such point; Qx only where it leaves the float range.
        assert np.isfinite(gradient).all() == (abs(x[0]) < 1e300 or Q[0][0] == 1.0)
        assert not np.isfinite(fd_gradient).any() and not np.isfinite(fd_hessian).any()

    def test_random_minimizer_gradient_small(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(2, 6)
            M = rng.standard_normal((n, n))
            Q = M @ M.T + n * np.eye(n)
            b = rng.standard_normal(n)
            q = QuadraticObjective(Q, b)
            assert np.max(np.abs(q.gradient(q.minimizer()))) <= 1e-10


class TestFiniteDifferences:
    def test_gradient_matches_analytic(self):
        f = RosenbrockObjective(1.0)
        fd = finite_diff_gradient(f, (2.0, 2.0), 1e-6)
        assert_allclose(fd, (18.0, -4.0), rtol=1e-6)

    def test_gradient_zero_at_minimum(self):
        f = RosenbrockObjective(1.0)
        fd = finite_diff_gradient(f, (1.0, 1.0), 1e-6)
        assert np.max(np.abs(fd)) <= 1e-8

    def test_gradient_quadratic(self):
        q = QuadraticObjective(np.diag([2.0, 4.0]), [0.0, 0.0])
        fd = finite_diff_gradient(q, (1.0, 1.0), 1e-6)
        assert_allclose(fd, (2.0, 4.0), rtol=0, atol=1e-8)

    def test_hessian_rosenbrock_origin(self):
        f = RosenbrockObjective(1.0)
        fd = finite_diff_hessian(f, (0.0, 0.0), 1e-4)
        assert_allclose(fd, [[2.0, 0.0], [0.0, 2.0]], rtol=0, atol=1e-4)

    def test_hessian_quadratic_constant(self):
        Q = np.array([[3.0, 1.0], [1.0, 2.0]])
        q = QuadraticObjective(Q, [1.0, -1.0])
        for p in ([0.0, 0.0], [2.0, -3.0], [10.0, 7.0]):
            assert_allclose(finite_diff_hessian(q, p), Q, rtol=0, atol=1e-5)

    def test_hessian_kappa100(self):
        f = RosenbrockObjective(100.0)
        fd = finite_diff_hessian(f, (2.0, 2.0), 1e-4)
        assert_allclose(fd, [[4002.0, -800.0], [-800.0, 200.0]], rtol=0, atol=1e-2)

    def test_bad_step_rejected(self):
        f = RosenbrockObjective(1.0)
        with pytest.raises(InvalidInputError):
            finite_diff_gradient(f, (0.0, 0.0), 0.0)
        with pytest.raises(InvalidInputError):
            finite_diff_hessian(f, (0.0, 0.0), -1e-4)


class TestInvariants:
    def test_gradient_vs_finite_differences_random(self):
        # Analytic gradient agrees with central differences over the whole
        # probe window, at 1e-5 relative (1e-7 absolute near zero).
        rng = np.random.default_rng(42)
        for kappa in (1.0, 100.0):
            f = RosenbrockObjective(kappa)
            for _ in range(60):
                p = rng.uniform(-10.0, 10.0, 2)
                ga = f.gradient(p)
                gf = finite_diff_gradient(f, p, 1e-6)
                for a, b in zip(ga, gf):
                    if abs(a) < 1e-3:
                        assert abs(a - b) <= 1e-7
                    else:
                        assert abs(a - b) / abs(a) <= 1e-5

    def test_value_nonnegative_zero_only_at_minimum(self):
        rng = np.random.default_rng(0)
        for kappa in (1.0, 100.0):
            assert RosenbrockObjective(kappa).value((1.0, 1.0)) == 0.0
            for _ in range(200):
                p = rng.uniform(-10.0, 10.0, 2)
                v = RosenbrockObjective(kappa).value(p)
                assert v >= 0.0
                if tuple(p) != (1.0, 1.0):
                    assert v > 0.0

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.uniform(-10.0, 10.0, 2)
            H = RosenbrockObjective(rng.uniform(0.5, 200.0)).hessian(p)
            assert H[0, 1] == H[1, 0]

    def test_hessian_determinant_closed_form(self):
        # det of the kappa=1 Hessian is 8*x1^2 - 8*x2 + 4.
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.uniform(-10.0, 10.0, 2)
            H = RosenbrockObjective(1.0).hessian(p)
            det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
            assert_allclose(det, 8.0 * p[0] * p[0] - 8.0 * p[1] + 4.0, rtol=1e-12, atol=1e-9)

    def test_hessian_singular_on_parabola(self):
        # Exactly singular where x2 = x1^2 + 1/2 (representable points).
        for x1 in (0.0, 0.5, 1.0, 1.5, 2.0):
            H = RosenbrockObjective(1.0).hessian((x1, x1 * x1 + 0.5))
            assert H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0] == 0.0


# Containers of two valid reals: which count as a sequence is decided once, for both.
@pytest.mark.parametrize("container, accepted", [
    ((1.0, 2.0), True), ([1.0, 2.0], True), (range(1, 3), True), (np.array([1.0, 2.0]), True),
    (b"ab", False), (bytearray(b"ab"), False), (memoryview(b"ab"), False), ("12", False),
    ({1.0, 2.0}, False), (frozenset((1.0, 2.0)), False), ({1.0: "a", 2.0: "b"}, False),
    (iter((1.0, 2.0)), False), ((x for x in (1.0, 2.0)), False), (np.array(1.0), False),
])
def test_pair_and_check_tuple_accept_the_same_containers(container, accepted):
    def accepts(check):
        try:
            check(container)
        except InvalidInputError:
            return False
        return True

    assert accepts(_pair) is accepted
    assert accepts(lambda c: check_tuple("field", c)) is accepted
