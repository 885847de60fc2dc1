"""Tests for the objective functions and finite-difference oracles."""

import array
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rosenbench import (
    Fixed,
    GoldenSection,
    InvalidInputError,
    QuadraticObjective,
    RosenbrockObjective,
    TerminationPolicy,
    VariableCandidates,
    finite_diff_gradient,
    finite_diff_hessian,
    steepest_descent,
)
from rosenbench.errors import as_vector, check_real


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


@pytest.mark.parametrize("bad", [(Fraction(1, 2), 1.0), (2**70, 1.0), array.array("d", [1.0, 2.0])],
                         ids=["fraction", "big-int", "array.array"])
def test_point_methods_and_drivers_refuse_the_same_points(bad):
    # One judge: a point the drivers refuse as a start is refused by value,
    # gradient and hessian too, and each names what it judged.
    valley = RosenbrockObjective(1.0)
    for call in (valley.value, valley.gradient, valley.hessian):
        with pytest.raises(InvalidInputError, match="^point must be an array of reals"):
            call(bad)
    with pytest.raises(InvalidInputError, match="^start must be an array of reals"):
        steepest_descent(valley, bad, Fixed(0.1))


@pytest.mark.parametrize("bad", [np.array(True), np.array(0.5), Fraction(1, 2), 2**70],
                         ids=["0-d-bool", "0-d-float", "fraction", "big-int"])
def test_every_judge_reads_a_real_alike(bad):
    # One rule for a real: a scalar, a vector field's element, a point, a start and an
    # entry of Q refuse the same values.
    valley = RosenbrockObjective(1.0)
    for call in (lambda: check_real("kappa", bad), lambda: VariableCandidates((0.1, bad)),
                 lambda: valley.value((bad, 2.0)),
                 lambda: steepest_descent(valley, (bad, 2.0), Fixed(0.1)),
                 lambda: QuadraticObjective([[bad, 0.0], [0.0, 1.0]], [0.0, 0.0])):
        with pytest.raises(InvalidInputError):
            call()


def test_nesting_beyond_numpy_dimensions_refused():
    # The judges stop at numpy's 64 dimensions and cut their messages short, so none of
    # them recurses down a nesting deeper than the interpreter's stack.
    deep = [1.0]
    for _ in range(5000):
        deep = [deep]
    for x in (deep, [{1}, deep]):
        with pytest.raises(InvalidInputError, match="^start must be an array of reals"):
            steepest_descent(RosenbrockObjective(1.0), x, Fixed(0.1))
    with pytest.raises(InvalidInputError, match="^kappa must be positive"):
        RosenbrockObjective(deep)
    with pytest.raises(InvalidInputError, match="^max_iterations must be an integer"):
        TerminationPolicy(max_iterations=deep)


def test_largest_64_bit_integers_are_reals():
    # numpy holds 2**63 as a uint64 and -2**63 as an int64.
    for big in (2**63, -2**63):
        assert check_real("kappa", abs(big)) == float(abs(big))
        assert as_vector((big, 1.0)).tolist() == [float(big), 1.0]
        assert VariableCandidates((abs(big),)).alphas == (float(abs(big)),)


def test_integer_beyond_the_float_range_refused():
    with pytest.raises(InvalidInputError, match="^kappa must be positive and finite"):
        check_real("kappa", 10**400)
    with pytest.raises(InvalidInputError):
        RosenbrockObjective(10**400)


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

    @pytest.mark.parametrize("Q, reason", [
        ("ab", "^Q must be an array of reals"),
        ([[1.0, 0.0], [0.0]], "^Q must be an array of reals"),
        ([[1 + 0j, 0], [0, 1]], "^Q must be an array of reals"),
        ({1: 2}, "^Q must be an array of reals"),
        ([[True, False], [False, True]], "^Q must be an array of reals"),
        ([[2.0, True], [True, 2.0]], "^Q must be an array of reals"),
        ([[np.array(True), 0.0], [0.0, 1.0]], "^Q must be an array of reals"),
        ([[2.0, 0.0], bytearray(b"\x00\x02")], "^Q must be an array of reals"),
        ([[2.0, 0.0], memoryview(b"\x00\x02")], "^Q must be an array of reals"),
        (np.array(2.0), "^Q must be an array of reals"),
        (np.ones((2, 3)), "^Q must be square"),
        ([[math.inf, 0.0], [0.0, 1.0]], "^Q has non-finite entries"),
        ([[1.0, 0.0], [0.0, math.nan]], "^Q has non-finite entries"),
    ], ids=["text", "ragged", "complex", "dict", "bool", "mixed-bool", "0-d-bool", "bytearray-row",
        "memoryview-row", "0-d-float64", "not-square", "inf", "nan"])
    def test_bad_Q_rejected(self, Q, reason):
        with pytest.raises(InvalidInputError, match=reason):
            QuadraticObjective(Q, [0.0, 0.0])

    def test_bad_b_is_named(self):
        with pytest.raises(InvalidInputError, match="^b has non-finite components"):
            QuadraticObjective(np.eye(2), [0.0, math.inf])
        with pytest.raises(InvalidInputError, match="^b must be an array of reals"):
            QuadraticObjective(np.eye(2), "ab")

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
        # The default steps are lost in rounding at such points; a step of a millionth of
        # the point moves every coordinate.
        h = 1e-6 * max(map(abs, x))
        for oracle in (finite_diff_gradient, finite_diff_hessian):
            with pytest.raises(InvalidInputError, match="lost in rounding"):
                oracle(q, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = q.value(x)
            gradient = q.gradient(x)
            fd_gradient = finite_diff_gradient(q, x, h)
            fd_hessian = finite_diff_hessian(q, x, h)
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

    def test_hessian_near_the_float_limit_is_finite(self):
        # H[0, 0] is about 1.2e308; adding it to itself, as a symmetrization would, overflows.
        fd = finite_diff_hessian(RosenbrockObjective(3e306), (2.0, 2.0))
        assert np.isfinite(fd).all() and (fd == fd.T).all()
        assert_allclose(fd, [[1.2e308, -2.4e307], [-2.4e307, 6e306]], rtol=1e-6)

    def test_bad_step_rejected(self):
        f = RosenbrockObjective(1.0)
        with pytest.raises(InvalidInputError):
            finite_diff_gradient(f, (0.0, 0.0), 0.0)
        with pytest.raises(InvalidInputError):
            finite_diff_hessian(f, (0.0, 0.0), -1e-4)

    @pytest.mark.parametrize("oracle", [finite_diff_gradient, finite_diff_hessian])
    @pytest.mark.parametrize("h", [1e-16, 1e-20])
    def test_step_lost_in_rounding_refused(self, oracle, h):
        # 2 + h and 2 - h round to 2, so every difference would read zero.
        with pytest.raises(InvalidInputError, match="lost in rounding at \\[2.0, 2.0\\]"):
            oracle(RosenbrockObjective(1.0), (2.0, 2.0), h)

    @pytest.mark.parametrize("oracle", [finite_diff_gradient, finite_diff_hessian])
    def test_step_lost_in_one_coordinate_refused(self, oracle):
        # The ulp of 1e10 is about 1.9e-6: a step of 1e-7 is lost there, one of 1e-5 is not.
        q = QuadraticObjective(np.eye(3), np.zeros(3))
        with pytest.raises(InvalidInputError, match="finite-difference step 1e-07"):
            oracle(q, (0.0, 1e10, 0.0), 1e-7)
        assert oracle(q, (0.0, 1e10, 0.0), 1e-5).shape[0] == 3

    @pytest.mark.parametrize("oracle, h", [(finite_diff_gradient, 1e-17),
                                           (finite_diff_hessian, 1e-160)])
    def test_step_that_leaves_f_unchanged_refused(self, oracle, h):
        # The step moves the origin, but f(±h, 0) and f(0, ±h) round to f(0, 0) = 1, so the
        # differences would read a zero gradient (not [-2, 0]) or Hessian (not 2I).
        with pytest.raises(InvalidInputError, match=f"step {h!r} leaves f unchanged at"):
            oracle(RosenbrockObjective(1.0), (0.0, 0.0), h)


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


# Containers of two valid reals: which count as a sequence is decided once, for a point
# and for each vector field alike.
@pytest.mark.parametrize("container, accepted", [
    ((1.0, 2.0), True), ([1.0, 2.0], True), (range(1, 3), True), (np.array([1.0, 2.0]), True),
    (b"ab", False), (bytearray(b"ab"), False), (memoryview(b"ab"), False), ("12", False),
    ({1.0, 2.0}, False), (frozenset((1.0, 2.0)), False), ({1.0: "a", 2.0: "b"}, False),
    (iter((1.0, 2.0)), False), ((x for x in (1.0, 2.0)), False), (np.array(1.0), False),
])
def test_as_vector_and_vector_fields_accept_the_same_containers(container, accepted):
    def accepts(check):
        try:
            check(container)
        except InvalidInputError:
            return False
        return True

    assert accepts(lambda c: as_vector(c, 2)) is accepted
    assert accepts(VariableCandidates) is accepted
