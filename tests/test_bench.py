"""Tests for the benchmark matrix, contour grid, and CSV emission."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rosenbench import (
    ContourGrid,
    ExactQuadratic,
    ExperimentMatrix,
    Fixed,
    IncomparableVariantsError,
    InvalidInputError,
    IterateRecord,
    QuadraticObjective,
    ResultRow,
    RosenbrockObjective,
    RunResult,
    RunStatus,
    TerminationPolicy,
    compare_sd_variants,
    contour_grid,
    fletcher_reeves_cg,
    grid_csv,
    newton_raphson,
    results_csv,
    run_matrix,
    steepest_descent,
    trajectory_csv,
)
from rosenbench import optimize
from rosenbench.bench import RESULTS_HEADER, rule_label, run_cell, run_method, status_label


def synthetic_row(variant_rule, iterations, status="converged", kappa=1.0, start=(2.0, 2.0)):
    return ResultRow(
        method="sd",
        step_rule=variant_rule,
        kappa=kappa,
        x0=start,
        status=status,
        iterations=iterations,
        final_f=0.0,
        final_grad_norm=0.0,
        wall_ms=1.0,
        final_point=(1.0, 1.0),
    )


@pytest.fixture(scope="module")
def study_rows():
    return run_matrix()


class TestRunMatrix:
    def test_row_count_and_order(self, study_rows):
        study = ExperimentMatrix()
        cells = study.cells()
        assert len(study_rows) == len(cells) * len(study.kappas) * len(study.starts)
        labels = [(r.method, r.step_rule, r.kappa, r.x0) for r in study_rows]
        expected = [
            (m, rule_label(rule), k, s)
            for (m, rule) in cells
            for k in study.kappas
            for s in study.starts
        ]
        assert labels == expected

    def test_default_matrix_shape(self):
        cells = ExperimentMatrix().cells()
        # 4 SD fixed + 3 SD adaptive + newton + 4 CG fixed = 12 cells.
        assert len(cells) == 12
        methods = [m for m, _ in cells]
        assert methods == ["sd"] * 7 + ["newton"] + ["cg"] * 4
        # One rule per fixed step, shared by its SD and CG cells: seven rules in all.
        assert all(sd is cg for (_, sd), (_, cg) in zip(cells[:4], cells[8:]))
        assert len({id(rule) for _, rule in cells if rule is not None}) == 7

    def test_default_matrix_matches_study_setup(self):
        m = ExperimentMatrix()
        assert m.kappas == (1.0, 100.0)
        assert m.starts == ((2.0, 2.0), (5.0, 5.0))
        assert m.fixed_alphas == (0.124, 0.0124, 0.00124, 0.000124)
        assert m.policy.epsilon == 1e-3
        # The grid is the study's; a caller sets the policy alone.
        assert [f.name for f in dataclasses.fields(ExperimentMatrix)] == ["policy"]

    @pytest.mark.parametrize("field, value", [
        ("kappas", (1.0,)),
        ("starts", ((2.0, 2.0),)),
        ("fixed_alphas", (0.0124,)),
    ])
    def test_grid_is_not_an_argument(self, field, value):
        # Refused, not ignored: no caller runs a smaller grid believing it the study.
        with pytest.raises(TypeError):
            ExperimentMatrix(**{field: value})

    def test_cells_are_built_once(self):
        cells = ExperimentMatrix().cells()
        other = ExperimentMatrix(policy=TerminationPolicy(max_iterations=5)).cells()
        assert all(a is b for a, b in zip(cells, other, strict=True))
        cells.clear()  # a caller's list, not the study's
        assert ExperimentMatrix().cells() == other

    def test_policy_reaches_every_row(self):
        rows = run_matrix(ExperimentMatrix(policy=TerminationPolicy(max_iterations=3)))
        assert len(rows) == 48
        assert all(r.iterations <= 3 for r in rows)
        assert {r.status for r in rows} >= {"max_iter"}

    def test_rows_reproducible_modulo_wall_clock(self, study_rows):
        a = results_csv(study_rows)
        b = results_csv(run_matrix())
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(a) == strip(b)

    def test_converged_rows_verify_independently(self, study_rows):
        policy = TerminationPolicy()
        for row in study_rows:
            if row.status == "converged":
                g = RosenbrockObjective(row.kappa).gradient(row.final_point)
                assert math.hypot(*g) <= policy.epsilon

    def test_known_outcomes(self, study_rows):
        rows = {(r.method, r.step_rule): r for r in study_rows
                if r.kappa == 1.0 and r.x0 == (2.0, 2.0)}
        assert rows[("sd", "fixed:0.0124")].status == "converged"
        assert rows[("newton", "none")].status == "converged"
        assert rows[("newton", "none")].iterations <= 50

    def test_single_cell_start_at_minimum(self):
        row = run_cell("newton", None, 1.0, (1.0, 1.0), TerminationPolicy())
        assert row.status == "converged"
        assert row.iterations == 0


class TestRunMethod:
    @pytest.mark.parametrize("method, rule, restart_period", [
        ("newton", Fixed(0.1), None),
        ("sd", Fixed(0.1), 3),
        ("newton", None, 3),
    ])
    def test_argument_the_method_does_not_take_is_refused(self, method, rule, restart_period):
        # Not dropped without a word: the run would not be the one asked for.
        with pytest.raises(InvalidInputError):
            run_method(method, RosenbrockObjective(1.0), (2.0, 2.0), rule, TerminationPolicy(),
                       restart_period=restart_period)

    def test_unknown_method_is_refused(self):
        with pytest.raises(InvalidInputError, match="unknown method: 'bogus'"):
            run_method("bogus", RosenbrockObjective(1.0), (2.0, 2.0), Fixed(0.1),
                       TerminationPolicy())


class TestStatusLabel:
    """One run ending in each RunStatus member, labelled as the README's CSV formats list."""

    @pytest.mark.parametrize("status, label, run", [
        (RunStatus.CONVERGED, "converged",
         lambda: steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), Fixed(0.124))),
        (RunStatus.DIVERGED_BLOWUP, "diverged_blowup",
         lambda: fletcher_reeves_cg(RosenbrockObjective(100.0), (5.0, 5.0), Fixed(0.0124))),
        # d'Qd underflows to 0 along the first direction.
        (RunStatus.DIVERGED_NONFINITE, "diverged_nonfinite",
         lambda: steepest_descent(QuadraticObjective(np.eye(2), [0.0, 0.0]), (1e-170, 0.0),
                                  ExactQuadratic(), TerminationPolicy(epsilon=1e-300))),
        # The Frobenius norm of F(2, 2) overflows to inf.
        (RunStatus.DIVERGED_SINGULAR_HESSIAN, "diverged_singular_hessian",
         lambda: newton_raphson(RosenbrockObjective(1e300), (2.0, 2.0))),
        (RunStatus.MAX_ITERATIONS, "max_iter",
         lambda: steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), Fixed(0.124),
                                  TerminationPolicy(max_iterations=1))),
    ], ids=[s.value for s in RunStatus])
    def test_each_status_is_its_label(self, status, label, run):
        r = run()
        assert r.status is status
        assert status_label(r) == r.status.value == label

    def test_five_members(self):
        assert [s.value for s in RunStatus] == [
            "converged", "diverged_blowup", "diverged_nonfinite", "diverged_singular_hessian",
            "max_iter"]


class TestCompareVariants:
    def test_orders_by_iterations(self):
        rows = [
            synthetic_row("fixed:0.00012400000000000001", 400),
            synthetic_row("variable:0.1", 300),
            synthetic_row("quadfit:0.1,0.2,0.3", 200),
            synthetic_row("golden:0:1:1e-08", 100),
        ]
        order = compare_sd_variants(rows, 1.0, (2.0, 2.0))
        assert order == ["golden-section", "quadratic-fit", "variable", "fixed"]

    def test_decoy_rows_do_not_compete(self):
        # The fixed variant is the 0.000124 step alone, though an earlier fixed row converges
        # sooner; "quadfit-random:" does not start with "quadfit:".
        rows = [
            synthetic_row("fixed:0.0124", 5),
            synthetic_row("quadfit-random:1.0000000000000001e-05,0.000124,seed=0", 1),
            synthetic_row("fixed:0.00012400000000000001", 400),
            synthetic_row("variable:0.1", 300),
            synthetic_row("quadfit:0.1,0.2,0.3", 200),
            synthetic_row("golden:0:1:1e-08", 100),
        ]
        order = compare_sd_variants(rows, 1.0, (2.0, 2.0))
        assert order == ["golden-section", "quadratic-fit", "variable", "fixed"]

    def test_ties_break_alphabetically(self):
        rows = [
            synthetic_row("fixed:0.00012400000000000001", 7),
            synthetic_row("variable:0.1", 7),
            synthetic_row("quadfit:0.1,0.2,0.3", 7),
            synthetic_row("golden:0:1:1e-08", 7),
        ]
        order = compare_sd_variants(rows, 1.0, (2.0, 2.0))
        assert order == ["fixed", "golden-section", "quadratic-fit", "variable"]

    def test_missing_variant_raises(self):
        rows = [synthetic_row("fixed:0.00012400000000000001", 7)]
        with pytest.raises(IncomparableVariantsError, match="variable"):
            compare_sd_variants(rows, 1.0, (2.0, 2.0))

    def test_nonconverged_variant_raises(self):
        rows = [
            synthetic_row("fixed:0.00012400000000000001", 7),
            synthetic_row("variable:0.1", 7, status="diverged_blowup"),
            synthetic_row("quadfit:0.1,0.2,0.3", 7),
            synthetic_row("golden:0:1:1e-08", 7),
        ]
        with pytest.raises(IncomparableVariantsError, match="variable"):
            compare_sd_variants(rows, 1.0, (2.0, 2.0))


class TestContourGrid:
    def test_two_by_two_unit_square(self):
        grid = contour_grid(1.0, (0.0, 1.0), (0.0, 1.0), 2)
        assert_allclose(grid.values, [[1.0, 2.0], [1.0, 0.0]], rtol=0, atol=0)

    def test_minimum_on_grid(self):
        grid = contour_grid(1.0, (-2.0, 2.0), (-1.0, 3.0), 401)
        i, j = np.unravel_index(np.argmin(grid.values), grid.values.shape)
        assert grid.xs[i] == 1.0 and grid.ys[j] == 1.0
        assert grid.values[i, j] == 0.0

    def test_kappa_100_values(self):
        grid = contour_grid(100.0, (-2.0, 2.0), (-1.0, 3.0), 401)
        ix = int(np.where(grid.xs == 1.0)[0][0])
        iy = int(np.where(grid.ys == 1.0)[0][0])
        assert grid.values[ix, iy] == 0.0
        ix0 = int(np.where(grid.xs == 0.0)[0][0])
        iy0 = int(np.where(grid.ys == 0.0)[0][0])
        assert grid.values[ix0, iy0] == 1.0

    def test_pointwise_reproducible(self):
        grid = contour_grid(100.0, (-2.0, 6.0), (-2.0, 6.0), 41)
        rng = np.random.default_rng(13)
        for _ in range(50):
            i, j = rng.integers(0, 41, 2)
            assert grid.values[i, j] == RosenbrockObjective(100.0).value((grid.xs[i], grid.ys[j]))

    def test_overflowing_values_are_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = contour_grid(3.7, (-1e-300, 1e300), (-5.0, 7.5), 3)
            text = grid_csv(grid)
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                assert grid.values[i, j] == RosenbrockObjective(3.7).value((x, y))
        assert np.isfinite(grid.values[0]).all() and (grid.values[1:] == math.inf).all()
        assert text.count(",inf\n") == 6

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            contour_grid(1.0, (1.0, 1.0), (0.0, 1.0), 11)
        with pytest.raises(InvalidInputError):
            contour_grid(1.0, (0.0, 1.0), (2.0, 1.0), 11)
        with pytest.raises(InvalidInputError):
            contour_grid(1.0, (0.0, 1.0), (0.0, 1.0), 1)
        # Finite ends whose width overflows, and an infinite end.
        with pytest.raises(InvalidInputError):
            contour_grid(1.0, (-1e308, 1e308), (0.0, 1.0), 3)
        with pytest.raises(InvalidInputError):
            contour_grid(1.0, (0.0, 1.0), (-1e308, 1e308), 3)
        with pytest.raises(InvalidInputError):
            contour_grid(1.0, (0.0, math.inf), (0.0, 1.0), 3)
        # A refused range end is named by its range.
        with pytest.raises(InvalidInputError, match="^x_range must be"):
            contour_grid(1.0, (True, 6.0), (0.0, 1.0), 3)
        with pytest.raises(InvalidInputError, match="^y_range must be"):
            contour_grid(1.0, (0.0, 1.0), (0.0, "1"), 3)
        # A range is a sequence or an array: bytes would read as (97, 98).
        for bad in (b"ab", bytearray(b"ab"), {2.0, 1.0}, {1.0: "a", 2.0: "b"}, iter((0.0, 1.0))):
            with pytest.raises(InvalidInputError, match="^x_range must be"):
                contour_grid(1.0, bad, (0.0, 1.0), 2)


class TestCsvEmission:
    def test_empty_rows_header_only(self):
        text = results_csv([])
        assert text == RESULTS_HEADER + "\n"

    def test_single_row_two_lines(self):
        text = results_csv([synthetic_row("fixed:0.124", 5)])
        lines = text.splitlines()
        assert len(lines) == 2
        assert text.endswith("\n")
        assert lines[1].startswith("sd,fixed:0.124,1,2,2,converged,5,")

    def test_newton_trajectory_csv(self):
        r = newton_raphson(RosenbrockObjective(1.0), (0.0, 0.0))
        text = trajectory_csv(r)
        lines = text.splitlines()
        assert lines[0] == "k,x1,x2,f,grad_norm,alpha"
        assert len(lines) == 4
        assert lines[1].startswith("0,0,0,")
        assert lines[2].startswith("1,1,0,")
        assert lines[3].startswith("2,1,1,")

    def test_grid_csv_row_major(self):
        grid = contour_grid(1.0, (0.0, 1.0), (0.0, 1.0), 2)
        lines = grid_csv(grid).splitlines()
        assert lines[0] == "x,y,f"
        assert lines[1:] == ["0,0,1", "0,1,2", "1,0,1", "1,1,0"]


# The writers as they were before each formatted whole blocks of rows with one `%`:
# one f-string per row and one format per field.  The new writers must equal them.
def reference_results_csv(rows):
    def fmt_real(v):
        return format(float(v), ".17g")
    lines = [RESULTS_HEADER]
    for r in rows:
        lines.append(
            f"{r.method},{r.step_rule},{fmt_real(r.kappa)},{fmt_real(r.x0[0])},"
            f"{fmt_real(r.x0[1])},{r.status},{r.iterations},{fmt_real(r.final_f)},"
            f"{fmt_real(r.final_grad_norm)},{fmt_real(r.wall_ms)}"
        )
    return "\n".join(lines) + "\n"


def reference_trajectory_csv(result):
    dim = len(result.final_point)
    header = "k," + ",".join(f"x{i + 1}" for i in range(dim)) + ",f,grad_norm,alpha"
    lines = [header]
    for rec in result.trajectory:
        coords = ",".join(f"{c:.17g}" for c in rec.point.tolist())
        lines.append(
            f"{rec.k},{coords},{rec.value:.17g},{rec.grad_norm:.17g},"
            f"{rec.alpha_used:.17g}"
        )
    return "\n".join(lines) + "\n"


def reference_grid_csv(grid):
    ys = [format(float(y), ".17g") for y in grid.ys]
    lines = ["x,y,f"]
    for x, row in zip(grid.xs, grid.values):
        x = format(float(x), ".17g")
        lines.extend(f"{x},{y},{f:.17g}" for y, f in zip(ys, row.tolist()))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3)
# Every float, the edges drawn often, and numpy float64 scalars as well as Python floats.
reals = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)).flatmap(
    lambda v: st.sampled_from((v, np.float64(v))))
BYTES_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def records(dim, n, floats):
    """n records of dimension dim whose fields cycle through `floats`."""
    cycle = lambda i: floats[i % len(floats)]
    return [IterateRecord(k, np.array([cycle(k + j) for j in range(dim)]), cycle(k + dim),
                          cycle(k + dim + 1), cycle(k + dim + 2)) for k in range(n)]


def run_result(trajectory, dim):
    return RunResult(RunStatus.MAX_ITERATIONS, len(trajectory), np.zeros(dim), 0.0, 0.0,
                     trajectory)


class TestCsvBytes:
    """Each writer equals the per-field reference above, byte for byte."""

    @BYTES_SETTINGS
    @given(st.lists(st.tuples(st.lists(reals, min_size=7, max_size=7),
                              st.integers(0, 10**6),
                              st.sampled_from(("converged", "max_iter"))), max_size=8))
    def test_results_csv(self, cells):
        rows = [ResultRow("sd", "fixed:0.124", v[0], (v[1], v[2]), status, iterations,
                          v[3], v[4], v[5], (v[6],)) for v, iterations, status in cells]
        assert results_csv(rows) == reference_results_csv(rows)

    # 1,024 records go to one `%`: lengths on both sides of the block edges.
    @BYTES_SETTINGS
    @given(st.sampled_from((1, 2, 3, 7)), st.sampled_from((0, 1, 2, 1023, 1024, 1025, 2049)),
           st.lists(reals, min_size=1, max_size=40))
    def test_trajectory_csv(self, dim, n, floats):
        result = run_result(records(dim, n, floats), dim)
        assert trajectory_csv(result) == reference_trajectory_csv(result)

    @BYTES_SETTINGS
    @given(st.integers(0, 6), st.integers(0, 6), st.lists(reals, min_size=1, max_size=60))
    def test_grid_csv(self, nx, ny, floats):
        cycle = [floats[i % len(floats)] for i in range(nx + ny + nx * ny)]
        grid = ContourGrid(1.0, np.array(cycle[:nx]), np.array(cycle[nx:nx + ny]),
                           np.array(cycle[nx + ny:]).reshape(nx, ny))
        assert grid_csv(grid) == reference_grid_csv(grid)

    @pytest.mark.parametrize("run", [
        lambda: steepest_descent(RosenbrockObjective(1.0), (5.0, 5.0), Fixed(0.00124)),
        lambda: newton_raphson(RosenbrockObjective(100.0), (-1.2, 1.0)),
        lambda: fletcher_reeves_cg(
            QuadraticObjective(np.diag(np.geomspace(1.0, 1e3, 7)), np.arange(7.0)), np.ones(7),
            ExactQuadratic()),
    ], ids=["valley-sd", "valley-newton", "quadratic-7d-cg"])
    def test_recorded_runs(self, run):
        result = run()
        assert result.trajectory
        assert trajectory_csv(result) == reference_trajectory_csv(result)

    @pytest.mark.parametrize("shape", [(3, 2), (1, 3), (2, 2), (2, 4), (6,), (2, 3, 1)])
    def test_ragged_grid_refused(self, shape):
        # Pairing rows with xs and values with ys would drop what does not pair.
        assert grid_csv(ContourGrid(1.0, np.zeros(2), np.zeros(3), np.zeros((2, 3))))
        with pytest.raises(InvalidInputError, match="grid values must be 2x3"):
            grid_csv(ContourGrid(1.0, np.zeros(2), np.zeros(3), np.zeros(shape)))

    @pytest.mark.parametrize("at", [0, 1, 1023, 1024, 1500])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_ragged_record_refused(self, at, dim):
        trajectory = records(2, 1501, [0.5, 1.5])
        trajectory[at] = IterateRecord(at, np.zeros(dim), 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError, match=f"record {at} has {dim} coordinates, not 2"):
            trajectory_csv(run_result(trajectory, 2))

    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_packed_rows_of_another_dimension_refused(self, dim):
        # 7 rows of width 6 are 42 floats, which width 7 (dim 3) would regroup as 6 rows.
        r = steepest_descent(RosenbrockObjective(1.0), (2.0, 2.0), Fixed(1e-3),
                             TerminationPolicy(max_iterations=6))
        rewrapped = RunResult(r.status, r.iterations, np.zeros(dim), r.final_value,
                              r.final_grad_norm, r.trajectory)
        with pytest.raises(InvalidInputError, match=f"trajectory has 2 coordinates, not {dim}"):
            trajectory_csv(rewrapped)


def records_digest(result):
    """A digest of every record's k, point dtype and bytes, value, grad_norm and alpha_used."""
    h = hashlib.sha256()
    for r in result.trajectory:
        fields = np.array((r.value, r.grad_norm, r.alpha_used), dtype=np.float64).tobytes()
        h.update(repr((r.k, r.point.dtype.str, r.point.tobytes(), fields)).encode())
    return h.hexdigest()[:16]


Q7 = QuadraticObjective(np.diag(np.geomspace(1.0, 1e3, 7)), np.arange(7.0))
NO_BLOWUP = TerminationPolicy(blowup_norm=math.inf)


class TestRecordsBuiltWhenRead:
    """A run records flat rows, trajectory_csv writes them, and records are built on reading.

    Each digest is that of the records which runs built, one per iterate, before rows."""

    CASES = {
        "valley-sd": (lambda: steepest_descent(RosenbrockObjective(1.0), (5.0, 5.0),
                                               Fixed(0.00124)),
                      "converged", 21703, "fe966e42d45d99d4"),
        "valley-cg": (lambda: fletcher_reeves_cg(RosenbrockObjective(1.0), (2.0, 2.0),
                                                 Fixed(0.0124)),
                      "converged", 109, "ba547f4c443cc3be"),
        "valley-newton": (lambda: newton_raphson(RosenbrockObjective(100.0), (-1.2, 1.0)),
                          "converged", 5, "e0f1f42353073144"),
        "quadratic-7d-sd": (lambda: steepest_descent(Q7, np.ones(7), Fixed(1e-3),
                                                     TerminationPolicy(max_iterations=500)),
                            "max_iter", 500, "16784a0b35d7da63"),
        "quadratic-7d-cg": (lambda: fletcher_reeves_cg(Q7, np.ones(7), ExactQuadratic()),
                            "converged", 8, "9e3ae3d9447776ce"),
        "quadratic-7d-cg-fixed": (lambda: fletcher_reeves_cg(Q7, np.ones(7), Fixed(1e-3),
                                                             TerminationPolicy(max_iterations=500)),
                                  "converged", 276, "b04adc9e2631a71d"),
        "quadratic-7d-newton": (lambda: newton_raphson(Q7, np.ones(7)),
                                "converged", 1, "3a60df875e3160e4"),
        # The final row holds a nan value and grad_norm at the point (-inf, 2e240).
        "valley-nonfinite": (lambda: steepest_descent(RosenbrockObjective(1.0), (1e70, 0.0),
                                                      Fixed(1e100), NO_BLOWUP),
                             "diverged_nonfinite", 1, "474bfcbbcf0f773c"),
        "quadratic-7d-nonfinite": (lambda: steepest_descent(Q7, np.ones(7), Fixed(1e300),
                                                            NO_BLOWUP),
                                   "diverged_nonfinite", 1, "84ecc68418dfa706"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_writer_builds_no_records(self, case, monkeypatch):
        run, status, iterations, digest = self.CASES[case]

        def refuse(*args):
            raise AssertionError("an IterateRecord was built")

        with monkeypatch.context() as patch:
            patch.setattr(optimize, "IterateRecord", refuse)
            result = run()
            text = trajectory_csv(result)
            assert len(result.trajectory) == iterations + 1
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "IterateRecord",
                          lambda *fields: built.append(fields) or IterateRecord(*fields))
            assert result.trajectory[0] is result.trajectory[0]
            assert list(result.trajectory)[1:] == result.trajectory[1:]
        assert len(built) == iterations + 1
        assert (result.status.value, result.iterations) == (status, iterations)
        assert records_digest(result) == digest
        assert text == reference_trajectory_csv(result)


class Float64Bowl:
    """x'x with only value and gradient, whose value is a np.float64."""

    def value(self, x):
        return np.float64(x @ x)

    def gradient(self, x):
        return 2.0 * x


class TestPackedRows:
    """A run packs each recorded iterate into dim + 4 float64s; records are built from them."""

    @pytest.mark.parametrize("run, dim, bound", [
        (TestRecordsBuiltWhenRead.CASES["valley-sd"][0], 2, 64),
        (lambda: steepest_descent(Q7, np.ones(7), Fixed(1e-4),
                                  TerminationPolicy(max_iterations=20_000)), 7, 8 * 11 * 1.3),
    ], ids=["valley-sd", "quadratic-7d-sd"])
    def test_recorded_run_holds_about_its_packed_rows(self, run, dim, bound):
        # The bounds are 8 * (dim + 4) bytes per row with room for the array's growth; a
        # tuple of Python floats per row took about 225 bytes on the valley.
        run()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(result.final_point) == dim and len(result.trajectory) >= 20_001
        assert peak / len(result.trajectory) < bound

    RUNS = {
        **{name: TestRecordsBuiltWhenRead.CASES[name][0]
           for name in ("valley-sd", "valley-cg", "valley-newton", "quadratic-7d-sd")},
        "float64-value": lambda: steepest_descent(Float64Bowl(), (1.0, 2.0), Fixed(0.25)),
    }

    @pytest.mark.parametrize("case", RUNS)
    def test_record_field_types(self, case):
        result = self.RUNS[case]()
        records = list(result.trajectory)
        for r in records:
            assert type(r.k) is int
            assert type(r.point) is np.ndarray and r.point.dtype == np.float64
            assert {type(r.value), type(r.grad_norm), type(r.alpha_used)} == {float}
        as_list = RunResult(result.status, result.iterations, result.final_point,
                            result.final_value, result.final_grad_norm, records)
        assert trajectory_csv(as_list) == trajectory_csv(result)
