"""Tests for the benchmark matrix, contour grid, and CSV emission."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rosenbench import (
    ExperimentMatrix,
    IncomparableVariantsError,
    InvalidInputError,
    ResultRow,
    RosenbrockObjective,
    TerminationPolicy,
    compare_sd_variants,
    contour_grid,
    grid_csv,
    newton_raphson,
    results_csv,
    rosenbrock_value,
    run_matrix,
    trajectory_csv,
)
from rosenbench.bench import RESULTS_HEADER, rule_label, run_cell

SMALL = ExperimentMatrix(kappas=(1.0,), starts=((2.0, 2.0),), fixed_alphas=(0.0124,))


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


class TestRunMatrix:
    def test_row_count_and_order(self):
        rows = run_matrix(SMALL)
        cells = SMALL.cells()
        assert len(rows) == len(cells) * len(SMALL.kappas) * len(SMALL.starts)
        labels = [(r.method, r.step_rule, r.kappa, r.x0) for r in rows]
        expected = [
            (m, rule_label(rule), k, s)
            for (m, rule) in cells
            for k in SMALL.kappas
            for s in SMALL.starts
        ]
        assert labels == expected

    def test_default_matrix_shape(self):
        cells = ExperimentMatrix().cells()
        # 4 SD fixed + 3 SD adaptive + newton + 4 CG fixed = 12 cells.
        assert len(cells) == 12
        methods = [m for m, _ in cells]
        assert methods == ["sd"] * 7 + ["newton"] + ["cg"] * 4

    def test_default_matrix_matches_study_setup(self):
        m = ExperimentMatrix()
        assert m.kappas == (1.0, 100.0)
        assert m.starts == ((2.0, 2.0), (5.0, 5.0))
        assert m.fixed_alphas == (0.124, 0.0124, 0.00124, 0.000124)
        assert m.policy.epsilon == 1e-3

    def test_rows_reproducible_modulo_wall_clock(self):
        a = results_csv(run_matrix(SMALL))
        b = results_csv(run_matrix(SMALL))
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(a) == strip(b)

    def test_converged_rows_verify_independently(self):
        policy = TerminationPolicy()
        for row in run_matrix(SMALL):
            if row.status == "converged":
                g = RosenbrockObjective(row.kappa).gradient(row.final_point)
                assert math.hypot(*g) <= policy.epsilon

    def test_known_outcomes(self):
        rows = {(r.method, r.step_rule): r for r in run_matrix(SMALL)}
        assert rows[("sd", "fixed:0.0124")].status == "converged"
        assert rows[("newton", "none")].status == "converged"
        assert rows[("newton", "none")].iterations <= 50

    def test_single_cell_start_at_minimum(self):
        row = run_cell("newton", None, 1.0, (1.0, 1.0), TerminationPolicy())
        assert row.status == "converged"
        assert row.iterations == 0


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
            assert grid.values[i, j] == rosenbrock_value((grid.xs[i], grid.ys[j]), 100.0)

    def test_overflowing_values_are_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = contour_grid(3.7, (-1e-300, 1e300), (-5.0, 7.5), 3)
            text = grid_csv(grid)
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                assert grid.values[i, j] == rosenbrock_value((x, y), 3.7)
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
