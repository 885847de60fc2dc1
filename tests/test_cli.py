"""End-to-end tests for the command-line interface."""

import warnings

import pytest

from rosenbench.cli import main, parse_args, parse_point
from rosenbench.errors import InvalidInputError
from rosenbench.linesearch import (
    ExactQuadratic,
    Fixed,
    GoldenSection,
    QuadraticFit,
    RandomQuadraticFit,
    VariableCandidates,
    parse_rule,
)


class TestParsing:
    def test_run_config(self):
        config = parse_args(
            ["run", "--method", "sd", "--step", "fixed:0.0124", "--kappa", "1",
             "--start", "2,2"]
        )
        assert config.method == "sd"
        assert config.step == Fixed(0.0124)
        assert config.kappa == 1.0
        assert config.start == (2.0, 2.0)
        assert config.policy.epsilon == 1e-3

    def test_step_rule_grammar(self):
        assert parse_rule("fixed:0.124") == Fixed(0.124)
        assert parse_rule("variable:0.000124,0.0124,0.124") == VariableCandidates(
            (0.000124, 0.0124, 0.124)
        )
        assert parse_rule("quadfit:1e-5,6.7e-5,1.24e-4") == QuadraticFit(
            (1e-5, 6.7e-5, 1.24e-4)
        )
        assert parse_rule("golden:1.24e-6:1.5") == GoldenSection(1.24e-6, 1.5, 1e-8)
        assert parse_rule("golden:0:2:1e-6") == GoldenSection(0.0, 2.0, 1e-6)
        assert parse_rule("quadfit-random:1e-05,0.000124,seed=7") == RandomQuadraticFit(
            1e-5, 1.24e-4, seed=7
        )
        assert parse_rule("exact-quadratic") == ExactQuadratic()

    @pytest.mark.parametrize(
        "text",
        ["fixed:-1", "fixed:0", "fixed:abc", "variable:", "quadfit:1e-5,2e-5",
         "golden:2:1", "brent:0.1", "golden:1", "golden:0:1:1e-3:1",
         "quadfit-random:1e-5,1e-4", "quadfit-random:1e-5,1e-4,7",
         "quadfit-random:1e-5,1e-4,seed=-1", "exact-quadratic:1"],
    )
    def test_bad_step_rule(self, text):
        with pytest.raises(InvalidInputError):
            parse_rule(text)

    def test_bad_point(self):
        with pytest.raises(ValueError):
            parse_point("1,2,3")

    def test_usage_errors_exit_2(self):
        for argv in (
            ["run", "--step", "fixed:-1"],
            ["run", "--method", "sd"],                      # missing --step
            ["run", "--method", "newton", "--step", "fixed:0.1"],
            ["run", "--method", "sd", "--step", "fixed:0.1", "--restart", "2"],
            ["run", "--method", "cg", "--step", "fixed:0.1", "--restart", "0"],
            ["run", "--method", "sd", "--step", "exact-quadratic"],
            ["run", "--method", "sd", "--step", "fixed:0.1", "--seed", "1"],
            ["run", "--method", "sd", "--step", "fixed:0.1", "--kappa", "-2"],
            ["bench", "--eps", "0"],
            ["frobnicate"],
            ["run", "--unknown-flag"],
        ):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("step, reason", [
        ("fixed:-1", "fixed step must be positive"),
        ("golden:2:1", "need hi - lo > width_tol"),
        ("brent:0.1", "unknown step rule"),
    ])
    def test_bad_step_names_its_reason(self, capsys, step, reason):
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--step", step])
        assert exc.value.code == 2
        assert reason in capsys.readouterr().err

    def test_seed_switches_quadfit_to_random_mode(self):
        config = parse_args(
            ["run", "--method", "sd", "--step", "quadfit:1e-5,6.7e-5,1.24e-4", "--seed", "3"]
        )
        assert config.step == RandomQuadraticFit(1e-5, 1.24e-4, seed=3)

    def test_bench_defaults(self):
        config = parse_args(["bench", "--out", "results.csv"])
        assert config.out == "results.csv"
        assert config.policy.epsilon == 1e-3
        assert config.policy.max_iterations == 10_000_000


class TestRunCommand:
    def test_converged_verdict(self, capsys):
        rc = main(["run", "--method", "sd", "--step", "fixed:0.124", "--kappa", "1",
                   "--start", "2,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("converged ")
        assert "iterations=" in out and "grad_norm=" in out

    def test_diverged_verdict_still_exits_zero(self, capsys):
        rc = main(["run", "--method", "sd", "--step", "fixed:0.124", "--kappa", "1",
                   "--start", "5,5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("diverged_blowup ")

    def test_newton_run(self, capsys):
        rc = main(["run", "--method", "newton", "--start", "0,0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("converged ")
        assert "iterations=2" in out

    def test_trajectory_file(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        rc = main(["run", "--method", "newton", "--start", "0,0", "--traj", str(traj)])
        capsys.readouterr()
        assert rc == 0
        lines = traj.read_text().splitlines()
        assert lines[0] == "k,x1,x2,f,grad_norm,alpha"
        assert len(lines) == 4

    def test_cg_with_restart(self, capsys):
        rc = main(["run", "--method", "cg", "--step", "fixed:0.0124", "--restart", "1",
                   "--start", "2,2"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("converged ")

    def test_identical_argv_identical_output(self, capsys):
        argv = ["run", "--method", "sd", "--step", "golden:1.24e-6:1.5", "--kappa", "1",
                "--start", "2,2"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_seeded_quadfit_run_is_reproducible(self, capsys):
        argv = ["run", "--method", "sd", "--step", "quadfit:1e-5,6.7e-5,1.24e-4",
                "--seed", "7", "--start", "2,2"]
        rc = main(argv)
        first = capsys.readouterr().out
        assert rc == 0
        assert first.startswith("converged ")
        main(argv)
        assert capsys.readouterr().out == first


class TestBenchCommand:
    # A loose policy keeps these end-to-end runs fast; verdict fidelity at
    # the paper's tolerance is covered by the acceptance suite.
    FAST = ["--eps", "0.5", "--max-iter", "2000"]

    def test_writes_results_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        rc = main(["bench", "--out", str(out)] + self.FAST)
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("method,step_rule,kappa,")
        assert len(lines) == 1 + 12 * 2 * 2

    def test_stdout_when_no_out(self, capsys):
        rc = main(["bench"] + self.FAST)
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("method,step_rule,kappa,")

    def test_unwritable_path_exits_1(self, capsys):
        rc = main(["bench", "--out", "/nonexistent-dir/results.csv"] + self.FAST)
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err


class TestContourCommand:
    def test_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(["contour", "--kappa", "100", "--xmin", "0", "--xmax", "1",
                   "--ymin", "0", "--ymax", "1", "--resolution", "2",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert out.read_text().splitlines() == ["x,y,f", "0,0,1", "0,1,101", "1,0,100", "1,1,0"]

    def test_bad_resolution_exits_1(self, capsys):
        rc = main(["contour", "--resolution", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCheckgradCommand:
    @pytest.mark.parametrize("kappa", ["1", "100"])
    def test_errors_are_small(self, capsys, kappa):
        rc = main(["checkgrad", "--kappa", kappa])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        grad_err = float(lines[0].split("=")[1])
        hess_err = float(lines[1].split("=")[1])
        assert grad_err <= 1e-5
        assert hess_err <= 1e-5

    def test_undefined_comparison_reads_nan(self, capsys):
        # At kappa 1e308 every comparison is inf - inf; nan must not read as 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["checkgrad", "--kappa", "1e308"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "gradient max_rel_err=nan", "hessian max_rel_err=nan",
        ]
