"""Command-line front end.

Subcommands::

    run       one optimizer run; prints a one-line verdict
    bench     the full experiment matrix as a results CSV
    contour   objective values on a grid as x,y,f CSV
    checkgrad analytic vs finite-difference derivative errors

Step rules are written as one flag value, and every ``step_rule`` label
that ``bench`` writes reads back as one:

    fixed:<a> | variable:<a1,a2,...> | quadfit:<a1,a2,a3> |
    quadfit-random:<lo>,<hi>,seed=<n> | golden:<lo>:<hi>[:tol]

``--seed N`` switches a quadfit rule to its randomized mode, redrawing the
three abscissae per iteration from [min(samples), max(samples)].

A diverged run is a recorded experimental outcome, not a failure: exit
status is 0 for any completed computation, 1 for an internal error such as
an unwritable output path, and 2 for a usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    ExperimentMatrix,
    contour_grid,
    fmt_real,
    grid_csv,
    results_csv,
    rule_label,
    run_matrix,
    run_method,
    status_label,
    trajectory_csv,
)
from .errors import InvalidInputError
from .linesearch import ExactQuadratic, QuadraticFit, RandomQuadraticFit, parse_rule
from .objectives import (
    RosenbrockObjective,
    finite_diff_gradient,
    finite_diff_hessian,
    rosenbrock_gradient,
    rosenbrock_hessian,
)
from .optimize import TerminationPolicy


def parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated reals, got {text!r}")
    return float(parts[0]), float(parts[1])


def positive_real(text: str) -> float:
    v = float(text)
    if not v > 0.0:
        raise ValueError(f"must be positive, got {text}")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosenbench",
        description="Minimize valley benchmark functions and reproduce the convergence study.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="execute one optimizer run")
    run.add_argument("--method", choices=("sd", "newton", "cg"), default="sd")
    run.add_argument("--step", default=None, metavar="RULE",
                     help="fixed:<a> | variable:<a1,..> | quadfit:<a1,a2,a3> | "
                          "quadfit-random:<lo>,<hi>,seed=<n> | golden:<lo>:<hi>[:tol]")
    run.add_argument("--kappa", type=positive_real, default=1.0)
    run.add_argument("--start", type=parse_point, default=(2.0, 2.0), metavar="X1,X2")
    run.add_argument("--restart", type=int, default=None, metavar="N",
                     help="conjugate-gradient restart period (cg only)")
    run.add_argument("--seed", type=int, default=None,
                     help="randomized quadfit mode (quadfit step rule only)")
    run.add_argument("--traj", default=None, metavar="PATH",
                     help="write the iterate trajectory CSV here")
    _policy_flags(run)

    bench = sub.add_parser("bench", help="run the full experiment matrix")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="results CSV path (default: standard output)")
    _policy_flags(bench)

    contour = sub.add_parser("contour", help="emit objective values on a grid")
    contour.add_argument("--kappa", type=positive_real, default=1.0)
    contour.add_argument("--xmin", type=float, default=-2.0)
    contour.add_argument("--xmax", type=float, default=6.0)
    contour.add_argument("--ymin", type=float, default=-2.0)
    contour.add_argument("--ymax", type=float, default=6.0)
    contour.add_argument("--resolution", type=int, default=401)
    contour.add_argument("--out", default=None, metavar="PATH")

    checkgrad = sub.add_parser("checkgrad", help="compare analytic and finite-difference derivatives")
    checkgrad.add_argument("--kappa", type=positive_real, default=1.0)

    return parser


def _policy_flags(p: argparse.ArgumentParser):
    p.add_argument("--eps", type=positive_real, default=1e-3,
                   help="gradient-norm stopping tolerance")
    p.add_argument("--max-iter", type=int, default=10_000_000)
    p.add_argument("--blowup", type=positive_real, default=1e8,
                   help="iterate-norm divergence threshold")


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse and cross-validate argv (argparse exits with status 2 on errors)."""
    parser = build_parser()
    config = parser.parse_args(argv)
    if config.subcommand == "run":
        if config.method in ("sd", "cg") and config.step is None:
            parser.error(f"--step is required with --method {config.method}")
        if config.method == "newton" and config.step is not None:
            parser.error("--step does not apply to --method newton")
        if config.restart is not None and config.method != "cg":
            parser.error("--restart applies only to --method cg")
        if config.restart is not None and config.restart < 1:
            parser.error(f"--restart must be >= 1, got {config.restart}")
        try:
            if config.step is not None:
                config.step = parse_rule(config.step)
            if config.seed is not None:
                if not isinstance(config.step, QuadraticFit):
                    parser.error("--seed applies only to a quadfit step rule")
                samples = config.step.sample_alphas
                config.step = RandomQuadraticFit(min(samples), max(samples), config.seed)
        except InvalidInputError as exc:
            parser.error(str(exc))
        if isinstance(config.step, ExactQuadratic):
            parser.error("the exact-quadratic rule needs a quadratic objective, not the valley")
    if config.subcommand in ("run", "bench"):
        try:
            config.policy = TerminationPolicy(config.eps, config.max_iter, config.blowup)
        except InvalidInputError as exc:
            parser.error(str(exc))
    return config


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _cmd_run(config) -> int:
    result = run_method(config.method, RosenbrockObjective(config.kappa), config.start,
                        config.step, config.policy, config.restart,
                        record_trajectory=config.traj is not None)
    point = ",".join(fmt_real(c) for c in result.final_point)
    print(
        f"{status_label(result)} method={config.method} rule={rule_label(config.step)} "
        f"kappa={fmt_real(config.kappa)} iterations={result.iterations} x={point} "
        f"f={fmt_real(result.final_value)} grad_norm={fmt_real(result.final_grad_norm)}"
    )
    if config.traj is not None:
        _write_text(config.traj, trajectory_csv(result))
    return 0


def _cmd_bench(config) -> int:
    matrix = ExperimentMatrix(policy=config.policy)
    _write_text(config.out, results_csv(run_matrix(matrix)))
    return 0


def _cmd_contour(config) -> int:
    grid = contour_grid(
        config.kappa,
        (config.xmin, config.xmax),
        (config.ymin, config.ymax),
        config.resolution,
    )
    _write_text(config.out, grid_csv(grid))
    return 0


def _probe_grid() -> list[np.ndarray]:
    pts = np.linspace(-2.0, 2.0, 5)
    return [np.array([a, b]) for a in pts for b in pts]


def _cmd_checkgrad(config) -> int:
    objective = RosenbrockObjective(config.kappa)
    grad_err = 0.0
    hess_err = 0.0
    # An undefined comparison such as inf - inf is nan, which np.maximum keeps.
    with np.errstate(invalid="ignore"):
        for p in _probe_grid():
            ga = rosenbrock_gradient(p, config.kappa)
            gf = finite_diff_gradient(objective, p)
            grad_err = np.maximum(grad_err, np.max(np.abs(ga - gf)) / max(1.0, np.max(np.abs(ga))))
            ha = rosenbrock_hessian(p, config.kappa)
            hf = finite_diff_hessian(objective, p)
            hess_err = np.maximum(hess_err, np.max(np.abs(ha - hf)) / max(1.0, np.max(np.abs(ha))))
    print(f"gradient max_rel_err={fmt_real(grad_err)}")
    print(f"hessian max_rel_err={fmt_real(hess_err)}")
    return 0


def execute(config) -> int:
    """Dispatch a validated config; returns the process exit status."""
    handlers = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "contour": _cmd_contour,
        "checkgrad": _cmd_checkgrad,
    }
    try:
        return handlers[config.subcommand](config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    return execute(config)


def entrypoint():
    sys.exit(main())
