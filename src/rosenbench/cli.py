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

A diverged run is a recorded experimental outcome, not a failure: exit
status is 0 for any completed computation. The CLI parses and the library
judges: argparse reports malformed command text (an unknown flag, a
``--start`` that is not two comma-separated numbers) with its usage, and
``main`` reports each value the library refuses (a step rule, ``--kappa``,
a policy flag, a non-finite ``--start``, a ``--step`` that ``--method``
does not take) as one ``error:`` line; both exit 2. An internal error,
such as an unwritable output path or a grid too large to allocate, exits 1.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable

import numpy as np

from .bench import (
    ExperimentMatrix,
    _grid_blocks,
    _trajectory_blocks,
    contour_grid,
    fmt_real,
    results_csv,
    rule_label,
    run_matrix,
    run_method,
    status_label,
)
from .errors import InvalidInputError
from .linesearch import parse_rule
from .objectives import RosenbrockObjective, finite_diff_gradient, finite_diff_hessian
from .optimize import TerminationPolicy


def parse_point(text: str) -> tuple[float, float]:
    """Two comma-separated floats; argparse reports a ValueError, the driver judges the point."""
    x1, x2 = map(float, text.split(","))
    return x1, x2


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
    run.add_argument("--kappa", type=float, default=1.0)
    run.add_argument("--start", type=parse_point, default=(2.0, 2.0), metavar="X1,X2")
    run.add_argument("--restart", type=int, default=None, metavar="N",
                     help="conjugate-gradient restart period (cg only)")
    run.add_argument("--traj", default=None, metavar="PATH",
                     help="write the iterate trajectory CSV here")
    _policy_flags(run)
    run.set_defaults(handler=_cmd_run)

    bench = sub.add_parser("bench", help="run the full experiment matrix")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="results CSV path (default: standard output)")
    _policy_flags(bench)
    bench.set_defaults(handler=_cmd_bench)

    contour = sub.add_parser("contour", help="emit objective values on a grid")
    contour.add_argument("--kappa", type=float, default=1.0)
    contour.add_argument("--xmin", type=float, default=-2.0)
    contour.add_argument("--xmax", type=float, default=6.0)
    contour.add_argument("--ymin", type=float, default=-2.0)
    contour.add_argument("--ymax", type=float, default=6.0)
    contour.add_argument("--resolution", type=int, default=401)
    contour.add_argument("--out", default=None, metavar="PATH")
    contour.set_defaults(handler=_cmd_contour)

    checkgrad = sub.add_parser("checkgrad", help="compare analytic and finite-difference derivatives")
    checkgrad.add_argument("--kappa", type=float, default=1.0)
    checkgrad.set_defaults(handler=_cmd_checkgrad)

    return parser


def _policy_flags(p: argparse.ArgumentParser):
    p.add_argument("--eps", type=float, default=TerminationPolicy.epsilon,
                   help="gradient-norm stopping tolerance")
    p.add_argument("--max-iter", type=int, default=TerminationPolicy.max_iterations)
    p.add_argument("--blowup", type=float, default=TerminationPolicy.blowup_norm,
                   help="iterate-norm divergence threshold")


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv and build its rule, objective and policy, whose constructors judge the values."""
    config = build_parser().parse_args(argv)
    if config.subcommand == "run" and config.step is not None:
        config.step = parse_rule(config.step)
    if config.subcommand in ("run", "checkgrad"):
        config.objective = RosenbrockObjective(config.kappa)
    if config.subcommand in ("run", "bench"):
        config.policy = TerminationPolicy(config.eps, config.max_iter, config.blowup)
    return config


def _write_text(path: str | None, blocks: Iterable[str]):
    """Write each block of text as it is made, so the whole text is never held at once."""
    if path is None:
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(blocks)


def _cmd_run(config) -> int:
    result = run_method(config.method, config.objective, config.start,
                        config.step, config.policy, config.restart,
                        record_trajectory=config.traj is not None)
    point = ",".join(fmt_real(c) for c in result.final_point)
    print(
        f"{status_label(result)} method={config.method} rule={rule_label(config.step)} "
        f"kappa={fmt_real(config.kappa)} iterations={result.iterations} x={point} "
        f"f={fmt_real(result.final_value)} grad_norm={fmt_real(result.final_grad_norm)}"
    )
    if config.traj is not None:
        _write_text(config.traj, _trajectory_blocks(result))
    return 0


def _cmd_bench(config) -> int:
    matrix = ExperimentMatrix(policy=config.policy)
    _write_text(config.out, (results_csv(run_matrix(matrix)),))
    return 0


def _cmd_contour(config) -> int:
    grid = contour_grid(
        config.kappa,
        (config.xmin, config.xmax),
        (config.ymin, config.ymax),
        config.resolution,
    )
    _write_text(config.out, _grid_blocks(grid))
    return 0


def _cmd_checkgrad(config) -> int:
    objective, probes = config.objective, np.linspace(-2.0, 2.0, 5)
    for name, analytic, oracle in (("gradient", objective.gradient, finite_diff_gradient),
                                   ("hessian", objective.hessian, finite_diff_hessian)):
        err = 0.0
        # An undefined comparison such as inf - inf is nan, which np.maximum keeps.
        with np.errstate(invalid="ignore"):
            for p in (np.array([a, b]) for a in probes for b in probes):
                exact = analytic(p)
                err = np.maximum(err, np.max(np.abs(exact - oracle(objective, p)))
                                 / max(1.0, np.max(np.abs(exact))))
        print(f"{name} max_rel_err={fmt_real(err)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse and run one subcommand; returns the exit status, 2 for a value the library refuses."""
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
        return config.handler(config)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidInputError) else 1


if __name__ == "__main__":
    sys.exit(main())
