"""Unconstrained-minimization library and benchmark harness for valley functions."""

from .bench import (
    ContourGrid,
    ExperimentMatrix,
    ResultRow,
    compare_sd_variants,
    contour_grid,
    grid_csv,
    results_csv,
    run_matrix,
    trajectory_csv,
)
from .errors import (
    IncomparableVariantsError,
    InvalidDirectionError,
    InvalidInputError,
    LineSearchFailedError,
)
from .linesearch import (
    ExactQuadratic,
    Fixed,
    GoldenSection,
    LineRestriction,
    QuadraticFit,
    RandomQuadraticFit,
    StepRule,
    VariableCandidates,
    restrict,
    select_step,
)
from .objectives import (
    QuadraticObjective,
    RosenbrockObjective,
    finite_diff_gradient,
    finite_diff_hessian,
)
from .optimize import (
    IterateRecord,
    RunResult,
    RunStatus,
    TerminationPolicy,
    fletcher_reeves_cg,
    newton_raphson,
    steepest_descent,
)

__all__ = [
    "ContourGrid",
    "ExactQuadratic",
    "ExperimentMatrix",
    "Fixed",
    "GoldenSection",
    "IncomparableVariantsError",
    "InvalidDirectionError",
    "InvalidInputError",
    "IterateRecord",
    "LineRestriction",
    "LineSearchFailedError",
    "QuadraticFit",
    "QuadraticObjective",
    "RandomQuadraticFit",
    "ResultRow",
    "RosenbrockObjective",
    "RunResult",
    "RunStatus",
    "StepRule",
    "TerminationPolicy",
    "VariableCandidates",
    "compare_sd_variants",
    "contour_grid",
    "finite_diff_gradient",
    "finite_diff_hessian",
    "fletcher_reeves_cg",
    "grid_csv",
    "newton_raphson",
    "restrict",
    "results_csv",
    "run_matrix",
    "select_step",
    "steepest_descent",
    "trajectory_csv",
]

__version__ = "0.1.0"
