"""The package's public names: adding or removing one shows in this file's diff."""

import rosenbench

PUBLIC_NAMES = [
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


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 34
    assert sorted(rosenbench.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    for name in rosenbench.__all__:
        assert hasattr(rosenbench, name), name
