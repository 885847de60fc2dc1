"""The package's public names: adding or removing one shows in this file's diff."""

import os
import subprocess
import sys
from pathlib import Path

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
    assert len(PUBLIC_NAMES) == 32
    assert sorted(rosenbench.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    for name in rosenbench.__all__:
        assert hasattr(rosenbench, name), name


def test_import_loads_no_array_module():
    # A run packs its trajectory into a bytearray: the package needs no `array` module of
    # its own, beyond what numpy loads.
    src = str(Path(rosenbench.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, numpy; print('array' in sys.modules); "
            "import rosenbench; print('array' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    numpy_alone, with_package = done.stdout.split()
    assert with_package == numpy_alone
