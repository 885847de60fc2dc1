"""Fixtures shared by the test modules."""

import pytest

from rosenbench import run_matrix


@pytest.fixture(scope="session")
def rows():
    """The default 48-row study, run once for the whole session."""
    return run_matrix()
