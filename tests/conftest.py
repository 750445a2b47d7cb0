"""Fixtures shared by every test module."""

import pytest

import klab.harness


@pytest.fixture(autouse=True)
def no_kept_sweep():
    """Start each test without the sweep an earlier test's run left in the
    process, so that a test that patches the solver sees it run."""
    klab.harness._SWEEPS.clear()
