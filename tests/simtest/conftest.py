"""One memoised scenario runner for the simtest modules.

A run is a pure function of its :class:`~repro.simtest.SimConfig`, and
several tests query the same pinned runs, so each config runs once per
session.  Tests about replay call ``run_scenario`` themselves.
"""

import functools

import pytest

from repro.simtest import run_scenario


@pytest.fixture(scope="session")
def scenario():
    """``run_scenario``, memoised per config (callers share each result
    object, so they only read it)."""
    return functools.lru_cache(maxsize=None)(run_scenario)
