"""Shared fixtures: the expensive witness optimization runs once."""

import pytest
from hypothesis import settings

from icoswitch import procmat as pm
from icoswitch import witness as wt


# property tests draw the same examples on every run and keep no database
settings.register_profile("reproducible", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def full_span():
    return wt.build_span()


@pytest.fixture(scope="session")
def witness_solution(full_span):
    """Optimal witness for the ideal switch over the full 180-setting span."""
    with pytest.warns(wt.SpanRankWarning):
        sol = wt.optimize_witness(pm.w_switch(), full_span)
    assert sol.status == "optimal", f"witness solve failed: {sol.status}"
    return sol


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running solves (several interior-point runs)"
    )


def pytest_collection_modifyitems(items):
    # every user of the shared full-span solve waits for it
    for item in items:
        if "witness_solution" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
