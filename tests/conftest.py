"""Shared fixtures: canonical worked instances and a small solved corpus."""

import numpy as np
import pytest

from sparsepr import (
    Graph,
    PageRankInstance,
    build_pagerank_quadratic,
    dense_solve_active_set,
)
from sparsepr.suites import make_corpus

# Filled by tests/test_acceptance.py; printed at the end of the run so the
# per-criterion verdict lines survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def two_node_instance(rho=0.1):
    """Path on two nodes, alpha=0.5, seed mass on node 0."""
    return PageRankInstance(Graph(2, [(0, 1)]), 0.5, rho, 0)


@pytest.fixture
def two_node():
    """The worked 2-node quadratic: Q=[[.75,-.25],[-.25,.75]], b=(.45,-.05)."""
    return build_pagerank_quadratic(two_node_instance())


@pytest.fixture
def two_node_high_rho():
    """Same graph with rho=0.8: b=(0.1,-0.4), single-coordinate optimum."""
    return build_pagerank_quadratic(two_node_instance(rho=0.8))


@pytest.fixture(scope="session")
def small_corpus():
    """A handful of solved random instances shared across unit tests."""
    return make_corpus(num_mm=10, num_pr=6, max_n=10, seed=99)


@pytest.fixture(scope="session")
def two_node_reference():
    q = build_pagerank_quadratic(two_node_instance())
    return dense_solve_active_set(q)


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    assert err <= tol, "%s: |%r - %r| = %g > %g" % (label, actual, expected, err, tol)
