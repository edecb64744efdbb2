"""Shared fixtures: small deterministic graphs used across the suite."""

from __future__ import annotations

import warnings

import pytest

from repro import kernels
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.ports import assign_ports
from repro.graphs.shortest_paths import all_pairs_shortest_paths


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden scheme fixtures under tests/golden/ "
        "instead of comparing against them",
    )


@pytest.fixture
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(scope="session")
def small_weighted_graph() -> Graph:
    """Connected G(n, p) with integer weights — the workhorse instance."""
    return gen.gnp(120, 0.06, rng=1234, weights=(1, 9))


@pytest.fixture(scope="session")
def small_unit_graph() -> Graph:
    """Unit weights: maximal distance ties, stresses tie-breaking."""
    return gen.gnp(120, 0.06, rng=99)


@pytest.fixture(scope="session")
def grid_graph() -> Graph:
    return gen.grid2d(9, 9)


@pytest.fixture(scope="session")
def ba_graph() -> Graph:
    return gen.barabasi_albert(150, 3, rng=7, weights=(1, 5))


@pytest.fixture(scope="session")
def small_tree() -> Graph:
    return gen.random_tree(80, rng=5)


@pytest.fixture(scope="session")
def ported_small(small_weighted_graph):
    return assign_ports(small_weighted_graph, "random", rng=17)


@pytest.fixture(scope="session")
def dist_small(small_weighted_graph):
    return all_pairs_shortest_paths(small_weighted_graph)


@pytest.fixture(scope="session")
def path_graph() -> Graph:
    return gen.path_tree(40)


@pytest.fixture(scope="session")
def diamond_graph() -> Graph:
    """4-cycle plus a chord: tiny graph with multiple shortest paths."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


@pytest.fixture
def veto_native(monkeypatch):
    """``veto_native(fn)`` runs ``fn()`` with the native backend vetoed
    (``REPRO_NATIVE_KERNELS=0``), so the platform's kernel is numpy."""

    def run(fn):
        monkeypatch.setenv(kernels._build.ENV_DISABLE, "0")
        kernels._build.reset_for_tests()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", kernels.KernelFallbackWarning)
                return fn()
        finally:
            monkeypatch.delenv(kernels._build.ENV_DISABLE)
            kernels._build.reset_for_tests()

    return run
