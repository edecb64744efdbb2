"""Port model tests: assignments, step/port inverses, designer ports."""

from __future__ import annotations

import functools

import pytest

from repro.analysis.experiments import reference_graph
from repro.errors import GraphError, PortError
from repro.graphs import generators as gen
from repro.graphs.ports import PortedGraph, assign_ports, designer_ports_for_tree
from repro.graphs.validation import check_ports
from repro.rng import derive
from repro.store.store import port_hash

from test_trees import rooted_from_graph

#: ``port_hash(assign_ports(reference_graph("gnp", 10_000, seed), kind,
#: rng=derive(seed, "ports")))``: store keys and golden fixtures depend
#: on every port, so no assignment may move one.
PORT_PINS = {
    (0, "random"): "ffe2e2aa9755527f0f041858a2fabd1e7359a7ecfeba5fdc5820d3349688e21c",
    (0, "sorted"): "89f4bfee32f00f3178e01264325e537526ebc954de1cdf5344d322174dbbaea2",
    (0, "reversed"): "6bb6168f7f0039449572093e089d491a28f21209f5b2027f85c47c0685ce0a35",
    (1, "random"): "3ca5f7878ad4c6bc6ac8a627d5925d2654e93a02c4f128f71623b6125b291cd8",
    (1, "sorted"): "eadb498d1331b941f887c62d03caecb8897065936300e97dbb81e95d801785a9",
    (1, "reversed"): "97418edda63cf43812dcbf60dfc2ddc76ffc493883001031c05c76862fdcdd33",
    (7, "random"): "2530ff0a747241a6f31d192558580245b6aa83ebfef1a73afcbe79df969852ab",
    (7, "sorted"): "68aaf8f2edd8fa20796b2f859f59559b1f5c292edeb6060d5fb24e6a1369b049",
    (7, "reversed"): "97a02bb334213d24758eeeca4ca7597b8f2406e2a831fd02fc293b25912a9dc3",
}


@functools.lru_cache(maxsize=None)
def _gnp_10k(seed: int):
    return reference_graph("gnp", 10_000, seed)


@pytest.mark.parametrize("seed,kind", sorted(PORT_PINS))
def test_port_assignment_pinned(seed, kind):
    ported = assign_ports(_gnp_10k(seed), kind, rng=derive(seed, "ports"))
    assert port_hash(ported) == PORT_PINS[(seed, kind)]


class TestAssignments:
    @pytest.mark.parametrize("kind", ["sorted", "random", "reversed"])
    def test_valid_permutations(self, small_weighted_graph, kind):
        pg = assign_ports(small_weighted_graph, kind, rng=3)
        check_ports(pg)

    def test_unknown_kind_rejected(self, small_weighted_graph):
        with pytest.raises(GraphError):
            assign_ports(small_weighted_graph, "bogus")

    def test_sorted_assignment_is_identity_on_rank(self, small_weighted_graph):
        g = small_weighted_graph
        pg = assign_ports(g, "sorted")
        for u in range(g.n):
            for rank, v in enumerate(g.neighbors(u), start=1):
                assert pg.port(u, int(v)) == rank

    def test_random_assignments_deterministic_in_seed(self, small_weighted_graph):
        a = assign_ports(small_weighted_graph, "random", rng=5)
        b = assign_ports(small_weighted_graph, "random", rng=5)
        assert (a.port_of_arc == b.port_of_arc).all()

    def test_step_port_inverse(self, ported_small):
        g = ported_small.graph
        for u in range(g.n):
            for v in g.neighbors(u):
                assert ported_small.step(u, ported_small.port(u, int(v))) == int(v)

    def test_step_weight_matches_edge_weight(self, ported_small):
        g = ported_small.graph
        u = 0
        for v in g.neighbors(u):
            p = ported_small.port(u, int(v))
            assert ported_small.step_weight(u, p) == g.edge_weight(u, int(v))

    def test_invalid_port_raises(self, ported_small):
        with pytest.raises(PortError):
            ported_small.step(0, 0)
        with pytest.raises(PortError):
            ported_small.step(0, ported_small.degree(0) + 1)

    def test_port_of_non_edge_raises(self, ported_small):
        g = ported_small.graph
        u = 0
        non_neighbor = next(
            v for v in range(g.n) if v != u and not g.has_edge(u, v)
        )
        with pytest.raises(PortError):
            ported_small.port(u, non_neighbor)

    def test_max_port_bits(self, ported_small):
        assert ported_small.max_port_bits() >= 1


class TestDesignerPorts:
    def test_designer_port_equals_child_rank(self):
        tree_graph = gen.random_tree(60, rng=9)
        rooted = rooted_from_graph(tree_graph)
        pg = designer_ports_for_tree(tree_graph, rooted)
        check_ports(pg)
        for v in rooted.vertices:
            for rank, c in enumerate(rooted.children[v], start=1):
                assert pg.port(v, c) == rank

    def test_designer_parent_port_after_children(self):
        tree_graph = gen.star_tree(10)
        rooted = rooted_from_graph(tree_graph)
        pg = designer_ports_for_tree(tree_graph, rooted)
        for leaf in range(1, 10):
            # A leaf's only edge is to its parent: port 1.
            assert pg.port(leaf, 0) == 1

    def test_designer_on_graph_with_non_tree_edges(self, small_weighted_graph):
        g = small_weighted_graph
        rooted = rooted_from_graph(g)  # SPT of a non-tree graph
        pg = designer_ports_for_tree(g, rooted)
        check_ports(pg)
        for v in rooted.vertices:
            for rank, c in enumerate(rooted.children[v], start=1):
                assert pg.port(v, c) == rank


class TestPortedGraphValidation:
    def test_bad_port_range_rejected(self, small_weighted_graph):
        import numpy as np

        bad = np.zeros(2 * small_weighted_graph.m, dtype=np.int64)
        with pytest.raises(PortError):
            PortedGraph(small_weighted_graph, bad)

    def test_duplicate_port_rejected(self):
        from repro.graphs.graph import Graph
        import numpy as np

        g = Graph(3, [(0, 1), (0, 2)])
        port_of_arc = np.array([1, 1, 1, 1], dtype=np.int64)  # dup at vertex 0
        with pytest.raises(PortError):
            PortedGraph(g, port_of_arc)

    def test_wrong_shape_rejected(self, small_weighted_graph):
        import numpy as np

        with pytest.raises(GraphError):
            PortedGraph(small_weighted_graph, np.ones(3, dtype=np.int64))
