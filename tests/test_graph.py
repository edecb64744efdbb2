"""Tests for the CSR graph core."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.graph import Graph, GraphBuilder
from repro.graphs.validation import check_graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.n == 0 and g.m == 0
        check_graph(g)

    def test_isolated_vertices(self):
        g = Graph(5, [])
        assert g.n == 5 and g.m == 0
        assert g.degree(3) == 0

    def test_single_edge(self):
        g = Graph(2, [(0, 1)], [2.5])
        assert g.m == 1
        assert g.edge_weight(0, 1) == 2.5
        assert g.edge_weight(1, 0) == 2.5

    def test_default_unit_weights(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.total_weight() == 2.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_parallel_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 5)])

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], [-1.0])

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], [0.0])

    def test_nan_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], [float("nan")])

    def test_wrong_weight_shape_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], [1.0, 2.0])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [])


class TestAccessors:
    def test_neighbors_sorted(self, small_weighted_graph):
        g = small_weighted_graph
        for u in range(g.n):
            row = g.neighbors(u)
            assert np.all(np.diff(row) > 0)

    def test_degrees_sum_to_2m(self, small_weighted_graph):
        g = small_weighted_graph
        assert int(g.degrees().sum()) == 2 * g.m

    def test_has_edge_and_edge_id(self, diamond_graph):
        g = diamond_graph
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(1, 3)
        assert g.edge_id(0, 2) == g.edge_id(2, 0)

    def test_edge_id_missing_raises(self, diamond_graph):
        with pytest.raises(GraphError):
            diamond_graph.edge_id(1, 3)

    def test_neighbor_weights_alignment(self, small_weighted_graph):
        g = small_weighted_graph
        u = 0
        for v, w in zip(g.neighbors(u), g.neighbor_weights(u)):
            assert g.edge_weight(u, int(v)) == w

    def test_csr_invariants_hold(self, small_weighted_graph, ba_graph, grid_graph):
        for g in (small_weighted_graph, ba_graph, grid_graph):
            check_graph(g)


class TestDerivedRepresentations:
    def test_scipy_round_trip_distances(self, diamond_graph):
        mat = diamond_graph.to_scipy()
        assert mat.shape == (4, 4)
        assert mat[0, 1] == 1.0 and mat[1, 0] == 1.0

    def test_networkx_round_trip(self, small_weighted_graph):
        g = small_weighted_graph
        nxg = g.to_networkx()
        back = Graph.from_networkx(nxg)
        assert back == g

    def test_equality_semantics(self):
        a = Graph(3, [(0, 1)], [2.0])
        b = Graph(3, [(1, 0)], [2.0])
        c = Graph(3, [(0, 1)], [3.0])
        assert a == b
        assert a != c


class TestConnectivity:
    def test_connected_components_counts(self):
        g = Graph(5, [(0, 1), (2, 3)])
        count, labels = g.connected_components()
        assert count == 3
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[4] not in (labels[0], labels[2])

    def test_is_connected(self, small_weighted_graph):
        assert small_weighted_graph.is_connected()

    def test_largest_component_extraction(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        lc = g.largest_component()
        assert lc.n == 3 and lc.m == 2 and lc.is_connected()

    def test_subgraph_relabels(self, diamond_graph):
        sub = diamond_graph.subgraph([0, 2, 3])
        assert sub.n == 3
        # Edges (0,2),(2,3),(3,0) survive under relabeling 0->0,2->1,3->2.
        assert sub.m == 3

    def test_subgraph_duplicate_rejected(self, diamond_graph):
        with pytest.raises(GraphError):
            diamond_graph.subgraph([0, 0, 1])


class TestGraphBuilder:
    def test_deduplicates(self):
        b = GraphBuilder(3)
        assert b.add_edge(0, 1)
        assert not b.add_edge(1, 0)
        assert b.m == 1

    def test_ignores_self_loops(self):
        b = GraphBuilder(3)
        assert not b.add_edge(2, 2)
        assert b.m == 0

    def test_keeps_first_weight(self):
        b = GraphBuilder(2)
        b.add_edge(0, 1, 5.0)
        b.add_edge(0, 1, 9.0)
        g = b.build()
        assert g.edge_weight(0, 1) == 5.0

    def test_out_of_range_raises(self):
        with pytest.raises(GraphError):
            GraphBuilder(2).add_edge(0, 4)

    def test_has_edge_either_direction(self):
        b = GraphBuilder(3)
        b.add_edge(2, 0)
        assert b.has_edge(0, 2)


def _loop_csr(n, edges, weights):
    """The CSR as ``Graph.__init__`` once filled it: one arc per endpoint
    in a per-edge loop, then one stable ``argsort`` per adjacency row.
    Kept as the reference the one-lexsort construction must reproduce."""
    m = len(edges)
    deg = np.zeros(n, dtype=np.int64)
    if m:
        np.add.at(deg, edges[:, 0], 1)
        np.add.at(deg, edges[:, 1], 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    adj = np.empty(2 * m, dtype=np.int64)
    adj_w = np.empty(2 * m, dtype=np.float64)
    arc_edge = np.empty(2 * m, dtype=np.int64)
    cursor = indptr[:-1].copy()
    for eid in range(m):
        u, v = int(edges[eid, 0]), int(edges[eid, 1])
        w = weights[eid]
        adj[cursor[u]] = v
        adj_w[cursor[u]] = w
        arc_edge[cursor[u]] = eid
        cursor[u] += 1
        adj[cursor[v]] = u
        adj_w[cursor[v]] = w
        arc_edge[cursor[v]] = eid
        cursor[v] += 1
    for u in range(n):
        lo, hi = indptr[u], indptr[u + 1]
        order = np.argsort(adj[lo:hi], kind="stable")
        adj[lo:hi] = adj[lo:hi][order]
        adj_w[lo:hi] = adj_w[lo:hi][order]
        arc_edge[lo:hi] = arc_edge[lo:hi][order]
    return indptr, adj, adj_w, arc_edge


def _assert_csr_is_the_loop_csr(g):
    want = _loop_csr(g.n, g.edges, g.edge_weights)
    for name, ref in zip(("indptr", "adj", "adj_weights", "arc_edge"), want):
        got = getattr(g, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name


class TestLexsortCSR:
    @pytest.mark.parametrize("family", ["gnp", "ba", "as-like", "grid", "geometric"])
    def test_reference_families_match_the_per_edge_loop(self, family):
        from repro.analysis.experiments import reference_graph

        g = reference_graph(family, 400, 3)
        assert g.m > 0
        _assert_csr_is_the_loop_csr(g)
        _assert_csr_is_the_loop_csr(g.largest_component())

    def test_edgeless_and_isolated_vertices_match_the_per_edge_loop(self):
        for g in (
            Graph(0, []),
            Graph(5, []),
            Graph(7, [(4, 1), (1, 2), (6, 2)], [2.0, 0.5, 3.0]),  # 0, 3, 5 isolated
        ):
            _assert_csr_is_the_loop_csr(g)
