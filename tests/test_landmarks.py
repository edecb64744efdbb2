"""Hierarchy sampling, the center algorithm, and pivot consistency."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import ks

from repro.core.landmarks import (
    build_hierarchy,
    center,
    compute_pivots,
    hierarchy_from_levels,
    level0_sources,
    sample_hierarchy,
)
from repro.errors import PreprocessingError
from repro.graphs import generators as gen
from repro.graphs.shortest_paths import all_pairs_shortest_paths


class TestSampling:
    def test_levels_nested(self):
        levels = sample_hierarchy(500, 4, rng=1)
        assert len(levels) == 4
        for upper, lower in zip(levels, levels[1:]):
            assert set(lower.tolist()) <= set(upper.tolist())

    def test_level_zero_is_everything(self):
        levels = sample_hierarchy(100, 3, rng=2)
        assert np.array_equal(levels[0], np.arange(100))

    def test_top_level_nonempty(self):
        for seed in range(10):
            levels = sample_hierarchy(50, 3, rng=seed)
            assert levels[-1].size >= 1

    def test_k1_single_level(self):
        levels = sample_hierarchy(10, 1, rng=3)
        assert len(levels) == 1

    def test_invalid_k(self):
        with pytest.raises(PreprocessingError):
            sample_hierarchy(10, 0)

    def test_invalid_n(self):
        with pytest.raises(PreprocessingError):
            sample_hierarchy(0, 2)

    def test_deterministic(self):
        a = sample_hierarchy(200, 3, rng=9)
        b = sample_hierarchy(200, 3, rng=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    @given(ks(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_expected_level_sizes(self, k):
        n = 1024
        levels = sample_hierarchy(n, k, rng=k)
        q = n ** (-1.0 / k)
        for i in range(1, k):
            expected = n * q**i
            # Loose 5x window where the law of large numbers has teeth;
            # for tiny expectations only require non-emptiness (Poisson
            # tails are wide there, and the sampler retries on empty).
            if expected >= 20:
                assert expected / 5 <= levels[i].size <= 5 * expected + 10
            else:
                assert levels[i].size >= 1


class TestCenter:
    @pytest.fixture(scope="class")
    def graph(self):
        return gen.gnp(250, 0.04, rng=55, weights=(1, 9))

    def test_cluster_cap_guarantee(self, graph):
        """The hard Theorem 3.1 guarantee: every non-landmark cluster has
        at most 4n/s members."""
        D = all_pairs_shortest_paths(graph)
        for s in (8.0, 16.0, 31.0):
            A = center(graph, s, rng=5, dist_matrix=D)
            dA = D[A].min(axis=0)
            others = np.setdiff1d(np.arange(graph.n), A)
            sizes = (D[others] < dA[None, :]).sum(axis=1)
            assert sizes.max() <= 4 * graph.n / s

    def test_landmark_count_near_expectation(self, graph):
        D = all_pairs_shortest_paths(graph)
        s = 16.0
        sizes = [
            center(graph, s, rng=seed, dist_matrix=D).size for seed in range(5)
        ]
        # E|A| = O(s log n); allow a wide but meaningful window.
        assert max(sizes) <= 6 * s * math.log(graph.n)
        assert min(sizes) >= 1

    def test_sparse_engine_matches_cap(self):
        g = gen.gnp(150, 0.06, rng=66, weights=(1, 5))
        D = all_pairs_shortest_paths(g)
        s = 12.0
        # Force the sparse (truncated-Dijkstra) path.
        from repro.core import clusters as cl

        old = cl.DENSE_LIMIT
        try:
            cl.DENSE_LIMIT = 10
            A = center(g, s, rng=3)
        finally:
            cl.DENSE_LIMIT = old
        dA = D[A].min(axis=0)
        others = np.setdiff1d(np.arange(g.n), A)
        sizes = (D[others] < dA[None, :]).sum(axis=1)
        assert sizes.max() <= 4 * g.n / s

    def test_invalid_s(self, graph):
        with pytest.raises(PreprocessingError):
            center(graph, 0.0)

    def test_huge_s_takes_everything_quickly(self, graph):
        A = center(graph, 10.0 * graph.n, rng=1)
        assert A.size >= graph.n // 2  # nearly everything sampled round 1


class TestPivots:
    @pytest.fixture(scope="class")
    def setup(self):
        g = gen.grid2d(10, 10)  # unit weights: distance ties everywhere
        levels = sample_hierarchy(g.n, 3, rng=21)
        dist, pivot = compute_pivots(g, levels)
        D = all_pairs_shortest_paths(g)
        return g, levels, dist, pivot, D

    def test_distance_rows_exact(self, setup):
        g, levels, dist, pivot, D = setup
        for i, Ai in enumerate(levels):
            assert np.allclose(dist[i], D[Ai].min(axis=0))

    def test_sentinel_row_infinite(self, setup):
        g, levels, dist, pivot, D = setup
        assert np.all(np.isinf(dist[len(levels)]))

    def test_distances_monotone_in_level(self, setup):
        g, levels, dist, pivot, D = setup
        for i in range(len(levels) - 1):
            assert np.all(dist[i] <= dist[i + 1])

    def test_pivot_realizes_level_distance(self, setup):
        """d(p_i(v), v) == d_i(v) even for promoted (consistent) pivots."""
        g, levels, dist, pivot, D = setup
        for i in range(len(levels)):
            for v in range(g.n):
                assert D[pivot[i, v], v] == dist[i, v]

    def test_pivot_belongs_to_level(self, setup):
        g, levels, dist, pivot, D = setup
        for i, Ai in enumerate(levels):
            members = set(Ai.tolist())
            assert all(int(p) in members for p in pivot[i])

    def test_consistency_on_ties(self, setup):
        g, levels, dist, pivot, D = setup
        for i in range(len(levels) - 1):
            tied = dist[i] == dist[i + 1]
            assert np.array_equal(pivot[i][tied], pivot[i + 1][tied])

    def test_level0_pivot_is_self(self, setup):
        g, levels, dist, pivot, D = setup
        untied = dist[0] < dist[1]
        assert np.array_equal(
            pivot[0][untied], np.arange(g.n)[untied]
        )

    def test_inconsistent_mode_differs_on_tied_graphs(self):
        g = gen.grid2d(8, 8)
        levels = sample_hierarchy(g.n, 3, rng=5)
        _, consistent = compute_pivots(g, levels, consistent=True)
        _, naive = compute_pivots(g, levels, consistent=False)
        assert not np.array_equal(consistent, naive)


class TestBuildHierarchy:
    def test_fields_coherent(self, small_weighted_graph):
        h = build_hierarchy(small_weighted_graph, 3, rng=8)
        assert h.k == 3
        assert h.dist.shape == (4, small_weighted_graph.n)
        assert h.pivot.shape == (3, small_weighted_graph.n)
        assert h.n == small_weighted_graph.n
        assert h.sizes()[0] == small_weighted_graph.n

    def test_level_of_matches_levels(self, small_weighted_graph):
        h = build_hierarchy(small_weighted_graph, 3, rng=8)
        for v in range(h.n):
            lvl = int(h.level_of[v])
            assert v in set(h.levels[lvl].tolist())
            if lvl + 1 < h.k:
                assert v not in set(h.levels[lvl + 1].tolist())

    def test_threshold_for(self, small_weighted_graph):
        h = build_hierarchy(small_weighted_graph, 2, rng=8)
        w = int(h.levels[1][0])
        assert h.threshold_for(w) == 2

    def test_capped_sampling_runs(self, small_weighted_graph):
        h = build_hierarchy(small_weighted_graph, 3, rng=8, sampling="capped")
        assert h.k == 3

    def test_unknown_sampling_rejected(self, small_weighted_graph):
        with pytest.raises(PreprocessingError):
            build_hierarchy(small_weighted_graph, 2, sampling="nope")


class TestNestedLevels:
    """``hierarchy_from_levels`` refuses level sets that do not nest as
    ``A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k-1} ≠ ∅``, naming the first level at fault:
    a vertex's top level (its cluster's threshold) and the level-0 rule
    (:func:`~repro.core.landmarks.level0_sources`) hold only on nested
    levels."""

    def test_nested_levels_resolve(self, small_weighted_graph):
        n = small_weighted_graph.n
        levels = [np.arange(n), np.array([1, 4, 7]), np.array([4])]
        h = hierarchy_from_levels(small_weighted_graph, levels)
        assert h.level_of.tolist() == [0, 1, 0, 0, 2, 0, 0, 1] + [0] * (n - 8)
        assert np.array_equal(level0_sources(h.pivot), h.level_of == 0)

    def test_a_level_outside_the_one_below_is_refused(self, small_weighted_graph):
        n = small_weighted_graph.n
        levels = [np.arange(n), np.array([1, 4, 7]), np.array([4, 5])]
        with pytest.raises(PreprocessingError, match="level 2 is not a subset of level 1"):
            hierarchy_from_levels(small_weighted_graph, levels)

    def test_level_0_must_be_every_vertex(self, small_weighted_graph):
        n = small_weighted_graph.n
        with pytest.raises(PreprocessingError, match="level 0 is not every vertex"):
            hierarchy_from_levels(small_weighted_graph, [np.arange(n - 1), np.array([2])])

    def test_an_empty_top_level_is_refused(self, small_weighted_graph):
        n = small_weighted_graph.n
        levels = [np.arange(n), np.array([3, 5]), np.zeros(0, dtype=np.int64)]
        with pytest.raises(PreprocessingError, match="top level 2 is empty"):
            hierarchy_from_levels(small_weighted_graph, levels)

    def test_ids_outside_the_graph_are_refused(self, small_weighted_graph):
        n = small_weighted_graph.n
        with pytest.raises(PreprocessingError, match="level 1 holds ids outside"):
            hierarchy_from_levels(small_weighted_graph, [np.arange(n), np.array([n])])
