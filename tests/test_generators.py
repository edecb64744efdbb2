"""Generator sanity: sizes, connectivity, determinism, weight ranges."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import reference_graph
from repro.errors import GraphError
from repro.graphs import generators as gen
from repro.graphs.validation import check_graph
from repro.store.store import graph_content_hash

#: ``graph_content_hash(reference_graph(family, 2000, 0))``: any change to
#: a generator's draws, its edge order or its weights moves these.
FAMILY_PINS = {
    "gnp": "23961d1bbd515bb27b153498cf6369108a78d388c827a751b1bbf762b36fecee",
    "ba": "7bd0f151289bb836f5afa725b0176a4c7f6b68b7d52613ebf64275f9ab73703c",
    "as-like": "20d03096066e05351a47791ff7d7521e5d33302171e705eba02193e9f43935fa",
    "grid": "2751da3f5e3b13ee5120d87ada7bebaadfedc470aca42260dfdea35cfb59968a",
    "geometric": "ee077b0cd21bc6e02e87010ab4989fa1ff2b938573e694e8284a14316dde3e88",
}

#: ``graph_content_hash(reference_graph("gnp", 10_000, seed))``, the
#: size perfbench builds: the skip loop, the largest component and the
#: weights drawn after the loop, per seed.
GNP_10K_PINS = {
    0: "ceb0bc2ed284ba338c30942b6e1b2d0b5930338c67733d3b82bf4542c82988a0",
    1: "27bb071acaaa52e283a40ffa98c5e3bd13cb6a4507713262d16bcd469c4ea90a",
    7: "12b17d43b15e68b1e9557ea752452b0501c7b6397cfc5145e69fca955bb2d863",
}

#: ``graph_content_hash(reference_graph("as-like", 20_000, 0))``, recorded
#: with the generator's per-edge neighbor scan: the neighbor lists that
#: replace it must draw the same triangle steps.
AS_LIKE_20K_PIN = "8fbd3ccf9689193d114aba88187e83cedf73a20ef70ec636faf1fd156de49c41"


class TestPinnedContent:
    """Byte-identical generation, on either kernel."""

    @pytest.mark.parametrize("family", sorted(FAMILY_PINS))
    def test_reference_family_pinned(self, family):
        g = reference_graph(family, 2000, 0)
        assert graph_content_hash(g) == FAMILY_PINS[family]

    @pytest.mark.parametrize("seed", sorted(GNP_10K_PINS))
    def test_gnp_10k_pinned(self, seed):
        g = reference_graph("gnp", 10_000, seed)
        assert graph_content_hash(g) == GNP_10K_PINS[seed]

    def test_as_like_20k_pinned(self):
        g = reference_graph("as-like", 20_000, 0)
        assert graph_content_hash(g) == AS_LIKE_20K_PIN


class TestRandomFamilies:
    def test_gnp_determinism(self):
        a = gen.gnp(100, 0.05, rng=3)
        b = gen.gnp(100, 0.05, rng=3)
        assert a == b

    def test_gnp_p_zero_edgeless(self):
        g = gen.gnp(10, 0.0, connected=False)
        assert g.m == 0

    def test_gnp_p_one_complete(self):
        g = gen.gnp(8, 1.0)
        assert g.m == 8 * 7 // 2

    def test_gnp_invalid_p(self):
        with pytest.raises(GraphError):
            gen.gnp(10, 1.5)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_gnp_density_plausible(self, seed):
        g = gen.gnp(200, 0.05, rng=seed, connected=False)
        expected = 0.05 * 200 * 199 / 2
        assert 0.5 * expected < g.m < 1.6 * expected

    def test_gnm_exact_edge_count(self):
        g = gen.gnm(50, 120, rng=1, connected=False)
        assert g.m == 120

    def test_gnm_too_many_edges(self):
        with pytest.raises(GraphError):
            gen.gnm(4, 10)

    def test_weights_within_range(self):
        g = gen.gnp(80, 0.1, rng=2, weights=(3, 11))
        assert g.edge_weights.min() >= 3 and g.edge_weights.max() <= 11
        assert np.all(g.edge_weights == np.round(g.edge_weights))

    def test_invalid_weight_range(self):
        with pytest.raises(GraphError):
            gen.gnp(10, 0.5, weights=(0, 5))

    def test_random_geometric_connected_option(self):
        g = gen.random_geometric(150, 0.18, rng=4)
        assert g.is_connected()
        check_graph(g)

    def test_barabasi_albert_connected_and_heavy_tailed(self):
        g = gen.barabasi_albert(300, 3, rng=5)
        assert g.is_connected()
        degs = g.degrees()
        assert degs.max() > 4 * np.median(degs)  # hubs exist

    def test_barabasi_albert_invalid_params(self):
        with pytest.raises(GraphError):
            gen.barabasi_albert(5, 5)

    def test_powerlaw_cluster_connected(self):
        g = gen.powerlaw_cluster(200, 2, 0.4, rng=6)
        assert g.is_connected()
        check_graph(g)

    def test_internet_as_like_shape(self):
        g = gen.internet_as_like(300, rng=7)
        assert g.is_connected()
        assert g.m < 3 * g.n  # sparse
        assert g.degrees().max() > 10  # hubby

    def test_waxman_builds(self):
        g = gen.waxman(150, rng=8)
        check_graph(g)
        assert g.is_connected()


class TestStructuredFamilies:
    def test_grid_dimensions(self):
        g = gen.grid2d(5, 7)
        assert g.n == 35 and g.m == 5 * 6 + 4 * 7

    def test_torus_regularity(self):
        g = gen.grid2d(5, 5, torus=True)
        assert np.all(g.degrees() == 4)

    def test_hypercube(self):
        g = gen.hypercube(4)
        assert g.n == 16 and np.all(g.degrees() == 4)

    def test_ring(self):
        g = gen.ring(9)
        assert g.n == 9 and g.m == 9 and np.all(g.degrees() == 2)

    def test_ring_too_small(self):
        with pytest.raises(GraphError):
            gen.ring(2)

    def test_complete(self):
        g = gen.complete(6)
        assert g.m == 15


class TestTreeFamilies:
    @pytest.mark.parametrize("family", sorted(gen.TREE_FAMILIES))
    def test_families_are_trees(self, family):
        from repro.rng import make_rng

        g = gen.TREE_FAMILIES[family](64, make_rng(11))
        assert g.m == g.n - 1
        assert g.is_connected()

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_random_tree_is_tree(self, n):
        g = gen.random_tree(n, rng=n)
        assert g.n == n and g.m == n - 1 and g.is_connected()

    def test_random_tree_determinism(self):
        assert gen.random_tree(50, rng=3) == gen.random_tree(50, rng=3)

    def test_path_star_shapes(self):
        assert gen.path_tree(10).degrees().max() == 2
        assert gen.star_tree(10).degree(0) == 9

    def test_caterpillar_counts(self):
        g = gen.caterpillar(5, 3)
        assert g.n == 5 * 4 and g.m == g.n - 1

    def test_balanced_binary(self):
        g = gen.balanced_binary_tree(4)
        assert g.n == 31 and g.m == 30

    def test_broom_and_spider(self):
        b = gen.broom(5, 8)
        assert b.n == 13 and b.m == 12
        s = gen.spider(4, 6)
        assert s.n == 25 and s.m == 24 and s.degree(0) == 4
