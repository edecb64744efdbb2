"""Differential construction suite: vectorized builder ≡ per-node reference.

The vectorized pipeline (:mod:`repro.core.build.vectorized`) must
reproduce the per-node reference **bit-for-bit** — same cluster sets and
distances, same SPT parents, same heavy-light records and ports, same
light-port sequences, same level-0 members and encoded labels — across a
sweep of generator families × k × seeds, in the same spirit
``test_batch_engine.py`` gates the batch router against the hop-by-hop
simulator.

Three layers of comparison:

1. **arrays** — ``reference_arrays`` vs ``vectorized_arrays`` (the
   platform kernel's cluster engines), every :class:`SchemeArrays` field via
   ``np.array_equal``;
2. **schemes** — ``build_scheme(builder=...)`` outputs: records, tree
   labels, level-0 members (explicit ``d(u,v) < d(A_1,v)`` per node, the
   tree-slice rule from arrays), pivots, destination labels, measured *and
   encoded* label bits, table bits;
3. **engine export** — the arrays the per-node builder attaches to its
   scheme equal both builders' arrays, and ``compile_scheme`` of either
   builder's scheme is the same ``compile_from_arrays`` output, field
   by field.

Plus construction-invariant property tests: bunch/cluster duality,
subpath closure on vectorized clusters, and the Õ(n^{1/k}) size bounds
from :mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import FAMILIES, family_from_seed, family_graphs, ks, seeds

from repro.analysis.bounds import tz_table_bound_bits
from repro.core.build import SchemeArrays, build_arrays, build_scheme
from repro.core.build.reference import reference_arrays
from repro.core.build.vectorized import vectorized_arrays
from repro.core.labels import encode_label
from repro.core.landmarks import build_hierarchy
from repro.errors import PreprocessingError
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro.sim.engine.compile import compile_scheme

ARRAY_FIELDS = [
    f.name
    for f in dataclasses.fields(SchemeArrays)
    if f.name not in ("n", "k", "hierarchy")
]


def assert_arrays_equal(ref, vec, context=""):
    assert ref.n == vec.n and ref.k == vec.k
    for name in ARRAY_FIELDS:
        a, b = getattr(ref, name), getattr(vec, name)
        assert np.array_equal(a, b), f"{name} differs {context}"


def _instance(family, seed, n=48):
    g = family_from_seed(seed, family, n=n)
    return g, assign_ports(g, "random", rng=seed + 1)


# ----------------------------------------------------------------------
# Layer 1: array-by-array, generator families × k × seeds × engines
# ----------------------------------------------------------------------
class TestArrayEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep(self, family, k, seed):
        g, pg = _instance(family, 10 * seed + k)
        hierarchy = build_hierarchy(g, k, seed)
        ref = reference_arrays(g, pg, hierarchy)
        ref.validate()
        vec = vectorized_arrays(g, pg, hierarchy)
        assert_arrays_equal(ref, vec, f"({family}, k={k}, seed={seed})")

    @given(family_graphs(n=40), ks(1, 4), seeds())
    @settings(max_examples=15, deadline=None)
    def test_property_random_instances(self, g, k, seed):
        pg = assign_ports(g, "random", rng=seed)
        hierarchy = build_hierarchy(g, k, seed)
        ref = reference_arrays(g, pg, hierarchy)
        vec = vectorized_arrays(g, pg, hierarchy)
        assert_arrays_equal(ref, vec, f"(k={k}, seed={seed})")

    def test_k4_deep_hierarchy(self):
        g, pg = _instance("gnp", 7, n=90)
        hierarchy = build_hierarchy(g, 4, 3)
        ref = reference_arrays(g, pg, hierarchy)
        assert_arrays_equal(ref, vectorized_arrays(g, pg, hierarchy))

    def test_unit_weights_maximal_ties(self):
        # Unit weights maximize equal-distance ties: the tie-break
        # replication (min-id tight parents, (-size, id) child order)
        # is what this instance stresses.
        g = gen.grid2d(7, 7)
        pg = assign_ports(g, "random", rng=2)
        hierarchy = build_hierarchy(g, 3, 5)
        ref = reference_arrays(g, pg, hierarchy)
        assert_arrays_equal(ref, vectorized_arrays(g, pg, hierarchy))

    def test_inexact_weights_fall_back_to_reference(self):
        from repro.graphs.graph import Graph

        g = gen.gnp(30, 0.15, rng=4)
        g2 = Graph(g.n, g.edges, np.full(g.m, math.pi))
        pg = assign_ports(g2, "sorted")
        hierarchy = build_hierarchy(g2, 2, 1)
        ref = reference_arrays(g2, pg, hierarchy)
        vec = vectorized_arrays(g2, pg, hierarchy)  # silently delegates
        assert_arrays_equal(ref, vec, "(pi weights)")

    def test_bad_method_and_mode_rejected(self):
        g, pg = _instance("gnp", 0)
        with pytest.raises(PreprocessingError):
            build_arrays(g, 2, ported=pg, builder="quantum")
        hierarchy = build_hierarchy(g, 2, 0)
        with pytest.raises(TypeError):  # the input decides each level's engine
            vectorized_arrays(g, pg, hierarchy, mode="pruned")

    def test_build_arrays_same_rng_same_hierarchy(self):
        g, pg = _instance("ba", 3)
        ref = build_arrays(g, 3, ported=pg, builder="reference", rng=123)
        vec = build_arrays(g, 3, ported=pg, builder="vectorized", rng=123)
        assert_arrays_equal(ref, vec, "(front door)")


# ----------------------------------------------------------------------
# Layer 2: materialized schemes, including encoded label bits
# ----------------------------------------------------------------------
class TestSchemeEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_structures_and_encodings(self, k, small_weighted_graph, ported_small):
        g, pg = small_weighted_graph, ported_small
        ref = build_scheme(g, k, ported=pg, builder="reference", rng=500 + k)
        vec = build_scheme(g, k, ported=pg, builder="vectorized", rng=500 + k)
        assert ref.tree_sizes == vec.tree_sizes
        assert ref.tree_labels == vec.tree_labels
        for u in range(g.n):
            a, b = ref.tables[u], vec.tables[u]
            assert a.trees == b.trees
            assert a.own_labels == b.own_labels
            assert a.members == b.members
            assert a.pivots == b.pivots
            assert ref.labels[u] == vec.labels[u]
            assert ref.table_bits(u) == vec.table_bits(u)
            assert ref.label_bits(u) == vec.label_bits(u)
            # The actual encoded bit stream, not just its measured size.
            assert (
                encode_label(ref.labels[u], g.n, ref.tree_sizes).getvalue()
                == encode_label(vec.labels[u], g.n, vec.tree_sizes).getvalue()
            )

    def test_vectorized_label_bits_match_scalar(self, small_weighted_graph, ported_small):
        vec = build_scheme(small_weighted_graph, 3, ported=ported_small, builder="vectorized", rng=9)
        bits = vec.arrays.label_bits()
        for u in range(vec.n):
            assert int(bits[u]) == vec.label_bits(u)

    def test_routing_identical(self, small_weighted_graph, ported_small, dist_small):
        from repro.rng import all_pairs
        from repro.sim.runner import run_pairs

        g, pg = small_weighted_graph, ported_small
        ref = build_scheme(g, 3, ported=pg, builder="reference", rng=77)
        vec = build_scheme(g, 3, ported=pg, builder="vectorized", rng=77)
        pairs = all_pairs(g.n, limit=800, rng=5)
        res_a, str_a = run_pairs(pg, ref, pairs, true_dist=dist_small)
        res_b, str_b = run_pairs(pg, vec, pairs, true_dist=dist_small)
        assert str_a == str_b
        for x, y in zip(res_a, res_b):
            assert (x.delivered, x.weight, x.hops) == (y.delivered, y.weight, y.hops)

    def test_stretch3_scheme_builder_param(self, small_weighted_graph, ported_small):
        from repro.core.scheme_k2 import build_stretch3_scheme

        g, pg = small_weighted_graph, ported_small
        ref = build_stretch3_scheme(g, pg, rng=3, cluster_method="sparse")
        vec = build_stretch3_scheme(g, pg, rng=3, builder="vectorized")
        assert ref.tree_sizes == vec.tree_sizes
        for u in range(g.n):
            assert ref.tables[u].trees == vec.tables[u].trees
            assert ref.labels[u] == vec.labels[u]


# ----------------------------------------------------------------------
# Layer 3: the batch-engine export fast path
# ----------------------------------------------------------------------
class TestCompiledExport:
    @pytest.mark.parametrize("k", [2, 3])
    def test_compile_from_arrays_matches_dict_walk(self, k):
        """The per-node scheme's attached arrays — packed from the same
        clusters and tree routers its dict tables hold — equal both
        builders' arrays, so compiling them replaces the old dict walk."""
        g, pg = _instance("gnp", 11 + k, n=70)
        ref = build_scheme(g, k, ported=pg, builder="reference", rng=k)
        vec = build_scheme(g, k, ported=pg, builder="vectorized", rng=k)
        assert_arrays_equal(reference_arrays(g, pg, ref.hierarchy), ref.arrays)
        assert_arrays_equal(vectorized_arrays(g, pg, ref.hierarchy), ref.arrays)
        assert_arrays_equal(vec.arrays, ref.arrays)
        ca, cb = compile_scheme(vec, pg), compile_scheme(ref, pg)
        for f in dataclasses.fields(ca):
            a, b = getattr(ca, f.name), getattr(cb, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    def test_foreign_port_assignment(self):
        # Compiling against a port assignment the scheme was not built on
        # must resolve through the same physical links on both paths.
        g, pg = _instance("gnp", 21, n=60)
        other = assign_ports(g, "reversed")
        ref = build_scheme(g, 2, ported=pg, builder="reference", rng=2)
        vec = build_scheme(g, 2, ported=pg, builder="vectorized", rng=2)
        ca, cb = compile_scheme(vec, other), compile_scheme(ref, other)
        for f in dataclasses.fields(ca):
            a, b = getattr(ca, f.name), getattr(cb, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name


# ----------------------------------------------------------------------
# Construction invariants (property tests)
# ----------------------------------------------------------------------
class TestConstructionInvariants:
    @given(family_graphs(n=44), ks(2, 3), seeds())
    @settings(max_examples=10, deadline=None)
    def test_bunch_cluster_duality(self, g, k, seed):
        """v ∈ C(w) ⇔ w ∈ B(v), with identical distances."""
        pg = assign_ports(g, "sorted")
        arrays = build_arrays(g, k, ported=pg, rng=seed)
        # A bunch is the entries grouped by member: a stable sort keeps
        # each member's centers ascending, and bunch_sizes counts them.
        by_member = np.argsort(arrays.ent_member, kind="stable")
        indptr = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(arrays.bunch_sizes(), out=indptr[1:])
        members_of_bunches = np.repeat(np.arange(g.n), arrays.bunch_sizes())
        assert np.array_equal(members_of_bunches, arrays.ent_member[by_member])
        centers = arrays.entry_centers()[by_member]
        dists = arrays.ent_dist[by_member]
        # Every bunch against the set definition via dict-world bunches.
        from repro.core.clusters import bunches as bunches_dict
        from repro.core.clusters import compute_all_clusters

        clusters = compute_all_clusters(
            g,
            list(range(g.n)),
            np.stack([arrays.hierarchy.dist[arrays.hierarchy.level_of[w] + 1] for w in range(g.n)]),
            method="sparse",
        )
        B = bunches_dict(clusters)
        for v in range(g.n):
            lo, hi = indptr[v], indptr[v + 1]
            got = dict(zip(centers[lo:hi].tolist(), dists[lo:hi].tolist()))
            assert got == B[v]

    @given(family_graphs(n=44), ks(2, 4), seeds())
    @settings(max_examples=10, deadline=None)
    def test_subpath_closure_on_vectorized_clusters(self, g, k, seed):
        """Every SPT parent is a member at strictly smaller distance, and
        the parent chain reaches the center (no cycles)."""
        pg = assign_ports(g, "sorted")
        arrays = build_arrays(g, k, ported=pg, rng=seed, builder="vectorized")
        arrays.validate()
        rest = arrays.ent_parent >= 0
        pe = arrays.ent_parent_epos[rest]
        assert np.array_equal(arrays.ent_member[pe], arrays.ent_parent[rest])
        center = arrays.entry_centers()
        assert np.array_equal(center[pe], center[rest])
        assert np.all(arrays.ent_dist[pe] < arrays.ent_dist[rest])
        # Tree edges are graph edges with consistent weights.
        from repro.core.build.arrays import port_lookup

        port = port_lookup(pg)
        assert np.all(
            arrays.tr_parent_port[rest]
            == port(arrays.ent_member[rest], arrays.ent_parent[rest])
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3])
    def test_label_size_within_bound(self, seed, k):
        """Measured label and table bits stay under the Õ(n^{1/k}) curve
        of analysis.bounds (generous constant; fixed seeds keep the
        w.h.p. statement deterministic)."""
        g = gen.gnp(128, 0.05, rng=seed, weights=(1, 9))
        pg = assign_ports(g, "sorted")
        scheme = build_scheme(g, k, ported=pg, builder="vectorized", rng=seed)
        bound = tz_table_bound_bits(g.n, k, c_polylog=24.0)
        assert max(scheme.label_bits(v) for v in range(g.n)) <= bound
        mean_table = sum(scheme.table_bits(v) for v in range(g.n)) / g.n
        assert mean_table <= bound

    @given(seeds())
    @settings(max_examples=8, deadline=None)
    def test_bunch_sizes_near_expectation(self, seed):
        """E|B(v)| = O(k·n^{1/k}): the mean bunch size of a k=2 scheme
        stays within a small multiple of 2·sqrt(n)."""
        g = gen.gnp(100, 0.08, rng=seed, weights=(1, 5))
        arrays = build_arrays(g, 2, rng=seed)
        assert float(arrays.bunch_sizes().mean()) <= 8.0 * 2.0 * math.sqrt(g.n)
