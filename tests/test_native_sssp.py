"""The native shortest-path passes against their scipy references.

Three passes in ``kernels/_native.c`` keep scipy off the native path,
and each must return exactly what the scipy code it replaced returns:

* ``tz_multi_source`` (``CSRKernel.multi_source``, ``multi_source_sets``
  and ``multi_source_distances``, so the hierarchy's ``dist`` and
  ``pivot``): scipy's multi-source distances and the witnesses of
  ``_propagate_witnesses``, and the heap reference's witnesses where the
  weights are not float64-exact and that propagation is incomplete;
* ``tz_components`` (``edge_components``, behind
  ``Graph.connected_components`` and the failure sweeps): scipy's
  ``connected_components`` labels;
* ``tz_pair_distances`` (``CSRKernel.pair_distances``, behind
  ``pair_true_distances`` and the spanner backend): the cells of
  scipy's full distance rows.

Every native comparison runs with the pool cut into 1–4 ranges.  Under
``REPRO_NATIVE_KERNELS=0`` the same tests hold the numpy kernel to the
same references and fixed answers.  The last test runs the pipeline in
a subprocess on the native kernel and checks that it never imports
scipy.
"""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import pool
from repro.analysis.experiments import reference_graph
from repro.core.landmarks import compute_pivots, sample_hierarchy
from repro.errors import GraphError
from repro.graphs import csr as csr_mod
from repro.graphs import graph as graph_mod
from repro.graphs.graph import Graph, edge_components
from repro.kernels import available, native_error
from repro.rng import make_rng
from repro.sim.runner import pair_true_distances

needs_native = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

FAMILIES = ("gnp", "ba", "as-like", "grid", "geometric")
PARTS = (1, 2, 3, 4)


@contextlib.contextmanager
def in_ranges(parts):
    """The native passes cut ``parts`` pool tasks whatever the pool's
    real size: they read the count from :func:`repro.pool.size`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "size", lambda: parts)
        yield


@contextlib.contextmanager
def on_numpy():
    """The scipy references: the shortest-path and components forks
    resolve to the numpy kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csr_mod, "resolve_kernel", lambda kernel: "numpy")
        mp.setattr(graph_mod, "resolve_kernel", lambda kernel: "numpy")
        yield


def assert_same(want, got, what):
    for a, b in zip(want, got):
        assert a.dtype == b.dtype and np.array_equal(a, b), what


def family_graph(family: str) -> Graph:
    """A reference graph as generated, components and all."""
    return reference_graph(family, 300, 3)


def priority_of(graph: Graph, seed: int):
    """A witness priority over every vertex with many ties."""
    gen = make_rng(seed)
    return {v: int(p) for v, p in enumerate(gen.integers(0, 4, size=graph.n))}


def source_sets(graph: Graph, seed: int):
    """A sampled hierarchy's levels plus random subsets, one of them a
    single vertex."""
    gen = make_rng(seed)
    levels = sample_hierarchy(graph.n, 3, gen)
    picks = [np.sort(gen.choice(graph.n, size=s, replace=False)) for s in (1, 7, 60)]
    return list(levels) + picks


def inexact_graph() -> Graph:
    """gnp with irrational, jittered weights: no weight sum is exact."""
    base = reference_graph("gnp", 300, 5)
    gen = make_rng(5)
    weights = base.edge_weights * math.sqrt(2) + gen.random(base.m) * 1e-3
    return Graph(base.n, base.edges, weights)


def flat_chain() -> Graph:
    """A chain whose arcs after the first add nothing in float64:
    ``1e16 + 1 == 1e16``, so a tight arc does not go uphill."""
    return Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
                 [1e16, 1, 1, 1, 1, 1])


# ----------------------------------------------------------------------
# Multi-source sweep
# ----------------------------------------------------------------------
class TestMultiSource:
    @pytest.mark.parametrize("prioritized", [False, True], ids=["ids", "priority"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_equal_scipy_and_heap(self, family, prioritized):
        graph = family_graph(family)
        kernel = graph.csr()
        prio = priority_of(graph, 11) if prioritized else None
        sets = source_sets(graph, 12)
        want = [kernel.multi_source(s, witness_priority=prio, method="scipy") for s in sets]
        for parts in PARTS:
            with in_ranges(parts):
                got = kernel.multi_source_sets(sets, witness_priority=prio)
            assert len(got) == len(sets)
            for i, (w, g) in enumerate(zip(want, got)):
                assert_same(w, g, f"{family} set {i} in {parts} ranges")
        heap = kernel.multi_source(sets[-1], witness_priority=prio, method="heap")
        assert_same(heap, got[-1], f"{family} heap reference")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_distances_only_equal_scipy(self, family):
        graph = family_graph(family)
        for src in source_sets(graph, 13):
            with on_numpy():
                want = graph.csr().multi_source_distances(src)
            got = graph.csr().multi_source_distances(src)
            assert_same([want], [got], family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_pivots_equal_reference(self, family):
        graph = family_graph(family)
        levels = sample_hierarchy(graph.n, 4, make_rng(14))
        with on_numpy():
            want = compute_pivots(graph, levels)
        for parts in PARTS:
            with in_ranges(parts):
                got = compute_pivots(graph, levels)
            assert_same(want, got, f"{family} dist/pivot in {parts} ranges")

    def test_empty_and_all_vertex_sets(self):
        graph = family_graph("gnp")
        kernel = graph.csr()
        every = np.arange(graph.n)
        for parts in PARTS:
            with in_ranges(parts):
                empty, full = kernel.multi_source_sets([[], every])
            assert np.all(np.isinf(empty[0])) and np.all(empty[1] == -1)
            assert np.all(full[0] == 0.0) and np.array_equal(full[1], every)
            assert_same(kernel.multi_source(every, method="scipy"), full, "all vertices")
        assert np.all(np.isinf(kernel.multi_source_distances([])))
        assert np.all(kernel.multi_source_distances(every) == 0.0)

    def test_disconnected_and_isolated_vertices(self):
        # Components {0,1,2}, {3,4}, {6,7} and the isolated 5 and 8.
        graph = Graph(9, [(0, 1), (1, 2), (3, 4), (6, 7)], [2.0, 3.0, 1.0, 4.0])
        kernel = graph.csr()
        for sources in ([0, 2], [3], [5], [0, 6]):
            want = kernel.multi_source(sources, method="scipy")
            got = kernel.multi_source(sources)
            assert_same(want, got, f"sources {sources}")
            assert_same(kernel.multi_source(sources, method="heap"), got, "heap")
        dist, witness = kernel.multi_source([0, 2])
        assert np.array_equal(witness, [0, 0, 2, -1, -1, -1, -1, -1, -1])
        assert np.all(np.isinf(dist[3:]))
        dist, witness = kernel.multi_source([5])
        assert dist[5] == 0.0 and witness[5] == 5
        assert np.all(witness[np.arange(9) != 5] == -1)

    def test_duplicate_sources(self):
        graph = family_graph("ba")
        kernel = graph.csr()
        prio = priority_of(graph, 15)
        dup = [3, 3, 5, 40, 5, 3]
        for parts in PARTS:
            with in_ranges(parts):
                got = kernel.multi_source(dup, witness_priority=prio)
            assert_same(kernel.multi_source([3, 5, 40], witness_priority=prio), got, "dup")
            assert_same(
                kernel.multi_source([3, 5, 40], witness_priority=prio, method="scipy"),
                got,
                "dup vs scipy",
            )

    @pytest.mark.parametrize("prioritized", [False, True], ids=["ids", "priority"])
    def test_inexact_weights_equal_heap(self, prioritized):
        graph = inexact_graph()
        kernel = graph.csr()
        prio = priority_of(graph, 16) if prioritized else None
        sets = source_sets(graph, 17)
        for parts in PARTS:
            with in_ranges(parts):
                got = kernel.multi_source_sets(sets, witness_priority=prio)
            for i, src in enumerate(sets):
                heap = kernel.multi_source(src, witness_priority=prio, method="heap")
                assert_same(heap, got[i], f"set {i} in {parts} ranges")
                # scipy's distances are the same field
                assert np.array_equal(
                    heap[0], kernel.multi_source(src, witness_priority=prio)[0]
                )

    def test_flat_arcs_equal_heap_where_propagation_is_incomplete(self):
        kernel = flat_chain().csr()
        with pytest.raises(GraphError, match="propagation incomplete"):
            kernel.multi_source([0], method="scipy")
        for sources, prio in (([0], None), ([0, 6], None), ([0, 6], {0: 1, 6: 0})):
            heap = kernel.multi_source(sources, witness_priority=prio, method="heap")
            got = kernel.multi_source(sources, witness_priority=prio)
            assert_same(heap, got, f"sources {sources}, priority {prio}")
            with on_numpy():  # the numpy kernel falls back to the heap
                assert_same(heap, kernel.multi_source(sources, witness_priority=prio), "numpy")
        dist, witness = kernel.multi_source([0])
        assert np.all(dist[1:] == 1e16) and np.all(witness == 0)


# ----------------------------------------------------------------------
# Components pass
# ----------------------------------------------------------------------
class TestComponents:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_equal_scipy(self, family):
        graph = family_graph(family)
        gen = make_rng(21)
        masks = [None, np.ones(graph.m, bool), np.zeros(graph.m, bool)]
        masks += [gen.random(graph.m) < p for p in (0.3, 0.6, 0.9)]
        for keep in masks:
            with on_numpy():
                want = edge_components(graph.n, graph.edges, keep)
            got = edge_components(graph.n, graph.edges, keep)
            assert want[0] == got[0]
            assert_same(want[1:], got[1:], family)
        with on_numpy():
            want = graph.connected_components()
        assert graph.connected_components()[0] == want[0]
        assert_same(want[1:], graph.connected_components()[1:], family)

    def test_labels_number_components_by_smallest_vertex(self):
        graph = Graph(8, [(6, 7), (1, 4), (4, 2), (5, 3)])
        count, labels = graph.connected_components()
        # components {0}, {1,2,4}, {3,5}, {6,7}
        assert count == 4
        assert np.array_equal(labels, [0, 1, 1, 2, 1, 2, 3, 3])
        assert labels.dtype == np.int64

    def test_empty_graphs(self):
        assert Graph(0, []).connected_components()[0] == 0
        count, labels = Graph(5, []).connected_components()
        assert count == 5 and np.array_equal(labels, np.arange(5))

    def test_keep_mask_shape_refused(self):
        graph = family_graph("grid")
        with pytest.raises(ValueError, match="keep"):
            edge_components(graph.n, graph.edges, np.ones(graph.m + 1, bool))


# ----------------------------------------------------------------------
# Pair-distance pass
# ----------------------------------------------------------------------
def pair_set(graph: Graph, seed: int) -> np.ndarray:
    """Random pairs plus repeated pairs, self pairs and a heavy source."""
    gen = make_rng(seed)
    pairs = gen.integers(0, graph.n, size=(400, 2))
    hub = np.stack([np.full(50, 7), gen.integers(0, graph.n, size=50)], axis=1)
    self_pairs = np.stack([np.arange(0, graph.n, 37)] * 2, axis=1)
    return np.concatenate([pairs, pairs[:40], hub, self_pairs]).astype(np.int64)


class TestPairDistances:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_equal_scipy_rows(self, family):
        graph = family_graph(family)
        pairs = pair_set(graph, 31)
        full = graph.csr().all_pairs()
        want = full[pairs[:, 0], pairs[:, 1]]
        with on_numpy():
            ref = pair_true_distances(graph, pairs)
        assert_same([want], [ref], f"{family} numpy reference")
        for parts in PARTS:
            with in_ranges(parts):
                got = pair_true_distances(graph, pairs)
            assert_same([want], [got], f"{family} in {parts} ranges")

    def test_unreachable_pairs_are_inf(self):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4)], [1.0, 2.0, 5.0])
        pairs = np.array([[0, 2], [0, 3], [3, 4], [5, 5], [5, 0], [2, 0], [0, 3]])
        want = [3.0, np.inf, 5.0, 0.0, np.inf, 3.0, np.inf]
        for parts in PARTS:
            with in_ranges(parts):
                assert np.array_equal(pair_true_distances(graph, pairs), want)
        with on_numpy():
            assert np.array_equal(pair_true_distances(graph, pairs), want)

    def test_numpy_reference_in_blocks(self, monkeypatch):
        graph = family_graph("geometric")
        pairs = pair_set(graph, 32)
        want = graph.csr().all_pairs()[pairs[:, 0], pairs[:, 1]]
        monkeypatch.setattr(csr_mod, "PAIR_BLOCK_CELLS", 3 * graph.n)
        with on_numpy():
            assert_same([want], [pair_true_distances(graph, pairs)], "3-row blocks")

    def test_inexact_weights_equal_scipy_rows(self):
        graph = inexact_graph()
        pairs = pair_set(graph, 33)
        want = graph.csr().all_pairs()[pairs[:, 0], pairs[:, 1]]
        for parts in PARTS:
            with in_ranges(parts):
                assert_same([want], [pair_true_distances(graph, pairs)], f"{parts}")

    def test_empty_and_out_of_range(self):
        graph = family_graph("gnp")
        assert pair_true_distances(graph, np.zeros((0, 2), dtype=np.int64)).shape == (0,)
        for bad in ([[0, graph.n]], [[-1, 0]]):
            with pytest.raises(GraphError, match="out of range"):
                pair_true_distances(graph, bad)


# ----------------------------------------------------------------------
# The pipeline never imports scipy on the native kernel
# ----------------------------------------------------------------------
PIPELINE = r"""
import sys, tempfile
import numpy as np
from repro.analysis.experiments import reference_graph
from repro.core.build import build_arrays, patch_arrays
from repro.core.build.patch import _moves_hierarchy, _weight_updates
from repro.graphs.ports import assign_ports
from repro.kernels import resolve_kernel
from repro.rng import derive
from repro.scenarios.churn import random_delta
from repro.sim.engine.compile import compile_from_arrays
from repro.sim.runner import pair_true_distances
from repro.store import RouteService, SchemeStore

assert resolve_kernel("auto") == "native"
graph = reference_graph("gnp", 400, 1).largest_component()
ported = assign_ports(graph, "random", rng=derive(1, "ports"))
arrays = build_arrays(graph, 3, ported=ported, rng=derive(1, "hierarchy"))
store = SchemeStore(sys.argv[1])
lineage = store.publish(
    graph, ported, arrays, seed=1, compiled=compile_from_arrays(arrays, ported)
)
for epoch in range(64):
    delta = random_delta(
        graph, derive(1, "delta", epoch), weight_updates=2, edge_adds=0, edge_drops=0
    )
    if _moves_hierarchy(arrays.hierarchy, _weight_updates(graph, delta)):
        break
patched = patch_arrays(arrays, graph, delta, ported=ported)
assert patched.arrays.hierarchy is not arrays.hierarchy, "the hierarchy did not move"
store.publish_patch(
    lineage, patched.graph, patched.ported, patched.arrays, delta=delta, seed=1,
    compiled=compile_from_arrays(patched.arrays, patched.ported),
)
ids = np.arange(0, patched.graph.n, 3)
pairs = np.stack([ids, ids[::-1]], axis=1)
result = RouteService(store.pointer_path(lineage)).route(pairs)
true_d = pair_true_distances(patched.graph, pairs)
assert result.delivered.all()
assert np.all(result.weight <= (4 * 3 - 5) * true_d * (1 + 1e-12))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


@needs_native
def test_native_pipeline_never_imports_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PIPELINE, str(tmp_path / "store")],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert out.returncode == 0, f"exit {out.returncode}: {out.stderr[-2000:]}"
    assert out.stdout.strip() == "[]", f"scipy modules imported: {out.stdout}"
