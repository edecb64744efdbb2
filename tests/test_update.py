"""Incremental maintenance: deltas, the patch builder, versioned store,
hot-swapping service, and the churn scenario loop.

The load-bearing contract here is the **differential gate**: for any
delta the patch builder accepts, ``patch_arrays`` must produce arrays
*bit-for-bit identical* to a fresh vectorized build of the mutated
graph under the mapped hierarchy — checked through the store's
bit-exact :func:`~repro.store.serialize_digest` and column by column,
dtypes included.  Everything else
(version lineages, pointer swaps, churn epochs) layers on top of that
equality.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from repro import kernels
from repro.core.build import SchemeArrays, build_arrays, patch_arrays
from repro.errors import GraphError, PreprocessingError, RoutingError
from repro.graphs.delta import GraphDelta, apply_delta
from repro.graphs.graph import Graph
from repro.graphs.ports import assign_ports
from repro.obs import TELEMETRY
from repro.rng import derive
from repro.scenarios import random_delta
from repro.sim.engine.batch import BatchRouter
from repro.sim.engine.compile import compile_from_arrays
from repro.store import SchemeStore, RouteService, serialize_digest

from strategies import (
    DELTA_CLASSES,
    delta_from_seed,
    family_from_seed,
    family_graphs,
    graph_deltas,
    seeds,
)

GATE_FAMILIES = ("gnp", "ba", "grid")


def assert_matches_fresh(patched):
    """The patch ≡ a from-scratch vectorized build of the patched state:
    the same store digest and every :class:`SchemeArrays` column.

    The fresh build uses the patch result's own (mapped) hierarchy and
    ports, so the only difference is *how* the arrays were produced.
    The digest covers the dict world; the columns add what it does not
    see, such as the entry links.
    """
    fresh = build_arrays(
        patched.graph,
        patched.arrays.k,
        ported=patched.ported,
        hierarchy=patched.hierarchy,
    )
    got = serialize_digest(patched.graph, patched.ported, patched.arrays)
    assert got == serialize_digest(patched.graph, patched.ported, fresh)
    assert_columns_equal(patched.arrays, fresh)


def _accepted_patch(family, k, classes, tries=10):
    """First seed in range whose delta the patch builder accepts, as
    ``(patch inputs, patch result)``."""
    for seed in range(tries):
        graph = family_from_seed(seed, family)
        arrays = build_arrays(graph, k, rng=seed)
        ported = assign_ports(graph, "sorted")
        delta = delta_from_seed(graph, seed, classes=classes)
        try:
            patched = patch_arrays(arrays, graph, delta, ported=ported)
        except (PreprocessingError, GraphError):
            continue
        return (arrays, graph, delta, ported), patched
    pytest.fail(
        f"no accepted delta in {tries} seeds for {family} k={k} {classes}"
    )


def _patch_some_seed(family, k, classes, tries=10):
    """First seed in range whose delta the patch builder accepts."""
    return _accepted_patch(family, k, classes, tries)[1]


def assert_columns_equal(a, b):
    """Every :class:`SchemeArrays` column equal, dtypes included."""
    assert (a.n, a.k) == (b.n, b.k)
    for f in dataclasses.fields(SchemeArrays):
        if f.name in ("n", "k", "hierarchy"):
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f.name


class TestGraphDelta:
    def test_canonicalization_and_digest(self):
        a = GraphDelta(weight_updates=((3, 1, 5), (0, 2, 4.0)))
        b = GraphDelta(weight_updates=((2, 0, 4), (1, 3, 5.0)))
        assert a == b and a.digest() == b.digest()

    def test_classes_enumeration(self):
        d = GraphDelta(
            weight_updates=((0, 1, 2.0),),
            add_edges=((0, 5, 1.0),),
            drop_edges=((1, 2),),
            drop_nodes=(3,),
            add_nodes=1,
        )
        assert set(d.classes()) == {
            "weight", "edge-add", "edge-drop", "node-drop", "node-add"
        }
        assert not d.is_empty()
        assert GraphDelta().is_empty()

    def test_roundtrip_dict(self):
        d = GraphDelta(weight_updates=((0, 1, 2.0),), add_nodes=2)
        assert GraphDelta.from_dict(d.to_dict()) == d

    def test_apply_monotone_relabel(self):
        graph = family_from_seed(0, "gnp")
        drop = graph.n // 2
        new_graph, id_map = apply_delta(graph, GraphDelta(drop_nodes=(drop,)))
        assert new_graph.n == graph.n - 1
        assert id_map[drop] == -1
        survivors = id_map[id_map >= 0]
        assert np.array_equal(survivors, np.arange(graph.n - 1))

    def test_apply_rejects_missing_edge_drop(self):
        graph = family_from_seed(0, "grid")
        with pytest.raises(GraphError):
            apply_delta(graph, GraphDelta(drop_edges=((0, graph.n - 1),)))

    def test_apply_rejects_duplicate_edge_add(self):
        graph = family_from_seed(0, "gnp")
        u, v = (int(x) for x in graph.edges[0])
        with pytest.raises(GraphError):
            apply_delta(graph, GraphDelta(add_edges=((u, v, 1.0),)))


class TestPatchDifferentialGate:
    """patch == fresh vectorized rebuild, bit for bit, per delta class."""

    @pytest.mark.parametrize("family", GATE_FAMILIES)
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("cls", DELTA_CLASSES)
    def test_single_class(self, family, k, cls):
        patched = _patch_some_seed(family, k, (cls,))
        assert_matches_fresh(patched)

    @pytest.mark.parametrize("family", GATE_FAMILIES)
    def test_compound_delta(self, family):
        patched = _patch_some_seed(family, 3, DELTA_CLASSES)
        assert_matches_fresh(patched)

    def test_stats_account_for_every_entry(self):
        patched = _patch_some_seed("gnp", 2, ("weight",))
        s = patched.stats
        assert (
            s["entries_rebuilt"] + s["entries_reused"]
            == patched.arrays.entry_count
        )
        assert s["dirty_clusters"] + s["clean_clusters"] == patched.graph.n

    def test_empty_delta_is_identity(self):
        graph = family_from_seed(1, "gnp")
        arrays = build_arrays(graph, 2, rng=1)
        ported = assign_ports(graph, "sorted")
        patched = patch_arrays(arrays, graph, GraphDelta(), ported=ported)
        assert serialize_digest(
            patched.graph, patched.ported, patched.arrays
        ) == serialize_digest(graph, ported, arrays)


class TestPatchProperties:
    @given(family_graphs(), graph_deltas(), seeds(max_value=100))
    @settings(max_examples=12, deadline=None)
    def test_patch_matches_fresh_or_refuses(self, graph, make_delta, seed):
        arrays = build_arrays(graph, 3, rng=seed)
        ported = assign_ports(graph, "sorted")
        delta = make_delta(graph)
        try:
            patched = patch_arrays(arrays, graph, delta, ported=ported)
        except (PreprocessingError, GraphError):
            return  # explicit refusal (disconnection, empty level) is fine
        assert_matches_fresh(patched)

    @given(family_graphs(), graph_deltas())
    @settings(max_examples=10, deadline=None)
    def test_patched_scheme_routes(self, graph, make_delta):
        arrays = build_arrays(graph, 2, rng=0)
        ported = assign_ports(graph, "sorted")
        try:
            patched = patch_arrays(
                arrays, graph, make_delta(graph), ported=ported
            )
        except (PreprocessingError, GraphError):
            return
        router = BatchRouter.from_compiled(
            compile_from_arrays(patched.arrays, patched.ported)
        )
        n = patched.graph.n
        pairs = np.column_stack(
            [np.arange(min(n, 16)), (np.arange(min(n, 16)) + 1) % n]
        )
        res = router.route_pairs(pairs)
        assert res.delivered.all()


class TestCSRKernelInvalidation:
    """Derived caches must never leak across apply_delta."""

    @given(family_graphs(), graph_deltas())
    @settings(max_examples=12, deadline=None)
    def test_caches_do_not_leak(self, graph, make_delta):
        # Warm every derived cache on the original graph.
        csr_before = graph.csr()
        weights_before = csr_before.weights.copy()
        mat_before = graph.to_scipy().copy()
        u0, v0 = (int(x) for x in graph.edges[0])
        graph.edge_id(u0, v0)

        delta = make_delta(graph)
        try:
            new_graph, id_map = apply_delta(graph, delta)
        except GraphError:
            return

        # The old graph's caches are untouched...
        assert graph.csr() is csr_before
        assert np.array_equal(graph.csr().weights, weights_before)
        assert (graph.to_scipy() != mat_before).nnz == 0
        # ...and the new graph's are rebuilt, not inherited.
        assert new_graph.csr() is not csr_before
        for u, v, w in delta.weight_updates:
            nu, nv = int(id_map[u]), int(id_map[v])
            if nu >= 0 and nv >= 0:
                assert new_graph.edge_weight(nu, nv) == w
        for u, v in delta.drop_edges:
            nu, nv = int(id_map[u]), int(id_map[v])
            if nu >= 0 and nv >= 0:
                with pytest.raises(GraphError):
                    new_graph.edge_id(nu, nv)

    def test_weight_update_reflected_in_new_kernel_only(self):
        graph = family_from_seed(2, "gnp")
        u, v = (int(x) for x in graph.edges[0])
        old_w = graph.edge_weight(u, v)
        new_graph, _ = apply_delta(
            graph, GraphDelta(weight_updates=((u, v, old_w + 3.0),))
        )
        assert graph.edge_weight(u, v) == old_w
        assert new_graph.edge_weight(u, v) == old_w + 3.0
        sources = np.array([u], dtype=np.int64)
        d_old, _ = graph.csr().sssp_batch(sources)
        d_new, _ = new_graph.csr().sssp_batch(sources)
        assert d_old[0, v] <= old_w
        assert not np.array_equal(d_old, d_new) or old_w + 3.0 >= d_old[0, v]


class TestVersionedStore:
    def _build(self, seed=0, k=2):
        graph = family_from_seed(seed, "gnp")
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, k, ported=ported, rng=seed)
        return graph, ported, arrays

    def test_publish_lineage_and_patch_chain(self, tmp_path):
        store = SchemeStore(tmp_path)
        graph, ported, arrays = self._build()
        root = store.publish(graph, ported, arrays, seed=0)
        assert store.current(root) == root
        assert store.lineages() == [root]

        u, v = (int(x) for x in graph.edges[0])
        delta = GraphDelta(
            weight_updates=((u, v, graph.edge_weight(u, v) + 1.0),)
        )
        patched = patch_arrays(arrays, graph, delta, ported=ported)
        key1 = store.publish_patch(
            root, patched.graph, patched.ported, patched.arrays,
            delta=delta, seed=0,
        )
        assert store.current(root) == key1
        metas = store.versions(root)
        assert [m["version"] for m in metas] == [0, 1]
        assert metas[1]["parent_key"] == root
        assert metas[1]["delta_sha256"] == delta.digest()

        info = store.info(key1)
        assert info["lineage"] == root and info["file_bytes"] > 0

    def test_gc_keeps_newest_and_pointer_target(self, tmp_path):
        store = SchemeStore(tmp_path)
        graph, ported, arrays = self._build()
        root = store.publish(graph, ported, arrays, seed=0)
        prev, prev_state = root, (graph, ported, arrays)
        for i in range(3):
            g, p, a = prev_state
            u, v = (int(x) for x in g.edges[i])
            delta = GraphDelta(weight_updates=((u, v, g.edge_weight(u, v) + 1.0),))
            patched = patch_arrays(a, g, delta, ported=p)
            prev = store.publish_patch(
                prev, patched.graph, patched.ported, patched.arrays,
                delta=delta, seed=0,
            )
            prev_state = (patched.graph, patched.ported, patched.arrays)
        removed = store.gc(root, 2)
        assert len(removed) == 2
        left = store.versions(root)
        assert [m["version"] for m in left] == [2, 3]
        assert store.current(root) == prev
        with pytest.raises(ValueError):
            store.gc(root, 0)

    def test_concurrent_pointer_publish_never_torn(self, tmp_path):
        """The unique-tmp + rename discipline under real thread contention:
        a reader can only ever observe a complete published key."""
        store = SchemeStore(tmp_path)
        lineage = "stress-lineage"
        valid = {f"key-{t}-{i}" for t in range(4) for i in range(50)}
        store.set_current(lineage, "key-0-0")
        stop = threading.Event()
        torn = []

        def writer(t):
            for i in range(50):
                store.set_current(lineage, f"key-{t}-{i}")

        def reader():
            while not stop.is_set():
                got = store.current(lineage)
                if got is not None and got not in valid:
                    torn.append(got)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for th in readers + writers:
            th.start()
        for th in writers:
            th.join()
        stop.set()
        for th in readers:
            th.join()
        assert torn == []
        assert store.current(lineage) in valid
        # no half-written tmp files left behind
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestHotSwapService:
    def test_batches_never_mix_versions(self, tmp_path):
        """Route continuously across a publish: every batch's answers
        must match exactly one version — old or new, never a blend."""
        store = SchemeStore(tmp_path)
        graph = family_from_seed(4, "gnp")
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 2, ported=ported, rng=4)
        root = store.publish(graph, ported, arrays, seed=4)

        # v1 changes several weights so the two versions answer
        # measurably differently on the same pairs.
        updates = tuple(
            (int(u), int(v), float(graph.edge_weights[eid] + 5.0))
            for eid, (u, v) in enumerate(graph.edges[:8])
        )
        delta = GraphDelta(weight_updates=updates)
        patched = patch_arrays(arrays, graph, delta, ported=ported)

        rng = np.random.default_rng(0)
        pairs = rng.integers(0, graph.n, size=(64, 2)).astype(np.int64)
        ref0 = BatchRouter.from_compiled(
            compile_from_arrays(arrays, ported)
        ).route_pairs(pairs)
        ref1 = BatchRouter.from_compiled(
            compile_from_arrays(patched.arrays, patched.ported)
        ).route_pairs(pairs)
        assert not np.array_equal(ref0.weight, ref1.weight)

        service = RouteService(store.pointer_path(root))
        assert service.follow and service.version == 0

        published = threading.Event()

        def publisher():
            store.publish_patch(
                root, patched.graph, patched.ported, patched.arrays,
                delta=delta, seed=4,
            )
            published.set()

        thread = threading.Thread(target=publisher)
        matched_new = 0
        thread.start()
        for _ in range(200):
            res = service.route(pairs)
            is_old = np.array_equal(res.weight, ref0.weight)
            is_new = np.array_equal(res.weight, ref1.weight)
            assert is_old != is_new, "batch mixed scheme versions"
            if is_new:
                matched_new += 1
                if matched_new >= 3:
                    break
        thread.join()
        # after the publish has landed, the very next batch swaps
        res = service.route(pairs)
        assert np.array_equal(res.weight, ref1.weight)
        assert service.swap_count == 1 and service.version == 1

    def test_reload_reports_swap(self, tmp_path):
        store = SchemeStore(tmp_path)
        graph = family_from_seed(5, "grid")
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 2, ported=ported, rng=5)
        root = store.publish(graph, ported, arrays, seed=5)
        service = RouteService(store.pointer_path(root))
        assert service.reload() is False

        u, v = (int(x) for x in graph.edges[0])
        delta = GraphDelta(weight_updates=((u, v, graph.edge_weight(u, v) + 2.0),))
        patched = patch_arrays(arrays, graph, delta, ported=ported)
        store.publish_patch(
            root, patched.graph, patched.ported, patched.arrays,
            delta=delta, seed=5,
        )
        assert service.reload() is True
        assert service.version == 1

    def test_gc_race_between_resolve_and_mmap_retries(self, tmp_path):
        """Regression: a ``gc()`` racing a repoint can unlink a version
        *between* the service's pointer resolve and its mmap.  The open
        must retry through the lineage instead of failing the batch."""
        store = SchemeStore(tmp_path)
        graph = family_from_seed(7, "gnp")
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 2, ported=ported, rng=7)
        root = store.publish(graph, ported, arrays, seed=7)

        u, v = (int(x) for x in graph.edges[0])
        delta = GraphDelta(weight_updates=((u, v, graph.edge_weight(u, v) + 2.0),))
        patched = patch_arrays(arrays, graph, delta, ported=ported)
        key1 = store.publish_patch(
            root, patched.graph, patched.ported, patched.arrays,
            delta=delta, seed=7,
        )

        service = RouteService(store.pointer_path(root))
        assert service.version == 1

        # Simulate the race: the next resolve observes the pointer
        # *before* a publish+gc cycle — it names a version whose file a
        # concurrent gc() has already unlinked.
        stale = tmp_path / "vanished-by-gc.tzs"
        assert not stale.exists()
        real_resolve = service._resolve
        raced = {"n": 0}

        def racing_resolve():
            if raced["n"] == 0:
                raced["n"] += 1
                return stale
            return real_resolve()

        service._resolve = racing_resolve
        pairs = np.array([[0, 1], [2, 3]], dtype=np.int64)
        result = service.route(pairs)  # must not raise
        assert raced["n"] == 1  # the stale resolve was consumed...
        assert service.version == 1  # ...and retried through the pointer
        assert result.delivered.all()

        # A pinned (non-follow) open of a missing container is genuine
        # damage, not the race — it must fail immediately, untouched by
        # the retry path.
        with pytest.raises(Exception) as excinfo:
            RouteService(tmp_path / "never-published.tzs")
        assert not isinstance(excinfo.value, RoutingError)
        assert key1 == store.current(root)

    def test_gc_race_gives_up_after_bounded_retries(self, tmp_path):
        """If the pointer keeps naming vanished versions, the open
        surfaces a RoutingError instead of spinning forever."""
        store = SchemeStore(tmp_path)
        graph = family_from_seed(8, "grid")
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 2, ported=ported, rng=8)
        root = store.publish(graph, ported, arrays, seed=8)
        service = RouteService(store.pointer_path(root))

        calls = {"n": 0}

        def always_stale():
            calls["n"] += 1
            return tmp_path / f"gone-{calls['n']}.tzs"

        service._resolve = always_stale
        with pytest.raises(RoutingError, match="kept vanishing"):
            service.reload()
        assert calls["n"] == RouteService._OPEN_RETRIES


def frontier_sweeps(fn):
    """The ``kernel.frontier_sweep`` spans recorded while ``fn()`` runs."""
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        fn()
        return [sp for sp, _ in TELEMETRY.spans() if sp.name == "kernel.frontier_sweep"]
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()


class TestBackendKernelGate:
    """Backend builds run on the platform's kernel, and the numpy path
    the ``REPRO_NATIVE_KERNELS=0`` veto forces builds the same blobs."""

    @pytest.mark.parametrize("name", ["tz", "cowen"])
    def test_numpy_native_blobs_bit_equal(self, name, veto_native):
        if not kernels.available():
            pytest.skip(f"native kernel unavailable: {kernels.native_error()}")
        from repro.backends.registry import build_backend

        graph = family_from_seed(6, "gnp", n=96)
        b_nat = build_backend(name, graph, k=3, seed=1)
        b_np = veto_native(lambda: build_backend(name, graph, k=3, seed=1))
        meta_np, blobs_np = b_np.serialize()
        meta_nat, blobs_nat = b_nat.serialize()
        assert meta_np == meta_nat
        assert sorted(blobs_np) == sorted(blobs_nat)
        for key in blobs_np:
            assert np.array_equal(blobs_np[key], blobs_nat[key]), key

    def test_cowen_level0_grows_through_native_sweep(self, veto_native):
        """The Cowen backend's level-0 grow (n centers, far above the
        full-engine limit) must hit the native frontier sweep when the
        native kernel loads, and the numpy one under the veto —
        observed through telemetry."""
        if not kernels.available():
            pytest.skip(f"native kernel unavailable: {kernels.native_error()}")
        from repro.backends.registry import build_backend

        graph = family_from_seed(7, "gnp", n=96)
        for impl, build in (
            ("native", lambda: build_backend("cowen", graph, seed=2)),
            ("numpy", lambda: veto_native(lambda: build_backend("cowen", graph, seed=2))),
        ):
            sweeps = frontier_sweeps(build)
            assert sweeps, f"no frontier-sweep span recorded ({impl})"
            assert all(sp.attrs.get("impl") == impl for sp in sweeps)
            assert any(sp.attrs.get("level") == 0 for sp in sweeps)


class TestPatchKernelParity:
    """``patch_arrays`` on the native kernel (frontier sweep and
    cluster-tree pass) ≡ the numpy path the veto forces, every column."""

    @pytest.mark.parametrize(
        "classes", [("weight",), ("edge-add", "edge-drop"), ("node-drop", "node-add")]
    )
    def test_native_patch_equals_numpy_patch(self, classes, veto_native):
        if not kernels.available():
            pytest.skip(f"native kernel unavailable: {kernels.native_error()}")
        (arrays, graph, delta, ported), patched = _accepted_patch("gnp", 3, classes)
        ref = veto_native(lambda: patch_arrays(arrays, graph, delta, ported=ported))
        assert_columns_equal(patched.arrays, ref.arrays)

    def test_in_place_patch_that_moves_light_depths(self, veto_native):
        """A weight bump that re-shapes dirty trees without changing any
        member set: no block moves, so the splice writes only the dirty
        runs, moving the light-port payload around several of them, and
        shares the member column."""
        graph = family_from_seed(0, "gnp")
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 3, ported=ported, rng=0)
        u, v = (int(x) for x in graph.edges[6])
        delta = GraphDelta(weight_updates=((u, v, float(graph.edge_weights[6] + 1)),))

        def patch():
            return patch_arrays(arrays, graph, delta, ported=ported)

        patched = patch()
        assert patched.arrays.ent_member is arrays.ent_member
        assert patched.stats["dirty_clusters"] > 1
        assert not np.array_equal(patched.arrays.tr_light_depth, arrays.tr_light_depth)
        assert_matches_fresh(patched)
        assert_columns_equal(patched.arrays, veto_native(patch).arrays)


class TestPatchSplice:
    """The splice that assembles every patch: chains under perfbench's
    ``"random"`` ports, whose weight-only deltas rebind the caller's
    assignment; copy-on-write sharing; and the two layouts a run map
    must get right — a dropped center's gap between clean blocks, and
    kept block lengths around a changed member set."""

    #: The columns the splice supplies; ``assemble_arrays`` derives the rest.
    SPLICED = (
        "cl_indptr", "ent_member", "ent_dist", "ent_parent",
        "ent_parent_epos", "ent_heavy_epos", "tr_f", "tr_finish",
        "tr_heavy_finish", "tr_light_depth", "tr_parent_port",
        "tr_heavy_port", "lp_indptr", "lp_data",
    )

    @pytest.mark.parametrize("family", GATE_FAMILIES)
    def test_random_port_weight_epochs_match_fresh(self, family, veto_native):
        graph = family_from_seed(0, family)
        ported = assign_ports(graph, "random", rng=0)
        arrays = build_arrays(graph, 3, ported=ported, rng=0)
        moved = kept = 0
        for epoch in range(24):
            delta = random_delta(
                graph, derive(0, "random-ports", epoch),
                weight_updates=1 + epoch % 2, edge_adds=0, edge_drops=0,
            )
            patched = patch_arrays(arrays, graph, delta, ported=ported)
            assert patched.ported.port_of_arc is ported.port_of_arc
            assert_matches_fresh(patched)
            if np.array_equal(patched.arrays.cl_indptr, arrays.cl_indptr):
                kept += 1
            else:
                if moved == 0 and kernels.available():
                    ref = veto_native(
                        lambda: patch_arrays(arrays, graph, delta, ported=ported)
                    )
                    assert_columns_equal(patched.arrays, ref.arrays)
                moved += 1
            graph, ported, arrays = patched.graph, patched.ported, patched.arrays
        assert moved and kept, (moved, kept)

    def test_empty_delta_shares_every_spliced_column(self):
        graph = family_from_seed(1, "gnp")
        ported = assign_ports(graph, "random", rng=1)
        arrays = build_arrays(graph, 3, ported=ported, rng=1)
        patched = patch_arrays(arrays, graph, GraphDelta(), ported=ported)
        for name in self.SPLICED:
            assert getattr(patched.arrays, name) is getattr(arrays, name), name

    def test_every_single_node_drop_is_accepted(self):
        """A dropped center leaves a gap in the parent's rows, often
        between two clean blocks: the run must end there.  Every drop
        that keeps the graph connected and each level populated is
        patched, never refused, and ≡ a fresh build."""
        graph = family_from_seed(0, "gnp")
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 3, ported=ported, rng=0)
        levels = arrays.hierarchy.levels
        patched_drops = 0
        for d in range(graph.n):
            delta = GraphDelta(drop_nodes=(d,))
            if not apply_delta(graph, delta)[0].is_connected() or any(
                np.array_equal(levels[i], [d]) for i in range(1, arrays.k)
            ):
                continue
            assert_matches_fresh(patch_arrays(arrays, graph, delta, ported=ported))
            patched_drops += 1
        assert patched_drops > graph.n // 2

    def test_kept_block_lengths_around_a_member_swap(self):
        """Swapping two weights swaps ``a`` for ``b`` in ``C(w)``: no
        block moves, yet the member column must be rebuilt, not
        shared."""
        w, a, b, landmark = 0, 1, 2, 3
        graph = Graph(4, [(w, a), (w, b), (a, landmark), (b, landmark)], [1.0, 1.0, 2.0, 1.0])
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(
            graph, 2, ported=ported, levels=[np.arange(4), np.array([landmark])]
        )
        delta = GraphDelta(weight_updates=((a, landmark, 1.0), (b, landmark, 2.0)))
        patched = patch_arrays(arrays, graph, delta, ported=ported)
        assert np.array_equal(patched.arrays.cl_indptr, arrays.cl_indptr)
        lo, hi = arrays.cl_indptr[w], arrays.cl_indptr[w + 1]
        assert arrays.ent_member[lo:hi].tolist() == [w, a]
        assert patched.arrays.ent_member[lo:hi].tolist() == [w, b]
        assert_matches_fresh(patched)


class TestChurnScenario:
    def test_run_churn_patches_and_reports(self):
        from repro.scenarios import run_churn

        graph = family_from_seed(8, "gnp", n=64)
        result = run_churn(
            graph, k=2, seed=3, epochs=3, pairs=64, policy="auto",
            graph_label="gnp",
        )
        assert len(result.epochs) == 3
        doc = result.to_dict()
        assert doc["kind"] == "tz-churn-report"
        for epoch in result.epochs:
            assert epoch.method in ("patch", "rebuild")
            assert epoch.delivery == 1.0  # no failures injected
            assert epoch.mean_stretch >= 1.0
        # with small additive deltas the patch path should dominate
        assert result.patched_epochs >= 1

    def test_run_churn_with_store_serves_hot_swapped(self, tmp_path):
        from repro.scenarios import run_churn

        store = SchemeStore(tmp_path)
        graph = family_from_seed(9, "gnp", n=64)
        result = run_churn(
            graph, k=2, seed=5, epochs=2, pairs=48, policy="auto",
            store=store, max_versions=2,
        )
        assert result.lineage is not None
        assert [e.version for e in result.epochs] == [1, 2]
        assert len(store.versions(result.lineage)) == 2  # gc'd to 2

    def test_rebuild_policy_never_patches(self):
        from repro.scenarios import run_churn

        graph = family_from_seed(10, "grid", n=36)
        result = run_churn(
            graph, k=2, seed=1, epochs=2, pairs=32, policy="rebuild"
        )
        assert all(e.method == "rebuild" for e in result.epochs)
        assert result.patched_epochs == 0

    def test_random_delta_preserves_connectivity(self):
        from repro.rng import derive
        from repro.scenarios import random_delta

        graph = family_from_seed(11, "gnp", n=48)
        for i in range(5):
            delta = random_delta(
                graph, derive(11, "t", i), edge_drops=2, node_drops=1
            )
            mutated, _ = apply_delta(graph, delta)
            assert mutated.is_connected()
