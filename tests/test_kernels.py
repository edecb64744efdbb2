"""Differential kernel suite: native compiled paths ≡ numpy reference.

The native hop loop and builder frontier sweep (:mod:`repro.kernels`)
must reproduce the numpy paths **bit-for-bit** — same delivered flags,
weights, hop counts, header bits and failure codes out of the router,
same :class:`SchemeArrays` out of the builder — across graph families ×
k × seeds, in the same spirit ``test_builder_equivalence.py`` gates the
vectorized builder against the per-node reference.

Four layers:

1. **selection** — ``resolve_kernel`` semantics: explicit ``native``
   raises :class:`KernelError` when unavailable, ``auto`` degrades to
   numpy with a ``kernel.fallback`` counter + one-shot warning, and
   ``REPRO_NATIVE_KERNELS=0`` disables the backend outright;
2. **router differential** — the native tree commit's eight state
   columns equal numpy ``_commit``'s (dtypes included, for the 4k−5 and
   handshake strategies, failing rows, an empty member map and an
   entry-less scheme); ``route_pairs``/``route_trials`` column equality
   between kernels, including dead-edge trials, tiny ttls and batches
   cut into threaded row chunks; and a many-thread first use that must
   pack the scheme view exactly once;
3. **builder differential** — ``vectorized_arrays(mode="pruned")``
   field equality between kernels (``mode`` forced past
   ``FULL_CENTER_LIMIT`` so small graphs exercise the sweep);
4. **degenerate inputs** — zero-pair matrices, zero-trial sweeps,
   single-vertex/edgeless graphs and all-dead-edge masks return
   identically-shaped results instead of raising, on every kernel; and
   non-float64-exact weights fall back loudly on every kernel.

Native-only tests skip cleanly when no C toolchain is present.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import FAMILIES, family_from_seed, ks, seeds

from repro.baselines.tree_spanner import build_single_tree_scheme
from repro.core.build import SchemeArrays, build_arrays, build_scheme
from repro.core.build.vectorized import FULL_CENTER_LIMIT, vectorized_arrays
from repro.core.landmarks import build_hierarchy
from repro.errors import KernelError, RoutingError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.ports import assign_ports
from repro.kernels import (
    KERNELS,
    KernelFallbackWarning,
    _build,
    available,
    native_error,
    resolve_kernel,
)
from repro.kernels.hop import NativeSchemeView, commit_native
from repro.obs import TELEMETRY
from repro.rng import derive, make_rng
from repro.sim.engine import batch
from repro.sim.engine.batch import FAIL_NO_TREE, BatchRouter

needs_native = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

RESULT_FIELDS = (
    "source",
    "dest",
    "delivered",
    "weight",
    "hops",
    "tree",
    "max_header_bits",
    "failure_code",
)

ARRAY_FIELDS = [
    f.name
    for f in dataclasses.fields(SchemeArrays)
    if f.name not in ("n", "k", "hierarchy")
]


def assert_results_equal(a, b, context=""):
    """Bitwise column equality between two route results."""
    for name in RESULT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"{name} dtype differs {context}"
        assert np.array_equal(x, y), f"{name} differs {context}"


def routers_for(graph, k, seed, kernels=("numpy", "native")):
    """One scheme, one router per kernel (the scheme is shared)."""
    ported = assign_ports(graph, "sorted")
    scheme = build_scheme(graph, k, ported=ported, rng=seed, kernel="numpy")
    return ported, {kern: BatchRouter(ported, scheme, kernel=kern) for kern in kernels}


def sample_pairs(graph, count, seed):
    rng = make_rng(derive(seed, "kernel-pairs"))
    pairs = rng.integers(0, graph.n, size=(count, 2))
    pairs[: max(1, count // 8), 1] = pairs[: max(1, count // 8), 0]  # trivial rows
    return pairs


def commit_columns(compiled, pairs, kernel, chunks=None):
    """The eight commit state columns of ``pairs`` on one kernel
    (numpy: the ``_commit`` reference; native: ``chunks`` row ranges)."""
    router = BatchRouter.from_compiled(compiled, kernel=kernel)
    src = np.ascontiguousarray(pairs[:, 0], dtype=np.int64)
    dst = np.ascontiguousarray(pairs[:, 1], dtype=np.int64)
    if kernel == "numpy":
        return router._commit(src, dst)
    return router._commit_rows(src, dst, chunks or [(0, src.shape[0])])


def assert_commit_equal(compiled, pairs, context=""):
    """Native commit ≡ numpy ``_commit``, column by column, dtypes
    included — on one chunk and on three uneven ones."""
    want = commit_columns(compiled, pairs, "numpy")
    P = pairs.shape[0]
    for chunks in (None, [(0, P // 3), (P // 3, P // 3 + 1), (P // 3 + 1, P)]):
        got = commit_columns(compiled, pairs, "native", chunks)
        assert len(got) == len(want) == 8
        for i, (x, y) in enumerate(zip(want, got)):
            assert x.dtype == y.dtype, f"commit column {i} dtype differs {context}"
            assert np.array_equal(x, y), f"commit column {i} differs {context}"
    return want


@pytest.fixture
def forced_chunks(monkeypatch):
    """Cut every native batch of ≥ 64 pairs into 3 threaded row chunks,
    whatever this machine's CPU count."""
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(batch, "ROUTE_CHUNK_FLOOR", 64)


# ----------------------------------------------------------------------
# 1. Kernel selection
# ----------------------------------------------------------------------
class TestResolveKernel:
    def test_numpy_always_resolves(self):
        assert resolve_kernel("numpy") == "numpy"

    def test_unknown_kernel_raises(self):
        with pytest.raises(KernelError, match="unknown kernel"):
            resolve_kernel("fortran")

    def test_kernels_tuple_is_the_cli_choice_set(self):
        assert KERNELS == ("auto", "native", "numpy")

    @needs_native
    def test_native_and_auto_resolve_native(self):
        assert resolve_kernel("native") == "native"
        assert resolve_kernel("auto") == "native"

    def test_env_disable_forces_numpy(self, monkeypatch):
        monkeypatch.setenv(_build.ENV_DISABLE, "0")
        _build.reset_for_tests()
        try:
            assert not available()
            assert native_error() is not None
            with pytest.raises(KernelError, match="unavailable"):
                resolve_kernel("native")
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", KernelFallbackWarning)
                    assert resolve_kernel("auto") == "numpy"
                assert TELEMETRY.counters.get("kernel.fallback") == 1
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
        finally:
            monkeypatch.delenv(_build.ENV_DISABLE)
            _build.reset_for_tests()

    def test_disabled_backend_routes_bit_identically(self, monkeypatch):
        graph = family_from_seed(3, "gnp", n=32)
        ported, routers = routers_for(graph, 2, 3, kernels=("numpy",))
        pairs = sample_pairs(graph, 64, 3)
        want = routers["numpy"].route_pairs(pairs)
        monkeypatch.setenv(_build.ENV_DISABLE, "0")
        _build.reset_for_tests()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", KernelFallbackWarning)
                scheme = build_scheme(graph, 2, ported=ported, rng=3, kernel="auto")
                got = BatchRouter(ported, scheme, kernel="auto").route_pairs(pairs)
            assert_results_equal(want, got, "(auto degraded to numpy)")
        finally:
            monkeypatch.delenv(_build.ENV_DISABLE)
            _build.reset_for_tests()


# ----------------------------------------------------------------------
# 2. Router differential: native hop loop ≡ numpy hop loop
# ----------------------------------------------------------------------
@needs_native
class TestHopLoopDifferential:
    @given(seed=seeds(), family=st.sampled_from(FAMILIES), k=ks(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_route_pairs_bitwise(self, seed, family, k):
        graph = family_from_seed(seed, family, n=40)
        _, routers = routers_for(graph, k, seed)
        pairs = sample_pairs(graph, 120, seed)
        assert_results_equal(
            routers["numpy"].route_pairs(pairs),
            routers["native"].route_pairs(pairs),
            f"(family={family} k={k} seed={seed})",
        )

    @given(seed=seeds(), k=ks(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_route_trials_bitwise(self, seed, k):
        graph = family_from_seed(seed, "gnp", n=36)
        _, routers = routers_for(graph, k, seed)
        pairs = sample_pairs(graph, 40, seed)
        rng = make_rng(derive(seed, "kernel-masks"))
        masks = rng.random((4, graph.m)) < 0.15
        assert_results_equal(
            routers["numpy"].route_trials(pairs, masks),
            routers["native"].route_trials(pairs, masks),
            f"(trials k={k} seed={seed})",
        )

    @pytest.mark.parametrize("ttl", [0, 1, 3])
    def test_tiny_ttl_bitwise(self, ttl):
        graph = family_from_seed(7, "grid", n=36)
        _, routers = routers_for(graph, 2, 7)
        pairs = sample_pairs(graph, 80, 7)
        assert_results_equal(
            routers["numpy"].route_pairs(pairs, ttl=ttl),
            routers["native"].route_pairs(pairs, ttl=ttl),
            f"(ttl={ttl})",
        )

    def test_telemetry_counters_match(self):
        graph = family_from_seed(11, "ba", n=48)
        _, routers = routers_for(graph, 3, 11)
        pairs = sample_pairs(graph, 200, 11)
        counts = {}
        for kern in ("numpy", "native"):
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                routers[kern].route_pairs(pairs)
                counts[kern] = {
                    name: TELEMETRY.counters.get(name)
                    for name in (
                        "route.hop_iterations",
                        "route.pairs_routed",
                        "route.delivered",
                    )
                }
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
        assert counts["numpy"] == counts["native"]

    def test_hop_step_span_records_impl(self):
        graph = family_from_seed(5, "gnp", n=32)
        _, routers = routers_for(graph, 2, 5)
        pairs = sample_pairs(graph, 30, 5)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            routers["native"].route_pairs(pairs)
            impls = [
                sp.attrs["impl"]
                for sp, _ in TELEMETRY.spans()
                if sp.name == "kernel.hop_step"
            ]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert impls == ["native"]


@needs_native
class TestCommitDifferential:
    @given(
        seed=seeds(),
        family=st.sampled_from(FAMILIES),
        k=ks(1, 4),
        handshake=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_commit_columns_bitwise(self, seed, family, k, handshake):
        graph = family_from_seed(seed, family, n=40)
        _, routers = routers_for(graph, k, seed, kernels=("numpy",))
        cs = routers["numpy"].compiled
        if handshake:
            cs = cs.with_handshake()
        pairs = sample_pairs(graph, 150, seed)  # an eighth trivial
        fail = assert_commit_equal(
            cs, pairs, f"(family={family} k={k} seed={seed} handshake={handshake})"
        )[0]
        assert not fail.any()  # a sound scheme commits every pair

    @pytest.mark.parametrize("handshake", [False, True])
    def test_pivot_trees_lacking_the_source_fail_identically(self, handshake):
        graph = family_from_seed(4, "gnp", n=60)
        ported, routers = routers_for(graph, 3, 4, kernels=("numpy",))
        cs = routers["numpy"].compiled
        # Re-point every pivot at the smallest multi-member tree, or at
        # ids that name no tree at all (-1, n + 3): most sources have no
        # record there, so their rows must fail with FAIL_NO_TREE.
        sizes = np.diff(np.searchsorted(cs.entry_keys, np.arange(cs.n + 1) * cs.n))
        small = int(np.argmin(np.where(sizes > 1, sizes, cs.n + 1)))
        rng = make_rng(derive(4, "bad-pivots"))
        pivot = rng.choice([small, -1, cs.n + 3], size=cs.pivot.shape, p=[0.8, 0.1, 0.1])
        bad = dataclasses.replace(cs, pivot=pivot.astype(np.int64), handshake=handshake)
        pairs = sample_pairs(graph, 400, 4)
        fail = assert_commit_equal(bad, pairs, f"(handshake={handshake})")[0]
        assert (fail == FAIL_NO_TREE).sum() > 100
        assert (fail == 0).sum() > 50  # trivial rows, level-0 or small-tree hits
        assert_results_equal(
            BatchRouter.from_compiled(bad, ported, kernel="numpy").route_pairs(pairs),
            BatchRouter.from_compiled(bad, ported, kernel="native").route_pairs(pairs),
            "(corrupted pivots)",
        )

    @pytest.mark.parametrize("handshake", [False, True])
    def test_single_tree_scheme_without_member_map(self, handshake):
        graph = family_from_seed(6, "grid", n=49)
        ported = assign_ports(graph, "sorted")
        cs = build_single_tree_scheme(graph, ported).compile_batch()
        assert cs.mem_keys.size == 0
        if handshake:
            cs = cs.with_handshake()
        pairs = sample_pairs(graph, 200, 6)
        fail = assert_commit_equal(cs, pairs, f"(single tree handshake={handshake})")[0]
        assert not fail.any()
        assert_results_equal(
            BatchRouter.from_compiled(cs, ported, kernel="numpy").route_pairs(pairs),
            BatchRouter.from_compiled(cs, ported, kernel="native").route_pairs(pairs),
            "(single tree)",
        )

    def test_entryless_scheme(self):
        graph = family_from_seed(2, "gnp", n=30)
        ported, routers = routers_for(graph, 2, 2, kernels=("numpy",))
        cs = routers["numpy"].compiled
        # E = 0: every entry column (and the member map) empty.
        empty = {
            f.name: getattr(cs, f.name)[:0]
            for f in dataclasses.fields(cs)
            if f.name.startswith("ent") or f.name in ("lp_data", "mem_keys", "mem_epos")
        }
        bare = dataclasses.replace(
            cs,
            root_epos=np.full(cs.n, -1, dtype=np.int64),
            lp_indptr=np.zeros(1, dtype=np.int64),
            **empty,
        )
        assert bare.entry_count == 0
        pairs = sample_pairs(graph, 80, 2)
        trivial = pairs[:, 0] == pairs[:, 1]
        for variant in (bare, bare.with_handshake()):
            fail = assert_commit_equal(variant, pairs, "(E=0)")[0]
            assert np.array_equal(fail == FAIL_NO_TREE, ~trivial)
            native = BatchRouter.from_compiled(variant, ported, kernel="native")
            res = native.route_pairs(pairs)
            assert_results_equal(
                BatchRouter.from_compiled(variant, ported, kernel="numpy").route_pairs(pairs),
                res,
                "(E=0)",
            )
            assert np.array_equal(res.delivered, trivial)


@needs_native
def test_commit_wrapper_refuses_what_c_would_misread():
    graph = family_from_seed(2, "gnp", n=30)
    _, routers = routers_for(graph, 2, 2, kernels=("native",))
    cs = routers["native"].compiled
    view = NativeSchemeView.of(cs)
    src = np.array([0, 1], dtype=np.int64)
    state = (np.empty(2, dtype=np.int8),) + tuple(np.empty(2, dtype=np.int64) for _ in range(7))
    with pytest.raises(RoutingError, match="out of range"):
        commit_native(view, src, np.array([1, cs.n]), state, handshake=False, id_bits=1)
    with pytest.raises(RuntimeError, match="contiguous columns"):
        commit_native(view, src, src[::-1], state[:1] + (state[1][:1],) + state[2:],
                      handshake=False, id_bits=1)
    # A pivot matrix narrower than n (a foreign container) is refused
    # at pack time, before the commit could index past it.
    with pytest.raises(RoutingError, match="pivot matrix"):
        NativeSchemeView.of(dataclasses.replace(cs, pivot=cs.pivot[:, :-1]))


def test_row_chunks_cover_the_batch_in_order(monkeypatch):
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 3)
    floor = batch.ROUTE_CHUNK_FLOOR
    assert batch._row_chunks(0) == [(0, 0)]
    assert batch._row_chunks(floor - 1) == [(0, floor - 1)]
    chunks = batch._row_chunks(floor + 1)
    assert len(chunks) == 3
    assert chunks[0][0] == 0 and chunks[-1][1] == floor + 1
    assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(chunks, chunks[1:]))


@needs_native
class TestThreadedChunks:
    def test_batch_over_the_floor_matches_numpy_with_telemetry(self, monkeypatch):
        monkeypatch.setattr(batch, "_usable_cpus", lambda: 3)
        graph = family_from_seed(12, "gnp", n=80)
        _, routers = routers_for(graph, 3, 12)
        pairs = sample_pairs(graph, batch.ROUTE_CHUNK_FLOOR + 123, 12)
        results, counts, roots = {}, {}, {}
        for kern in ("numpy", "native"):
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                results[kern] = routers[kern].route_pairs(pairs)
                counts[kern] = {
                    name: TELEMETRY.counters.get(name)
                    for name in (
                        "route.hop_iterations",
                        "route.pairs_routed",
                        "route.delivered",
                    )
                }
                roots[kern] = list(TELEMETRY.roots)
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
        assert_results_equal(results["numpy"], results["native"], "(3 row chunks)")
        # Counted once per batch on the calling thread: hop_iterations is
        # the maximum over chunks, not their sum.
        assert counts["numpy"] == counts["native"]
        # Every span of the threaded route (the one-off view pack
        # included) hangs under the caller's route.route_pairs.
        (root,) = roots["native"]
        assert root.name == "route.route_pairs"
        spans = {sp.name: sp for sp, _ in root.walk()}
        assert {"route.commit", "kernel.pack_view", "route.hop_loop", "kernel.hop_step"} <= set(spans)
        assert spans["kernel.hop_step"].attrs["threads"] == 3

    def test_chunked_dead_edges_and_ttl(self, forced_chunks):
        graph = family_from_seed(13, "grid", n=49)
        _, routers = routers_for(graph, 2, 13)
        pairs = sample_pairs(graph, 500, 13)
        dead = [tuple(int(v) for v in e) for e in graph.edges[:6]]
        for kwargs in ({"dead_edges": dead}, {"ttl": 3}, {}):
            assert_results_equal(
                routers["numpy"].route_pairs(pairs, **kwargs),
                routers["native"].route_pairs(pairs, **kwargs),
                f"(3 row chunks, {sorted(kwargs)})",
            )

    def test_concurrent_first_use_packs_the_view_once(self, monkeypatch):
        """Eight threads (more than the cores) meet an unpacked scheme
        with the GIL switching every microsecond: one pack, and every
        thread's answer bit-identical to numpy."""
        graph = family_from_seed(14, "ba", n=600)
        _, routers = routers_for(graph, 3, 14)
        pairs = sample_pairs(graph, 3000, 14)
        want = routers["numpy"].route_pairs(pairs)
        packs = []
        real_init = NativeSchemeView.__init__

        def counting_init(self, cs):
            packs.append(threading.get_ident())
            real_init(self, cs)

        monkeypatch.setattr(NativeSchemeView, "__init__", counting_init)
        workers = 8
        start = threading.Barrier(workers, timeout=60)
        results, errors = [None] * workers, []

        def route(i):
            try:
                start.wait()
                results[i] = routers["native"].route_pairs(pairs)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=route, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(packs) == 1
        for res in results:
            assert_results_equal(want, res, "(concurrent first use)")


# ----------------------------------------------------------------------
# 3. Builder differential: native frontier sweep ≡ numpy sweep
# ----------------------------------------------------------------------
@needs_native
class TestFrontierSweepDifferential:
    @given(seed=seeds(), family=st.sampled_from(FAMILIES), k=ks(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_pruned_arrays_bitwise(self, seed, family, k):
        graph = family_from_seed(seed, family, n=44)
        ported = assign_ports(graph, "sorted")
        hierarchy = build_hierarchy(graph, k, make_rng(seed))
        # mode="pruned" forces the sweep even below FULL_CENTER_LIMIT
        # (these graphs are far smaller than 32-center levels require).
        ref = vectorized_arrays(graph, ported, hierarchy, mode="pruned", kernel="numpy")
        nat = vectorized_arrays(graph, ported, hierarchy, mode="pruned", kernel="native")
        assert ref.n == nat.n and ref.k == nat.k
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(ref, name), getattr(nat, name)), (
                f"{name} differs (family={family} k={k} seed={seed})"
            )

    def test_auto_mode_large_level_paths_agree(self):
        # A graph big enough that mode="auto" actually picks "pruned".
        graph = gen.gnp(3 * FULL_CENTER_LIMIT, 0.08, rng=5, weights=(1, 7))
        ported = assign_ports(graph, "sorted")
        hierarchy = build_hierarchy(graph, 3, make_rng(5))
        ref = vectorized_arrays(graph, ported, hierarchy, kernel="numpy")
        nat = vectorized_arrays(graph, ported, hierarchy, kernel="native")
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(ref, name), getattr(nat, name)), name

    def test_frontier_span_and_counters(self):
        graph = family_from_seed(9, "gnp", n=40)
        ported = assign_ports(graph, "sorted")
        hierarchy = build_hierarchy(graph, 3, make_rng(9))
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            vectorized_arrays(graph, ported, hierarchy, mode="pruned", kernel="native")
            impls = {
                sp.attrs["impl"]
                for sp, _ in TELEMETRY.spans()
                if sp.name == "kernel.frontier_sweep"
            }
            settled = TELEMETRY.counters.get("build.frontier_settled", 0)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert impls == {"native"}
        assert settled > 0


# ----------------------------------------------------------------------
# 4a. Degenerate inputs: identical empty shapes, never a raise
# ----------------------------------------------------------------------
def kernel_params():
    return [
        pytest.param("numpy"),
        pytest.param("auto"),
        pytest.param("native", marks=needs_native),
    ]


@pytest.mark.parametrize("kernel", kernel_params())
class TestDegenerateInputs:
    def test_zero_pair_matrix(self, kernel):
        graph = family_from_seed(2, "gnp", n=30)
        _, routers = routers_for(graph, 2, 2, kernels=(kernel,))
        res = routers[kernel].route_pairs(np.zeros((0, 2), dtype=np.int64))
        for name in RESULT_FIELDS:
            assert getattr(res, name).shape == (0,), name
        assert res.attempted == 0

    def test_zero_trial_sweep(self, kernel):
        graph = family_from_seed(2, "gnp", n=30)
        _, routers = routers_for(graph, 2, 2, kernels=(kernel,))
        pairs = np.array([[0, 5], [3, 7]])
        res = routers[kernel].route_trials(
            pairs, np.zeros((0, graph.m), dtype=bool)
        )
        assert res.delivered.shape == (0, 2)
        assert res.weight.shape == (0, 2)
        assert res.failure_code.shape == (0, 2)
        assert res.source.shape == (2,)

    def test_zero_pairs_zero_trials(self, kernel):
        graph = family_from_seed(2, "gnp", n=30)
        _, routers = routers_for(graph, 2, 2, kernels=(kernel,))
        res = routers[kernel].route_trials(
            np.zeros((0, 2), dtype=np.int64), np.zeros((0, graph.m), dtype=bool)
        )
        assert res.delivered.shape == (0, 0)

    def test_single_vertex_edgeless_graph(self, kernel):
        graph = Graph(1, [], [])
        ported = assign_ports(graph, "sorted")
        for k in (1, 3):
            scheme = build_scheme(graph, k, ported=ported, rng=0, kernel=kernel)
            router = BatchRouter(ported, scheme, kernel=kernel)
            empty = router.route_pairs(np.zeros((0, 2), dtype=np.int64))
            assert empty.delivered.shape == (0,)
            res = router.route_pairs(np.array([[0, 0]]))
            assert res.delivered.tolist() == [True]
            assert res.weight.tolist() == [0.0]
            assert res.hops.tolist() == [0]
            trials = router.route_trials(
                np.array([[0, 0]]), np.zeros((3, 0), dtype=bool)
            )
            assert trials.delivered.all() and trials.delivered.shape == (3, 1)

    def test_single_vertex_pruned_builder(self, kernel):
        graph = Graph(1, [], [])
        ported = assign_ports(graph, "sorted")
        hierarchy = build_hierarchy(graph, 2, make_rng(0))
        arrays = vectorized_arrays(
            graph, ported, hierarchy, mode="pruned", kernel=kernel
        )
        assert arrays.entry_count == 1

    def test_all_dead_edge_masks(self, kernel):
        graph = family_from_seed(4, "gnp", n=30)
        _, routers = routers_for(graph, 2, 4, kernels=("numpy", kernel))
        pairs = np.array([[0, 5], [1, 9], [2, 2]])
        masks = np.ones((2, graph.m), dtype=bool)
        res = routers[kernel].route_trials(pairs, masks)
        # Non-trivial pairs can never move; trivial pairs still deliver.
        assert not res.delivered[:, :2].any()
        assert res.delivered[:, 2].all()
        assert (res.weight[:, :2] == 0.0).all()
        assert_results_equal(
            routers["numpy"].route_trials(pairs, masks), res, "(all-dead)"
        )


# ----------------------------------------------------------------------
# 4b. Non-float64-exact weights: loud fallback on every kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", kernel_params())
class TestWeightFallback:
    def test_integer_weights_stay_on_fast_path(self, kernel):
        graph = family_from_seed(6, "gnp", n=30)  # integer-valued (1, 7)
        ported = assign_ports(graph, "sorted")
        with warnings.catch_warnings():
            warnings.simplefilter("error", KernelFallbackWarning)
            build_arrays(graph, 2, ported=ported, rng=6, kernel=kernel)

    def test_fractional_weights_fall_back_loudly(self, kernel):
        base = family_from_seed(6, "gnp", n=24, weights=None)
        rng = make_rng(derive(6, "frac"))
        graph = Graph(base.n, base.edges, rng.uniform(0.1, 1.0, base.m))
        ported = assign_ports(graph, "sorted")
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with pytest.warns(KernelFallbackWarning, match="not float64-exact"):
                arrays = build_arrays(graph, 2, ported=ported, rng=6, kernel=kernel)
            assert TELEMETRY.counters.get("kernel.fallback", 0) >= 1
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert arrays.entry_count > 0

    def test_float32_weights_fall_back_loudly(self, kernel):
        base = family_from_seed(8, "gnp", n=24, weights=None)
        rng = make_rng(derive(8, "f32"))
        w32 = rng.uniform(0.5, 2.0, base.m).astype(np.float32)
        graph = Graph(base.n, base.edges, w32)
        ported = assign_ports(graph, "sorted")
        with pytest.warns(KernelFallbackWarning, match="not float64-exact"):
            ref = build_arrays(graph, 2, ported=ported, rng=8, kernel="numpy")
        with pytest.warns(KernelFallbackWarning, match="not float64-exact"):
            got = build_arrays(graph, 2, ported=ported, rng=8, kernel=kernel)
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(ref, name), getattr(got, name)), name
