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
   handshake strategies, failing rows, a single tree whose one landmark
   is its root and an entry-less scheme); ``route_pairs``/``route_trials`` column equality
   between kernels, including dead-edge trials, tiny ttls and batches
   cut into threaded row chunks (a batch of repeats cut by its distinct
   pairs); and many threads meeting a freshly loaded scheme at once;
3. **builder differential** — ``vectorized_arrays`` field equality
   between kernels (both sweep every bounded level), and the
   native cluster-tree pass ≡ numpy ``_level_parents`` +
   ``_tree_arrays`` column by column: ties, long child lists, a
   200,000-deep path, a single vertex, and orphan entries; and the
   native compile pass ≡ numpy ``_resolve_ports`` + ``_link_entries``
   on every ``ent``/``step`` byte, under the build's own, sorted and
   foreign random ports, with poisoned entry-link hints, and refusing
   the same malformed entries;
4. **degenerate inputs** — zero-pair matrices, zero-trial sweeps,
   single-vertex/edgeless graphs and all-dead-edge masks return
   identically-shaped results instead of raising, on every kernel; and
   non-float64-exact weights fall back loudly on every kernel.

Native-only tests skip cleanly when no C toolchain is present.
"""

from __future__ import annotations

import contextlib
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
from repro.core.build import SchemeArrays, build_arrays, build_scheme, patch_arrays
from repro.core.build.arrays import COLUMN_DTYPES, light_port_dtype, scheme_from_arrays
from repro.core.build.vectorized import (
    _cluster_trees,
    _grow_clusters,
    _pruned_level,
    vectorized_arrays,
)
from repro import pool
from repro.analysis.experiments import reference_graph
from repro.core.landmarks import build_hierarchy, level0_sources
from repro.errors import EncodingError, KernelError, PreprocessingError, RoutingError
from repro.graphs import generators as gen
from repro.graphs.delta import GraphDelta
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
from repro.kernels.frontier import frontier_sweep_native
from repro.kernels.hop import commit_native
from repro.kernels.records import compile_records_native
from repro.kernels.trees import cluster_trees_native, slice_ranges
from repro.obs import TELEMETRY
from repro.rng import derive, make_rng
from repro.sim.engine import batch
from repro.sim.engine import compile as compile_mod
from repro.sim.engine.batch import FAIL_NO_TREE, BatchRouter
from repro.sim.engine.compile import _ent_records, compile_from_arrays, compile_single_tree
from repro.store import SchemeStore

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


def assert_arrays_equal(a, b, context=""):
    """Every :class:`SchemeArrays` column equal, dtypes included."""
    assert (a.n, a.k) == (b.n, b.k)
    for name in ARRAY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"{name} dtype differs {context}"
        assert np.array_equal(x, y), f"{name} differs {context}"


def assert_results_equal(a, b, context=""):
    """Bitwise column equality between two route results."""
    for name in RESULT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"{name} dtype differs {context}"
        assert np.array_equal(x, y), f"{name} differs {context}"


def arrays_on(graph, k, ported, seed, kernel):
    """``build_arrays(graph, k, ported=ported, rng=seed)``, with its
    frontier sweep on ``kernel``: the same hierarchy, drawn the same way,
    fed to the builder's kernel fork."""
    hierarchy = build_hierarchy(graph, k, make_rng(seed))
    return vectorized_arrays(graph, ported, hierarchy, kernel=kernel)


def scheme_on(graph, k, ported, seed, kernel):
    """``build_scheme(graph, k, ported=ported, rng=seed)``, built on
    ``kernel`` (see :func:`arrays_on`)."""
    return scheme_from_arrays(graph, ported, arrays_on(graph, k, ported, seed, kernel))


def routers_for(graph, k, seed, kernels=("numpy", "native")):
    """One scheme, one router per kernel (the scheme is shared)."""
    ported = assign_ports(graph, "sorted")
    scheme = scheme_on(graph, k, ported, seed, "numpy")
    return ported, {kern: BatchRouter(ported, scheme, kernel=kern) for kern in kernels}


def sample_pairs(graph, count, seed):
    rng = make_rng(derive(seed, "kernel-pairs"))
    pairs = rng.integers(0, graph.n, size=(count, 2))
    pairs[: max(1, count // 8), 1] = pairs[: max(1, count // 8), 0]  # trivial rows
    return pairs


def distinct_sample(graph, count, seed):
    """``count`` distinct pairs over ``graph``'s vertices, self-pairs
    among them, in random order."""
    rng = make_rng(derive(seed, "kernel-distinct-pairs"))
    keys = rng.choice(graph.n * graph.n, size=count, replace=False)
    return np.stack(np.divmod(keys, graph.n), axis=1)


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
                scheme = build_scheme(graph, 2, ported=ported, rng=3)
                router = BatchRouter(ported, scheme)
                got = router.route_pairs(pairs)
            assert router.kernel == "numpy"
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

    def test_level0_rows_and_landmark_sources_that_skip_them(self):
        """A source checks level 0 in its own tree slice unless it is a
        landmark: both paths run, on both kernels.  At k = 2 a
        landmark's slice holds every vertex, so a landmark that did not
        skip level 0 would commit every row to its own tree."""
        graph = family_from_seed(5, "gnp", n=80)
        _, routers = routers_for(graph, 2, 5, kernels=("numpy",))
        cs = routers["numpy"].compiled
        pairs = sample_pairs(graph, 800, 5)
        s, t = pairs[:, 0], pairs[:, 1]
        fail, tree = assert_commit_equal(cs, pairs, "(level 0)")[:2]
        assert not fail.any()
        level0 = level0_sources(cs.pivot)
        _, in_own = cs.entry_pos(s, t)
        at0 = (s != t) & level0[s] & in_own
        assert at0.sum() > 10 and np.array_equal(tree[at0], s[at0])
        skipped = (s != t) & ~level0[s] & in_own & (cs.pivot[1, t] != s)
        assert skipped.sum() > 10
        assert np.array_equal(tree[skipped], cs.pivot[1, t[skipped]])

    @pytest.mark.parametrize("handshake", [False, True])
    def test_single_tree_scheme_without_member_map(self, handshake):
        graph = family_from_seed(6, "grid", n=49)
        ported = assign_ports(graph, "sorted")
        cs = build_single_tree_scheme(graph, ported).compile_batch()
        # the root is the one landmark; every other source's own tree
        # slice, which it checks at level 0, is empty
        root = int(cs.pivot[1, 0])
        assert np.array_equal(np.flatnonzero(np.diff(cs.tree_indptr)), [root])
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
        # E = 0: every entry column empty.
        empty = {
            f.name: getattr(cs, f.name)[:0]
            for f in dataclasses.fields(cs)
            if f.name.startswith("ent") or f.name == "lp_data"
        }
        bare = dataclasses.replace(
            cs,
            root_epos=np.full(cs.n, -1, dtype=np.int64),
            tree_indptr=np.zeros(cs.n + 1, dtype=np.int64),
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
    src = np.array([0, 1], dtype=np.int64)
    state = (np.empty(2, dtype=np.int8),) + tuple(np.empty(2, dtype=np.int64) for _ in range(7))
    with pytest.raises(RoutingError, match="out of range"):
        commit_native(cs, src, np.array([1, cs.n]), state)
    with pytest.raises(RuntimeError, match="contiguous columns"):
        commit_native(cs, src, src[::-1], state[:1] + (state[1][:1],) + state[2:])
    # A pivot matrix narrower than n (a foreign container) never reaches
    # the wrapper: building the scheme refuses it (test_batch_engine).


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
        # The floor counts distinct pairs: n=120 has 14,400 to draw from.
        graph = family_from_seed(12, "gnp", n=120)
        _, routers = routers_for(graph, 3, 12)
        pairs = distinct_sample(graph, batch.ROUTE_CHUNK_FLOOR + 123, 12)
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
        # Every span of the threaded route hangs under the caller's
        # route.route_pairs.
        (root,) = roots["native"]
        assert root.name == "route.route_pairs"
        spans = {sp.name: sp for sp, _ in root.walk()}
        assert {"route.commit", "route.hop_loop", "kernel.hop_step"} <= set(spans)
        assert spans["kernel.hop_step"].attrs["threads"] == 3

    def test_repeated_pairs_chunk_by_their_distinct_count(self, monkeypatch):
        """Every pair of a batch just over the floor, twice: the route
        walks the distinct half on three threads, answers every row and
        counts the answered rows and the distinct ones apart."""
        monkeypatch.setattr(batch, "_usable_cpus", lambda: 3)
        graph = family_from_seed(12, "gnp", n=120)
        _, routers = routers_for(graph, 3, 12)
        once = distinct_sample(graph, batch.ROUTE_CHUNK_FLOOR + 123, 13)
        twice = np.concatenate([once, once[::-1]])
        results, counts = {}, {}
        for kern in ("numpy", "native"):
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                results[kern] = routers[kern].route_pairs(twice)
                counts[kern] = dict(TELEMETRY.counters)
                (root,) = TELEMETRY.roots
                steps = [sp for sp, _ in root.walk() if sp.name == "kernel.hop_step"]
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
            assert [sp.attrs["rows"] for sp in steps] == [once.shape[0]]
            assert steps[0].attrs["threads"] == (3 if kern == "native" else 1)
            assert counts[kern]["route.pairs_routed"] == twice.shape[0]
            assert 2 * counts[kern]["route.pairs_distinct"] == twice.shape[0]
            assert counts[kern]["route.delivered"] == results[kern].delivered_count
        assert_results_equal(results["numpy"], results["native"], "(repeats, 3 row chunks)")
        alone = routers["native"].route_pairs(once)
        assert_results_equal(alone, results["native"].take(np.arange(once.shape[0])))
        assert_results_equal(alone, results["native"].take(np.arange(2 * once.shape[0] - 1, once.shape[0] - 1, -1)))

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

    def test_concurrent_first_use_of_a_loaded_scheme(self, tmp_path):
        """Eight threads (more than the cores) meet a freshly loaded
        scheme with the GIL switching every microsecond: every thread's
        answer is bit-identical to numpy."""
        graph = family_from_seed(14, "ba", n=600)
        ported, routers = routers_for(graph, 3, 14)
        pairs = sample_pairs(graph, 3000, 14)
        want = routers["numpy"].route_pairs(pairs)
        store = SchemeStore(tmp_path)
        path = store.save(graph, ported, routers["numpy"].scheme.arrays, seed=14)
        native = BatchRouter.from_compiled(store.load(path).compiled, kernel="native")
        workers = 8
        start = threading.Barrier(workers, timeout=60)
        results, errors = [None] * workers, []

        def route(i):
            try:
                start.wait()
                results[i] = native.route_pairs(pairs)
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
        ref = vectorized_arrays(graph, ported, hierarchy, kernel="numpy")
        nat = vectorized_arrays(graph, ported, hierarchy, kernel="native")
        assert_arrays_equal(ref, nat, f"(family={family} k={k} seed={seed})")

    def test_auto_mode_large_level_paths_agree(self):
        # The default engines on levels of many centers.
        graph = gen.gnp(96, 0.08, rng=5, weights=(1, 7))
        ported = assign_ports(graph, "sorted")
        hierarchy = build_hierarchy(graph, 3, make_rng(5))
        ref = vectorized_arrays(graph, ported, hierarchy, kernel="numpy")
        nat = vectorized_arrays(graph, ported, hierarchy, kernel="native")
        assert_arrays_equal(ref, nat)

    def test_native_sweeps_every_level(self):
        # The native sweep serves the unbounded top level too; numpy
        # sweeps the bounded levels and keeps scipy's full rows for it.
        graph = family_from_seed(9, "gnp", n=40)
        ported = assign_ports(graph, "sorted")
        hierarchy = build_hierarchy(graph, 3, make_rng(9))
        engines = {}
        for kernel in ("native", "numpy"):
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                vectorized_arrays(graph, ported, hierarchy, kernel=kernel)
                engines[kernel] = [
                    sp.attrs["engine"]
                    for sp, _ in TELEMETRY.spans()
                    if sp.name == "build.clusters"
                ]
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
        assert engines["native"] == ["pruned"] * len(engines["numpy"])
        assert engines["numpy"] == ["pruned"] * (len(engines["numpy"]) - 1) + ["full"]

    def test_frontier_span_and_counters(self):
        graph = family_from_seed(9, "gnp", n=40)
        ported = assign_ports(graph, "sorted")
        hierarchy = build_hierarchy(graph, 3, make_rng(9))
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            vectorized_arrays(graph, ported, hierarchy, kernel="native")
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
# 3b. Builder differential: native cluster-tree pass ≡ numpy stages
# ----------------------------------------------------------------------
def assert_tree_pass_equal(graph, ported, cl_indptr, member, dist, context=""):
    """Native ``tz_cluster_trees`` ≡ numpy ``_level_parents`` +
    ``_tree_arrays`` on the same tree slices of the members, column by
    column; returns the native columns."""
    want = _cluster_trees(graph, ported, cl_indptr, member, dist, "numpy")
    got = _cluster_trees(graph, ported, cl_indptr, member, dist, "native")
    assert sorted(want) == sorted(got)
    for name, col in want.items():
        assert np.array_equal(col, got[name]), f"{name} differs {context}"
    return got


def one_slice(n, center, size):
    """Tree slices of ``n`` vertices in which only ``center`` holds
    entries: the first ``size``."""
    cl_indptr = np.zeros(n + 1, dtype=np.int64)
    cl_indptr[center + 1 :] = size
    return cl_indptr


@needs_native
class TestTreePassDifferential:
    @given(seed=seeds(), family=st.sampled_from(FAMILIES), k=ks(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_every_column_bitwise(self, seed, family, k):
        graph = family_from_seed(seed, family, n=44)
        ported = assign_ports(graph, "random", rng=seed)
        ref = arrays_on(graph, k, ported, seed, "numpy")
        nat = arrays_on(graph, k, ported, seed, "native")
        context = f"(family={family} k={k} seed={seed})"
        assert_arrays_equal(ref, nat, context)
        assert_tree_pass_equal(graph, ported, ref.cl_indptr, ref.ent_member, ref.ent_dist, context)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unit_weight_grid_ties(self, k):
        # Unit weights tie almost every vertex between two tight parents
        # and many siblings on subtree size.
        graph = gen.grid2d(7, 7)
        ported = assign_ports(graph, "random", rng=k)
        ref = arrays_on(graph, k, ported, k, "numpy")
        assert_arrays_equal(ref, arrays_on(graph, k, ported, k, "native"))

    def test_star_one_long_child_list(self):
        # k=1: in every leaf's cluster the hub has 298 children to order.
        graph = gen.star_tree(300)
        ported = assign_ports(graph, "random", rng=1)
        ref = arrays_on(graph, 1, ported, 1, "numpy")
        assert_arrays_equal(ref, arrays_on(graph, 1, ported, 1, "native"))
        # All but the hub's heavy child are light: 298 in the hub's own
        # cluster, 297 in each leaf's.
        assert int((ref.tr_light_depth == 1).sum()) == 298 + 299 * 297

    def test_deep_path_cluster_without_recursion(self):
        n = 200_000
        graph = gen.path_tree(n)
        ported = assign_ports(graph, "sorted")
        member = np.arange(n, dtype=np.int32)  # one full cluster, center 0
        got = assert_tree_pass_equal(
            graph, ported, one_slice(n, 0, n), member, member.astype(np.float64)
        )
        assert np.array_equal(got["tr_f"], member)
        assert (got["tr_finish"] == n - 1).all()
        assert got["lp_data"].shape == (0,)

    @pytest.mark.parametrize("k", [1, 3])
    def test_single_vertex(self, k):
        graph = Graph(1, [], [])
        ported = assign_ports(graph, "sorted")
        ref = arrays_on(graph, k, ported, 0, "numpy")
        assert_arrays_equal(ref, arrays_on(graph, k, ported, 0, "native"))
        assert ref.entry_count == 1

    def test_orphan_member_raises_on_both_kernels(self):
        graph = gen.path_tree(3)  # 0 - 1 - 2, unit weights
        ported = assign_ports(graph, "sorted")
        member = np.arange(3, dtype=np.int32)  # C(0) = {0, 1, 2}
        dist = np.array([0.0, 1.0, 5.0])  # 2 has no tight predecessor
        for kernel in ("numpy", "native"):
            with pytest.raises(PreprocessingError, match="orphan"):
                _cluster_trees(graph, ported, one_slice(3, 0, 3), member, dist, kernel)

    def test_tight_cycle_raises_natively(self):
        # inf + 1 == inf makes 1 and 2 each other's tight parent, so no
        # tight path reaches the center.  (numpy's pointer doubling
        # never terminates on such input; the builder cannot emit it.)
        graph = gen.path_tree(3)
        ported = assign_ports(graph, "sorted")
        member = np.arange(3, dtype=np.int32)
        dist = np.array([0.0, np.inf, np.inf])
        with pytest.raises(PreprocessingError, match="orphan"):
            _cluster_trees(graph, ported, one_slice(3, 0, 3), member, dist, "native")

    def test_members_out_of_order_or_range_raise_natively(self):
        graph = gen.path_tree(3)
        ported = assign_ports(graph, "sorted")
        dist = np.array([0.0, 1.0, 2.0])
        for member in ([0, 2, 1], [0, 1, 1], [0, 1, 3], [-1, 1, 2]):
            with pytest.raises(ValueError, match="strictly ascend in"):
                cluster_trees_native(
                    graph, ported, one_slice(3, 0, 3), np.array(member, dtype=np.int32), dist
                )

    def test_tree_pass_span_under_build_and_patch(self):
        graph = family_from_seed(9, "gnp", n=40)
        ported = assign_ports(graph, "sorted")
        u, v = (int(x) for x in graph.edges[0])
        delta = GraphDelta(weight_updates=((u, v, float(graph.edge_weights[0] + 1)),))
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            arrays = build_arrays(graph, 3, ported=ported, rng=9)
            patch_arrays(arrays, graph, delta, ported=ported)
            passes = {
                sp.name: [c for c in sp.children if c.name == "kernel.tree_pass"]
                for sp, _ in TELEMETRY.spans()
                if sp.name in ("build.trees", "patch.rebuild")
            }
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert sorted(passes) == ["build.trees", "patch.rebuild"]
        for parent, kids in passes.items():
            assert len(kids) == 1, parent
            assert kids[0].attrs["impl"] == "native", parent
            assert kids[0].attrs["entries"] >= 1, parent


# ----------------------------------------------------------------------
# 3c. Compile differential: native entry records ≡ numpy resolution
# ----------------------------------------------------------------------
REFERENCE_FAMILIES = ("gnp", "ba", "as-like", "grid", "geometric")

#: The refusals hold on numpy alone too, so they also run without a toolchain.
BOTH_KERNELS = ["numpy", pytest.param("native", marks=needs_native)]


@pytest.fixture
def compile_on(monkeypatch):
    """``compile_on(kernel, fn)`` runs ``fn()`` with every compile's
    entry-record pass forked onto ``kernel``."""

    def run(kernel, fn):
        with monkeypatch.context() as m:
            m.setattr(compile_mod, "resolve_kernel", lambda _: kernel)
            return fn()

    return run


def assert_compiled_equal(want, got, context=""):
    """Every column of two compiled schemes equal byte for byte, the
    ``ent`` and ``step`` records included."""
    assert (want.n, want.k, want.handshake) == (got.n, got.k, got.handshake)
    for name in compile_mod.COLUMNS:
        x, y = getattr(want, name), getattr(got, name)
        assert x.dtype == y.dtype, f"{name} dtype differs {context}"
        assert x.tobytes() == y.tobytes(), f"{name} differs {context}"


def compiled_both(compile_on, fn, context=""):
    """``fn()`` compiled on numpy and on native, held equal; returns the
    native compile."""
    want = compile_on("numpy", fn)
    got = compile_on("native", fn)
    assert_compiled_equal(want, got, context)
    return got


def light_of(arrays):
    """The arrays' light-port CSR as ``_ent_records`` takes it."""
    return (arrays.lp_indptr, arrays.lp_data)


def record_inputs(arrays, links=True):
    """The arrays' ``_ent_records`` inputs before ``g_indptr``/``step``."""
    record = {
        name: getattr(arrays, col)
        for col, name in compile_mod.ARRAYS_IN_RECORD.items()
        if name in compile_mod.RECORD_FIELDS
    }
    ports = (arrays.tr_parent_port, arrays.tr_heavy_port)
    hints = (arrays.ent_parent_epos, arrays.ent_heavy_epos, arrays.ent_parent) if links else None
    return arrays.cl_indptr, record, ports, hints


class TestCompileDifferential:
    @needs_native
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", REFERENCE_FAMILIES)
    def test_every_record_byte(self, compile_on, family, k):
        graph = reference_graph(family, 64, k).largest_component()
        own = assign_ports(graph, "random", rng=derive(k, "own"))
        arrays = build_arrays(graph, k, ported=own, rng=k)
        assignments = {
            "own": own,
            "sorted": assign_ports(graph, "sorted"),
            "foreign": assign_ports(graph, "random", rng=derive(k, "foreign")),
        }
        for name, ported in assignments.items():
            got = compiled_both(
                compile_on,
                lambda: compile_from_arrays(arrays, ported),
                f"(family={family} k={k} ports={name})",
            )
            # without hints every link is a search of its tree's slice
            bare = _ent_records(
                *record_inputs(arrays, links=False), got.g_indptr, got.step, "native",
                light_of(arrays),
            )
            assert bare.tobytes() == got.ent.tobytes()
            if name == "own":  # every hint holds: the build's links verbatim
                assert np.array_equal(got.ent["parent_epos"], arrays.ent_parent_epos)
                assert np.array_equal(got.ent["heavy_epos"], arrays.ent_heavy_epos)

    @needs_native
    def test_foreign_ports_lose_parents(self, compile_on):
        graph = reference_graph("gnp", 300, 5).largest_component()
        arrays = build_arrays(graph, 3, ported=assign_ports(graph, "random", rng=5), rng=5)
        got = compiled_both(
            compile_on, lambda: compile_from_arrays(arrays, assign_ports(graph, "sorted"))
        )
        assert (got.ent["parent_epos"] == -2).sum() > 100

    @needs_native
    @pytest.mark.parametrize("assignment", ["sorted", "random"])
    def test_single_tree(self, compile_on, assignment):
        graph = family_from_seed(6, "grid", n=49)
        scheme = build_single_tree_scheme(graph, assign_ports(graph, "sorted"))
        ported = assign_ports(graph, assignment, rng=6)
        compiled_both(compile_on, lambda: compile_single_tree(scheme.router, ported))

    @needs_native
    def test_entryless_scheme(self):
        graph = family_from_seed(2, "gnp", n=30)
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 2, ported=ported, rng=2)
        cs = compile_from_arrays(arrays, ported)
        _, record, ports, hints = record_inputs(arrays)
        empty = (
            np.zeros(arrays.n + 1, dtype=np.int64),
            {name: col[:0] for name, col in record.items()},
            tuple(p[:0] for p in ports),
            tuple(h[:0] for h in hints),
            cs.g_indptr,
            cs.step,
        )
        light = (np.zeros(1, dtype=np.int64), arrays.lp_data[:0])
        want = _ent_records(*empty, "numpy", light)
        got = _ent_records(*empty, "native", light)
        assert want.shape == got.shape == (0,) and want.dtype == got.dtype

    @needs_native
    @pytest.mark.parametrize("k", [1, 3])
    def test_single_vertex(self, compile_on, k):
        graph = Graph(1, [], [])
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, k, ported=ported, rng=0)
        got = compiled_both(compile_on, lambda: compile_from_arrays(arrays, ported))
        assert got.entry_count == 1 and got.ent["parent_epos"][0] == -1

    @needs_native
    def test_poisoned_hints_compile_identically(self, compile_on):
        graph = reference_graph("gnp", 200, 3).largest_component()
        ported = assign_ports(graph, "random", rng=3)
        arrays = build_arrays(graph, 3, ported=ported, rng=3)
        want = compile_on("numpy", lambda: compile_from_arrays(arrays, ported))
        E = arrays.entry_count
        lo = arrays.cl_indptr[arrays.ent_center]
        size = np.diff(arrays.cl_indptr)[arrays.ent_center]
        other_tree = arrays.cl_indptr[(arrays.ent_center + 1) % arrays.n]
        poisons = {
            # another entry of the same tree: the next one, cyclically
            "same tree": lambda h: np.where(h >= 0, lo + (h - lo + 1) % size, h),
            "other tree": lambda h: np.where(h >= 0, other_tree, h),
            "-1": lambda h: np.full(E, -1, dtype=np.int64),
            "past E": lambda h: np.where(h >= 0, h + E, E),
        }
        for name, poison in poisons.items():
            bad = dataclasses.replace(
                arrays,
                ent_parent_epos=poison(arrays.ent_parent_epos).astype(np.int32),
                ent_heavy_epos=poison(arrays.ent_heavy_epos).astype(np.int32),
            )
            assert not np.array_equal(bad.ent_parent_epos, arrays.ent_parent_epos), name
            got = compile_on("native", lambda: compile_from_arrays(bad, ported))
            assert_compiled_equal(want, got, f"(hints poisoned: {name})")

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_port_past_the_row_is_refused(self, compile_on, kernel):
        graph = reference_graph("gnp", 300, 0).largest_component()
        ported = assign_ports(graph, "random", rng=0)
        arrays = build_arrays(graph, 3, ported=ported, rng=0)
        deg = np.diff(graph.indptr)
        child = arrays.ent_parent >= 0
        last = int(np.flatnonzero(child & (arrays.ent_member == graph.n - 1))[0])
        for e in (1, last):  # a row inside the step table, and the last row
            assert child[e]
            port = arrays.tr_parent_port.copy()
            port[e] = deg[arrays.ent_member[e]] + 1
            bad = dataclasses.replace(arrays, tr_parent_port=port)
            with pytest.raises(EncodingError, match=f"entry {e}: its parent port"):
                compile_on(kernel, lambda: compile_from_arrays(bad, ported))
        port = arrays.tr_heavy_port.copy()
        port[3] = -1
        bad = dataclasses.replace(arrays, tr_heavy_port=port)
        with pytest.raises(EncodingError, match="entry 3: its heavy port"):
            compile_on(kernel, lambda: compile_from_arrays(bad, ported))

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_keys_out_of_order_or_range_are_refused(self, compile_on, kernel):
        # An entry's key is its tree times n plus its member (derived,
        # never carried): the keys strictly ascend in [0, n*n) exactly
        # when every slice's members strictly ascend in [0, n), so the
        # compile refuses a key fault in either half as a member fault.
        graph = family_from_seed(4, "gnp", n=60)
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 2, ported=ported, rng=4)
        n, E = graph.n, arrays.entry_count
        first = int(arrays.cl_indptr[1])  # the second tree's first entry
        assert first > 8  # entries 7 and 8 share the first tree
        assert arrays.ent_member[first] < arrays.ent_member[first - 1]
        order, outside = "its member does not strictly ascend", r"its member lies outside \[0, n\)"
        swapped = arrays.ent_member.copy()
        swapped[[7, 8]] = swapped[[8, 7]]
        past = arrays.ent_member.copy()
        past[-1] = n
        negative = arrays.ent_member.copy()
        negative[0] = -1
        cases = [
            (dict(ent_member=swapped), 8, order),
            (dict(ent_member=past), E - 1, outside),
            (dict(ent_member=negative), 0, outside),
        ]
        # the tree half: the first tree's end moved one entry either way,
        # so one entry's key lands in its neighbour tree
        for shift in (1, -1):
            cl_indptr = arrays.cl_indptr.copy()
            cl_indptr[1] += shift
            cases.append((dict(cl_indptr=cl_indptr), first, order))
        for change, entry, fault in cases:
            bad = dataclasses.replace(arrays, **change)
            with pytest.raises(EncodingError, match=f"entry {entry}: {fault}"):
                compile_on(kernel, lambda: compile_from_arrays(bad, ported))

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_member_off_its_key_is_refused(self, compile_on, kernel):
        # The member is its key's low half, so a member moved off its
        # place in the ascending slice is refused at the first entry out
        # of order, and one moved out of [0, n) at itself.  (One moved to
        # a free vertex between its neighbours names another entry of the
        # tree: nothing in the layout tells it from a true one.)
        graph = family_from_seed(4, "gnp", n=60)
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 2, ported=ported, rng=4)
        n = graph.n
        assert arrays.cl_indptr[1] > 6  # entries 4, 5 and 6 share the first tree
        member = arrays.ent_member
        order, outside = "its member does not strictly ascend", r"its member lies outside \[0, n\)"
        cases = (
            (member[6], 6, order),  # onto its successor's
            (member[4], 5, order),  # onto its predecessor's
            (n, 5, outside),
            (-1, 5, outside),
        )
        for moved, entry, fault in cases:
            bad_member = member.copy()
            bad_member[5] = moved
            bad = dataclasses.replace(arrays, ent_member=bad_member)
            with pytest.raises(EncodingError, match=f"entry {entry}: {fault}"):
                compile_on(kernel, lambda: compile_from_arrays(bad, ported))

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_two_faults_are_refused(self, compile_on, kernel):
        # Only the refusal is pinned: numpy checks every member's range
        # before any order, the C pass meets the order fault in the
        # first tree first.
        graph = family_from_seed(4, "gnp", n=60)
        ported = assign_ports(graph, "sorted")
        arrays = build_arrays(graph, 2, ported=ported, rng=4)
        E = arrays.entry_count
        assert arrays.cl_indptr[1] > 5 and arrays.cl_indptr[-2] < E - 1
        member = arrays.ent_member.copy()
        member[5] = member[4]
        member[-1] = graph.n
        bad = dataclasses.replace(arrays, ent_member=member)
        faults = f"entry (5: its member does not strictly ascend|{E - 1}: its member lies outside)"
        with pytest.raises(EncodingError, match=faults):
            compile_on(kernel, lambda: compile_from_arrays(bad, ported))

    @needs_native
    def test_compile_records_span(self, tmp_path, veto_native):
        graph = family_from_seed(9, "gnp", n=40)
        ported = assign_ports(graph, "sorted")
        u, v = (int(x) for x in graph.edges[0])
        delta = GraphDelta(weight_updates=((u, v, float(graph.edge_weights[0] + 1)),))

        def churn(store):
            stored = store.get_or_build(graph, 3, seed=9, ported=ported)
            patched = patch_arrays(stored.arrays, graph, delta, ported=ported)
            store.publish_patch(
                store.publish(graph, ported, stored.arrays, seed=9),
                patched.graph,
                patched.ported,
                patched.arrays,
                delta=delta,
                seed=9,
            )

        for impl in ("native", "numpy"):
            store = SchemeStore(tmp_path / impl)
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                if impl == "numpy":
                    veto_native(lambda: churn(store))
                else:
                    churn(store)
                passes = [
                    [c for c in sp.children if c.name == "kernel.compile_records"]
                    for sp, _ in TELEMETRY.spans()
                    if sp.name == "engine.compile"
                ]
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
            # the build's compile, the root publish's and the patch's
            assert len(passes) == 3, impl
            for kids in passes:
                assert len(kids) == 1, impl
                assert kids[0].attrs["impl"] == impl
                assert kids[0].attrs["entries"] >= 1


# ----------------------------------------------------------------------
# 3d. Pool ranges: the build passes cut into 1–4 ranges
# ----------------------------------------------------------------------
def assert_tree_pass_in_ranges(graph, ported, slices, context):
    """The native tree pass in 1–4 pool ranges ≡ the numpy pass over the
    same ``(cl_indptr, member, dist)``, dtypes included."""
    want = _cluster_trees(graph, ported, *slices, "numpy")
    dtypes = dict(COLUMN_DTYPES, lp_data=light_port_dtype(graph.indptr))
    for parts in (1, 2, 3, 4):
        with in_ranges(parts):
            got = cluster_trees_native(graph, ported, *slices)
        assert sorted(got) == sorted(want)
        for name, col in want.items():
            assert got[name].dtype == dtypes[name], name
            assert np.array_equal(col, got[name]), f"{name} in {parts} ranges {context}"


def level_centers(hierarchy, i):
    """Centers of hierarchy level ``i`` (empty when the level has none)."""
    lvl = hierarchy.levels[i]
    return np.asarray(lvl[hierarchy.level_of[lvl] == i], dtype=np.int64)


@contextlib.contextmanager
def in_ranges(parts):
    """Inside, the build and compile passes cut ``parts`` ranges
    whatever the pool's real size: they read the count from
    :func:`repro.pool.size`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "size", lambda: parts)
        yield


@needs_native
class TestPoolRanges:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", REFERENCE_FAMILIES)
    def test_every_column_across_range_counts(self, family, k):
        graph = reference_graph(family, 150, k).largest_component()
        ported = assign_ports(graph, "random", rng=derive(k, "ranges"))
        hierarchy = build_hierarchy(graph, k, make_rng(k))
        context = f"(family={family} k={k})"
        for i in range(k):
            centers = level_centers(hierarchy, i)
            if centers.size == 0:
                continue
            thr = hierarchy.dist[i + 1]
            want = _pruned_level(graph, centers, thr)
            for parts in (1, 2, 3, 4):
                with in_ranges(parts):
                    got = frontier_sweep_native(graph, centers, thr)
                for a, b in zip(want, got):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (
                        f"level {i} sweep in {parts} ranges {context}"
                    )
        everyone = np.arange(graph.n, dtype=np.int64)
        slices = _grow_clusters(graph, hierarchy, everyone, "numpy")
        assert 1 < len(slice_ranges(slices[0], 4)) <= 4  # the passes below are cut
        assert_tree_pass_in_ranges(graph, ported, slices, context)

        arrays = vectorized_arrays(graph, ported, hierarchy)
        cs = compile_from_arrays(arrays, ported)
        inputs = record_inputs(arrays) + (cs.g_indptr, cs.step)
        words = _ent_records(*inputs, "numpy", light_of(arrays)).view(np.int64)
        for parts in (1, 2, 3, 4):
            out = np.empty(arrays.entry_count, dtype=compile_mod.ENT_DTYPE)
            with in_ranges(parts):
                got = compile_records_native(*inputs, out, light_of(arrays))
            assert got.dtype == compile_mod.ENT_DTYPE
            assert np.array_equal(got.view(np.int64), words), f"records in {parts} ranges"

    def test_sweep_counters_are_the_one_range_counts(self):
        graph = reference_graph("gnp", 400, 2).largest_component()
        hierarchy = build_hierarchy(graph, 3, make_rng(2))
        centers, thr = level_centers(hierarchy, 0), hierarchy.dist[1]
        counts = {}
        for parts in (1, 3):
            TELEMETRY.reset()
            TELEMETRY.enable()
            try:
                with in_ranges(parts):
                    frontier_sweep_native(graph, centers, thr)
                counts[parts] = (
                    TELEMETRY.counters["build.frontier_settled"],
                    TELEMETRY.counters["build.relaxed_arcs"],
                )
            finally:
                TELEMETRY.disable()
                TELEMETRY.reset()
        assert counts[1] == counts[3]
        assert counts[1][0] > centers.size

    def test_ranges_end_where_the_tree_id_grows(self):
        # tree slices with empty blocks between them, as a patch's
        # rebuild has them: only its dirty centers hold entries
        cl_indptr = np.array([0, 0, 0, 3, 5, 5, 5, 10, 10, 10, 11], dtype=np.int64)
        ends = set(cl_indptr.tolist())
        for parts in (1, 2, 3, 4):
            ranges = slice_ranges(cl_indptr, parts)
            assert 1 <= len(ranges) <= parts
            assert ranges[0][0] == 0 and ranges[-1][1] == 11
            for (lo, hi), (nxt, _) in zip(ranges, ranges[1:]):
                assert lo < hi == nxt and hi in ends
        assert slice_ranges(cl_indptr, 1) == [(0, 11)]
        assert slice_ranges(np.zeros(5, dtype=np.int64), 4) == [(0, 0)]

    @pytest.mark.parametrize("family", ["gnp", "grid"])
    def test_tree_pass_on_a_patchs_slices(self, family):
        """The clusters of some centers only, every other tree slice
        empty: the shape a patch's rebuild hands the tree pass."""
        graph = reference_graph(family, 150, 3).largest_component()
        ported = assign_ports(graph, "random", rng=derive(3, "patch shape"))
        hierarchy = build_hierarchy(graph, 3, make_rng(3))
        dirty = np.flatnonzero(np.arange(graph.n) % 3 == 1).astype(np.int64)
        slices = _grow_clusters(graph, hierarchy, dirty, "numpy")
        sizes = np.diff(slices[0])
        assert (sizes[dirty] > 0).all() and (sizes == 0).sum() == graph.n - dirty.size
        assert_tree_pass_in_ranges(graph, ported, slices, f"({family} patch shape)")


@pytest.mark.parametrize("kernel", BOTH_KERNELS)
def test_a_refusal_in_a_later_range_names_its_global_entry(kernel):
    graph = reference_graph("gnp", 200, 4).largest_component()
    ported = assign_ports(graph, "random", rng=4)
    arrays = build_arrays(graph, 3, ported=ported, rng=4)
    cs = compile_from_arrays(arrays, ported)
    tree_indptr, record, ports, hints = record_inputs(arrays)
    ranges = slice_ranges(tree_indptr, 3)
    assert len(ranges) == 3
    e = ranges[2][0] + 5
    # e - 1 lies in e's tree, so repeating its member is an order fault
    assert tree_indptr[np.searchsorted(tree_indptr, e, side="right") - 1] < e
    deg = np.diff(graph.indptr)[record["vertex"][e]]
    member = record["vertex"].copy()
    member[e] = member[e - 1]
    heavy = ports[1].copy()
    heavy[e] = deg + 1
    cases = {
        "its member does not strictly ascend": (dict(record, vertex=member), ports),
        "its heavy port": (record, (ports[0], heavy)),
    }
    for fault, (rec, prt) in cases.items():
        args = (tree_indptr, rec, prt, hints, cs.g_indptr, cs.step)
        with pytest.raises(EncodingError, match=f"entry {e}: {fault}"):
            if kernel == "numpy":
                _ent_records(*args, "numpy", light_of(arrays))
            else:
                out = np.empty(arrays.entry_count, dtype=compile_mod.ENT_DTYPE)
                with in_ranges(3):
                    compile_records_native(*args, out, light_of(arrays))


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
            scheme = scheme_on(graph, k, ported, 0, kernel)
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
        arrays = arrays_on(graph, 2, ported, 0, kernel)
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
            arrays_on(graph, 2, ported, 6, kernel)

    def test_fractional_weights_fall_back_loudly(self, kernel):
        base = family_from_seed(6, "gnp", n=24, weights=None)
        rng = make_rng(derive(6, "frac"))
        graph = Graph(base.n, base.edges, rng.uniform(0.1, 1.0, base.m))
        ported = assign_ports(graph, "sorted")
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with pytest.warns(KernelFallbackWarning, match="not float64-exact"):
                arrays = arrays_on(graph, 2, ported, 6, kernel)
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
            ref = arrays_on(graph, 2, ported, 8, "numpy")
        with pytest.warns(KernelFallbackWarning, match="not float64-exact"):
            got = arrays_on(graph, 2, ported, 8, kernel)
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(ref, name), getattr(got, name)), name
