"""Native compiled kernels vs their numpy references: the speedup gates.

On a 20k-node G(n, p) graph, for a 100k-pair uniform matrix:

* the native tree commit (``tz_commit``) must run **≥ 7×** faster than
  the numpy ``BatchRouter._commit``;
* the native hop loop must advance the committed matrix **≥ 5×**
  faster than the numpy synchronized hop loop;
* the native frontier sweep must run a pruned cluster level **≥ 5×**
  faster than the numpy label-correcting sweep;
* the native cluster-tree pass (``tz_cluster_trees``) must compute the
  SPT parents, heavy-light records and light ports of the k=2 scheme's
  entries **≥ 4×** faster than the numpy ``_level_parents`` +
  ``_tree_arrays`` stages;
* the native compile pass (``tz_compile_records``) must write the k=2
  scheme's entry records **≥ 5×** faster than the numpy
  ``_resolve_ports`` + ``_link_entries`` resolution, and **≥ 1.35×**
  faster given the build's own entry links as hints than when it
  searches every link's tree slice;
* on the worker pool (:mod:`repro.pool`) the frontier sweep of every
  level of the k=2 scheme plus its cluster-tree pass must run
  **≥ 1.4×** faster than on one worker.  With fewer than
  two usable CPUs there is nothing to gate: the gate prints why and
  skips.

Every pair is cross-checked for bit-for-bit agreement before any clock
is trusted (the same differential contract ``tests/test_kernels.py``
enforces at property-test scale), and the measured numbers land in
``BENCH_kernels.json``, together with the end-to-end ``route_pairs``
time of both kernels (the native one on the pool, one row chunk per
pool worker).

Every kernel gate times one phase with its native side on one thread
(the build and compile passes cut into one range, see
:func:`on_one_worker`), so each ratio is one kernel against its own
reference; the pool gate alone measures the workers.  The hop loop mutates
its ``fail`` column in place, so each repeat hands it a fresh copy of
the committed state (a few MB — noise next to the loop itself).

Skips cleanly when the native backend cannot build (no C toolchain, or
``REPRO_NATIVE_KERNELS=0``) — the numpy path is then the only path and
there is nothing to gate.

``REPRO_BENCH_SCALE=full`` doubles n; runs in tens of seconds otherwise.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from _emit import emit
from conftest import best_of_interleaved

from repro.core.build import build_scheme
from repro.core.build.vectorized import _cluster_trees, _pruned_level
from repro.core.landmarks import build_hierarchy
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro import pool
from repro.kernels import available, native_error
from repro.kernels.frontier import frontier_sweep_native
from repro.kernels.records import compile_records_native
from repro.kernels.trees import cluster_trees_native
from repro.rng import make_rng
from repro.sim.engine import BatchRouter, batch
from repro.sim.engine.compile import ARRAYS_IN_RECORD, ENT_DTYPE, _ent_records
from repro.sim.workloads import uniform_pairs

pytestmark = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

HOP_SPEEDUP_FLOOR = 5.0
FRONTIER_SPEEDUP_FLOOR = 5.0
#: Measured 14.4× and 15.8× in two runs (best of 5, on a 2-CPU x86-64
#: container); the floor keeps about half of that, the margin the hop
#: gate's 5× keeps of its measured ~10×.
COMMIT_SPEEDUP_FLOOR = 7.0
#: Measured 7.7× and 7.5× (best of 3, one thread, 2-CPU x86-64
#: container); the floor keeps about half of it, as the commit gate does.
TREE_PASS_SPEEDUP_FLOOR = 4.0
#: Measured 12.9×, 11.5× and 10.7× (best of 5, one thread, 2-CPU x86-64
#: container); the floor keeps about half of the lowest.
COMPILE_SPEEDUP_FLOOR = 5.0
#: The entry-link hints' worth, native with hints over native without.
#: Measured 1.87×, 1.74× and 1.95× (best of 5, one thread, 2-CPU x86-64
#: container); the floor keeps about half of the lowest margin over 1×.
HINT_SPEEDUP_FLOOR = 1.35
#: Sweep plus tree pass on every pool worker over one worker.  Measured
#: 2.12×, 1.98× and 1.85× on 2 workers (best of 3, 2-CPU x86-64
#: container); the floor keeps about half of the lowest margin over 1×,
#: as the hint gate does.
POOL_SPEEDUP_FLOOR = 1.4
N_PAIRS = 100_000


def on_one_worker(fn, *args):
    """``fn(*args)`` with the build and compile passes cut into one range,
    which runs on this thread: they read the range count from
    :func:`repro.pool.size`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "size", lambda: 1)
        return fn(*args)


@pytest.fixture(scope="module")
def setup():
    n = 40_000 if os.environ.get("REPRO_BENCH_SCALE") == "full" else 20_000
    graph = gen.gnp(n, 8.0 / n, rng=2026, weights=(1, 8)).largest_component()
    ported = assign_ports(graph, "random", rng=7)
    return graph, ported


def test_kernels_speedup(setup):
    graph, ported = setup

    # ---- hop loop: route the same matrix on both kernels -------------
    scheme = build_scheme(graph, 2, ported=ported, rng=11)
    pairs = uniform_pairs(graph, N_PAIRS, rng=3)
    routers = {
        kern: BatchRouter(ported, scheme, kernel=kern)
        for kern in ("numpy", "native")
    }

    # Cross-check before trusting the clock: bit-for-bit on the matrix,
    # the commit state column by column and every route result column.
    src = np.ascontiguousarray(pairs[:, 0], dtype=np.int64)
    dst = np.ascontiguousarray(pairs[:, 1], dtype=np.int64)
    one_chunk = [(0, N_PAIRS)]
    state = routers["numpy"]._commit(src, dst)
    for want, got in zip(state, routers["native"]._commit_rows(src, dst, one_chunk)):
        assert want.dtype == got.dtype and np.array_equal(want, got)
    ref = routers["numpy"].route_pairs(pairs)
    nat = routers["native"].route_pairs(pairs)
    for name in ("delivered", "weight", "hops", "tree", "max_header_bits", "failure_code"):
        assert np.array_equal(getattr(ref, name), getattr(nat, name)), name

    t_commit_numpy, t_commit_native = best_of_interleaved(
        lambda: routers["numpy"]._commit(src, dst),
        lambda: routers["native"]._commit_rows(src, dst, one_chunk),
        repeats=5,
    )
    commit_speedup = t_commit_numpy / t_commit_native

    # The hop loop owns its state tuple (fail is mutated in place), so
    # each repeat hands it a fresh copy.

    def hop(kern):
        return routers[kern]._hop_loop(
            src, dst, tuple(a.copy() for a in state), None, None, None
        )

    t_numpy, t_native = best_of_interleaved(
        lambda: hop("numpy"), lambda: hop("native"), repeats=3
    )
    hop_speedup = t_numpy / t_native

    # End to end: commit + hop loop, the native kernel on its threads.
    t_route_numpy, t_route_native = best_of_interleaved(
        lambda: routers["numpy"].route_pairs(pairs),
        lambda: routers["native"].route_pairs(pairs),
        repeats=3,
    )
    threads = len(batch._row_chunks(N_PAIRS))

    # ---- frontier sweep: the largest thresholded cluster level -------
    hierarchy = build_hierarchy(graph, 3, make_rng(13))
    level, centers, thr = None, None, None
    for i in range(hierarchy.k):
        lvl = hierarchy.levels[i]
        cand = np.asarray(lvl[hierarchy.level_of[lvl] == i], dtype=np.int64)
        t = hierarchy.dist[i + 1]
        if cand.size and not np.all(np.isinf(t)):
            if centers is None or cand.size > centers.size:
                level, centers, thr = i, cand, t
    assert centers is not None, "hierarchy has no thresholded level to sweep"

    keys_ref, dist_ref = _pruned_level(graph, centers, thr)
    keys_nat, dist_nat = frontier_sweep_native(graph, centers, thr)
    assert np.array_equal(keys_ref, keys_nat)
    assert np.array_equal(dist_ref, dist_nat)

    t_sweep_numpy, t_sweep_native = best_of_interleaved(
        lambda: _pruned_level(graph, centers, thr),
        lambda: on_one_worker(frontier_sweep_native, graph, centers, thr),
        repeats=5,
    )
    frontier_speedup = t_sweep_numpy / t_sweep_native

    # ---- cluster-tree pass: every entry of the k=2 scheme ------------
    keys, dist = scheme.arrays.entry_keys, scheme.arrays.ent_dist
    tree_ref = _cluster_trees(graph, ported, keys, dist, "numpy")
    tree_nat = _cluster_trees(graph, ported, keys, dist, "native")
    assert sorted(tree_ref) == sorted(tree_nat)
    for name, want in tree_ref.items():
        assert np.array_equal(want, tree_nat[name]), name

    t_tree_numpy, t_tree_native = best_of_interleaved(
        lambda: _cluster_trees(graph, ported, keys, dist, "numpy"),
        lambda: on_one_worker(cluster_trees_native, graph, ported, keys, dist),
        repeats=3,
    )
    tree_speedup = t_tree_numpy / t_tree_native

    # ---- compile pass: every entry record of the k=2 scheme ----------
    arrays, compiled = scheme.arrays, routers["native"].compiled
    record_args = (
        arrays.entry_keys,
        {name: getattr(arrays, col) for col, name in ARRAYS_IN_RECORD.items()},
        (arrays.tr_parent_port, arrays.tr_heavy_port),
        (arrays.ent_parent_epos, arrays.ent_heavy_epos),
        compiled.g_indptr,
        compiled.step,
    )
    # Byte for byte: 13 int64 words per record, the weights' bits included.
    words = _ent_records(*record_args, "numpy").view(np.int64)
    assert np.array_equal(words, _ent_records(*record_args, "native").view(np.int64))
    assert np.array_equal(words, compiled.ent.view(np.int64))
    del words

    def one_worker_records(args):
        out = np.empty(args[0].shape[0], dtype=ENT_DTYPE)
        return on_one_worker(compile_records_native, *args, out)

    t_compile_numpy, t_compile_native = best_of_interleaved(
        lambda: _ent_records(*record_args, "numpy"),
        lambda: one_worker_records(record_args),
        repeats=5,
    )
    compile_speedup = t_compile_numpy / t_compile_native

    # The hints' worth: without them every link searches its tree's slice.
    bare_args = record_args[:3] + (None,) + record_args[4:]
    bare = _ent_records(*bare_args, "native")
    assert np.array_equal(bare.view(np.int64), compiled.ent.view(np.int64))
    del bare
    t_hinted, t_bare = best_of_interleaved(
        lambda: one_worker_records(record_args),
        lambda: one_worker_records(bare_args),
        repeats=5,
    )
    hint_speedup = t_bare / t_hinted

    # ---- pool: the build passes on every worker vs on one ------------
    workers = pool.size()
    built = arrays.hierarchy
    levels = []
    for i in range(built.k):
        lvl = built.levels[i]
        cand = np.asarray(lvl[built.level_of[lvl] == i], dtype=np.int64)
        if cand.size:
            levels.append((cand, built.dist[i + 1]))

    def build_passes():
        for level_centers, level_thr in levels:
            frontier_sweep_native(graph, level_centers, level_thr)
        cluster_trees_native(graph, ported, keys, dist)

    pool_skip = None
    t_pool_one = t_pool_all = pool_speedup = None
    if workers < 2:
        pool_skip = f"pool gate skipped: {workers} usable CPU, it needs 2"
        print(f"\n{pool_skip}")
    else:
        t_pool_one, t_pool_all = best_of_interleaved(
            lambda: on_one_worker(build_passes), build_passes, repeats=3
        )
        pool_speedup = t_pool_one / t_pool_all

    print(
        f"\nkernels (n={graph.n}, m={graph.m}): commit {N_PAIRS:,} pairs "
        f"numpy {t_commit_numpy:.3f}s native {t_commit_native:.3f}s "
        f"({commit_speedup:.1f}x); hop loop "
        f"numpy {t_numpy:.3f}s native {t_native:.3f}s ({hop_speedup:.1f}x); "
        f"route_pairs numpy {t_route_numpy:.3f}s native {t_route_native:.3f}s "
        f"on {threads} thread(s); "
        f"frontier level={level} centers={centers.size:,} "
        f"numpy {t_sweep_numpy:.3f}s native {t_sweep_native:.3f}s "
        f"({frontier_speedup:.1f}x); tree pass {keys.shape[0]:,} entries "
        f"numpy {t_tree_numpy:.3f}s native {t_tree_native:.3f}s "
        f"({tree_speedup:.1f}x); compile records numpy {t_compile_numpy:.3f}s "
        f"native {t_compile_native:.3f}s ({compile_speedup:.1f}x), "
        f"hinted {t_hinted:.3f}s hint-less {t_bare:.3f}s ({hint_speedup:.2f}x); "
        + (
            pool_skip
            if pool_skip
            else f"sweep + tree pass on {workers} workers {t_pool_all:.3f}s, "
            f"on one {t_pool_one:.3f}s ({pool_speedup:.2f}x)"
        )
    )

    out = emit(
        "kernels",
        params={
            "n": graph.n,
            "m": graph.m,
            "pairs": N_PAIRS,
            "frontier_level": level,
            "frontier_centers": int(centers.size),
            "tree_pass_entries": int(keys.shape[0]),
            "pool_workers": workers,
        },
        metrics={
            "commit_numpy_seconds": round(t_commit_numpy, 4),
            "commit_native_seconds": round(t_commit_native, 4),
            "commit_speedup": round(commit_speedup, 1),
            "hop_numpy_seconds": round(t_numpy, 4),
            "hop_native_seconds": round(t_native, 4),
            "hop_speedup": round(hop_speedup, 1),
            "frontier_numpy_seconds": round(t_sweep_numpy, 4),
            "frontier_native_seconds": round(t_sweep_native, 4),
            "frontier_speedup": round(frontier_speedup, 1),
            "tree_pass_numpy_seconds": round(t_tree_numpy, 4),
            "tree_pass_native_seconds": round(t_tree_native, 4),
            "tree_pass_speedup": round(tree_speedup, 1),
            "compile_numpy_seconds": round(t_compile_numpy, 4),
            "compile_native_seconds": round(t_compile_native, 4),
            "compile_speedup": round(compile_speedup, 1),
            "compile_hinted_seconds": round(t_hinted, 4),
            "compile_hintless_seconds": round(t_bare, 4),
            "compile_hint_speedup": round(hint_speedup, 2),
            "pool_one_worker_seconds": None if pool_skip else round(t_pool_one, 4),
            "pool_all_workers_seconds": None if pool_skip else round(t_pool_all, 4),
            "pool_speedup": None if pool_skip else round(pool_speedup, 2),
            "route_pairs_numpy_seconds": round(t_route_numpy, 4),
            "route_pairs_native_seconds": round(t_route_native, 4),
            "route_pairs_native_threads": threads,
            "delivered": int(ref.delivered.sum()),
        },
        floors={
            "commit_speedup": COMMIT_SPEEDUP_FLOOR,
            "hop_speedup": HOP_SPEEDUP_FLOOR,
            "frontier_speedup": FRONTIER_SPEEDUP_FLOOR,
            "tree_pass_speedup": TREE_PASS_SPEEDUP_FLOOR,
            "compile_speedup": COMPILE_SPEEDUP_FLOOR,
            "compile_hint_speedup": HINT_SPEEDUP_FLOOR,
            "pool_speedup": POOL_SPEEDUP_FLOOR,
        },
    )
    print(f"wrote {out}")

    assert commit_speedup >= COMMIT_SPEEDUP_FLOOR, (
        f"tree-commit speedup {commit_speedup:.1f}x below the "
        f"{COMMIT_SPEEDUP_FLOOR}x floor"
    )
    assert hop_speedup >= HOP_SPEEDUP_FLOOR, (
        f"hop-loop speedup {hop_speedup:.1f}x below the "
        f"{HOP_SPEEDUP_FLOOR}x floor"
    )
    assert frontier_speedup >= FRONTIER_SPEEDUP_FLOOR, (
        f"frontier-sweep speedup {frontier_speedup:.1f}x below the "
        f"{FRONTIER_SPEEDUP_FLOOR}x floor"
    )
    assert tree_speedup >= TREE_PASS_SPEEDUP_FLOOR, (
        f"cluster-tree pass speedup {tree_speedup:.1f}x below the "
        f"{TREE_PASS_SPEEDUP_FLOOR}x floor"
    )
    assert compile_speedup >= COMPILE_SPEEDUP_FLOOR, (
        f"compile-records speedup {compile_speedup:.1f}x below the "
        f"{COMPILE_SPEEDUP_FLOOR}x floor"
    )
    assert hint_speedup >= HINT_SPEEDUP_FLOOR, (
        f"entry-link hints speed the compile pass {hint_speedup:.2f}x, below "
        f"the {HINT_SPEEDUP_FLOOR}x floor"
    )
    assert pool_skip or pool_speedup >= POOL_SPEEDUP_FLOOR, (
        f"sweep + tree pass run {pool_speedup:.2f}x faster on {workers} pool "
        f"workers than on one, below the {POOL_SPEEDUP_FLOOR}x floor"
    )
