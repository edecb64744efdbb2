"""Native compiled kernels vs their numpy references: the speedup gates.

On a 20k-node G(n, p) graph, for a 100k-pair uniform matrix:

* the native tree commit (``tz_commit``) must run **≥ 7×** faster than
  the numpy ``BatchRouter._commit``;
* the native hop loop must advance the committed matrix **≥ 5×**
  faster than the numpy synchronized hop loop;
* the native frontier sweep must run a pruned cluster level **≥ 5×**
  faster than the numpy label-correcting sweep.

Every pair is cross-checked for bit-for-bit agreement before any clock
is trusted (the same differential contract ``tests/test_kernels.py``
enforces at property-test scale), and the measured numbers land in
``BENCH_kernels.json``, together with the end-to-end ``route_pairs``
time of both kernels (the native one threaded over one row chunk per
usable CPU).

The commit and hop gates time one phase each, on one thread, so each
ratio is one kernel against its own reference.  The hop loop mutates
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
from repro.core.build.vectorized import _pruned_level
from repro.core.landmarks import build_hierarchy
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro.kernels import available, native_error
from repro.kernels.frontier import frontier_sweep_native
from repro.rng import make_rng
from repro.sim.engine import BatchRouter, batch
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
N_PAIRS = 100_000


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
        lambda: frontier_sweep_native(graph, centers, thr),
        repeats=5,
    )
    frontier_speedup = t_sweep_numpy / t_sweep_native

    print(
        f"\nkernels (n={graph.n}, m={graph.m}): commit {N_PAIRS:,} pairs "
        f"numpy {t_commit_numpy:.3f}s native {t_commit_native:.3f}s "
        f"({commit_speedup:.1f}x); hop loop "
        f"numpy {t_numpy:.3f}s native {t_native:.3f}s ({hop_speedup:.1f}x); "
        f"route_pairs numpy {t_route_numpy:.3f}s native {t_route_native:.3f}s "
        f"on {threads} thread(s); "
        f"frontier level={level} centers={centers.size:,} "
        f"numpy {t_sweep_numpy:.3f}s native {t_sweep_native:.3f}s "
        f"({frontier_speedup:.1f}x)"
    )

    out = emit(
        "kernels",
        params={
            "n": graph.n,
            "m": graph.m,
            "pairs": N_PAIRS,
            "frontier_level": level,
            "frontier_centers": int(centers.size),
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
            "route_pairs_numpy_seconds": round(t_route_numpy, 4),
            "route_pairs_native_seconds": round(t_route_native, 4),
            "route_pairs_native_threads": threads,
            "delivered": int(ref.delivered.sum()),
        },
        floors={
            "commit_speedup": COMMIT_SPEEDUP_FLOOR,
            "hop_speedup": HOP_SPEEDUP_FLOOR,
            "frontier_speedup": FRONTIER_SPEEDUP_FLOOR,
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
