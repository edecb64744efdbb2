"""ctypes wrapper for the native builder frontier sweep.

``tz_frontier_sweep`` runs a threshold-pruned FIFO label-correcting
pass (SPFA-style, over adjacency pre-sorted by a conservative relax
bound) per center on an epoch-stamped shared workspace and emits the
same globally key-sorted ``(center * n + vertex, distance)`` state the
numpy label-correcting sweep in ``core/build/vectorized.py`` converges
to — bit-for-bit, since IEEE addition of the builder's positive weights
is monotone, so every convergent relaxation schedule reaches the
identical least fixpoint (``tests/test_kernels.py`` holds the resulting
:class:`SchemeArrays` to bitwise equality).

Both stages run on the worker pool (:mod:`repro.pool`): ``tz_frontier_arcs``
fills the level's one lim-sorted arc copy by vertex ranges, then
``tz_frontier_sweep`` sweeps one contiguous range of the sorted centers
per worker, each on its own per-vertex state, and the ranges' entries
are copied out in center order, so the keys stay sorted.

``tz_repair_fields`` is the patch's alternative for a full (top-level)
tree after a weight-only delta: it rewrites the tree's stored field
into the new one, marking the vertices an increase leaves without
support and settling them, and whatever a decrease lowers, with a heap
Dijkstra (Ramalingam–Reps).  Its fields equal the sweep's on the new
graph bit for bit (``tests/test_repair.py``); a tree costs its copy
plus what the delta moves.
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from .. import pool
from ..obs import TELEMETRY
from . import _build

__all__ = ["frontier_sweep_native", "repair_fields_native"]


def frontier_sweep_native(
    graph, centers: np.ndarray, thr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster keys and distances of one hierarchy level, natively.

    Drop-in replacement for ``vectorized._pruned_level``: returns the
    sorted ``(keys, dist)`` entry state for ``centers`` under the strict
    per-vertex thresholds ``thr``, swept in one center range per pool
    worker (:func:`repro.pool.size`); the entries do not depend on the
    ranges.  The work counters are summed and recorded on this thread.
    """
    lib = _build.require()
    centers = np.sort(np.ascontiguousarray(centers, dtype=np.int64))
    count = int(centers.shape[0])
    if count == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    n = int(graph.n)
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    adj = np.ascontiguousarray(graph.adj, dtype=np.int64)
    wts = np.ascontiguousarray(graph.adj_weights, dtype=np.float64)
    thr = np.ascontiguousarray(thr, dtype=np.float64)
    workers = pool.size()
    # One (lim, head, weight) row of 24 bytes per arc: parc in _native.c.
    arcs = np.empty((max(int(indptr[-1]), 1), 3), dtype=np.float64)
    pool.run(
        lambda lo, hi: lib.tz_frontier_arcs(
            lo, hi, indptr.ctypes.data, adj.ctypes.data, wts.ctypes.data,
            thr.ctypes.data, arcs.ctypes.data,
        ),
        pool.even_ranges(n, workers),
    )
    parts = min(count, workers)

    def sweep(lo: int, hi: int):
        keys_ptr = ctypes.c_void_p()
        dist_ptr = ctypes.c_void_p()
        stats = np.zeros(2, dtype=np.int64)
        found = lib.tz_frontier_sweep(
            n,
            indptr.ctypes.data,
            arcs.ctypes.data,
            hi - lo,
            centers.ctypes.data + 8 * lo,
            thr.ctypes.data,
            ctypes.byref(keys_ptr),
            ctypes.byref(dist_ptr),
            stats.ctypes.data,
        )
        return int(found), keys_ptr, dist_ptr, stats

    swept = pool.run(sweep, pool.even_ranges(count, parts))
    try:
        if any(found < 0 for found, *_ in swept):
            raise MemoryError("native frontier sweep ran out of memory")
        total = sum(found for found, *_ in swept)
        keys = np.empty(total, dtype=np.int64)
        dist = np.empty(total, dtype=np.float64)
        at = 0
        for found, keys_ptr, dist_ptr, _ in swept:
            if found:
                ctypes.memmove(keys.ctypes.data + 8 * at, keys_ptr.value, found * 8)
                ctypes.memmove(dist.ctypes.data + 8 * at, dist_ptr.value, found * 8)
            at += found
    finally:
        for _, keys_ptr, dist_ptr, _ in swept:
            for ptr in (keys_ptr, dist_ptr):
                if ptr.value:
                    lib.tz_free(ptr)
    tm = TELEMETRY
    if tm.enabled:
        settled, relaxed = np.sum([stats for *_, stats in swept], axis=0).tolist()
        tm.count("build.frontier_settled", settled)
        tm.count("build.relaxed_arcs", relaxed)
    return keys, dist


def repair_fields_native(
    graph,
    updates: Tuple[np.ndarray, np.ndarray, np.ndarray],
    old_dist: np.ndarray,
    old_at: np.ndarray,
    out: np.ndarray,
    new_at: np.ndarray,
) -> Tuple[int, int]:
    """Write the new field of every full tree ``t`` of a weight-only
    delta into ``out[new_at[t] : new_at[t] + n]``, repaired from its
    stored field ``old_dist[old_at[t] : old_at[t] + n]``.

    ``graph`` is the new graph and ``updates`` is ``(endpoints, w_old,
    w_new)``: the ``(U, 2)`` int64 endpoints of each updated edge and its
    float64 weights before and after.  Every stored field must be exact
    (a patch requires float64-exact weights).  The trees are cut into one
    range per pool worker.  Returns ``(marked, settled)``: the vertices
    the increases left without support, and those the repair settled
    again (each marked one it reached and each one a decrease lowered).
    """
    lib = _build.require()
    n = int(graph.n)
    if n >= 2**31:
        raise ValueError(f"n={n} does not fit the pass's 32-bit vertex ids")
    indptr = _build.column(graph.indptr, np.int64, "indptr")
    adj = _build.column(graph.adj, np.int64, "adj")
    wts = _build.column(graph.adj_weights, np.float64, "weights")
    ends, w_old, w_new = updates
    ends = _build.column(ends, np.int64, "endpoints")
    w_old = _build.column(w_old, np.float64, "w_old")
    w_new = _build.column(w_new, np.float64, "w_new")
    old_dist = _build.column(old_dist, np.float64, "old_dist")
    old_at = _build.column(old_at, np.int64, "old_at")
    new_at = _build.column(new_at, np.int64, "new_at")
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a contiguous float64 column")
    count = int(old_at.shape[0])
    if new_at.shape[0] != count or ends.shape != (w_old.shape[0], 2) or (
        w_new.shape != w_old.shape
    ):
        raise ValueError("tree offsets or updates of mismatched lengths")
    for at, col in ((old_at, old_dist), (new_at, out)):
        if count and (at.min() < 0 or at.max() + n > col.shape[0]):
            raise ValueError("a tree's field lies outside its column")
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise ValueError("an updated edge's endpoint lies outside the graph")
    if count == 0:
        return 0, 0

    def repair(lo: int, hi: int):
        stats = np.zeros(2, dtype=np.int64)
        got = lib.tz_repair_fields(
            n, indptr.ctypes.data, adj.ctypes.data, wts.ctypes.data,
            int(w_old.shape[0]), ends.ctypes.data, w_old.ctypes.data, w_new.ctypes.data,
            lo, hi, old_dist.ctypes.data, old_at.ctypes.data,
            out.ctypes.data, new_at.ctypes.data, stats.ctypes.data,
        )
        if got < 0:
            raise MemoryError("native field repair ran out of memory")
        return stats

    stats = np.sum(pool.run(repair, pool.even_ranges(count, min(count, pool.size()))), axis=0)
    marked, settled = stats.tolist()
    return marked, settled
