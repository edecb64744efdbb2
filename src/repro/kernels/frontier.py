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
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from .. import pool
from ..obs import TELEMETRY
from . import _build

__all__ = ["frontier_sweep_native"]


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
    lib = _build.load()
    if lib is None:  # pragma: no cover - callers resolve the kernel first
        raise RuntimeError(f"native kernels unavailable: {_build.native_error()}")
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
        [(n * i // workers, n * (i + 1) // workers) for i in range(workers)],
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

    swept = pool.run(
        sweep, [(count * i // parts, count * (i + 1) // parts) for i in range(parts)]
    )
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
