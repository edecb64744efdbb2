"""ctypes wrappers for the native shortest-path passes.

Three passes keep scipy off the native path, each held to the scipy
code that stays as its numpy-kernel reference (``tests/test_native_sssp.py``):

* ``tz_multi_source`` — d(A, ·) and the witness of every vertex, one
  Dijkstra over (distance, source rank) labels: scipy's multi-source
  distances and the witnesses of ``CSRKernel._propagate_witnesses``, or
  of the heap reference where the weights are not float64-exact.
  :func:`multi_source_native` sweeps several source sets (a hierarchy's
  levels) at once on the pool.
* ``tz_pair_distances`` — the exact distance of every requested pair,
  one early-stopping Dijkstra per unique source on each worker's own
  n-long workspace: memory O(pool workers · n + pairs), no
  |sources| × n matrix.
* ``tz_components`` — a union-find over an edge list, optionally
  masked, numbering the components by their smallest vertex as scipy's
  ``connected_components`` does.  It runs on the caller's thread.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import pool
from ..obs import TELEMETRY
from . import _build

__all__ = ["components_native", "multi_source_native", "pair_distances_native"]

#: Return code of tz_multi_source and tz_pair_distances (SSSP_OOM).
_OOM = -1



def _arrays(csr):
    """A :class:`~repro.graphs.csr.CSRKernel`'s arrays as the C passes
    read them; a graph of 2^31 vertices or more is refused (a heap entry
    packs the vertex into 32 bits)."""
    if csr.n >= 2**31:
        raise ValueError(f"n={csr.n} does not fit the passes' 32-bit vertex ids")
    return (
        _build.column(csr.indptr, np.int64, "indptr"),
        _build.column(csr.indices, np.int64, "indices"),
        _build.column(csr.weights, np.float64, "weights"),
    )


def multi_source_native(
    csr, ranked_sets: Sequence[np.ndarray]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(dist, witness)`` of each source set.

    Each set holds distinct sources in rank order (sorted by
    ``(priority, id)``); ``witness[v]`` is the set's source of least
    ``(d(a, v), rank)``, -1 where no source reaches ``v``, and
    ``dist[v]`` is inf there.  Task ``j`` of ``min(sets, pool.size())``
    sweeps sets ``j``, ``j + tasks``, …, so a hierarchy's cheap level 0
    (every vertex a source) shares a worker with a costly level.  The
    pops and relaxed arcs of every sweep are counted on this thread.
    """
    lib = _build.require()
    n = int(csr.n)
    indptr, adj, wts = _arrays(csr)
    sets = [_build.column(s, np.int64, "sources") for s in ranked_sets]
    out: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(sets)
    tasks = max(1, min(len(sets), pool.size()))
    stats = np.zeros((tasks, 2), dtype=np.int64)

    def sweep(j: int) -> None:
        for i in range(j, len(sets), tasks):
            dist = np.empty(n, dtype=np.float64)
            witness = np.empty(n, dtype=np.int64)
            pops = np.zeros(2, dtype=np.int64)
            got = lib.tz_multi_source(
                n, indptr.ctypes.data, adj.ctypes.data, wts.ctypes.data,
                int(sets[i].shape[0]), sets[i].ctypes.data,
                dist.ctypes.data, witness.ctypes.data, pops.ctypes.data,
            )
            if got == _OOM:
                raise MemoryError("native multi-source sweep ran out of memory")
            out[i] = (dist, witness)
            stats[j] += pops

    pool.run(sweep, [(j,) for j in range(tasks)])
    tm = TELEMETRY
    if tm.enabled:
        pops, relaxed = stats.sum(axis=0).tolist()
        tm.count("csr.dijkstra_pops", pops)
        tm.count("csr.relaxed_arcs", relaxed)
    return out


def pair_distances_native(csr, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``d(src[j], dst[j])`` for every j (inf when unreachable).

    The pairs are grouped by source (one stable argsort); the unique
    sources are cut into one contiguous range per pool worker, and each
    range's call sweeps its sources one at a time on its own n-long
    workspace, writing only the requested cells.
    """
    lib = _build.require()
    n = int(csr.n)
    indptr, adj, wts = _arrays(csr)
    src = _build.column(src, np.int64, "src")
    dst = _build.column(dst, np.int64, "dst")
    sources, per_source = np.unique(src, return_counts=True)
    tgt_indptr = np.zeros(sources.shape[0] + 1, dtype=np.int64)
    np.cumsum(per_source, out=tgt_indptr[1:])
    order = np.argsort(src, kind="stable")
    targets = np.ascontiguousarray(dst[order])
    grouped = np.empty(targets.shape[0], dtype=np.float64)
    count = int(sources.shape[0])
    parts = max(1, min(count, pool.size()))

    def sweep(lo: int, hi: int):
        stats = np.zeros(2, dtype=np.int64)
        got = lib.tz_pair_distances(
            n, indptr.ctypes.data, adj.ctypes.data, wts.ctypes.data, lo, hi,
            sources.ctypes.data, tgt_indptr.ctypes.data, targets.ctypes.data,
            grouped.ctypes.data, stats.ctypes.data,
        )
        if got == _OOM:
            raise MemoryError("native pair-distance pass ran out of memory")
        return stats

    swept = pool.run(sweep, pool.even_ranges(count, parts))
    tm = TELEMETRY
    if tm.enabled:
        pops, relaxed = np.sum(swept, axis=0).tolist()
        tm.count("csr.dijkstra_pops", pops)
        tm.count("csr.relaxed_arcs", relaxed)
    out = np.empty_like(grouped)
    out[order] = grouped
    return out


def components_native(
    n: int, edges: np.ndarray, keep: Optional[np.ndarray] = None
) -> Tuple[int, np.ndarray]:
    """Component count and labels of the graph on ``[0, n)`` with the
    ``(m, 2)`` int64 ``edges`` (the rows ``keep`` marks, when given);
    each component is numbered by the rank of its smallest vertex."""
    lib = _build.require()
    edges = _build.column(edges, np.int64, "edges")
    m = int(edges.shape[0])
    if keep is not None:
        keep = _build.column(keep, np.bool_, "keep")
        if keep.shape != (m,):
            raise ValueError(f"keep must have shape ({m},), got {keep.shape}")
    labels = np.empty(n, dtype=np.int64)
    count = lib.tz_components(
        n, m, edges.ctypes.data, None if keep is None else keep.ctypes.data,
        labels.ctypes.data,
    )
    return int(count), labels
