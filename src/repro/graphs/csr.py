"""CSR shortest-path kernel — the array-backed engine behind the package.

:class:`CSRKernel` freezes a graph into three contiguous numpy arrays
(``indptr``, ``indices``, ``weights``) and provides every shortest-path
primitive the Thorup–Zwick pipeline is built on:

* :meth:`CSRKernel.sssp` — heap-based single-source Dijkstra over the raw
  CSR arrays, with the package's deterministic ``(dist, id)`` tie-break
  (the pure-Python reference path; also used for early-stop queries).
* :meth:`CSRKernel.sssp_batch` — batched single-source runs from a whole
  vertex set in one ``scipy.sparse.csgraph`` call (one C-level pass),
  returning per-source distance and predecessor matrices.  This is the
  landmark-distance-table primitive.
* :meth:`CSRKernel.multi_source` — the bunch/cluster primitive of TZ:
  ``dist[v] = d(A, v)`` together with the argmin center (*witness*)
  realizing it, computed as one C-level multi-source sweep followed by a
  vectorized tight-arc witness propagation that reproduces the
  deterministic ``(priority, id)`` tie-break of the pure-Python
  implementation *exactly*.
* :meth:`CSRKernel.all_pairs` — vectorized APSP.

Determinism contract: for integer-valued (hence float64-exact) edge
weights the fast paths return bit-identical results to the heap-based
reference (``method="heap"``).  If exactness is unavailable (irrational
float weights can make ``d(u) + w != d(v)`` for a tight arc), witness
propagation detects the gap and transparently falls back to the heap.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphError
from ..obs import TELEMETRY

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

INF = np.inf

#: Sentinel used by scipy for unreachable predecessor entries.
_SCIPY_NULL = -9999


def _scipy_dijkstra(*args, **kwargs):
    """``scipy.sparse.csgraph.dijkstra``, imported on first call: scipy
    costs a process ~0.3 s to import, which paths that never run a
    shortest-path sweep (the serving daemon) should not pay."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(*args, **kwargs)


class CSRKernel:
    """Immutable CSR arrays plus the shortest-path kernels over them.

    Parameters
    ----------
    n:
        Vertex count; vertices are ``0..n-1``.
    indptr:
        ``(n+1,)`` int64 row-pointer array.
    indices:
        ``(nnz,)`` int64 arc-target array (both directions of every
        undirected edge).
    weights:
        ``(nnz,)`` float64 positive arc weights aligned with ``indices``.

    Use :meth:`from_graph` to wrap an existing :class:`~repro.graphs.graph.Graph`
    without copying (the Graph already stores validated CSR arrays).
    """

    __slots__ = ("n", "indptr", "indices", "weights", "_matrix", "_arc_src")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if validate:
            if n < 0:
                raise GraphError(f"vertex count must be non-negative, got {n}")
            if indptr.shape != (n + 1,):
                raise GraphError(f"indptr must have shape ({n + 1},)")
            if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
                raise GraphError("indptr must be non-decreasing and start at 0")
            nnz = int(indptr[-1])
            if indices.shape != (nnz,) or weights.shape != (nnz,):
                raise GraphError(f"indices/weights must have shape ({nnz},)")
            if nnz and (np.any(indices < 0) or np.any(indices >= n)):
                raise GraphError("arc target out of range")
            if nnz and (not np.all(np.isfinite(weights)) or np.any(weights <= 0)):
                raise GraphError("arc weights must be finite and strictly positive")
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._matrix: Optional[csr_matrix] = None
        self._arc_src: Optional[np.ndarray] = None

    @classmethod
    def from_graph(cls, graph) -> "CSRKernel":
        """Wrap a :class:`Graph`'s already-validated CSR arrays (no copy)."""
        return cls(
            graph.n, graph.indptr, graph.adj, graph.adj_weights, validate=False
        )

    # ------------------------------------------------------------------
    # Cached derived arrays
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of directed arcs (``2m`` for an undirected graph)."""
        return int(self.indices.shape[0])

    def matrix(self) -> csr_matrix:
        """Cached ``scipy.sparse.csr_matrix`` over this kernel's arrays."""
        if self._matrix is None:
            from scipy.sparse import csr_matrix

            self._matrix = csr_matrix(
                (self.weights, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._matrix

    def arc_sources(self) -> np.ndarray:
        """Cached ``(nnz,)`` array: source vertex of every arc."""
        if self._arc_src is None:
            self._arc_src = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
            )
            self._arc_src.setflags(write=False)
        return self._arc_src

    # ------------------------------------------------------------------
    # Single-source
    # ------------------------------------------------------------------
    def sssp(
        self, source: int, *, target: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Heap Dijkstra from ``source`` with deterministic tie-breaking.

        Returns ``(dist, parent)`` of length ``n``; ``parent`` is ``-1``
        at the source and at unreachable vertices.  With ``target``,
        stops as soon as the target settles.  Equal-distance parents are
        broken toward the smaller parent id, making the shortest-path
        tree reproducible across runs and platforms.
        """
        n = self.n
        if not 0 <= source < n:
            raise GraphError(f"source {source} out of range")
        dist = np.full(n, INF)
        parent = np.full(n, -1, dtype=np.int64)
        done = np.zeros(n, dtype=bool)
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        indptr, indices, wts = self.indptr, self.indices, self.weights
        pops = 0
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            pops += 1
            if u == target:
                break
            for i in range(indptr[u], indptr[u + 1]):
                v = indices[i]
                nd = d + wts[i]
                if nd < dist[v] or (nd == dist[v] and parent[v] > u and not done[v]):
                    dist[v] = nd
                    parent[v] = u
                    heapq.heappush(heap, (nd, v))
        tm = TELEMETRY
        if tm.enabled:
            tm.count("csr.sssp_calls")
            tm.count("csr.dijkstra_pops", pops)
        return dist, parent

    def sssp_batch(
        self, sources: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched single-source runs, one C-level scipy call.

        Returns ``(dist, pred)`` of shape ``(len(sources), n)``; ``pred``
        entries are ``-9999`` where scipy reports no predecessor.  The
        per-tree tie-breaking is scipy's (any valid SPT), which is what
        the landmark tables need — distances are exact either way.
        """
        src = np.asarray(sources, dtype=np.int64)
        if src.ndim != 1:
            raise GraphError("sources must be a 1-D sequence")
        if src.size == 0:
            return (
                np.zeros((0, self.n)),
                np.zeros((0, self.n), dtype=np.int64),
            )
        if np.any(src < 0) or np.any(src >= self.n):
            raise GraphError("source out of range")
        tm = TELEMETRY
        with tm.span("csr.sssp_batch", sources=int(src.size)):
            dist, pred = _scipy_dijkstra(
                self.matrix(), directed=False, indices=src, return_predecessors=True
            )
        tm.count("csr.batch_sources", int(src.size))
        return np.atleast_2d(dist), np.atleast_2d(pred).astype(np.int64)

    def all_pairs(self) -> np.ndarray:
        """All-pairs distances as an ``(n, n)`` float array."""
        if self.n == 0:
            return np.zeros((0, 0))
        return _scipy_dijkstra(self.matrix(), directed=False)

    # ------------------------------------------------------------------
    # Batched multi-source (the TZ bunch/cluster primitive)
    # ------------------------------------------------------------------
    def multi_source_distances(self, sources: Sequence[int]) -> np.ndarray:
        """``dist[v] = min_{a in sources} d(a, v)`` in one C-level sweep.

        The witness-free fast path for callers (like the ``center``
        algorithm) that only need the distance field.
        """
        src = self._check_sources(sources)
        if src.size == 0 or self.n == 0:
            return np.full(self.n, INF)
        return np.asarray(
            _scipy_dijkstra(self.matrix(), directed=False, indices=src, min_only=True)
        )

    def multi_source(
        self,
        sources: Sequence[int],
        *,
        witness_priority: Optional[Dict[int, int]] = None,
        method: str = "auto",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Distances to the nearest source plus the argmin center.

        Returns ``(dist, witness)``: ``witness[v]`` is the source
        realizing ``dist[v]``, ties broken toward the smallest
        ``(priority, id)`` pair (priority defaults to the id itself), and
        ``-1`` for unreachable vertices.  This equals the lexicographic
        argmin ``min_a (d(a, v), priority(a), a)``, which is exactly what
        the heap-based reference computes.

        ``method``:

        * ``"auto"`` — C-level sweep + vectorized witness propagation,
          falling back to the heap if float inexactness breaks the
          tight-arc test (impossible for integer-valued weights);
        * ``"scipy"`` — the fast path, error if propagation is incomplete;
        * ``"heap"`` — the pure-Python reference implementation.
        """
        if method not in ("auto", "scipy", "heap"):
            raise GraphError(f"unknown multi_source method {method!r}")
        src = self._check_sources(sources)
        n = self.n
        if src.size == 0 or n == 0:
            return np.full(n, INF), np.full(n, -1, dtype=np.int64)
        if method == "heap":
            return self._multi_source_heap(src, witness_priority)
        with TELEMETRY.span("csr.multi_source", sources=int(src.size)):
            dist = np.asarray(
                _scipy_dijkstra(
                    self.matrix(), directed=False, indices=src, min_only=True
                )
            )
            witness, complete = self._propagate_witnesses(dist, src, witness_priority)
        if complete:
            return dist, witness
        if method == "scipy":
            raise GraphError(
                "witness propagation incomplete: edge weights are not "
                "float64-exact (use method='heap' or 'auto')"
            )
        return self._multi_source_heap(src, witness_priority)

    def _check_sources(self, sources: Sequence[int]) -> np.ndarray:
        src = np.unique(np.asarray(sources, dtype=np.int64).ravel())
        if src.size and (src[0] < 0 or src[-1] >= self.n):
            bad = src[0] if src[0] < 0 else src[-1]
            raise GraphError(f"source {bad} out of range")
        return src

    def _propagate_witnesses(
        self,
        dist: np.ndarray,
        src: np.ndarray,
        witness_priority: Optional[Dict[int, int]],
    ) -> Tuple[np.ndarray, bool]:
        """Deterministic witnesses from a finished distance field.

        A source ``a`` realizes ``dist[v]`` iff some shortest ``a → v``
        path exists, and every arc ``(u, v)`` on it is *tight*
        (``dist[u] + w == dist[v]``).  Processing vertices in increasing
        distance order (tight arcs always go strictly uphill, weights
        being positive) and taking the minimum ``(priority, id)`` witness
        over tight in-arcs therefore computes the lexicographic argmin —
        the same tie-break the heap reference propagates.
        """
        n = self.n
        # Rank sources by (priority, id); propagate small ranks.
        if witness_priority:
            prio = np.array(
                [witness_priority.get(int(a), int(a)) for a in src], dtype=np.int64
            )
            order = np.lexsort((src, prio))
        else:
            order = np.arange(src.size)
        ranked = src[order]
        sentinel = src.size
        rank = np.full(n, sentinel, dtype=np.int64)
        rank[ranked] = np.arange(src.size, dtype=np.int64)

        arc_src = self.arc_sources()
        arc_dst = self.indices
        finite_src = np.isfinite(dist[arc_src])
        tight = np.flatnonzero(
            finite_src & (dist[arc_src] + self.weights == dist[arc_dst])
        )
        if tight.size:
            # Group tight arcs by target distance, ascending: every head
            # is strictly downhill, so its rank is final when its group runs.
            td = dist[arc_dst[tight]]
            grp = np.argsort(td, kind="stable")
            tight = tight[grp]
            td = td[grp]
            starts = np.concatenate(([0], np.flatnonzero(np.diff(td)) + 1))
            ends = np.concatenate((starts[1:], [td.size]))
            heads = arc_src[tight]
            tails = arc_dst[tight]
            for s, e in zip(starts, ends):
                np.minimum.at(rank, tails[s:e], rank[heads[s:e]])

        witness = np.full(n, -1, dtype=np.int64)
        assigned = rank < sentinel
        witness[assigned] = ranked[rank[assigned]]
        complete = bool(np.all(assigned | ~np.isfinite(dist)))
        return witness, complete

    def _multi_source_heap(
        self, src: np.ndarray, witness_priority: Optional[Dict[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pure-Python reference: heap ordered by ``(dist, prio, id)``."""
        n = self.n
        dist = np.full(n, INF)
        witness = np.full(n, -1, dtype=np.int64)
        done = np.zeros(n, dtype=bool)
        prio = witness_priority or {}
        heap: List[Tuple[float, int, int, int]] = []
        for a in src:
            a = int(a)
            heapq.heappush(heap, (0.0, prio.get(a, a), a, a))
            dist[a] = 0.0
        indptr, indices, wts = self.indptr, self.indices, self.weights
        pops = 0
        while heap:
            d, _, w, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            pops += 1
            dist[u] = d
            witness[u] = w
            for i in range(indptr[u], indptr[u + 1]):
                v = indices[i]
                if done[v]:
                    continue
                nd = d + wts[i]
                if nd <= dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, prio.get(w, w), w, v))
        tm = TELEMETRY
        if tm.enabled:
            tm.count("csr.dijkstra_pops", pops)
        return dist, witness
