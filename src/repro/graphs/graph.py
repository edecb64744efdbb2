"""Undirected weighted graphs in CSR (compressed sparse row) layout.

The whole package operates on :class:`Graph`: an immutable, undirected,
positively-weighted multigraph-free graph stored as three contiguous numpy
arrays (``indptr``, ``adj``, ``weights``).  The CSR layout follows the HPC
guide idioms used throughout this reproduction: contiguous memory, O(1)
neighbor *views* (never copies), and every shortest-path and
connectivity pass run over them in C (:mod:`repro.kernels`), with
``scipy.sparse.csgraph`` as the numpy-kernel reference.

Vertices are ``0..n-1``.  Each undirected edge ``{u, v}`` has a canonical
*edge id* in ``0..m-1``; the two directed arcs it induces both carry that
id (``arc_edge``), which is how routing tables refer to physical links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphError
from ..kernels import resolve_kernel
from ..kernels.sssp import components_native

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


def edge_components(
    n: int, edges: np.ndarray, keep: Optional[np.ndarray] = None
) -> Tuple[int, np.ndarray]:
    """Component count and int64 labels of the undirected graph on
    ``[0, n)`` with the ``(m, 2)`` int64 ``edges`` (only the rows the
    boolean ``keep`` marks, when given).

    Components are numbered in the order of their smallest vertex.  The
    native kernel runs ``tz_components``, a union-find over the edge
    list; the numpy kernel runs scipy's ``connected_components``, which
    numbers them the same way.
    """
    if keep is not None and np.shape(keep) != (edges.shape[0],):
        raise ValueError(f"keep must have shape ({edges.shape[0]},), got {np.shape(keep)}")
    if resolve_kernel("auto") == "native":
        return components_native(n, edges, keep)
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    kept = edges if keep is None else edges[keep]
    adj = coo_matrix(
        (np.ones(kept.shape[0]), (kept[:, 0], kept[:, 1])), shape=(n, n)
    )
    count, labels = connected_components(adj, directed=False)
    return int(count), labels.astype(np.int64)


class Graph:
    """Immutable undirected weighted graph in CSR form.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        ``(m, 2)`` integer array of endpoints, one row per undirected edge.
    weights:
        Optional ``(m,)`` array of positive edge weights (default: all 1).

    Notes
    -----
    Self loops and parallel edges are rejected: compact routing schemes are
    defined on simple graphs and both would make port numbering ambiguous.
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "adj",
        "adj_weights",
        "arc_edge",
        "edges",
        "edge_weights",
        "_edge_index",
        "_csr",
    )

    def __init__(
        self,
        n: int,
        edges: Sequence[Tuple[int, int]],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        edge_arr = np.asarray(edges, dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise GraphError(f"edges must be an (m, 2) array, got shape {edge_arr.shape}")
        m = edge_arr.shape[0]
        if weights is None:
            weight_arr = np.ones(m, dtype=np.float64)
        else:
            weight_arr = np.asarray(weights, dtype=np.float64)
            if weight_arr.shape != (m,):
                raise GraphError(
                    f"weights must have shape ({m},), got {weight_arr.shape}"
                )
            if m and (not np.all(np.isfinite(weight_arr)) or np.any(weight_arr <= 0)):
                raise GraphError("edge weights must be finite and strictly positive")
        if m:
            if np.any(edge_arr < 0) or np.any(edge_arr >= n):
                raise GraphError("edge endpoint out of range")
            if np.any(edge_arr[:, 0] == edge_arr[:, 1]):
                raise GraphError("self loops are not allowed")
        # Canonical (sorted-endpoint) edge list, original order preserved.
        lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
        hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
        # CSR: each undirected edge contributes two directed arcs, with
        # rows sorted by neighbor id (deterministic iteration order,
        # binary-search neighbor lookup).  In a simple graph the arc keys
        # tail * n + head are distinct, so one sort of them forces the
        # layout, and a key that repeats is a parallel edge.
        tail = np.concatenate((lo, hi))
        head = np.concatenate((hi, lo))
        arc_key = tail * n + head
        order = np.argsort(arc_key)
        sorted_keys = arc_key[order]
        if np.any(sorted_keys[1:] == sorted_keys[:-1]):
            raise GraphError("parallel edges are not allowed")

        self.n = int(n)
        self.m = int(m)
        self.edges = np.stack((lo, hi), axis=1)
        self.edge_weights = weight_arr
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
        self.indptr = indptr
        self.adj = head[order]
        self.arc_edge = np.where(order < m, order, order - m)
        self.adj_weights = weight_arr[self.arc_edge]
        self._edge_index: Optional[Dict[Tuple[int, int], int]] = None
        self._csr = None

    def with_edge_weights(self, weights: Sequence[float]) -> "Graph":
        """A structurally identical graph with new per-edge weights.

        O(m): the CSR topology (``indptr``/``adj``/``arc_edge``), the
        canonical edge list and the lazy edge index are shared verbatim
        (all treated as immutable); only the weight columns are rebuilt,
        ``adj_weights`` by a single gather through ``arc_edge``.  The
        result is bit-identical to ``Graph(n, edges, weights)`` without
        re-sorting the arcs or re-checking the edges — the weight-only
        delta path leans on this.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.m,):
            raise GraphError(f"weights must have shape ({self.m},), got {w.shape}")
        if self.m and (not np.all(np.isfinite(w)) or np.any(w <= 0)):
            raise GraphError("edge weights must be finite and strictly positive")
        g = object.__new__(Graph)
        g.n = self.n
        g.m = self.m
        g.indptr = self.indptr
        g.adj = self.adj
        g.adj_weights = w[self.arc_edge]
        g.arc_edge = self.arc_edge
        g.edges = self.edges
        g.edge_weights = w
        g._edge_index = self._edge_index
        g._csr = None
        return g

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def degree(self, u: int) -> int:
        """Number of edges incident to ``u``."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, as an ``(n,)`` array."""
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbors of ``u`` in increasing id order (a CSR *view*)."""
        return self.adj[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors` (a CSR *view*)."""
        return self.adj_weights[self.indptr[u] : self.indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and row[i] == v

    def edge_id(self, u: int, v: int) -> int:
        """Canonical edge id of ``{u, v}`` (raises if absent)."""
        if self._edge_index is None:
            self._edge_index = {
                (int(a), int(b)): eid for eid, (a, b) in enumerate(self.edges)
            }
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_index[key]
        except KeyError:
            raise GraphError(f"no edge between {u} and {v}") from None

    def edge_weight(self, u: int, v: int) -> float:
        return float(self.edge_weights[self.edge_id(u, v)])

    def total_weight(self) -> float:
        return float(self.edge_weights.sum())

    # ------------------------------------------------------------------
    # Derived representations
    # ------------------------------------------------------------------
    def csr(self):
        """The cached :class:`~repro.graphs.csr.CSRKernel` over this graph.

        Built lazily on first use (an O(1) wrap — the kernel shares this
        graph's CSR arrays) and reused for every shortest-path call, so
        repeated scipy hand-offs (the numpy-kernel references) reuse one
        ``csr_matrix``.
        """
        if self._csr is None:
            from .csr import CSRKernel

            self._csr = CSRKernel.from_graph(self)
        return self._csr

    def to_scipy(self) -> csr_matrix:
        """Symmetric ``scipy.sparse.csr_matrix`` sharing this graph's data
        (cached on the kernel; treat it as read-only)."""
        return self.csr().matrix()

    def to_networkx(self):
        """Export to :class:`networkx.Graph` (for visualization/tests)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for eid in range(self.m):
            u, v = int(self.edges[eid, 0]), int(self.edges[eid, 1])
            g.add_edge(u, v, weight=float(self.edge_weights[eid]))
        return g

    @classmethod
    def from_networkx(cls, g, weight: str = "weight") -> "Graph":
        """Import from :class:`networkx.Graph`; nodes are relabeled
        ``0..n-1`` in sorted order and missing weights default to 1."""
        nodes = sorted(g.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = []
        weights = []
        for u, v, data in g.edges(data=True):
            edges.append((index[u], index[v]))
            weights.append(float(data.get(weight, 1.0)))
        return cls(len(nodes), edges, weights)

    # ------------------------------------------------------------------
    # Connectivity and subgraphs
    # ------------------------------------------------------------------
    def connected_components(self) -> Tuple[int, np.ndarray]:
        """Number of components and per-vertex component labels,
        numbered in the order of their smallest vertex
        (:func:`edge_components`)."""
        return edge_components(self.n, self.edges)

    def is_connected(self) -> bool:
        count, _ = self.connected_components()
        return count <= 1

    def largest_component(self) -> "Graph":
        """The induced subgraph on the largest connected component,
        vertices relabeled to ``0..n'-1`` (ties broken by smallest label)."""
        count, labels = self.connected_components()
        if count <= 1:
            return self
        sizes = np.bincount(labels, minlength=count)
        keep = int(np.argmax(sizes))
        vertices = np.flatnonzero(labels == keep)
        return self.subgraph(vertices)

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, vertices relabeled ``0..len(vertices)-1`` in
        the iteration order given (which must contain no duplicates; an
        id outside ``0..n-1`` becomes an isolated vertex).

        One gather relabels every edge; the kept edges keep their order."""
        if isinstance(vertices, np.ndarray):
            verts = vertices.astype(np.int64).reshape(-1)
        else:
            verts = np.array([int(v) for v in vertices], dtype=np.int64)
        ordered = np.sort(verts)
        if np.any(ordered[1:] == ordered[:-1]):
            raise GraphError("duplicate vertices in subgraph selection")
        relabel = np.full(self.n, -1, dtype=np.int64)
        inside = (verts >= 0) & (verts < self.n)
        relabel[verts[inside]] = np.flatnonzero(inside)
        ends = relabel[self.edges]
        keep = (ends[:, 0] >= 0) & (ends[:, 1] >= 0)
        return Graph(verts.size, ends[keep], self.edge_weights[keep])

    def apply_delta(self, delta) -> Tuple["Graph", np.ndarray]:
        """Apply a :class:`~repro.graphs.delta.GraphDelta`; returns the
        mutated graph plus the old→new vertex id map (−1 = dropped)."""
        from .delta import apply_delta

        return apply_delta(self, delta)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same vertex count and the same weighted
        edge *set* (edge insertion order is irrelevant)."""
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        mine = np.lexsort((self.edges[:, 1], self.edges[:, 0]))
        theirs = np.lexsort((other.edges[:, 1], other.edges[:, 0]))
        return np.array_equal(
            self.edges[mine], other.edges[theirs]
        ) and np.array_equal(self.edge_weights[mine], other.edge_weights[theirs])

    def __hash__(self) -> int:  # Graphs are hashable by identity.
        return id(self)


class GraphBuilder:
    """Incremental builder producing a :class:`Graph`.

    Silently ignores duplicate edges (keeping the first weight), which is
    convenient for generators that may propose the same pair twice.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self._seen: Dict[Tuple[int, int], int] = {}
        self._edges: List[Tuple[int, int]] = []
        self._weights: List[float] = []

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> bool:
        """Add ``{u, v}``; returns ``False`` if it already existed or is a
        self loop (in which case nothing changes)."""
        if u == v:
            return False
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"edge ({u}, {v}) endpoint out of range")
        key = (u, v) if u < v else (v, u)
        if key in self._seen:
            return False
        self._seen[key] = len(self._edges)
        self._edges.append(key)
        self._weights.append(float(weight))
        return True

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._seen

    @property
    def m(self) -> int:
        return len(self._edges)

    def build(self) -> Graph:
        return Graph(self.n, self._edges, self._weights)
