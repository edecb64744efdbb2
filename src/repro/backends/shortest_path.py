"""Backend adapter for full shortest-path tables — the stretch-1 anchor.

The structure is the ``(n, n)`` next-hop port matrix of
:mod:`repro.baselines.shortest_path_routing`.  ``query_many`` *walks*
the tables: every pair advances one hop per vectorized step, gathering
the port, resolving it through the ported graph's step tables, and
accumulating the edge weight in exactly the order the reference
simulator would — so answers are routed-path weights (here equal to the
true distance) and ``query_one`` is the same walk, scalar.  Serialized
form: the port matrix plus the step tables, so a deserialized backend
walks without the graph.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..baselines.shortest_path_routing import build_shortest_path_scheme
from ..errors import RoutingError
from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph
from .accounting import id_bits
from .base import Backend, Capabilities, Manifest
from .registry import register_backend


@register_backend
class ShortestPathBackend(Backend):
    """Full next-hop tables: exact answers, Θ(n²) space."""

    backend_name = "shortest-path"
    uses_k = False

    def __init__(
        self,
        next_port: np.ndarray,
        g_indptr: np.ndarray,
        step_next: np.ndarray,
        step_wt: np.ndarray,
    ) -> None:
        self.n = int(next_port.shape[0])
        self._next_port = next_port
        self._g_indptr = g_indptr
        self._step_next = step_next
        self._step_wt = step_wt

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = 0,
        *,
        ported: Optional[PortedGraph] = None,
    ) -> "ShortestPathBackend":
        scheme = build_shortest_path_scheme(graph, ported)
        ported = scheme.ported
        arc = ported.arc_of_port
        return cls(
            scheme.next_port,
            graph.indptr,
            graph.adj[arc],
            graph.adj_weights[arc],
        )

    # -- queries --------------------------------------------------------
    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        src, dst = self._pair_columns(pairs)
        weight = np.zeros(src.shape[0], dtype=np.float64)
        rows = np.flatnonzero(src != dst)
        cur = src[rows]
        tgt = dst[rows]
        for _ in range(self.n):
            if rows.size == 0:
                break
            port = self._next_port[cur, tgt].astype(np.int64)
            if np.any(port <= 0):
                bad = int(cur[np.flatnonzero(port <= 0)[0]])
                raise RoutingError(f"no next hop stored at vertex {bad}")
            step = self._g_indptr[cur] + port - 1
            weight[rows] += self._step_wt[step]
            cur = self._step_next[step]
            live = cur != tgt
            rows, cur, tgt = rows[live], cur[live], tgt[live]
        if rows.size:
            raise RoutingError("next-hop walk exceeded n hops (table loop)")
        return weight

    def query_one(self, u: int, v: int) -> float:
        """Scalar walk with the identical hop and accumulation order."""
        u, v = int(u), int(v)
        total = 0.0
        for _ in range(self.n):
            if u == v:
                return total
            port = int(self._next_port[u, v])
            if port <= 0:
                raise RoutingError(f"no next hop stored at vertex {u}")
            step = self._g_indptr[u] + port - 1
            total += float(self._step_wt[step])
            u = int(self._step_next[step])
        if u != v:
            raise RoutingError("next-hop walk exceeded n hops (table loop)")
        return total

    # -- declared semantics --------------------------------------------
    @property
    def capabilities(self) -> Capabilities:
        return Capabilities(
            exact=True,
            stretch=1.0,
            paths=True,
            routable=True,
            uses_k=False,
        )

    # -- size accounting ------------------------------------------------
    def size_bits(self) -> int:
        """One fixed-width port per (vertex, destination) pair plus an id
        label per vertex — the scheme object's own accounting, summed."""
        degrees = np.diff(self._g_indptr)
        port_widths = np.maximum(
            1, np.frexp(degrees.astype(np.float64))[1].astype(np.int64)
        )
        return int((self.n - 1) * port_widths.sum() + self.n * id_bits(self.n))

    # -- persistence ----------------------------------------------------
    def serialize(self) -> Manifest:
        meta = {"n": self.n}
        blobs = {
            "next_port": np.ascontiguousarray(self._next_port),
            "g_indptr": np.ascontiguousarray(self._g_indptr, dtype=np.int64),
            "step_next": np.ascontiguousarray(self._step_next, dtype=np.int64),
            "step_wt": np.ascontiguousarray(self._step_wt, dtype=np.float64),
        }
        return meta, blobs

    @classmethod
    def deserialize(
        cls, meta: Dict[str, object], blobs: Dict[str, np.ndarray]
    ) -> "ShortestPathBackend":
        return cls(
            blobs["next_port"],
            blobs["g_indptr"],
            blobs["step_next"],
            blobs["step_wt"],
        )
