"""Full shortest-path routing — the stretch-1 space anchor of Table 1.

Every vertex stores one next-hop port per destination: Θ(n·log deg) bits
per vertex, Θ(n²) total.  This is what "non-compact" means; the whole
point of TZ is trading a constant stretch factor for an exponentially
smaller table.  Next hops are derived from the scipy all-pairs
predecessor matrix: the next hop from ``u`` toward ``t`` is the
predecessor of ``u`` on the shortest path *from* ``t`` (undirected
graphs), so one vectorized pass suffices.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.router import RouteHeader, RoutingScheme
from ..errors import PreprocessingError, RoutingError
from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph


class ShortestPathRoutingScheme(RoutingScheme):
    """Compiled full next-hop tables (see module docstring)."""

    name = "shortest-path"

    def __init__(self, ported: PortedGraph, next_port: np.ndarray) -> None:
        self.ported = ported
        self.n = ported.n
        self.next_port = next_port  # (n, n): port at u toward dest t

    def initial_header(self, source: int, dest: int) -> RouteHeader:
        return RouteHeader(dest=dest)

    def decide(
        self, u: int, header: RouteHeader
    ) -> Tuple[Optional[int], RouteHeader]:
        if u == header.dest:
            return None, header
        port = int(self.next_port[u, header.dest])
        if port <= 0:
            raise RoutingError(f"no next hop from {u} to {header.dest}")
        return port, header

    def table_bits(self, u: int) -> int:
        # One fixed-width port field per destination.
        pw = max(1, self.ported.degree(u).bit_length())
        return (self.n - 1) * pw

    def label_bits(self, v: int) -> int:
        return self._id_bits()

    def stretch_bound(self) -> float:
        return 1.0


def build_shortest_path_scheme(
    graph: Graph, ported: Optional[PortedGraph] = None
) -> ShortestPathRoutingScheme:
    """Compile full next-hop tables for a connected graph."""
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

    from ..graphs.ports import assign_ports

    if not graph.is_connected():
        raise PreprocessingError("shortest-path routing requires a connected graph")
    if ported is None:
        ported = assign_ports(graph, "sorted")
    n = graph.n
    _, pred = _scipy_dijkstra(
        graph.to_scipy(), directed=False, return_predecessors=True
    )
    # pred[t, u] is u's predecessor on the path *from* t, i.e. the next
    # hop from u toward t; resolve all n(n-1) of them to ports with one
    # batched sorted-adjacency lookup instead of n² Python port() calls.
    from ..core.build.arrays import port_lookup

    u_idx, t_idx = np.nonzero(~np.eye(n, dtype=bool))
    hops = pred[t_idx, u_idx].astype(np.int64)
    if np.any(hops < 0):
        bad = int(np.flatnonzero(hops < 0)[0])
        raise PreprocessingError(
            f"vertex {int(u_idx[bad])} unreachable from {int(t_idx[bad])}"
        )
    next_port = np.zeros((n, n), dtype=np.int32)
    next_port[u_idx, t_idx] = port_lookup(ported)(u_idx, hops)
    return ShortestPathRoutingScheme(ported, next_port)
