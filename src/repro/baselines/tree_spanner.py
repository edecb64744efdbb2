"""Single-tree routing — the minimal-space extreme of the tradeoff.

Route *everything* over one spanning tree using the §2 tree-routing
machinery: O(1)-word tables, (1+o(1))·log n labels... and stretch as bad
as Θ(n/ d(u,v)) on a cycle.  This is essentially the space side of the
pre-compact-routing folklore (cf. Peleg–Upfal's observation that some
stretch/space tradeoff is unavoidable); Table 1 uses it as the opposite
anchor to full shortest-path tables.

Tree choices: the shortest-path tree of a center-ish root (minimizing
eccentricity estimates) or the minimum spanning tree.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.router import RouteHeader, RoutingScheme
from ..errors import PreprocessingError
from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph
from ..graphs.shortest_paths import dijkstra
from ..graphs.trees import tree_from_parents
from ..trees.label_codec import tree_label_bits
from ..trees.tz_tree import TreeRouter, build_tree_router


class SingleTreeRoutingScheme(RoutingScheme):
    """All traffic follows one spanning tree."""

    name = "single-tree"

    def __init__(self, ported: PortedGraph, router: TreeRouter) -> None:
        self.ported = ported
        self.router = router
        self.n = ported.n
        degs = ported.graph.degrees()
        self._max_port = int(degs.max()) if degs.size else 1

    def initial_header(self, source: int, dest: int) -> RouteHeader:
        return RouteHeader(
            dest=dest, tree=self.router.root, tree_label=self.router.labels[dest]
        )

    def decide(
        self, u: int, header: RouteHeader
    ) -> Tuple[Optional[int], RouteHeader]:
        if u == header.dest:
            return None, header
        port = self.router.decide(u, header.tree_label)
        if port is None:
            return None, header
        return port, header

    def table_bits(self, u: int) -> int:
        return self.router.record_bits(u, self._max_port)

    def label_bits(self, v: int) -> int:
        return tree_label_bits(self.router.labels[v], self.router.tree_size)

    def stretch_bound(self) -> float:
        return float("inf")  # no multiplicative guarantee on general graphs

    def compile_batch(self, ported: Optional[PortedGraph] = None):
        """Dense-array form for the batch engine (cached per assignment).

        Single-tree routing compiles as the one-tree degenerate TZ
        scheme (see :func:`repro.sim.engine.compile.compile_single_tree`),
        which is what lets Table-1 comparisons run this baseline at
        10⁵-vertex scale instead of through the per-hop simulator.
        """
        from ..sim.engine.compile import compile_single_tree

        target = self.ported if ported is None else ported
        cached = getattr(self, "_batch_compiled", None)
        if cached is not None and cached[0] is target:
            return cached[1]
        compiled = compile_single_tree(self.router, target)
        self._batch_compiled = (target, compiled)
        return compiled


def build_single_tree_scheme(
    graph: Graph,
    ported: Optional[PortedGraph] = None,
    *,
    tree: str = "spt",
    root: Optional[int] = None,
) -> SingleTreeRoutingScheme:
    """Compile single-tree routing.

    ``tree="spt"`` roots a shortest-path tree at ``root`` (default: the
    vertex of maximum degree — a cheap center heuristic); ``tree="mst"``
    uses the minimum spanning tree rooted at ``root`` (default 0).
    """
    from ..graphs.ports import assign_ports

    if not graph.is_connected():
        raise PreprocessingError("single-tree routing requires a connected graph")
    if ported is None:
        ported = assign_ports(graph, "sorted")
    if tree == "spt":
        r = int(np.argmax(graph.degrees())) if root is None else int(root)
        _, parent = dijkstra(graph, r)
        parent_map = {v: int(parent[v]) for v in range(graph.n)}
        parent_map[r] = -1
        rooted = tree_from_parents(r, parent_map)
    elif tree == "mst":
        from scipy.sparse.csgraph import minimum_spanning_tree

        r = 0 if root is None else int(root)
        mst = minimum_spanning_tree(graph.to_scipy()).tocoo()
        adj = {v: [] for v in range(graph.n)}
        for a, b in zip(mst.row, mst.col):
            adj[int(a)].append(int(b))
            adj[int(b)].append(int(a))
        parent_map = {r: -1}
        stack = [r]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in parent_map:
                    parent_map[v] = u
                    stack.append(v)
        if len(parent_map) != graph.n:
            raise PreprocessingError("MST does not span the graph")
        rooted = tree_from_parents(r, parent_map)
    else:
        raise PreprocessingError(f"unknown tree kind {tree!r}")
    router = build_tree_router(rooted, ported, port_model="fixed")
    return SingleTreeRoutingScheme(ported, router)
