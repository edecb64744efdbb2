"""The port model of compact routing.

A router does not forward "to vertex v" — it forwards on a *port*, a
local link number in ``1..deg(u)``.  Thorup–Zwick distinguish two models:

* **fixed-port** — an adversary (or the hardware) fixed the port
  numbering; the scheme must cope with arbitrary assignments.  This is
  the model the general-graph schemes (§3–§4) are analyzed in.
* **designer-port** — the scheme designer chooses the numbering.  The
  (1+o(1))·log n tree-routing labels (§2) need this freedom: ports to
  children are assigned in order of decreasing subtree size, making port
  numbers along root paths multiply to at most ``n``.

:class:`PortedGraph` binds a :class:`~repro.graphs.graph.Graph` to a
concrete assignment and provides the two operations the simulator needs:
``step(u, port) -> v`` and ``port(u, v) -> port``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import GraphError, PortError
from ..kernels import resolve_kernel
from ..kernels.draws import permute_rows_native
from ..rng import RngLike, make_rng
from .graph import Graph
from .trees import RootedTree


class PortedGraph:
    """A graph with a concrete port numbering.

    ``port_of_arc[i]`` is the port number (1-based) that the tail of CSR
    arc ``i`` uses for that arc; ``arc_of_port`` is its inverse laid out
    so that the arc for ``(u, port)`` sits at ``indptr[u] + port - 1``.
    """

    __slots__ = ("graph", "port_of_arc", "arc_of_port")

    def __init__(self, graph: Graph, port_of_arc: np.ndarray) -> None:
        if port_of_arc.shape != (2 * graph.m,):
            raise GraphError("port_of_arc must have one entry per directed arc")
        self.graph = graph
        self.port_of_arc = ports = port_of_arc.astype(np.int64)
        indptr = graph.indptr
        deg = np.diff(indptr)
        # Arc a of row u belongs in slot indptr[u] + port - 1; a row's
        # ports are a permutation of 1..deg exactly when they all lie in
        # range and fill every slot of the row.
        slot = np.repeat(indptr[:-1] - 1, deg) + ports
        inside = (ports >= 1) & (ports <= np.repeat(deg, deg))
        in_range = bool(inside.all())
        arc_of_port = np.full(2 * graph.m, -1, dtype=np.int64)
        if in_range:
            arc_of_port[slot] = np.arange(2 * graph.m, dtype=np.int64)
        if not in_range or np.any(arc_of_port < 0):
            raise _first_offender(indptr, ports, slot, inside)
        self.arc_of_port = arc_of_port

    def rebind(self, new_graph) -> "PortedGraph":
        """This port assignment attached to a topology-identical graph.

        O(1): shares ``port_of_arc``/``arc_of_port`` verbatim (both are
        treated as immutable), skipping the port checks.
        The graphs must share CSR topology — weight-only rebuilds via
        :meth:`Graph.with_edge_weights` qualify; anything else is
        rejected.
        """
        old = self.graph
        if new_graph.n != old.n or not (
            new_graph.indptr is old.indptr
            or (
                np.array_equal(new_graph.indptr, old.indptr)
                and np.array_equal(new_graph.adj, old.adj)
            )
        ):
            raise PortError("rebind requires an identical CSR topology")
        ported = object.__new__(PortedGraph)
        ported.graph = new_graph
        ported.port_of_arc = self.port_of_arc
        ported.arc_of_port = self.arc_of_port
        return ported

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def degree(self, u: int) -> int:
        return self.graph.degree(u)

    def step(self, u: int, port: int) -> int:
        """Follow ``port`` out of ``u``; returns the neighbor reached."""
        deg = self.degree(u)
        if not 1 <= port <= deg:
            raise PortError(f"vertex {u} has no port {port} (degree {deg})")
        arc = self.arc_of_port[self.graph.indptr[u] + port - 1]
        return int(self.graph.adj[arc])

    def step_weight(self, u: int, port: int) -> float:
        """Weight of the edge behind ``(u, port)``."""
        deg = self.degree(u)
        if not 1 <= port <= deg:
            raise PortError(f"vertex {u} has no port {port} (degree {deg})")
        arc = self.arc_of_port[self.graph.indptr[u] + port - 1]
        return float(self.graph.adj_weights[arc])

    def port(self, u: int, v: int) -> int:
        """Port number at ``u`` of the edge to neighbor ``v``."""
        row = self.graph.neighbors(u)
        i = int(np.searchsorted(row, v))
        if i >= row.size or row[i] != v:
            raise PortError(f"no edge between {u} and {v}")
        return int(self.port_of_arc[self.graph.indptr[u] + i])

    def max_port_bits(self) -> int:
        """Bits needed for the largest port number (fixed-width model)."""
        degs = self.graph.degrees()
        return int(max(1, int(degs.max()) if degs.size else 1).bit_length())


def assign_ports(
    graph: Graph,
    kind: str = "sorted",
    rng: RngLike = None,
) -> PortedGraph:
    """Create a port assignment of the given ``kind``.

    ``"sorted"``
        Port ``i`` goes to the ``i``-th smallest neighbor id — the
        deterministic default.
    ``"random"``
        An independent uniformly random permutation per vertex — the
        fixed-port adversary used in experiments (a scheme must not rely
        on lucky numbering).  Row ``u`` is ``rng.permutation(deg(u)) + 1``,
        rows in vertex order, drawn by one native pass
        (:mod:`repro.kernels.draws`) or by :func:`_permute_rows_loop`
        without native kernels; both leave ``rng`` in the same state.
    ``"reversed"``
        Port ``i`` goes to the ``i``-th *largest* neighbor id.
    """
    indptr = graph.indptr
    if kind == "random":
        gen = make_rng(rng)
        if resolve_kernel("auto") == "native":
            port_of_arc = permute_rows_native(indptr, gen)
        else:
            port_of_arc = _permute_rows_loop(indptr, gen)
    elif kind in ("sorted", "reversed"):
        deg = np.diff(indptr)
        arcs = np.arange(2 * graph.m, dtype=np.int64)
        if kind == "sorted":
            port_of_arc = arcs - np.repeat(indptr[:-1], deg) + 1
        else:
            port_of_arc = np.repeat(indptr[1:], deg) - arcs
    else:
        raise GraphError(f"unknown port assignment kind {kind!r}")
    return PortedGraph(graph, port_of_arc)


def _permute_rows_loop(indptr: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """The reference random assignment: ``gen.permutation(deg) + 1`` per
    vertex with edges, in vertex order."""
    port_of_arc = np.zeros(int(indptr[-1]), dtype=np.int64)
    for u in range(indptr.shape[0] - 1):
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        if hi > lo:
            port_of_arc[lo:hi] = gen.permutation(hi - lo) + 1
    return port_of_arc


def _first_offender(
    indptr: np.ndarray, ports: np.ndarray, slot: np.ndarray, inside: np.ndarray
) -> PortError:
    """The error for the first arc, in arc order, whose port lies outside
    ``1..deg`` or repeats an earlier port of its row — the arc a
    per-vertex scan of the rows would stop at."""
    arcs = np.flatnonzero(inside)
    by_slot = arcs[np.argsort(slot[arcs], kind="stable")]
    repeats = by_slot[1:][slot[by_slot[1:]] == slot[by_slot[:-1]]]
    arc = int(np.concatenate((np.flatnonzero(~inside), repeats)).min())
    u = int(np.searchsorted(indptr, arc, side="right")) - 1
    p = int(ports[arc])
    if inside[arc]:
        return PortError(f"duplicate port {p} at vertex {u}")
    deg = int(indptr[u + 1] - indptr[u])
    return PortError(f"port {p} at vertex {u} outside 1..deg={deg}")


def designer_ports_for_tree(graph: Graph, tree: RootedTree) -> PortedGraph:
    """Designer-port assignment optimized for ``tree`` (TZ §2).

    At each tree vertex the ports toward children follow the child rank
    (heavy child = port 1, rank-``r`` child = port ``r``); the port toward
    the parent comes right after the children; any non-tree edges fill the
    remaining port numbers in neighbor-id order.  With this assignment the
    port taken at a light edge equals the child rank, so port numbers
    along any root path multiply to at most ``n`` — the fact behind the
    (1+o(1))·log n label bound.
    """
    n, indptr = graph.n, graph.indptr
    port_of_arc = np.zeros(2 * graph.m, dtype=np.int64)
    for u in range(n):
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        deg = hi - lo
        if deg == 0:
            continue
        neighbors = graph.adj[lo:hi]
        assigned: Dict[int, int] = {}
        next_port = 1
        if u in tree:
            for child in tree.children.get(u, []):
                assigned[child] = next_port
                next_port += 1
            parent = tree.parent.get(u, -1)
            if parent != -1:
                assigned[parent] = next_port
                next_port += 1
        for v in neighbors:
            v = int(v)
            if v not in assigned:
                assigned[v] = next_port
                next_port += 1
        for i, v in enumerate(neighbors):
            port_of_arc[lo + i] = assigned[int(v)]
    return PortedGraph(graph, port_of_arc)
