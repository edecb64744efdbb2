"""Graph deltas: declarative mutations and their application.

A :class:`GraphDelta` is the unit of change the incremental maintenance
pipeline operates on: a batch of edge weight changes, edge insertions
and deletions, and node insertions and deletions, applied atomically.
:func:`apply_delta` turns ``(graph, delta)`` into the mutated graph plus
the vertex id map the rest of the pipeline needs — node deletion
relabels the survivors *monotonically* (``0..n'-1`` in old-id order), so
relative vertex order, and with it every sorted adjacency row and every
``"sorted"`` port number of an untouched vertex, is preserved.  Added
nodes take the ids after the survivors.

:class:`~repro.graphs.graph.Graph` is immutable, so application always
produces a fresh instance: derived caches (the CSR kernel, the scipy
matrix, the edge index) can never leak from the pre-delta graph into the
post-delta one — the property suite in ``tests/test_update.py`` pins
that down.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import GraphError
from .graph import Graph

__all__ = ["GraphDelta", "apply_delta"]


def _canon_pair(u: int, v: int) -> Tuple[int, int]:
    u, v = int(u), int(v)
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GraphDelta:
    """One atomic batch of graph mutations (see module docstring).

    ``weight_updates``
        ``(u, v, new_weight)`` triples for existing edges.
    ``add_edges``
        ``(u, v, weight)`` triples; endpoints may be added nodes.
    ``drop_edges``
        ``(u, v)`` pairs of existing edges to remove.
    ``drop_nodes``
        vertex ids to remove along with every incident edge.
    ``add_nodes``
        how many fresh vertices to append; they take the ids following
        the surviving old vertices and must be wired up via
        ``add_edges`` to keep the graph connected.

    All endpoint pairs are canonicalized (sorted, deduplicated) at
    construction, so two deltas describing the same mutation compare and
    digest equal.
    """

    weight_updates: Tuple[Tuple[int, int, float], ...] = ()
    add_edges: Tuple[Tuple[int, int, float], ...] = ()
    drop_edges: Tuple[Tuple[int, int], ...] = ()
    drop_nodes: Tuple[int, ...] = ()
    add_nodes: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "weight_updates",
            tuple(sorted((*_canon_pair(u, v), float(w)) for u, v, w in self.weight_updates)),
        )
        object.__setattr__(
            self,
            "add_edges",
            tuple(sorted((*_canon_pair(u, v), float(w)) for u, v, w in self.add_edges)),
        )
        object.__setattr__(
            self, "drop_edges", tuple(sorted(set(_canon_pair(u, v) for u, v in self.drop_edges)))
        )
        object.__setattr__(self, "drop_nodes", tuple(sorted(set(int(v) for v in self.drop_nodes))))
        object.__setattr__(self, "add_nodes", int(self.add_nodes))
        if self.add_nodes < 0:
            raise GraphError(f"cannot add {self.add_nodes} nodes")
        for seq, what in ((self.weight_updates, "weight update"), (self.add_edges, "edge insertion")):
            pairs = [(u, v) for u, v, _ in seq]
            if len(set(pairs)) != len(pairs):
                raise GraphError(f"duplicate {what} in delta")
            for u, v, w in seq:
                if not (np.isfinite(w) and w > 0):
                    raise GraphError(f"{what} ({u},{v}) has non-positive weight {w}")

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when applying this delta is the identity."""
        return not (
            self.weight_updates
            or self.add_edges
            or self.drop_edges
            or self.drop_nodes
            or self.add_nodes
        )

    def classes(self) -> Tuple[str, ...]:
        """The mutation classes present, for reports and bench labels."""
        out = []
        if self.weight_updates:
            out.append("weight")
        if self.add_edges:
            out.append("edge-add")
        if self.drop_edges:
            out.append("edge-drop")
        if self.drop_nodes:
            out.append("node-drop")
        if self.add_nodes:
            out.append("node-add")
        return tuple(out)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready canonical form (the digest input)."""
        return {
            "weight_updates": [[u, v, w] for u, v, w in self.weight_updates],
            "add_edges": [[u, v, w] for u, v, w in self.add_edges],
            "drop_edges": [[u, v] for u, v in self.drop_edges],
            "drop_nodes": list(self.drop_nodes),
            "add_nodes": self.add_nodes,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "GraphDelta":
        return cls(
            weight_updates=tuple((int(u), int(v), float(w)) for u, v, w in doc.get("weight_updates", ())),
            add_edges=tuple((int(u), int(v), float(w)) for u, v, w in doc.get("add_edges", ())),
            drop_edges=tuple((int(u), int(v)) for u, v in doc.get("drop_edges", ())),
            drop_nodes=tuple(int(v) for v in doc.get("drop_nodes", ())),
            add_nodes=int(doc.get("add_nodes", 0)),
        )

    def digest(self) -> str:
        """SHA-256 of the canonical form — the store's delta identity."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def apply_delta(graph: Graph, delta: GraphDelta) -> Tuple[Graph, np.ndarray]:
    """Apply ``delta`` to ``graph``; returns ``(new_graph, id_map)``.

    ``id_map`` has one entry per *old* vertex: the vertex's new id, or
    ``-1`` if dropped.  Survivors are relabeled monotonically and added
    nodes take the trailing ids (see module docstring).  Every operation
    is validated against the graph it mutates (weight updates and drops
    must name existing edges, insertions must not duplicate surviving
    edges), so a stale delta fails loudly instead of corrupting state.
    """
    n = graph.n
    for v in delta.drop_nodes:
        if not 0 <= v < n:
            raise GraphError(f"cannot drop vertex {v}: out of range 0..{n - 1}")
    dropped = np.zeros(n, dtype=bool)
    if delta.drop_nodes:
        dropped[list(delta.drop_nodes)] = True

    weights = graph.edge_weights.copy()
    for u, v, w in delta.weight_updates:
        weights[graph.edge_id(u, v)] = w  # edge_id raises if absent

    if not (delta.drop_nodes or delta.drop_edges or delta.add_edges or delta.add_nodes):
        # Weight-only: the CSR topology is untouched, so share it instead
        # of paying the per-edge construction loop (bit-identical arrays).
        return graph.with_edge_weights(weights), np.arange(n, dtype=np.int64)

    keep = np.ones(graph.m, dtype=bool)
    for u, v in delta.drop_edges:
        keep[graph.edge_id(u, v)] = False
    if delta.drop_nodes:
        keep &= ~(dropped[graph.edges[:, 0]] | dropped[graph.edges[:, 1]])

    id_map = np.full(n, -1, dtype=np.int64)
    survivors = np.flatnonzero(~dropped)
    id_map[survivors] = np.arange(survivors.shape[0], dtype=np.int64)
    n_new = int(survivors.shape[0]) + delta.add_nodes

    edges = id_map[graph.edges[keep]]
    weights = weights[keep]
    if delta.add_edges:
        surviving = {
            _canon_pair(int(a), int(b)) for a, b in graph.edges[keep]
        }
        extra_edges = []
        extra_weights = []
        for u, v, w in delta.add_edges:
            for x in (u, v):
                if not 0 <= x < n + delta.add_nodes:
                    raise GraphError(f"added edge endpoint {x} out of range")
                if x < n and dropped[x]:
                    raise GraphError(
                        f"added edge ({u},{v}) touches dropped vertex {x}"
                    )
            if (u, v) in surviving:
                raise GraphError(f"added edge ({u},{v}) already exists")
            # Old-id endpoints map through id_map; fresh nodes (ids >= n
            # in delta coordinates) land after the survivors.
            nu = int(id_map[u]) if u < n else u - n + int(survivors.shape[0])
            nv = int(id_map[v]) if v < n else v - n + int(survivors.shape[0])
            extra_edges.append((nu, nv))
            extra_weights.append(w)
        edges = np.concatenate(
            [edges.reshape(-1, 2), np.asarray(extra_edges, dtype=np.int64).reshape(-1, 2)]
        )
        weights = np.concatenate([weights, np.asarray(extra_weights, dtype=np.float64)])

    return Graph(n_new, edges, weights), id_map
