"""Backend adapter for the TZ (2k−1)-spanner.

The spanner *is* a graph — the union of all cluster-tree edges — so its
query is exact shortest-path distance **inside the subgraph**: at most
(2k−1)× the original distance by the TZ cluster argument.  ``query_many``
and ``query_one`` are :func:`repro.sim.runner.pair_true_distances` on the
spanner (one Dijkstra per unique source, in bounded memory), and the
serialized form is simply the weighted edge list.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph
from ..oracles.spanner import build_spanner
from ..rng import derive
from ..sim.runner import pair_true_distances
from .accounting import DIST_BITS, edge_bits
from .base import Backend, Capabilities, Manifest
from .registry import register_backend


@register_backend
class SpannerBackend(Backend):
    """A (2k−1)-spanner answering subgraph shortest-path distances."""

    backend_name = "spanner"
    uses_k = True

    def __init__(self, spanner: Graph, k: int) -> None:
        self.spanner = spanner
        self.n = spanner.n
        self.k = int(k)

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = 0,
        *,
        ported: Optional[PortedGraph] = None,
    ) -> "SpannerBackend":
        spanner = build_spanner(
            graph, k, rng=derive(seed, "backend", cls.backend_name, k)
        )
        return cls(spanner, k)

    # -- queries --------------------------------------------------------
    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        src, dst = self._pair_columns(pairs)
        if src.size == 0:
            return np.zeros(0, dtype=np.float64)
        return pair_true_distances(self.spanner, np.stack((src, dst), axis=1))

    def query_one(self, u: int, v: int) -> float:
        return float(pair_true_distances(self.spanner, [[int(u), int(v)]])[0])

    # -- declared semantics --------------------------------------------
    @property
    def capabilities(self) -> Capabilities:
        stretch = 1.0 if self.k == 1 else float(2 * self.k - 1)
        return Capabilities(
            exact=stretch == 1.0,
            stretch=stretch,
            paths=True,  # answers are path weights inside the subgraph
            routable=False,
            uses_k=True,
        )

    # -- size accounting ------------------------------------------------
    def size_bits(self) -> int:
        """Stored weighted edges, one shared edge-entry rule."""
        return self.spanner.m * edge_bits(self.n, DIST_BITS)

    # -- persistence ----------------------------------------------------
    def serialize(self) -> Manifest:
        meta = {"n": self.n, "k": self.k, "m": int(self.spanner.m)}
        blobs = {
            "edges": np.ascontiguousarray(self.spanner.edges, dtype=np.int64),
            "weights": np.ascontiguousarray(
                self.spanner.edge_weights, dtype=np.float64
            ),
        }
        return meta, blobs

    @classmethod
    def deserialize(
        cls, meta: Dict[str, object], blobs: Dict[str, np.ndarray]
    ) -> "SpannerBackend":
        edges = np.asarray(blobs["edges"], dtype=np.int64)
        spanner = Graph(
            int(meta["n"]),
            [(int(a), int(b)) for a, b in edges],
            [float(w) for w in blobs["weights"]],
        )
        return cls(spanner, int(meta["k"]))
