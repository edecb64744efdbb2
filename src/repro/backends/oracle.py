"""Backend adapters for the TZ distance oracle and distance labeling.

Both structures answer with the same (2k−1)-stretch alternation loop and
both already own a vectorized batch query
(:mod:`repro.oracles._batch`); the adapters add the protocol's missing
pieces — a seeded ``build`` entry, manifest serialization, and the
shared size accounting.  The serialized form is exactly the batch-query
state: the ``(k, n)`` pivot matrices plus the flattened bunch table, so
a deserialized backend answers queries without the graph and bit for bit
like the original (the dict world is only kept on freshly built
instances, where it provides the scalar reference path).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import LabelError, PreprocessingError
from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph
from ..oracles._batch import FlatBunches, batched_tz_query
from ..oracles.distance_labels import build_distance_labels
from ..oracles.distance_oracle import build_distance_oracle
from ..rng import derive
from .accounting import DIST_BITS, entry_bits, id_bits
from .base import Backend, Capabilities, Manifest
from .registry import register_backend


class _FlatTZBackend(Backend):
    """Shared flat-array query core of the oracle/labeling adapters."""

    _error = PreprocessingError
    _error_message = "query did not converge"

    def __init__(
        self,
        n: int,
        k: int,
        pivot_id: np.ndarray,
        pivot_dist: np.ndarray,
        flat: FlatBunches,
        scalar=None,
    ) -> None:
        self.n = int(n)
        self.k = int(k)
        self._pivot_id = pivot_id
        self._pivot_dist = pivot_dist
        self._flat = flat
        #: The dict-world structure (scalar reference); ``None`` after
        #: deserialization, where the flat arrays answer instead.
        self._scalar = scalar

    # -- queries --------------------------------------------------------
    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        src, dst = self._pair_columns(pairs)
        return batched_tz_query(
            self._pivot_id,
            self._pivot_dist,
            self._flat,
            src,
            dst,
            self._error,
            self._error_message,
        )

    def query_one(self, u: int, v: int) -> float:
        if self._scalar is not None:
            return float(self._scalar.query(int(u), int(v)))
        return self._flat_query_one(int(u), int(v))

    def _flat_query_one(self, u: int, v: int) -> float:
        """Scalar alternation over the flat arrays (post-deserialize)."""
        if u == v:
            return 0.0
        x, y = u, v
        comp = self._flat.composite
        for i in range(self.k):
            w = int(self._pivot_id[i, x])
            if 0 <= w < self.n:
                key = y * self.n + w
                idx = int(np.searchsorted(comp, key))
                if idx < comp.size and comp[idx] == key:
                    return float(self._pivot_dist[i, x]) + float(
                        self._flat.values[idx]
                    )
            x, y = y, x
        raise self._error(self._error_message)

    # -- declared semantics --------------------------------------------
    @property
    def capabilities(self) -> Capabilities:
        stretch = 1.0 if self.k == 1 else float(2 * self.k - 1)
        return Capabilities(
            exact=stretch == 1.0,
            stretch=stretch,
            paths=False,
            routable=False,
            uses_k=True,
        )

    # -- persistence ----------------------------------------------------
    def serialize(self) -> Manifest:
        meta = {"n": self.n, "k": self.k, "size_bits": int(self.size_bits())}
        blobs = {
            "pivot_id": np.ascontiguousarray(self._pivot_id, dtype=np.int64),
            "pivot_dist": np.ascontiguousarray(
                self._pivot_dist, dtype=np.float64
            ),
            "bunch_composite": np.ascontiguousarray(
                self._flat.composite, dtype=np.int64
            ),
            "bunch_values": np.ascontiguousarray(
                self._flat.values, dtype=np.float64
            ),
        }
        return meta, blobs

    @classmethod
    def deserialize(
        cls, meta: Dict[str, object], blobs: Dict[str, np.ndarray]
    ) -> "_FlatTZBackend":
        n, k = int(meta["n"]), int(meta["k"])
        flat = FlatBunches(n, blobs["bunch_composite"], blobs["bunch_values"])
        return cls(n, k, blobs["pivot_id"], blobs["pivot_dist"], flat)

    # -- shared accounting ---------------------------------------------
    @property
    def _bunch_entries(self) -> int:
        """Total stored bunch entries ``Σ_v |B(v)|`` (v itself included)."""
        return int(self._flat.composite.size)


@register_backend
class OracleBackend(_FlatTZBackend):
    """The centralized (2k−1)-approximate distance oracle."""

    backend_name = "oracle"
    uses_k = True
    _error = PreprocessingError
    _error_message = "oracle query did not converge: top level empty?"

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = 0,
        *,
        ported: Optional[PortedGraph] = None,
    ) -> "OracleBackend":
        oracle = build_distance_oracle(
            graph, k, rng=derive(seed, "backend", cls.backend_name, k)
        )
        flat, pivot_id, pivot_dist = oracle._batch_arrays()
        return cls(oracle.n, oracle.k, pivot_id, pivot_dist, flat, scalar=oracle)

    def size_bits(self) -> int:
        """Bunch entries + the 2·k·n pivot/distance rows, one entry rule."""
        words = self._bunch_entries + 2 * self.k * self.n
        return words * entry_bits(self.n, DIST_BITS)


@register_backend
class LabelingBackend(_FlatTZBackend):
    """The fully distributed (2k−1)-approximate distance labeling."""

    backend_name = "labels"
    uses_k = True
    _error = LabelError
    _error_message = (
        "label query did not converge: top-level pivot missing from "
        "the peer bunch (labels are inconsistent)"
    )

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = 0,
        *,
        ported: Optional[PortedGraph] = None,
    ) -> "LabelingBackend":
        labeling = build_distance_labels(
            graph, k, rng=derive(seed, "backend", cls.backend_name, k)
        )
        flat, pivot_id, pivot_dist = labeling._batch_arrays()
        return cls(
            labeling.n, labeling.k, pivot_id, pivot_dist, flat, scalar=labeling
        )

    def size_bits(self) -> int:
        """Sum of per-vertex label sizes: own id + pivot and bunch entries."""
        entry = entry_bits(self.n, DIST_BITS)
        return self.n * id_bits(self.n) + entry * (
            self.n * self.k + self._bunch_entries
        )
