"""The one protocol every distance/routing structure implements.

Thorup–Zwick's compact routing scheme is a single point on the
space × stretch × query-time frontier.  The repo holds several more —
distance oracles, distance labelings, spanners, Cowen's scheme, the
single-tree and full-table baselines — and before this package each of
them hand-rolled its own build entry point, query path and size
accounting.  A :class:`Backend` is the common contract:

* ``build(graph, k, seed)`` — preprocess a graph (class-level entry);
* ``query_many(pairs)`` — answer a whole ``(P, 2)`` pair matrix at once
  (vectorized; routable backends drive the batch engine, query-only
  backends their own batched lookup);
* ``query_one(u, v)`` — the scalar reference the contract suite
  differences ``query_many`` against;
* ``size_bits()`` — measured structure size, every backend counting ids
  through the one :func:`repro.bitio.code_width` rule (see
  :mod:`repro.backends.accounting`) so the frontier's space axis is
  comparable across backends;
* ``serialize()/deserialize()`` — named-array manifests, persisted by
  :class:`repro.store.SchemeStore` in the same ``.tzs`` container format
  as the TZ scheme itself.

What a backend *means* by its answer is declared, not implied, by its
:class:`Capabilities` flags: whether answers are exact or only
stretch-bounded, whether they are weights of actually-walked paths or
distance estimates, whether the structure can forward packets hop by hop
or only answer queries, and whether the stretch parameter ``k`` affects
the construction at all.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph


@dataclass(frozen=True)
class Capabilities:
    """What a backend's answers are, declared as flags.

    ``stretch`` is the proven worst-case multiplicative bound on
    ``query / d(u, v)`` (``1.0`` for exact structures, ``inf`` when no
    multiplicative guarantee exists, e.g. single-tree routing on a
    cycle).  ``paths=True`` means ``query_many`` returns the weight of a
    path the structure actually materializes (a routed walk or a
    subgraph path), not just a numeric estimate.  ``routable=True``
    means the structure can forward a packet hop by hop in the paper's
    table/label model — only those points carry over to the simulator
    and the scenario lab.  ``uses_k=False`` marks structures whose
    construction ignores the stretch parameter (the frontier sweep then
    builds them once per graph, not once per ``k``).
    """

    exact: bool
    stretch: float
    paths: bool
    routable: bool
    uses_k: bool = True

    def __post_init__(self) -> None:
        if self.exact and self.stretch != 1.0:
            raise ValueError(
                f"exact backends have stretch 1.0, got {self.stretch}"
            )


#: serialize() payload: (JSON-able scalars, named ndarray blobs).
Manifest = Tuple[Dict[str, object], Dict[str, np.ndarray]]


class Backend(ABC):
    """Abstract preprocessed structure (see module docstring).

    Subclasses set :attr:`backend_name` (the registry key) and
    :attr:`uses_k` as class attributes, implement the abstract methods,
    and register themselves with
    :func:`repro.backends.registry.register_backend`.
    """

    #: Registry key and report label (class attribute).
    backend_name: str = "abstract"
    #: Whether ``k`` affects the construction (class attribute, mirrored
    #: in :attr:`capabilities` — readable without building).
    uses_k: bool = True

    # -- construction ---------------------------------------------------
    @classmethod
    @abstractmethod
    def build(
        cls,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = 0,
        *,
        ported: Optional[PortedGraph] = None,
    ) -> "Backend":
        """Preprocess ``graph`` into a queryable backend.

        ``seed`` threads through :func:`repro.rng.derive` so the same
        ``(graph, k, seed)`` always builds the same structure.
        ``ported`` fixes the port assignment for routable backends
        (defaults to the deterministic ``"sorted"`` one); query-only
        backends ignore it.
        """

    # -- queries --------------------------------------------------------
    @abstractmethod
    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        """Answer every ``(s, t)`` row of a ``(P, 2)`` pair matrix.

        Returns a ``(P,)`` float64 array.  For routable backends this is
        the weight of the actually-routed path; for query-only backends
        the structure's distance estimate.  Must equal a per-pair
        :meth:`query_one` loop bit for bit (the contract suite enforces
        it).
        """

    @abstractmethod
    def query_one(self, u: int, v: int) -> float:
        """Scalar reference query — the ground truth for ``query_many``."""

    # -- declared semantics --------------------------------------------
    @property
    @abstractmethod
    def capabilities(self) -> Capabilities:
        """The flags describing what this instance's answers are."""

    def stretch_bound(self) -> float:
        """Worst-case multiplicative bound on ``query / d(u, v)``."""
        return self.capabilities.stretch

    # -- size accounting ------------------------------------------------
    @abstractmethod
    def size_bits(self) -> int:
        """Measured total size in bits (ids via ``bitio.code_width``)."""

    # -- persistence ----------------------------------------------------
    @abstractmethod
    def serialize(self) -> Manifest:
        """``(meta, blobs)`` — everything needed to answer queries again.

        ``meta`` holds JSON-able scalars, ``blobs`` named ndarrays; the
        store writes them into a ``.tzs`` container
        (:meth:`repro.store.SchemeStore.save_backend`).  The round trip
        ``deserialize(*serialize())`` must answer every query bit for
        bit like the original.
        """

    @classmethod
    @abstractmethod
    def deserialize(
        cls, meta: Dict[str, object], blobs: Dict[str, np.ndarray]
    ) -> "Backend":
        """Rebuild a queryable backend from :meth:`serialize` output."""

    # -- shared helpers -------------------------------------------------
    @staticmethod
    def _pair_columns(pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` columns of a checked ``(P, 2)`` int matrix, the
        two rows of one transposed copy (a strided column copies several
        times slower)."""
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be a (P, 2) integer array")
        columns = np.ascontiguousarray(arr.T)
        return columns[0], columns[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        caps = self.capabilities
        return (
            f"<{type(self).__name__} {self.backend_name!r} "
            f"stretch<={caps.stretch:g} "
            f"{'routable' if caps.routable else 'query-only'}>"
        )
