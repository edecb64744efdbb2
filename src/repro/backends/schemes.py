"""Backend adapters for the routable schemes (TZ, Cowen, single-tree).

These are the frontier points that can actually *forward packets*: each
adapter builds its scheme, exports the dense
:class:`~repro.sim.engine.compile.CompiledScheme` form, and answers
``query_many`` by routing the whole pair matrix through the vectorized
:class:`~repro.sim.engine.batch.BatchRouter` — the answer is the weight
of the walked path, not an estimate.  Serialization reuses the store's
``CompiledScheme`` manifest walk — every column, since a backend holds
no arrays to bind them to — so a deserialized backend routes without
the graph or the dict world (the measured ``size_bits`` rides in the
manifest header, computed once at build time from the scheme's own
accounting).  A column whose length disagrees with the scheme's shape
raises :class:`~repro.errors.EncodingError` on deserialize.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..baselines.cowen import cowen_landmark_set
from ..baselines.tree_spanner import build_single_tree_scheme
from ..core.build import build_arrays
from ..core.build.arrays import SchemeArrays
from ..errors import RoutingError
from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph, assign_ports
from ..rng import derive
from ..sim.engine.batch import BatchRouter
from ..sim.engine.compile import CompiledScheme, compile_from_arrays
from ..store.schemes import compiled_from_manifest, compiled_to_manifest
from .base import Backend, Capabilities, Manifest
from .registry import register_backend


class _CompiledRoutingBackend(Backend):
    """Shared core: route queries through a compiled scheme."""

    def __init__(
        self,
        compiled: CompiledScheme,
        ported: Optional[PortedGraph] = None,
        size_bits: int = 0,
    ) -> None:
        self._compiled = compiled
        self._router = BatchRouter.from_compiled(compiled, ported)
        self.n = int(compiled.n)
        self.k = int(compiled.k)
        self._size_bits = int(size_bits)

    # -- queries --------------------------------------------------------
    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        src, dst = self._pair_columns(pairs)
        res = self._router.route_pairs(np.column_stack((src, dst)))
        if not res.delivered.all():
            bad = int(np.flatnonzero(~res.delivered)[0])
            raise RoutingError(
                f"pair ({int(res.source[bad])},{int(res.dest[bad])}) "
                f"undelivered: {res.failure(bad)}"
            )
        return res.weight

    def query_one(self, u: int, v: int) -> float:
        # Rows of the hop loop are independent, so a one-row matrix is
        # the per-pair reference the contract suite differences against.
        return float(
            self.query_many(np.array([[int(u), int(v)]], dtype=np.int64))[0]
        )

    # -- size accounting ------------------------------------------------
    def size_bits(self) -> int:
        """Σ table bits + Σ label bits, fixed at build time (the same
        accounting the scheme objects report per vertex)."""
        return self._size_bits

    # -- persistence ----------------------------------------------------
    def serialize(self) -> Manifest:
        meta = {
            "n": self.n,
            "k": self.k,
            "handshake": bool(self._compiled.handshake),
            "size_bits": int(self._size_bits),
        }
        return meta, compiled_to_manifest(self._compiled)

    @classmethod
    def deserialize(
        cls, meta: Dict[str, object], blobs: Dict[str, np.ndarray]
    ) -> "_CompiledRoutingBackend":
        compiled = compiled_from_manifest(
            blobs, int(meta["n"]), int(meta["k"]), bool(meta["handshake"])
        )
        return cls(compiled, size_bits=int(meta["size_bits"]))

    # -- shared build helper --------------------------------------------
    @classmethod
    def _from_arrays(
        cls, graph: Graph, ported: PortedGraph, arrays: SchemeArrays
    ) -> "_CompiledRoutingBackend":
        """Compile ``arrays`` against ``ported`` and fix the size."""
        compiled = compile_from_arrays(arrays, ported)
        degs = graph.degrees()
        max_port = int(degs.max()) if degs.size else 1
        size = int(arrays.table_bits(max_port).sum() + arrays.label_bits().sum())
        return cls(compiled, ported, size)


@register_backend
class TZSchemeBackend(_CompiledRoutingBackend):
    """The paper's 4k−5 compact routing scheme, batch-compiled."""

    backend_name = "tz"
    uses_k = True

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = 0,
        *,
        ported: Optional[PortedGraph] = None,
    ) -> "TZSchemeBackend":
        if ported is None:
            ported = assign_ports(graph, "sorted")
        arrays = build_arrays(
            graph,
            k,
            ported=ported,
            rng=derive(seed, "backend", cls.backend_name, k),
        )
        return cls._from_arrays(graph, ported, arrays)

    @property
    def capabilities(self) -> Capabilities:
        stretch = 1.0 if self.k == 1 else float(4 * self.k - 5)
        return Capabilities(
            exact=stretch == 1.0,
            stretch=stretch,
            paths=True,
            routable=True,
            uses_k=True,
        )


@register_backend
class CowenBackend(_CompiledRoutingBackend):
    """Cowen's stretch-3 scheme (SODA '99) on the same runtime.

    Construction ignores ``k``: the scheme is the two-level TZ pipeline
    with Cowen's landmark set as ``A_1`` (see
    :mod:`repro.baselines.cowen`).  Building through the vectorized
    array pipeline — instead of the dict world the
    :func:`~repro.baselines.cowen.build_cowen_scheme` entry point
    materializes — is what lets Table-1 comparisons run at 10⁵ vertices.
    """

    backend_name = "cowen"
    uses_k = False

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = 0,
        *,
        ported: Optional[PortedGraph] = None,
    ) -> "CowenBackend":
        if ported is None:
            ported = assign_ports(graph, "sorted")
        landmarks = cowen_landmark_set(
            graph,
            method="auto",
            rng=derive(seed, "backend", cls.backend_name),
        )
        levels = [np.arange(graph.n, dtype=np.int64), landmarks]
        arrays = build_arrays(graph, 2, ported=ported, levels=levels)
        return cls._from_arrays(graph, ported, arrays)

    @property
    def capabilities(self) -> Capabilities:
        return Capabilities(
            exact=False,
            stretch=3.0,
            paths=True,
            routable=True,
            uses_k=False,
        )


@register_backend
class TreeBackend(_CompiledRoutingBackend):
    """Single-tree routing — the minimal-space anchor of Table 1.

    Construction ignores ``k`` (and ``seed``: the shortest-path tree
    root is the deterministic max-degree heuristic).  ``size_bits`` is
    the scheme's own accounting — identical O(1)-word records for every
    vertex plus the encoded tree labels — summed in closed form.
    """

    backend_name = "tree"
    uses_k = False

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int = 2,
        seed: Optional[int] = 0,
        *,
        ported: Optional[PortedGraph] = None,
    ) -> "TreeBackend":
        if ported is None:
            ported = assign_ports(graph, "sorted")
        scheme = build_single_tree_scheme(graph, ported, tree="spt")
        compiled = scheme.compile_batch(ported)
        n = graph.n
        f_width = (max(n - 1, 0)).bit_length()
        port_width = max(1, scheme._max_port.bit_length())
        table = n * (4 * f_width + 2 * port_width)
        labels = int(compiled.ent_label_bits.sum())
        return cls(compiled, ported, table + labels)

    @property
    def capabilities(self) -> Capabilities:
        return Capabilities(
            exact=False,
            stretch=float("inf"),
            paths=True,
            routable=True,
            uses_k=False,
        )
