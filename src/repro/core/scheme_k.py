"""The general Thorup–Zwick compact routing scheme (SPAA'01 §4).

Preprocessing
-------------
1. Sample the hierarchy ``A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k-1}`` and resolve
   distances ``d_i(v) = d(A_i, v)`` and consistent pivots ``p_i(v)``.
2. For every vertex ``w`` (at its top level ``i``), grow the cluster
   ``C(w) = {v : d(w,v) < d_{i+1}(v)}`` and its shortest-path tree
   ``T_w`` (top-level clusters span the whole graph).
3. Compile each ``T_w`` with the §2 tree-routing scheme: every member
   gets an O(1)-word record, every member a tree label.
4. Tables and labels as described in :mod:`repro.core.tables` and
   :mod:`repro.core.labels`.

Routing (source ``u``, destination label ``L(v)``)
--------------------------------------------------
::

    if v == u:            arrived
    elif v in members(u): route down T_u using the stored μ(T_u, v)
    else: for i = 1..k-1 (smallest first):
        w = p_i(v)        # from L(v)
        if u has a record for T_w:       # i.e. u ∈ C(w)
            route inside T_w toward μ(T_w, v)   # from L(v)

Stretch ``4k−5`` (reproduced from the paper; ``Δ = d(u, v)``):
if the route commits at level ``i ≥ 1`` then ``v ∉ C(u)`` gives
``d_1(v) ≤ Δ``, and each failed level ``j < i`` gives
``d_{j+1}(u) ≤ d(p_j(v), u) ≤ d_j(v) + Δ`` and
``d_{j+1}(v) ≤ d_{j+1}(u) + Δ``, so inductively ``d_i(v) ≤ (2i−1)Δ``.
The tree route inside ``T_{p_i(v)}`` costs at most
``d(u, p_i(v)) + d(p_i(v), v) ≤ 2·d_i(v) + Δ ≤ (4i−1)Δ ≤ (4k−5)Δ``.
Level 0 (``v ∈ C(u)``) routes along an exact shortest path.

``k = 1`` degenerates to full shortest-path tables with stretch 1, and
``k = 2`` is exactly the §3 stretch-3 scheme (see
:mod:`repro.core.scheme_k2` for the landmark-selection specialization).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import RoutingError
from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph
from ..rng import RngLike
from ..trees.label_codec import TreeLabel, tree_label_bits
from ..trees.tz_tree import decide_from_record
from .landmarks import Hierarchy
from .labels import LabelEntry, TZLabel, label_size_bits
from .router import RouteHeader, RoutingScheme
from .tables import VertexTable


class TZRoutingScheme(RoutingScheme):
    """A compiled TZ scheme over a ported graph (see module docstring).

    ``arrays`` is the same scheme as a
    :class:`~repro.core.build.arrays.SchemeArrays`: both builders attach
    it, and the batch engine compiles from it.
    """

    def __init__(
        self,
        graph: Graph,
        ported: PortedGraph,
        hierarchy: Hierarchy,
        tables: Dict[int, VertexTable],
        labels: Dict[int, TZLabel],
        tree_sizes: Dict[int, int],
        tree_labels: Dict[int, Dict[int, TreeLabel]],
        arrays,
    ) -> None:
        self.graph = graph
        self.ported = ported
        self.hierarchy = hierarchy
        self.tables = tables
        self.labels = labels
        self.tree_sizes = tree_sizes
        self.tree_labels = tree_labels
        self.n = graph.n
        self.k = hierarchy.k
        self.name = f"tz-k{self.k}"
        self.arrays = arrays
        degs = graph.degrees()
        self._max_port = int(degs.max()) if degs.size else 1

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------
    def initial_header(self, source: int, dest: int) -> RouteHeader:
        return RouteHeader(dest=dest)

    def decide(
        self, u: int, header: RouteHeader
    ) -> Tuple[Optional[int], RouteHeader]:
        if u == header.dest:
            return None, header
        if header.tree == -1:
            header = self._commit(u, header)
        table = self.tables[u]
        record = table.trees.get(header.tree)
        if record is None:
            raise RoutingError(
                f"vertex {u} has no record for tree {header.tree}: the "
                "message left the cluster (scheme invariant violated)"
            )
        port = decide_from_record(record, header.tree_label)
        if port is None:
            # Tree routing arrived but this is not the destination vertex:
            # only possible on corrupted labels.
            raise RoutingError(
                f"tree routing terminated at {u}, destination is {header.dest}"
            )
        return port, header

    def _commit(self, u: int, header: RouteHeader) -> RouteHeader:
        """The source's strategy: own cluster first, then v's pivots by
        increasing level — this exact order is what the 4k−5 proof needs.
        """
        v = header.dest
        table = self.tables[u]
        member_label = table.members.get(v)
        if member_label is not None:
            return header.with_tree(u, member_label)
        dest_label = self.labels[v]
        for i in range(1, self.k):
            entry = dest_label.entry(i)
            if entry.pivot in table.trees:
                return header.with_tree(entry.pivot, entry.tree_label)
        raise RoutingError(
            f"no usable tree from {u} to {v}: graph must be connected and "
            "the top hierarchy level non-empty"
        )

    # ------------------------------------------------------------------
    # Batch-engine export
    # ------------------------------------------------------------------
    def compile_batch(self, ported: Optional[PortedGraph] = None):
        """The dense-array form of this scheme for the batch engine.

        Resolves (and caches, per port assignment) the scheme's arrays
        into the columns :class:`repro.sim.engine.batch.BatchRouter`
        routes on.  The arrays hold the same records, labels and member
        maps as the tables the hop-by-hop path reads, so both runtimes
        forward over identical state.
        """
        from ..sim.engine.compile import compile_scheme

        target = self.ported if ported is None else ported
        cached = getattr(self, "_batch_compiled", None)
        if cached is not None and cached[0] is target:
            return cached[1]
        compiled = compile_scheme(self, target)
        self._batch_compiled = (target, compiled)
        return compiled

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def table_bits(self, u: int) -> int:
        return self.tables[u].size_bits(
            self.n, self.tree_sizes, self.tree_sizes[u], self._max_port
        )

    def label_bits(self, v: int) -> int:
        return label_size_bits(self.labels[v], self.n, self.tree_sizes)

    def header_bits(self, header: RouteHeader) -> int:
        id_bits = self._id_bits()
        bits = 2 * id_bits  # dest id + tree id
        if header.tree_label is not None:
            bits += tree_label_bits(
                header.tree_label, self.tree_sizes[header.tree]
            )
        return bits

    def stretch_bound(self) -> float:
        if self.k == 1:
            return 1.0
        return float(4 * self.k - 5)

    # ------------------------------------------------------------------
    # Introspection used by experiments/tests
    # ------------------------------------------------------------------
    def bunch_size(self, u: int) -> int:
        """|{w : u ∈ C(w)}| — the number of trees u participates in."""
        return len(self.tables[u].trees)

    def cluster_size(self, w: int) -> int:
        return self.tree_sizes[w]

    def landmark_count(self) -> int:
        return int(self.hierarchy.top_level().size)


def build_tz_scheme(
    graph: Graph,
    ported: Optional[PortedGraph] = None,
    *,
    k: int = 2,
    rng: RngLike = None,
    sampling: str = "bernoulli",
    levels: Optional[Sequence[np.ndarray]] = None,
    consistent_pivots: bool = True,
    cluster_method: str = "auto",
    builder: Optional[str] = "reference",
) -> TZRoutingScheme:
    """Preprocess ``graph`` into a :class:`TZRoutingScheme`.

    Parameters
    ----------
    ported:
        Port assignment; defaults to the deterministic ``"sorted"`` one.
    k:
        Number of hierarchy levels (stretch ``4k−5``; ``k=2`` → 3).
    sampling:
        ``"bernoulli"`` or ``"capped"`` (see
        :func:`repro.core.landmarks.build_hierarchy`); ignored when
        explicit ``levels`` are given (used by the §3 specialization).
    consistent_pivots:
        Must stay ``True`` for correctness; exposed for ablation A2.
    builder:
        ``"reference"`` (the per-node construction below) or
        ``"vectorized"`` — the array-program pipeline of
        :mod:`repro.core.build`, which produces a bit-identical scheme;
        ``cluster_method`` only applies to the per-node path.  Either
        way the scheme carries its array form, which the batch engine
        compiles.  ``None`` is ``"vectorized"``, as wherever construction
        is selected (:func:`~repro.core.build.resolve_builder`).

    The inputs resolve as :func:`~repro.core.build.build_arrays` resolves
    them: a disconnected graph is refused, and the hierarchy comes from
    ``levels`` or is sampled from ``rng``.
    """
    from .build import _resolve_inputs, resolve_builder
    from .build.arrays import scheme_from_arrays
    from .build.reference import hierarchy_clusters, pack_clusters
    from .build.vectorized import vectorized_arrays

    builder = resolve_builder(builder)
    ported, hierarchy = _resolve_inputs(
        graph, k, ported, rng, sampling, levels, consistent_pivots
    )

    if builder == "vectorized":
        arrays = vectorized_arrays(graph, ported, hierarchy)
        return scheme_from_arrays(graph, ported, arrays)

    # --- clusters, then one tree router per cluster, packed as arrays --
    clusters = hierarchy_clusters(graph, hierarchy, method=cluster_method)
    arrays, routers = pack_clusters(graph, ported, hierarchy, clusters)
    tree_sizes: Dict[int, int] = {}
    tree_labels: Dict[int, Dict[int, TreeLabel]] = {}
    tables: Dict[int, VertexTable] = {
        u: VertexTable(u=u, trees={}, own_labels={}, members={}, pivots=tuple())
        for u in range(graph.n)
    }
    # Level-0 distances bound the source-side member maps: the 4k−5
    # strategy only ever asks "is v in my *level-0* cluster?", and
    # level-0 clusters of landmarks are (nearly) empty — storing the
    # full level-i cluster at a top-level vertex would cost Θ(n).
    d1 = hierarchy.dist[1] if hierarchy.k >= 2 else np.full(graph.n, np.inf)
    for w, cluster in clusters.items():
        router = routers[w]
        tree_sizes[w] = len(cluster)
        tree_labels[w] = router.labels
        for x, record in router.records.items():
            tables[x].trees[w] = record
            tables[x].own_labels[w] = router.labels[x]
        tables[w].members = {
            v: mu
            for v, mu in router.labels.items()
            if v == w or cluster.dist[v] < d1[v]
        }

    # --- pivots per vertex, and the destination labels -----------------
    # (packing already refused pivots whose cluster misses the vertex)
    labels: Dict[int, TZLabel] = {}
    for v in range(graph.n):
        tables[v].pivots = tuple(
            int(hierarchy.pivot[i, v]) for i in range(1, hierarchy.k)
        )
        entries: List[LabelEntry] = []
        for i in range(1, hierarchy.k):
            w = int(hierarchy.pivot[i, v])
            entries.append(LabelEntry(w, tree_labels[w][v]))
        labels[v] = TZLabel(v, tuple(entries))

    return TZRoutingScheme(
        graph, ported, hierarchy, tables, labels, tree_sizes, tree_labels, arrays
    )
