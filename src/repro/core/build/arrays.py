"""The columnar form of a fully-built TZ scheme, shared by both builders.

:class:`SchemeArrays` is the common output format of the reference
(per-node) and vectorized builders: one flat **entry** per
``(cluster center w, member v)`` pair, sorted by ``w * n + v``, carrying
the in-cluster distance, the SPT parent, the §2 tree-record fields and
the light-port sequence.  See :mod:`repro.core.build` for the full
layout.  Because both builders emit the same format, the differential
suite (``tests/test_builder_equivalence.py``) can compare them
field-by-field with ``np.array_equal`` — bit-identical or it fails.

:func:`assemble_arrays` derives the *shared* structures (entry keys,
parent/heavy entry links, level-0 member maps, label entry positions,
the bunch CSR) from the builder-specific core fields, so a disagreement
between builders can only originate in what they actually compute
independently: membership, distances, parents, tree records and light
ports.  A patch hands it the scheme it spliced from, whose derived
structures it shares wherever their inputs are that scheme's own.

:func:`scheme_from_arrays` materializes the dict-based
:class:`~repro.core.scheme_k.TZRoutingScheme` the hop-by-hop simulator
routes on — the compatibility bridge between the array world and the
object world.  Every ``TZRoutingScheme`` carries its arrays, whichever
builder made it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ...errors import PreprocessingError
from ...graphs.graph import Graph
from ...graphs.ports import PortedGraph
from ...kernels import resolve_kernel
from ...kernels.splice import assemble_native
from ...trees.label_codec import TreeLabel, tree_label_bits_array
from ...trees.tz_tree import TreeLocalRecord
from ..labels import LabelEntry, TZLabel
from ..landmarks import Hierarchy
from ..tables import VertexTable


def port_lookup(ported: PortedGraph) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vectorized ``port(u, v)``: the port at ``u`` of the edge to ``v``.

    Adjacency rows are sorted, so ``u * n + adj`` is one globally sorted
    key array and every lookup is a batched ``searchsorted``.  Callers
    must only ask about existing edges (tree edges always are).
    """
    g = ported.graph
    n = np.int64(g.n)
    arc_keys = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr)) * n + g.adj
    port_of_arc = ported.port_of_arc

    def port(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(arc_keys, u.astype(np.int64) * n + v)
        return port_of_arc[pos]

    return port


def _locate(entry_keys: np.ndarray, keys: np.ndarray, what: str) -> np.ndarray:
    """Positions of ``keys`` in the sorted ``entry_keys``; every key must
    exist (raises :class:`PreprocessingError` otherwise)."""
    if entry_keys.size == 0:
        if keys.size:
            raise PreprocessingError(f"no entries to locate {what} in")
        return np.zeros(0, dtype=np.int64)
    pos = np.minimum(np.searchsorted(entry_keys, keys), entry_keys.size - 1)
    if not np.all(entry_keys[pos] == keys):
        raise PreprocessingError(f"{what} is not a cluster entry (scheme invariant violated)")
    return pos


@dataclass
class SchemeArrays:
    """A complete TZ scheme as flat arrays (see module/package docstring).

    ``E`` is the total entry count ``Σ_w |C(w)|``; entry order is
    ``(center, member)`` lexicographic, i.e. sorted ``entry_keys``.
    """

    n: int
    k: int
    hierarchy: Hierarchy
    # -- cluster CSR: one cluster per vertex, at its top level ----------
    cl_indptr: np.ndarray  # (n+1,) entries of center w: [cl_indptr[w], cl_indptr[w+1])
    entry_keys: np.ndarray  # (E,) sorted: center * n + member
    ent_center: np.ndarray  # (E,)
    ent_member: np.ndarray  # (E,)
    ent_dist: np.ndarray  # (E,) exact d(center, member)
    ent_parent: np.ndarray  # (E,) SPT parent vertex id, -1 at the center
    ent_parent_epos: np.ndarray  # (E,) entry index of the parent, -1 at the center
    ent_heavy_epos: np.ndarray  # (E,) entry index of the heavy child, -1 at leaves
    # -- §2 tree records per entry --------------------------------------
    tr_f: np.ndarray  # (E,) heavy-first DFS number
    tr_finish: np.ndarray  # (E,) end of the member's DFS interval
    tr_heavy_finish: np.ndarray  # (E,) end of the heavy child's interval (= f at leaves)
    tr_light_depth: np.ndarray  # (E,) light edges on the root path
    tr_parent_port: np.ndarray  # (E,) port toward the parent (0 at the root)
    tr_heavy_port: np.ndarray  # (E,) port toward the heavy child (0 at leaves)
    # -- light-port sequences (the member as a destination) -------------
    lp_indptr: np.ndarray  # (E+1,)
    lp_data: np.ndarray  # (L,) root-to-leaf light-edge ports
    # -- source-side level-0 member maps --------------------------------
    mem_keys: np.ndarray  # (M,) sorted subset of entry_keys
    mem_epos: np.ndarray  # (M,) entry index of each member-map pair
    # -- label entry positions: row 0 = (v, v), row i = (p_i(v), v) ------
    lab_epos: np.ndarray  # (k, n)
    # -- bunches: the transpose of the cluster CSR ----------------------
    # B(v) = {w : v ∈ C(w)} is ent_center[bunch_epos[lo:hi]] (distances
    # likewise through ent_dist), lo:hi = bunch_indptr[v]:bunch_indptr[v+1]
    bunch_indptr: np.ndarray  # (n+1,)
    bunch_epos: np.ndarray  # (E,) entry index of each (w, v) pair, by v

    @property
    def entry_count(self) -> int:
        return int(self.entry_keys.shape[0])

    def tree_sizes(self) -> np.ndarray:
        """``|C(w)|`` per center, ``(n,)``."""
        return np.diff(self.cl_indptr)

    def bunch_sizes(self) -> np.ndarray:
        """``|B(v)|`` per vertex, ``(n,)``."""
        return np.diff(self.bunch_indptr)

    def entry_label_bits(self) -> np.ndarray:
        """Encoded tree-label bits of every entry-as-destination, ``(E,)``.

        Cached: the builder, the engine compile and the size accounting
        all need this column, and at scale it dominates their shared
        cost (arrays are append-only once assembled, so the cache is
        safe).  :func:`~repro.sim.engine.compile.compile_from_arrays`
        fills the cache from its record pass when it is empty.
        """
        cached = getattr(self, "_entry_label_bits", None)
        if cached is not None:
            return cached
        sizes = self.tree_sizes()[self.ent_center]
        # frexp exponent == bit_length; sizes - 1 == 0 -> 0-bit DFS field
        # (single-vertex trees), matching label_codec._f_width.
        f_width = np.frexp((sizes - 1).astype(np.float64))[1].astype(np.int64)
        elb = tree_label_bits_array(f_width, self.lp_indptr, self.lp_data)
        self._entry_label_bits = elb
        return elb

    def table_bits(self, max_port: int) -> np.ndarray:
        """Per-vertex measured table bits, ``(n,)`` — the vectorized
        counterpart of :meth:`repro.core.tables.VertexTable.size_bits`.

        A vertex ``u`` pays, per tree it participates in (its bunch, read
        off the entry columns), one id, the fixed-width §2 record (four
        DFS fields at the tree's width, two ports at the graph's port
        width) and its own encoded tree label; per level-0 member, one id
        plus the member's label; plus ``k−1`` pivot ids.  Bit-identical
        to the dict-world sum (the backend contract suite enforces it).
        """
        id_bits = (max(self.n - 1, 0)).bit_length()
        pw = max(1, int(max_port).bit_length())
        sizes = self.tree_sizes()
        f_width = np.frexp((sizes - 1).astype(np.float64))[1].astype(np.int64)
        elb = self.entry_label_bits()
        per_entry = id_bits + 4 * f_width[self.ent_center] + 2 * pw + elb
        # Weighted bincount is exact here: every sum stays far below 2^53.
        bits = np.bincount(
            self.ent_member, weights=per_entry.astype(np.float64), minlength=self.n
        ).astype(np.int64)
        mem = self.mem_epos
        bits += np.bincount(
            self.ent_center[mem],
            weights=(id_bits + elb[mem]).astype(np.float64),
            minlength=self.n,
        ).astype(np.int64)
        bits += (self.k - 1) * id_bits
        return bits

    def label_bits(self) -> np.ndarray:
        """Per-vertex encoded TZ-label bits, ``(n,)`` — the vectorized
        counterpart of :func:`repro.core.labels.label_size_bits`."""
        id_bits = (max(self.n - 1, 0)).bit_length()
        elb = self.entry_label_bits()
        bits = np.full(self.n, id_bits, dtype=np.int64)
        pivot = self.hierarchy.pivot
        for i in range(1, self.k):
            bits += 1  # repeat flag
            fresh = np.ones(self.n, dtype=bool) if i == 1 else pivot[i] != pivot[i - 1]
            bits[fresh] += id_bits + elb[self.lab_epos[i][fresh]]
        return bits

    def validate(self) -> None:
        """Structural invariants both builders must satisfy; raises
        :class:`PreprocessingError` on violation.  Used by property tests."""
        centers = self.ent_parent < 0
        if not np.array_equal(self.ent_member[centers], self.ent_center[centers]):
            raise PreprocessingError("only cluster centers may lack an SPT parent")
        if np.any(self.ent_dist[centers] != 0.0):
            raise PreprocessingError("center distance must be 0")
        rest = ~centers
        # Subpath closure: parents are members (guaranteed found by
        # construction) with strictly smaller distance.
        if np.any(self.ent_dist[self.ent_parent_epos[rest]] >= self.ent_dist[rest]):
            raise PreprocessingError("distances not strictly increasing along SPT edges")
        sizes = self.tree_sizes()
        if np.any(self.tr_finish - self.tr_f + 1 > sizes[self.ent_center]):
            raise PreprocessingError("DFS interval exceeds its tree")
        if np.any(np.diff(self.lp_indptr) != self.tr_light_depth):
            raise PreprocessingError("light-port sequence length != light depth")


def _label_fault(level: int) -> PreprocessingError:
    """The error for a vertex with no label entry at ``level``."""
    if level == 0:
        return PreprocessingError(
            "a vertex's own cluster root is not a cluster entry "
            "(scheme invariant violated)"
        )
    return PreprocessingError(
        f"some vertex is not in the cluster of its level-{level} pivot: "
        "pivots are inconsistent (see DESIGN.md §3)"
    )


def _derive_numpy(
    n: int,
    k: int,
    cl_indptr: np.ndarray,
    ent_member: np.ndarray,
    ent_dist: np.ndarray,
    d1: np.ndarray,
    pivot: np.ndarray,
    *,
    entry_keys: Optional[np.ndarray],
    ent_center: Optional[np.ndarray],
    maps: bool,
    labels: bool,
    bunch: bool,
) -> Dict[str, object]:
    """The numpy reference of :func:`~repro.kernels.splice.assemble_native`:
    the same structures, byte for byte, under the same keys."""
    out: Dict[str, object] = {}
    if entry_keys is None:
        ent_center = np.repeat(np.arange(n, dtype=np.int64), np.diff(cl_indptr))
        entry_keys = ent_center * np.int64(n) + ent_member
        out.update(entry_keys=entry_keys, ent_center=ent_center)
    if maps:
        # Level-0 member maps: the source-side "is v in my cluster?" check is
        # deliberately restricted to d(u, v) < d(A_1, v) — see core.tables.
        mem_epos = np.flatnonzero((ent_member == ent_center) | (ent_dist < d1[ent_member]))
        out.update(mem_epos=mem_epos, mem_keys=entry_keys[mem_epos])
    if labels:
        verts = np.arange(n, dtype=np.int64)
        lab_epos = np.empty((k, n), dtype=np.int64)
        out.update(lab_epos=lab_epos, missing_level=None)
        for i in range(k):
            w = verts if i == 0 else pivot[i]
            try:
                lab_epos[i] = _locate(entry_keys, w * np.int64(n) + verts, "a label entry")
            except PreprocessingError:
                out["missing_level"] = i
                break
    if bunch:
        # Bunches are the transpose of the cluster CSR: a stable sort by
        # member keeps each member's centers ascending (the entry order).
        bunch_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ent_member, minlength=n), out=bunch_indptr[1:])
        out.update(
            bunch_indptr=bunch_indptr,
            bunch_epos=np.argsort(ent_member, kind="stable").astype(np.int64, copy=False),
        )
    return out


def _same_values(mine: np.ndarray, theirs: np.ndarray) -> bool:
    return mine is theirs or np.array_equal(mine, theirs)


#: The structures assemble derives from the entry keys, by the part of
#: the derivation that makes them (the ``maps``/``labels``/``bunch``
#: switches of :func:`_derive_numpy` and ``assemble_native``).
_DERIVED_PARTS = {
    "maps": ("mem_keys", "mem_epos"),
    "labels": ("lab_epos",),
    "bunch": ("bunch_indptr", "bunch_epos"),
}


def assemble_arrays(
    graph: Graph,
    ported: PortedGraph,
    hierarchy: Hierarchy,
    *,
    cl_indptr: np.ndarray,
    ent_member: np.ndarray,
    ent_dist: np.ndarray,
    ent_parent: np.ndarray,
    heavy_vertex: Optional[np.ndarray] = None,
    tr_f: np.ndarray,
    tr_finish: np.ndarray,
    tr_heavy_finish: np.ndarray,
    tr_light_depth: np.ndarray,
    tr_parent_port: np.ndarray,
    tr_heavy_port: np.ndarray,
    lp_indptr: np.ndarray,
    lp_data: np.ndarray,
    ent_parent_epos: Optional[np.ndarray] = None,
    ent_heavy_epos: Optional[np.ndarray] = None,
    entry_keys: Optional[np.ndarray] = None,
    ent_center: Optional[np.ndarray] = None,
    parent: Optional[SchemeArrays] = None,
) -> SchemeArrays:
    """Derive the shared structures from builder-specific core fields.

    ``heavy_vertex[e]`` is the heavy child's *vertex id* (-1 at leaves);
    parents/heavy children are resolved back to entry positions here
    (builders that already hold the entry links pass them through — when
    ``ent_heavy_epos`` is supplied ``heavy_vertex`` may be omitted), and
    the entry keys, member maps, label positions and bunch CSR are
    computed the same way for both builders (so they cannot mask a
    core-field mismatch), on the platform's kernel: natively in two
    pool runs (:func:`~repro.kernels.splice.assemble_native`), else by
    :func:`_derive_numpy`, the reference.

    A caller that already holds ``entry_keys`` and ``ent_center`` (the
    patch splice) passes both; they are trusted to match ``(cl_indptr,
    ent_member)``.  ``parent`` is the scheme a patch spliced these
    columns from: every derived structure whose inputs are the parent's
    own column objects (or equal hierarchy rows) is the parent's, not a
    copy — the member maps when the keys and ``ent_dist`` are and
    ``d(A_1, ·)`` is equal, the label positions when the keys are and
    the pivots equal, the bunch CSR when the members are.  Columns are
    append-only once assembled, so sharing is safe.
    """
    n = graph.n
    k = hierarchy.k
    E = ent_member.shape[0]
    if parent is not None and (parent.n, parent.k) != (n, k):
        parent = None
    if ent_center is None:
        entry_keys = None  # derived together
    same_keys = parent is not None and entry_keys is parent.entry_keys
    d1 = hierarchy.dist[1] if k >= 2 else np.full(n, np.inf)
    keep = dict(
        maps=same_keys
        and ent_dist is parent.ent_dist
        and (k < 2 or _same_values(d1, parent.hierarchy.dist[1])),
        labels=same_keys and _same_values(hierarchy.pivot, parent.hierarchy.pivot),
        bunch=parent is not None and ent_member is parent.ent_member,
    )
    got: Dict[str, object] = {}
    if entry_keys is None or not all(keep.values()):
        derive = assemble_native if resolve_kernel("auto") == "native" else _derive_numpy
        got = derive(
            n,
            k,
            cl_indptr,
            ent_member,
            ent_dist,
            d1,
            hierarchy.pivot,
            entry_keys=entry_keys,
            ent_center=ent_center,
            **{part: not kept for part, kept in keep.items()},
        )
    if got.get("missing_level") is not None:
        raise _label_fault(got["missing_level"])
    entry_keys = got.get("entry_keys", entry_keys)
    ent_center = got.get("ent_center", ent_center)
    for part, names in _DERIVED_PARTS.items():
        if keep[part]:
            got.update((name, getattr(parent, name)) for name in names)

    if ent_parent_epos is not None:
        ent_parent_epos = np.ascontiguousarray(ent_parent_epos, dtype=np.int64)
    else:
        ent_parent_epos = np.full(E, -1, dtype=np.int64)
        hasp = ent_parent >= 0
        ent_parent_epos[hasp] = _locate(
            entry_keys,
            ent_center[hasp] * np.int64(n) + ent_parent[hasp],
            "an SPT parent",
        )
    if ent_heavy_epos is not None:
        ent_heavy_epos = np.ascontiguousarray(ent_heavy_epos, dtype=np.int64)
    else:
        if heavy_vertex is None:
            raise PreprocessingError(
                "assemble_arrays needs heavy_vertex when ent_heavy_epos is absent"
            )
        ent_heavy_epos = np.full(E, -1, dtype=np.int64)
        hash_ = heavy_vertex >= 0
        ent_heavy_epos[hash_] = _locate(
            entry_keys,
            ent_center[hash_] * np.int64(n) + heavy_vertex[hash_],
            "a heavy child",
        )

    return SchemeArrays(
        n=n,
        k=k,
        hierarchy=hierarchy,
        cl_indptr=np.ascontiguousarray(cl_indptr, dtype=np.int64),
        entry_keys=entry_keys,
        ent_center=ent_center,
        ent_member=np.ascontiguousarray(ent_member, dtype=np.int64),
        ent_dist=np.ascontiguousarray(ent_dist, dtype=np.float64),
        ent_parent=np.ascontiguousarray(ent_parent, dtype=np.int64),
        ent_parent_epos=ent_parent_epos,
        ent_heavy_epos=ent_heavy_epos,
        tr_f=np.ascontiguousarray(tr_f, dtype=np.int64),
        tr_finish=np.ascontiguousarray(tr_finish, dtype=np.int64),
        tr_heavy_finish=np.ascontiguousarray(tr_heavy_finish, dtype=np.int64),
        tr_light_depth=np.ascontiguousarray(tr_light_depth, dtype=np.int64),
        tr_parent_port=np.ascontiguousarray(tr_parent_port, dtype=np.int64),
        tr_heavy_port=np.ascontiguousarray(tr_heavy_port, dtype=np.int64),
        lp_indptr=np.ascontiguousarray(lp_indptr, dtype=np.int64),
        lp_data=np.ascontiguousarray(lp_data, dtype=np.int64),
        **{name: got[name] for names in _DERIVED_PARTS.values() for name in names},
    )


def scheme_from_arrays(graph: Graph, ported: PortedGraph, arrays: SchemeArrays):
    """Materialize the dict-based :class:`TZRoutingScheme` from arrays.

    Produces exactly what :func:`repro.core.scheme_k.build_tz_scheme`
    builds per-node (the differential suite asserts this): same records,
    tree labels, member maps, pivots and destination labels.  The scheme
    carries ``arrays`` itself, so its batch compile reads them directly.
    """
    from ..scheme_k import TZRoutingScheme

    n, k = arrays.n, arrays.k
    hierarchy = arrays.hierarchy
    sizes = arrays.tree_sizes()
    center_l = arrays.ent_center.tolist()
    member_l = arrays.ent_member.tolist()
    f_l = arrays.tr_f.tolist()
    fin_l = arrays.tr_finish.tolist()
    hfin_l = arrays.tr_heavy_finish.tolist()
    ld_l = arrays.tr_light_depth.tolist()
    pport_l = arrays.tr_parent_port.tolist()
    hport_l = arrays.tr_heavy_port.tolist()
    lp_ptr = arrays.lp_indptr.tolist()
    lp = arrays.lp_data.tolist()

    tables: Dict[int, VertexTable] = {
        u: VertexTable(u=u, trees={}, own_labels={}, members={}, pivots=tuple())
        for u in range(n)
    }
    tree_labels: Dict[int, Dict[int, TreeLabel]] = {w: {} for w in range(n)}
    tree_sizes = {w: int(sizes[w]) for w in range(n)}
    entry_label: List[TreeLabel] = []
    for e in range(arrays.entry_count):
        w, v = center_l[e], member_l[e]
        record = TreeLocalRecord(
            f=f_l[e],
            finish=fin_l[e],
            parent_port=pport_l[e],
            heavy_port=hport_l[e],
            heavy_finish=hfin_l[e],
            light_depth=ld_l[e],
        )
        mu = TreeLabel(f_l[e], tuple(lp[lp_ptr[e] : lp_ptr[e + 1]]))
        entry_label.append(mu)
        tables[v].trees[w] = record
        tables[v].own_labels[w] = mu
        tree_labels[w][v] = mu
    for e in arrays.mem_epos.tolist():
        tables[center_l[e]].members[member_l[e]] = entry_label[e]

    pivot_rows = [hierarchy.pivot[i].tolist() for i in range(k)]
    lab_rows = [arrays.lab_epos[i].tolist() for i in range(k)]
    labels: Dict[int, TZLabel] = {}
    for v in range(n):
        tables[v].pivots = tuple(pivot_rows[i][v] for i in range(1, k))
        entries = tuple(
            LabelEntry(pivot_rows[i][v], entry_label[lab_rows[i][v]]) for i in range(1, k)
        )
        labels[v] = TZLabel(v, entries)

    return TZRoutingScheme(
        graph, ported, hierarchy, tables, labels, tree_sizes, tree_labels, arrays
    )
