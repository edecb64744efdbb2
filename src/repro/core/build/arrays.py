"""The columnar form of a fully-built TZ scheme, shared by both builders.

:class:`SchemeArrays` is the common output format of the reference
(per-node) and vectorized builders: one flat **entry** per
``(cluster center w, member v)`` pair, sorted by ``w * n + v``, carrying
the in-cluster distance, the SPT parent, the §2 tree-record fields and
the light-port sequence.  See :mod:`repro.core.build` for the full
layout.  Because both builders emit the same format, the differential
suite (``tests/test_builder_equivalence.py``) can compare them
field-by-field with ``np.array_equal`` — bit-identical or it fails.

:func:`assemble_arrays` derives the *shared* structure, the label
entry positions, from the builder-specific core fields, so a
disagreement between builders can only originate in what they actually
compute independently: membership, distances, parents, entry links,
tree records and light ports.  A patch hands it the scheme it spliced
from, whose label positions it shares when their inputs are that
scheme's own.  An entry is named by its tree slice ``cl_indptr`` and
its member, from the frontier sweep on: no scheme has a key or center
column.  :meth:`SchemeArrays.entry_centers` makes the centers for a
caller that needs them, and only the numpy references form the int64
keys ``tree * n + member``, each through :func:`entry_keys`.  No bunch
is stored: ``B(v) = {w : v ∈ C(w)}`` is the clusters read the other way
round, the centers of the entries whose member is ``v``.

Every column has one dtype, :data:`COLUMN_DTYPES`, from the pass that
makes it to the container that stores it: per-entry integers are
int32, the offsets into entry-sized columns int64, distances float64.
The light ports ``lp_data`` are the one column whose width follows the
graph (:func:`light_port_dtype`): uint8 while every degree is at most
255, else int32.  :func:`check_index_sizes` refuses a scheme whose
vertex, arc or entry count the int32 columns cannot hold, before any
column is narrowed; and :func:`entry_keys` forms every key in int64 (an
int32 column times a Python ``int`` stays int32 under NumPy 2, and
wraps silently once ``n`` passes 46,341).

:func:`scheme_from_arrays` materializes the dict-based
:class:`~repro.core.scheme_k.TZRoutingScheme` the hop-by-hop simulator
routes on — the compatibility bridge between the array world and the
object world.  Every ``TZRoutingScheme`` carries its arrays, whichever
builder made it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...errors import PreprocessingError
from ...graphs.graph import Graph
from ...graphs.ports import PortedGraph
from ...kernels import resolve_kernel
from ...kernels.records import derive_entries_native, derive_refusal, label_bits_native
from ...kernels.splice import label_positions_native
from ...trees.label_codec import TreeLabel, f_width_array, tree_label_bits_array
from ...trees.tz_tree import TreeLocalRecord
from ..labels import LabelEntry, TZLabel
from ..landmarks import Hierarchy, level0_sources
from ..tables import VertexTable


_U8, _I32, _I64, _F64 = (
    np.dtype(np.uint8), np.dtype(np.int32), np.dtype(np.int64), np.dtype(np.float64)
)

#: The width rule: each :class:`SchemeArrays` column's dtype, everywhere
#: (build, patch, compile and load).  int32 for per-entry integers, int64
#: for offsets whose values can pass 2^31 and for the per-vertex label
#: positions, float64 for distances.  ``lp_data`` is not here: its
#: dtype is one of :data:`LIGHT_PORT_DTYPES`, chosen per graph by
#: :func:`light_port_dtype`.
COLUMN_DTYPES: Dict[str, np.dtype] = {
    "cl_indptr": _I64,
    "ent_member": _I32,
    "ent_dist": _F64,
    "ent_parent": _I32,
    "ent_parent_epos": _I32,
    "ent_heavy_epos": _I32,
    "tr_f": _I32,
    "tr_finish": _I32,
    "tr_heavy_finish": _I32,
    "tr_light_depth": _I32,
    "tr_parent_port": _I32,
    "tr_heavy_port": _I32,
    "lp_indptr": _I64,
    "lab_epos": _I64,
}

#: The two widths of ``lp_data``: one byte a port while every port fits
#: one, else int32 like every other per-entry integer.
LIGHT_PORT_DTYPES = (_U8, _I32)


def light_port_dtype(g_indptr: np.ndarray) -> np.dtype:
    """The width rule of ``lp_data`` on the graph of CSR row offsets
    ``g_indptr``: uint8 when its maximum degree is at most 255, else
    int32.  A port never exceeds its vertex's degree, so every light
    port fits the width this picks."""
    degrees = np.diff(g_indptr)
    return _U8 if degrees.size == 0 or int(degrees.max()) <= np.iinfo(_U8).max else _I32


def fit_light_ports(lp_data: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``lp_data`` as a contiguous column of ``dtype``, one of
    :data:`LIGHT_PORT_DTYPES` (itself when it already is one); raises
    :class:`PreprocessingError` for a port that ``dtype`` cannot hold,
    before converting."""
    lp_data = np.asarray(lp_data)
    if lp_data.dtype != dtype and lp_data.size:
        info = np.iinfo(dtype)
        if int(lp_data.min()) < info.min or int(lp_data.max()) > info.max:
            raise PreprocessingError(
                f"a light port does not fit lp_data's {np.dtype(dtype).name} width"
            )
    return np.ascontiguousarray(lp_data, dtype=dtype)


#: One past the largest vertex id, arc index or entry index an int32
#: column holds.
INDEX_LIMIT = 2**31


def check_index_sizes(
    n: int, arcs: int, entries: int, error=PreprocessingError, *, light_ports: int = 0
) -> None:
    """Raise ``error`` unless ``n`` vertices, ``arcs`` arcs (2m),
    ``entries`` entries and ``light_ports`` light ports (the int32
    ``lp_off`` record field indexes them) all fit the int32 columns of
    the width rule."""
    sizes = {"vertices": n, "arcs": arcs, "entries": entries, "light ports": light_ports}
    over = {what: int(size) for what, size in sizes.items() if size >= INDEX_LIMIT}
    if over:
        raise error(
            f"{over} exceed the int32 entry columns (each count must be < 2^31)"
        )


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


#: The columns a scheme container does not store: each is an exact
#: function of stored columns and the ``ent`` records, and a loaded
#: :class:`SchemeArrays` derives it the first time a caller reads it
#: (:func:`derive_entries`).  The SPT parent is the member of the
#: parent link; ``ent_dist`` is summed top down, ``d(e) =
#: d(parent_epos(e)) + parent_wt(e)``, 0 at a root, which the build's
#: tight-arc parents satisfy exactly in float64; ``lp_indptr`` is the
#: records' ``lp_off`` column (the prefix sums of the light depths).
DERIVED_COLUMNS = ("ent_dist", "ent_parent", "lp_indptr")


def entry_keys(tree_indptr: np.ndarray, member: np.ndarray) -> np.ndarray:
    """The int64 keys ``tree * n + member`` of the entries that the
    ``n + 1`` tree slices cut from ``member``: how the numpy references,
    and only they, name an entry.  A member outside ``[0, n)`` (a loaded
    compile's members are an unverified map) is refused as the derive
    pass refuses it, :class:`~repro.errors.EncodingError`."""
    n = tree_indptr.shape[0] - 1
    bad = np.flatnonzero((member < 0) | (member >= n))
    if bad.size:
        raise derive_refusal("member", int(bad[0]))
    return np.repeat(np.arange(n, dtype=np.int64) * np.int64(n), np.diff(tree_indptr)) + member


def derive_entries_numpy(
    tree_indptr: np.ndarray,
    member: np.ndarray,
    ent: np.ndarray,
    lp_data: np.ndarray,
    want: Tuple[str, ...],
) -> Dict[str, np.ndarray]:
    """The numpy reference of
    :func:`~repro.kernels.records.derive_entries_native`: the same
    columns, byte for byte, and the same refusals, reading ``ent`` and
    ``lp_data`` only for the columns that need them.  Only the refusal is
    shared: this runs each check over every entry in turn, naming the
    first entry of the first failing check, where the C pass meets the
    faults tree by tree, so on records with several faults the two may
    name different ones."""
    n = tree_indptr.shape[0] - 1
    E = member.shape[0]
    sizes = np.diff(tree_indptr)
    center = np.repeat(np.arange(n, dtype=np.int32), sizes)
    checks = []
    if "ent_parent" in want:
        checks.append(("member", (member < 0) | (member >= n)))
    if "ent_dist" in want or "ent_parent" in want:
        start, end = tree_indptr[:-1][center], tree_indptr[1:][center]
        pe = ent["parent_epos"].astype(np.int64)
        f = ent["f"].astype(np.int64)
        inside = (pe >= start) & (pe < end)
        checks.append(("link", (pe != -1) & ~(inside & (f[np.where(inside, pe, 0)] < f))))
    if "ent_dist" in want:
        slot = start + f
        ranged = (f >= 0) & (f < sizes[center])
        seen = np.zeros(E, dtype=bool)
        if E:
            order = np.flatnonzero(ranged)
            _, index = np.unique(slot[order], return_index=True)
            seen[order] = True
            seen[order[index]] = False  # the first holder of each slot
        checks.append(("dfs", ~ranged | seen))
    light = "lp_indptr" in want or "label_bits" in want
    if light:
        off = ent["lp_off"].astype(np.int64)
        depth = ent["light_depth"].astype(np.int64)
        expect = np.zeros(E, dtype=np.int64)
        np.add(off[:-1], depth[:-1], out=expect[1:])
        checks.append(("light", (off != expect) | (depth < 0) | (off + depth > lp_data.shape[0])))
    for what, mask in checks:
        bad = np.flatnonzero(mask)
        if bad.size:
            raise derive_refusal(what, int(bad[0]))
    out: Dict[str, np.ndarray] = {}
    if "ent_parent" in want:
        out["ent_parent"] = np.where(pe < 0, -1, member[np.maximum(pe, 0)]).astype(np.int32)
    if "ent_dist" in want:
        dist = np.zeros(E)
        wt = ent["parent_wt"]
        known = pe < 0
        while not known.all():  # one depth of every tree per step
            ready = ~known & known[np.maximum(pe, 0)]
            dist[ready] = dist[pe[ready]] + wt[ready]
            known |= ready
        out["ent_dist"] = dist
    if light:
        total = int(off[-1] + depth[-1]) if E else 0
        if total != lp_data.shape[0]:
            raise derive_refusal("light", max(E - 1, 0))
        lp_indptr = np.append(off, np.int64(total))
        if "lp_indptr" in want:
            out["lp_indptr"] = lp_indptr
        if "label_bits" in want:
            out["label_bits"] = tree_label_bits_array(
                sizes[center], lp_indptr, lp_data
            ).astype(np.int32)
    return out


def derive_entries(
    tree_indptr: np.ndarray,
    member: np.ndarray,
    ent: np.ndarray,
    lp_data: np.ndarray,
    want: Tuple[str, ...],
) -> Dict[str, np.ndarray]:
    """The :data:`~repro.kernels.records.DERIVABLE` columns named in
    ``want``, from a scheme's tree slices, members, ``ent`` records and
    light ports, on the platform's kernel: the native derive pass, else
    :func:`derive_entries_numpy`.  Refuses records it cannot read
    through with :class:`~repro.errors.EncodingError`."""
    if resolve_kernel("auto") == "native":
        return derive_entries_native(tree_indptr, member, ent, lp_data, want)
    return derive_entries_numpy(tree_indptr, member, ent, lp_data, want)


@dataclass
class SchemeArrays:
    """A complete TZ scheme as flat arrays (see module/package docstring).

    ``E`` is the total entry count ``Σ_w |C(w)|``; entry order is
    ``(center, member)`` lexicographic: center ``w``'s tree slice
    ``cl_indptr[w] .. cl_indptr[w+1]`` holds its members ascending.
    """

    n: int
    k: int
    hierarchy: Hierarchy
    # -- cluster CSR: one cluster per vertex, at its top level ----------
    cl_indptr: np.ndarray  # (n+1,) entries of center w: [cl_indptr[w], cl_indptr[w+1])
    ent_member: np.ndarray  # (E,) ascending in each tree slice
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
    lp_data: np.ndarray  # (L,) root-to-leaf light-edge ports, uint8 or int32
    # -- label entry positions: row 0 = (v, v), row i = (p_i(v), v) ------
    lab_epos: np.ndarray  # (k, n)

    def __post_init__(self) -> None:
        """Refuse any column off the width rule (:data:`COLUMN_DTYPES`,
        and one of :data:`LIGHT_PORT_DTYPES` for ``lp_data``), so no pass
        downstream meets another dtype.  Which of the two light-port
        widths the graph calls for is checked where the graph is known:
        :func:`assemble_arrays` writes it, a compile and a load refuse
        any other.  A :data:`DERIVED_COLUMNS` column given as None is
        derived on first read (:meth:`__getattr__`)."""
        cols = self.__dict__
        for name in DERIVED_COLUMNS:
            if cols[name] is None:
                del cols[name]
        bad = [
            name
            for name, dtype in COLUMN_DTYPES.items()
            if name in cols and cols[name].dtype != dtype
        ]
        if self.lp_data.dtype not in LIGHT_PORT_DTYPES:
            bad.append("lp_data")
        if bad:
            raise PreprocessingError(
                f"scheme columns {bad} are not of their width-rule dtypes"
            )

    #: The ``ent`` records of a loaded scheme, which its record-held
    #: columns are fields of and its derived columns are computed from
    #: (None for a built or patched scheme, which holds every column).
    _records = None

    def __getattr__(self, name: str):
        """A :data:`DERIVED_COLUMNS` column given as None, derived from a
        loaded scheme's records the first time it is read; from then on
        it is an instance attribute like any given column (columns are
        append-only, so the cache is safe)."""
        if name not in DERIVED_COLUMNS:
            raise AttributeError(name)
        if self._records is None:
            raise AttributeError(f"{name} was neither given nor derivable")
        value = derive_entries(
            self.cl_indptr, self.ent_member, self._records, self.lp_data, (name,)
        )[name]
        self.__dict__[name] = value
        return value

    @property
    def entry_count(self) -> int:
        """Total number of (tree, member) entries, ``E``."""
        return int(self.ent_member.shape[0])

    def tree_sizes(self) -> np.ndarray:
        """``|C(w)|`` per center, ``(n,)``."""
        return np.diff(self.cl_indptr)

    def entry_centers(self) -> np.ndarray:
        """The center of every entry, ``(E,)`` int32, made on each call
        from the tree slices and never kept: no scheme has a center
        column, so a caller holds this only as long as it needs it."""
        return np.repeat(np.arange(self.n, dtype=np.int32), self.tree_sizes())

    def bunch_sizes(self) -> np.ndarray:
        """``|B(v)|`` per vertex, ``(n,)``: the entries whose member is ``v``."""
        return np.bincount(self.ent_member, minlength=self.n)

    def entry_label_bits(self) -> np.ndarray:
        """Encoded tree-label bits of every entry-as-destination, ``(E,)`` int32.

        Cached: :meth:`table_bits` and :meth:`label_bits` both read
        this column, and at scale it dominates their cost (arrays are
        append-only once assembled, so the cache is safe).  A loaded
        scheme, which stores no label bits, derives them from its
        records (:func:`derive_entries`); a built or patched scheme
        computes them from its light-port CSR, on the platform's kernel:
        natively on the pool
        (:func:`~repro.kernels.records.label_bits_native`, the derive
        pass's C formula), else with the numpy formula
        (:func:`~repro.trees.label_codec.tree_label_bits_array`), the
        reference.  Neither a compile nor a route reads it: a route's
        header bits come from the commit, per committed destination.
        """
        cached = self.__dict__.get("_entry_label_bits")
        if cached is not None:
            return cached
        if self._records is not None:
            elb = derive_entries(
                self.cl_indptr, self.ent_member, self._records, self.lp_data, ("label_bits",)
            )["label_bits"]
        elif resolve_kernel("auto") == "native":
            elb = label_bits_native(self.cl_indptr, self.lp_indptr, self.lp_data)
        else:
            sizes = self.tree_sizes()
            elb = tree_label_bits_array(
                np.repeat(sizes, sizes), self.lp_indptr, self.lp_data
            ).astype(np.int32)
        self._entry_label_bits = elb
        return elb

    def level0_entries(self, center: Optional[np.ndarray] = None) -> np.ndarray:
        """Mask of the entries ``(source, v)`` with ``v`` in the source's
        level-0 cluster, ``(E,)`` bool: every entry of a source that
        checks level 0 (:func:`~repro.core.landmarks.level0_sources`),
        and each other source's root.  ``center`` is
        :meth:`entry_centers`, when the caller has it already."""
        if center is None:
            center = self.entry_centers()
        level0 = level0_sources(self.hierarchy.pivot)
        return level0[center] | (self.ent_member == center)

    def table_bits(self, max_port: int) -> np.ndarray:
        """Per-vertex measured table bits, ``(n,)`` — the vectorized
        counterpart of :meth:`repro.core.tables.VertexTable.size_bits`.

        A vertex ``u`` pays, per tree it participates in (its bunch, read
        off the entry columns), one id, the fixed-width §2 record (four
        DFS fields at the tree's width, two ports at the graph's port
        width) and its own encoded tree label; per level-0 member, one id
        plus the member's label; plus ``k−1`` pivot ids.  The level-0
        members are the whole tree slice of a source that checks level 0
        (:func:`~repro.core.landmarks.level0_sources`) and the root alone
        of any other.  Bit-identical to the dict-world sum (the backend
        contract suite enforces it).
        """
        id_bits = (max(self.n - 1, 0)).bit_length()
        pw = max(1, int(max_port).bit_length())
        center = self.entry_centers()
        elb = self.entry_label_bits()
        per_entry = id_bits + 4 * f_width_array(self.tree_sizes())[center] + 2 * pw + elb
        # Weighted bincount is exact here: every sum stays far below 2^53.
        bits = np.bincount(
            self.ent_member, weights=per_entry.astype(np.float64), minlength=self.n
        ).astype(np.int64)
        mem = self.level0_entries(center)
        bits += np.bincount(
            center[mem],
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
        center = self.entry_centers()
        centers = self.ent_parent < 0
        if not np.array_equal(self.ent_member[centers], center[centers]):
            raise PreprocessingError("only cluster centers may lack an SPT parent")
        if np.any(self.ent_dist[centers] != 0.0):
            raise PreprocessingError("center distance must be 0")
        rest = ~centers
        # Subpath closure: parents are members (guaranteed found by
        # construction) with strictly smaller distance.
        if np.any(self.ent_dist[self.ent_parent_epos[rest]] >= self.ent_dist[rest]):
            raise PreprocessingError("distances not strictly increasing along SPT edges")
        sizes = self.tree_sizes()
        if np.any(self.tr_finish - self.tr_f + 1 > sizes[center]):
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


def _label_positions_numpy(
    n: int, k: int, cl_indptr: np.ndarray, ent_member: np.ndarray, pivot: np.ndarray
) -> Dict[str, object]:
    """The numpy reference of
    :func:`~repro.kernels.splice.label_positions_native`: the same
    ``lab_epos``, byte for byte, and the same ``missing_level``, found
    by one ``searchsorted`` per level of the keys (:func:`entry_keys`)."""
    keys = entry_keys(cl_indptr, ent_member)
    verts = np.arange(n, dtype=np.int64)
    lab_epos = np.empty((k, n), dtype=np.int64)
    out: Dict[str, object] = {"lab_epos": lab_epos, "missing_level": None}
    for i in range(k):
        want = (verts if i == 0 else pivot[i]) * np.int64(n) + verts
        pos = np.minimum(np.searchsorted(keys, want), max(keys.size - 1, 0))
        if keys.size == 0 or not np.array_equal(keys[pos], want):
            out["missing_level"] = i
            break
        lab_epos[i] = pos
    return out


def _column(name: str, col: np.ndarray) -> np.ndarray:
    """``col`` as a contiguous array of column ``name``'s dtype (itself
    when it already is one)."""
    return np.ascontiguousarray(col, dtype=COLUMN_DTYPES[name])


def _same_values(mine: np.ndarray, theirs: np.ndarray) -> bool:
    return mine is theirs or np.array_equal(mine, theirs)


def assemble_arrays(
    graph: Graph,
    ported: PortedGraph,
    hierarchy: Hierarchy,
    *,
    cl_indptr: np.ndarray,
    ent_member: np.ndarray,
    ent_dist: np.ndarray,
    ent_parent: np.ndarray,
    ent_parent_epos: np.ndarray,
    ent_heavy_epos: np.ndarray,
    tr_f: np.ndarray,
    tr_finish: np.ndarray,
    tr_heavy_finish: np.ndarray,
    tr_light_depth: np.ndarray,
    tr_parent_port: np.ndarray,
    tr_heavy_port: np.ndarray,
    lp_indptr: np.ndarray,
    lp_data: np.ndarray,
    parent: Optional[SchemeArrays] = None,
) -> SchemeArrays:
    """Assemble a scheme from builder-specific core fields, deriving the
    one shared structure, the label positions.

    The label positions are computed the same way for both builders (so
    they cannot mask a core-field mismatch), on the platform's kernel:
    natively by :func:`~repro.kernels.splice.label_positions_native` in
    one pool run, each a search of a tree's slice of the members, else
    by :func:`_label_positions_numpy`, the reference.  A member outside
    ``[0, n)`` is refused with :class:`PreprocessingError`.

    ``parent`` is the scheme a patch spliced these columns from: when
    the tree slices and members are the parent's own column objects and
    the pivots equal, the label positions are the parent's, not a copy.
    Columns are append-only once assembled, so sharing is safe.

    Every column comes out in its :data:`COLUMN_DTYPES` dtype (builders
    hand most of them over in it already), and ``lp_data`` at the
    graph's :func:`light_port_dtype` (refused, with
    :class:`PreprocessingError`, if a port does not fit it); a graph or
    scheme too large for the int32 columns raises
    :class:`PreprocessingError` first.
    """
    n = graph.n
    k = hierarchy.k
    E = ent_member.shape[0]
    check_index_sizes(n, graph.adj.shape[0], E)
    lp_data = fit_light_ports(lp_data, light_port_dtype(graph.indptr))
    cl_indptr = _column("cl_indptr", cl_indptr)
    ent_member = _column("ent_member", ent_member)
    if E and (int(ent_member.min()) < 0 or int(ent_member.max()) >= n):
        raise PreprocessingError("an entry's member lies outside [0, n)")
    if parent is not None and (parent.n, parent.k) != (n, k):
        parent = None
    keep_labels = (
        parent is not None
        and cl_indptr is parent.cl_indptr
        and ent_member is parent.ent_member
        and _same_values(hierarchy.pivot, parent.hierarchy.pivot)
    )
    if keep_labels:
        lab_epos = parent.lab_epos
    else:
        if resolve_kernel("auto") == "native":
            got = label_positions_native(n, k, cl_indptr, ent_member, hierarchy.pivot)
        else:
            got = _label_positions_numpy(n, k, cl_indptr, ent_member, hierarchy.pivot)
        if got["missing_level"] is not None:
            raise _label_fault(got["missing_level"])
        lab_epos = got["lab_epos"]

    columns = dict(
        cl_indptr=cl_indptr,
        ent_member=ent_member,
        ent_dist=ent_dist,
        ent_parent=ent_parent,
        ent_parent_epos=ent_parent_epos,
        ent_heavy_epos=ent_heavy_epos,
        tr_f=tr_f,
        tr_finish=tr_finish,
        tr_heavy_finish=tr_heavy_finish,
        tr_light_depth=tr_light_depth,
        tr_parent_port=tr_parent_port,
        tr_heavy_port=tr_heavy_port,
        lp_indptr=lp_indptr,
        lab_epos=lab_epos,
    )
    return SchemeArrays(
        n=n,
        k=k,
        hierarchy=hierarchy,
        lp_data=lp_data,
        **{name: _column(name, col) for name, col in columns.items()},
    )


def scheme_from_arrays(graph: Graph, ported: PortedGraph, arrays: SchemeArrays):
    """Materialize the dict-based :class:`TZRoutingScheme` from arrays.

    Produces exactly what :func:`repro.core.scheme_k.build_tz_scheme`
    builds per-node (the differential suite asserts this): same records,
    tree labels, level-0 members (read off the tree slices,
    :meth:`SchemeArrays.level0_entries`), pivots and destination labels.
    The scheme carries ``arrays`` itself, so its batch compile reads
    them directly.
    """
    from ..scheme_k import TZRoutingScheme

    n, k = arrays.n, arrays.k
    hierarchy = arrays.hierarchy
    sizes = arrays.tree_sizes()
    center_l = arrays.entry_centers().tolist()
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
    for e in np.flatnonzero(arrays.level0_entries()).tolist():
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
