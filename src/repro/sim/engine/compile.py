"""Compile a routing scheme into the dense arrays the batch engine routes on.

The Thorup–Zwick model is table-driven: every forwarding decision at a
vertex ``u`` inside a committed tree ``T_w`` is a constant number of
integer comparisons against ``u``'s O(1)-word record plus one indexed
read of the destination's light-port sequence.  That makes the whole
runtime state *columnar*: a :class:`CompiledScheme` materializes

* one **entry record** per (tree ``w``, member ``u``) pair — the §2
  record fields, the parent/heavy ports **resolved to entry links,
  weights and edge ids** through the shared port assignment, and the
  offset of the member's light-port sequence — in the
  :data:`ENT_DTYPE` layout the native kernels read;
* the dense int32 **member** column and the per-tree slices of the
  entries (``tree_indptr``), which every "does ``u`` have a record for
  ``T_w``" lookup searches, the source-side "is the destination in my
  level-0 cluster?" check included (a source's own slice, unless it is
  a landmark: :func:`~repro.core.landmarks.level0_sources`);
* the member-as-destination's light-port sequences, flattened into
  ``lp_data``;
* the **pivot matrix** of the hierarchy (which trees a destination's
  label advertises, level by level);
* the ``(vertex, port) -> (neighbor, edge, weight)`` **step records** of
  the ported graph (:data:`STEP_DTYPE`), so label-carried light ports
  resolve with one gather.

Entries are sorted by ``w * n + u``: tree ``w``'s slice holds its
members ascending.  So the membership test behind both the 4k−5 commit
strategy and the §4 handshake alternation is a binary search of one
tree's slice of the member column (the native kernels) or a vectorized
``searchsorted`` over the int64 keys formed on first read (numpy).

One record layout from compile to kernel: :func:`_resolve_columns`
writes the ``ent`` and ``step`` records once, the numpy reference reads
their fields, the native kernels read them as C structs, and a scheme
container stores them as they are — nothing is repacked before a route.

Compiling runs on the platform's kernel (:func:`_ent_records`, under a
``kernel.compile_records`` span).  Natively, ``tz_compile_records``
writes every record in one linear pass over the tree slices and links
each neighbor through the build's own ``ent_parent_epos`` /
``ent_heavy_epos`` when that hint lies in the entry's tree slice and
holds the neighbor as its member, else by searching that slice — a hint
is checked, never trusted.  The pass writes the records and nothing
else.  The numpy :func:`_resolve_ports` + :func:`_link_entries` stay the
byte-for-byte reference (two global ``searchsorted`` calls over keys
formed there, hints unread).  Both refuse, with
:class:`~repro.errors.EncodingError`, what they would resolve wrongly:
a member outside ``[0, n)``, members not strictly ascending in their
tree slice, a port outside its member's row, or a light-port slice
outside ``lp_data`` or not ``light_depth`` long.

One representation: a :class:`CompiledScheme` is a
:class:`~repro.core.build.arrays.SchemeArrays` plus what a port
assignment derives.  The five columns of :data:`ARRAY_BOUND` *are*
array columns — :func:`compile_from_arrays` binds the very objects, and
a scheme container stores them once — and the nine array columns of
:data:`ARRAYS_IN_RECORD` are fields of the ``ent`` records, which a
container stores in the records only (the member excepted, whose dense
column is bound): seven copied as they are, and the parent and heavy
links, which the records' resolved ``parent_epos`` and ``heavy_epos``
equal whenever the compile ran through the build's own ports (a save
refuses any other).  The three others (:data:`DERIVED`: the two record
columns and the graph's row index) are computed here.  What is an
exact function of all these (:data:`COMPILED_DERIVED`: the int64 keys,
the light-port offsets, the label bits) is no column: a compile keeps
the offsets it was given, and forms the keys and derives the label bits
on first read, as a loaded scheme does all three; the native route
reads none of them.  A compile records which array objects
it wrote into the records (:attr:`CompiledScheme.written_from`), so a
save of those arrays need not compare the records with them.  Every TZ
scheme carries its arrays, so :func:`compile_scheme` is
:func:`compile_from_arrays` behind the §4
:class:`HandshakeRoutingScheme` unwrap; only :func:`compile_single_tree`
lays out its own entries, through the same resolution pass.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ...core.build.arrays import (
    COLUMN_DTYPES,
    check_index_sizes,
    derive_entries,
    entry_keys,
    light_port_dtype,
)
from ...core.landmarks import level0_sources
from ...errors import EncodingError, RoutingError
from ...graphs.ports import PortedGraph
from ...kernels import resolve_kernel
from ...kernels.records import compile_records_native, refusal
from ...kernels.trees import tree_slices
from ...obs import TELEMETRY
from ...trees.tz_tree import records_to_arrays


#: The §2 record of one (tree, member) entry, one 64-byte cache line,
#: laid out exactly as ``ent_rec`` in ``kernels/_native.c`` reads it
#: (``tz_record_layout`` reports the C offsets, and a test holds the two
#: equal): twelve int32 fields — the member and its tree-record fields,
#: then the parent and heavy-child moves as the entry link (``-1``
#: absent, ``-2`` the neighbor has no record in the tree), canonical
#: edge id (``-1`` absent) and port (0 absent), and ``lp_off``, the
#: offset of the entry's light-port slice in ``lp_data``, ``light_depth``
#: ports long — and the two move weights as float64 at offsets 48 and 56.
#: A parent or heavy hop reads nothing beyond its record; the neighbor of
#: a move is a step-row read, made only on the LOST path.
ENT_DTYPE = np.dtype(
    {
        "names": [
            "vertex",
            "f",  # DFS number of the member in its tree
            "finish",  # end of the member's DFS interval
            "heavy_finish",  # end of the heavy child's interval
            "light_depth",  # light edges above the member
            "parent_epos",
            "parent_edge",
            "parent_port",
            "heavy_epos",
            "heavy_edge",
            "heavy_port",
            "lp_off",  # first light port in lp_data
            "parent_wt",
            "heavy_wt",
        ],
        "formats": ["<i4"] * 12 + ["<f8"] * 2,
        "offsets": [4 * i for i in range(12)] + [48, 56],
        "itemsize": 64,
    }
)

#: One half-arc of the ported graph, as ``step_rec`` in ``_native.c``
#: reads it (16 bytes): the neighbor and canonical edge id as int32 and
#: the weight behind ``(u, port)``, at row ``g_indptr[u] + port - 1``.
STEP_DTYPE = np.dtype([("next", "<i4"), ("edge", "<i4"), ("wt", "<f8")])

#: The record columns of a :class:`CompiledScheme` and their dtypes.
RECORDS = {"ent": ENT_DTYPE, "step": STEP_DTYPE}

#: Byte alignment of a compile's ``ent`` records: one record per cache
#: line, as the mapped container blob already is.
RECORD_ALIGN = 64


def _aligned_records(count: int, dtype: np.dtype) -> np.ndarray:
    """An uninitialized ``(count,)`` record column whose first byte sits
    on a :data:`RECORD_ALIGN` boundary."""
    raw = np.empty(count * dtype.itemsize + RECORD_ALIGN, dtype=np.uint8)
    skip = -raw.ctypes.data % RECORD_ALIGN
    return raw[skip : skip + count * dtype.itemsize].view(dtype)


def _resolve_ports(
    g_indptr: np.ndarray, ent_vertex: np.ndarray, port: np.ndarray, step: np.ndarray
):
    """Resolve per-entry port numbers to ``(neighbor, weight, edge)``
    through the target port assignment's step records (0 = no port)."""
    count = port.shape[0]
    nxt = np.full(count, -1, dtype=np.int32)
    wt = np.zeros(count)
    edge = np.full(count, -1, dtype=np.int32)
    have = port > 0
    hop = step[g_indptr[ent_vertex[have]] + port[have] - 1]
    nxt[have] = hop["next"]
    wt[have] = hop["wt"]
    edge[have] = hop["edge"]
    return nxt, wt, edge


def _link_entries(keys: np.ndarray, ent_vertex: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Entry index of each resolved neighbor in the same tree, by its key:
    ``-1`` for no transition, ``-2`` when the neighbor has no record
    there (only possible under a foreign port assignment)."""
    link = np.full(nxt.shape[0], -1, dtype=np.int32)
    have = nxt >= 0
    if have.any() and keys.size:
        # tree * n + neighbor, from the entry's own int64 key tree * n + vertex
        want = keys[have] - ent_vertex[have] + nxt[have]
        pos = np.minimum(np.searchsorted(keys, want), keys.shape[0] - 1)
        found = keys[pos] == want
        link[have] = np.where(found, pos, -2)
    elif have.any():
        link[have] = -2
    return link


def _check_entries(
    tree_indptr: np.ndarray,
    record: Dict[str, np.ndarray],
    ports: Tuple[np.ndarray, np.ndarray],
    g_indptr: np.ndarray,
    lp_indptr: np.ndarray,
    lp_len: int,
) -> None:
    """Refuse what :func:`_resolve_ports` and :func:`_link_entries`
    would resolve wrongly, with vectorized compares: a member outside
    ``[0, n)``, a member not above the one before it in its tree slice
    of ``tree_indptr``, a parent or heavy port outside ``[0,
    deg(member)]`` (which would read the next vertex's step row), and a
    light-port slice outside ``lp_data`` or not ``light_depth`` long,
    whose offset no record may hold.  ``tz_compile_records`` refuses the
    same inline; raises :class:`~repro.errors.EncodingError` naming the
    first entry of the first failing check.  Only the refusal is shared:
    this runs each check over every entry in turn, the C pass meets the
    faults tree slice by tree slice, so on an input with several faults
    the two kernels may name different ones."""

    def refuse_first(what: str, mask: np.ndarray) -> None:
        bad = np.flatnonzero(mask)
        if bad.size:
            raise refusal(what, int(bad[0]))

    vertex = record["vertex"]
    if not vertex.size:
        return
    n = g_indptr.shape[0] - 1
    refuse_first("range", (vertex < 0) | (vertex >= n))
    ascending = np.ones(vertex.shape[0], dtype=bool)
    np.greater(vertex[1:], vertex[:-1], out=ascending[1:])
    ascending[tree_indptr[:-1][tree_indptr[:-1] < vertex.shape[0]]] = True  # slice starts
    refuse_first("order", ~ascending)
    deg = np.diff(g_indptr)[vertex]
    for what, port in zip(("parent", "heavy"), ports):
        refuse_first(what, (port < 0) | (port > deg))
    lo, hi = lp_indptr[:-1], lp_indptr[1:]
    refuse_first(
        "light", (lo < 0) | (hi < lo) | (hi > lp_len) | (hi - lo != record["light_depth"])
    )


def _ent_records(
    tree_indptr: np.ndarray,
    record: Dict[str, np.ndarray],
    ports: Tuple[np.ndarray, np.ndarray],
    links: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    g_indptr: np.ndarray,
    step: np.ndarray,
    kernel: str,
    light: Tuple[np.ndarray, np.ndarray],
    rejected: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The ``ent`` records of the entries ``tree_indptr`` slices (one
    tree per vertex) on ``kernel``, in a :data:`RECORD_ALIGN`-aligned
    column.

    ``record`` holds the tree-record fields of :data:`ENT_DTYPE`
    (``vertex``, the members, through ``light_depth``, int32) and
    ``ports`` the parent
    and heavy ports (0 = none), stored as they are and resolved through
    the ``step`` records to weights and edge ids; each neighbor is then
    linked to its entry row in the same tree.  ``light`` is
    ``(lp_indptr, lp_data)``: the light-port CSR, checked, whose offsets
    become ``lp_off``.  The native kernel does all of it in one C pass
    and tries ``links`` (the build's own parent and heavy entry links and
    SPT parents, or None) before searching the tree's slice; numpy runs
    :func:`_resolve_ports` and :func:`_link_entries` over the keys
    :func:`~repro.core.build.arrays.entry_keys` forms, the differential
    reference it must match byte for byte, and reads ``links`` only to
    count against them.  Both refuse the same malformed entries
    (:func:`_check_entries`), each naming the first fault it meets.
    ``rejected``, when given, is a one-element int64 column that
    receives the count of entries whose parent link, heavy link or
    parent neighbor differs from its hint (every entry without hints),
    the same on both kernels: 0 exactly when the records hold the
    build's own links.
    """
    vertex = record["vertex"]
    ent = _aligned_records(vertex.shape[0], ENT_DTYPE)
    with TELEMETRY.span("kernel.compile_records", impl=kernel, entries=int(vertex.shape[0])):
        if kernel == "native":
            return compile_records_native(
                tree_indptr, record, ports, links, g_indptr, step, ent, light, rejected
            )
        lp_indptr, lp_data = light
        tree_indptr, n = tree_slices(tree_indptr, vertex.shape[0])
        if g_indptr.shape != (n + 1,):
            raise ValueError("g_indptr must hold one row per tree, plus one")
        _check_entries(tree_indptr, record, ports, g_indptr, lp_indptr, lp_data.shape[0])
        keys = entry_keys(tree_indptr, vertex)
        for name in RECORD_FIELDS:
            ent[name] = record[name]
        neighbor = {}
        for side, port in zip(("parent", "heavy"), ports):
            nxt, wt, edge = _resolve_ports(g_indptr, vertex, port, step)
            ent[side + "_port"] = port
            ent[side + "_wt"] = wt
            ent[side + "_edge"] = edge
            ent[side + "_epos"] = _link_entries(keys, vertex, nxt)
            neighbor[side] = nxt
        ent["lp_off"] = lp_indptr[:-1]
        if rejected is not None:
            rejected[0] = vertex.shape[0]
            if links is not None:
                differ = ent["parent_epos"] != links[0]
                differ |= ent["heavy_epos"] != links[1]
                differ |= neighbor["parent"] != links[2]
                rejected[0] = np.count_nonzero(differ)
        return ent


@dataclass
class CompiledScheme:
    """Dense-array export of a compiled TZ routing scheme (see module doc).

    ``ent`` and ``ent_member`` are aligned with the entries, sorted by
    ``tree * n + member``; ``tree_indptr`` slices them by tree root.
    Construction checks every column's dtype, layout and shape and the
    two offset columns (:func:`_check_columns`, also on
    :func:`dataclasses.replace`).  The :data:`COMPILED_DERIVED` columns
    are no fields: each is derived from the fields the first time it is
    read (:meth:`__getattr__`), and only the numpy kernel and the size
    accounting read them.
    """

    n: int
    k: int
    handshake: bool
    # -- entries: one record per (tree, member) pair --------------------
    ent: np.ndarray  # (E,) ENT_DTYPE records
    ent_member: np.ndarray  # (E,) int32 member, what slice searches read
    tree_indptr: np.ndarray  # (n+1,) int64 entry slice per tree root
    root_epos: np.ndarray  # (n,) entry index of (tree=v, v), -1 if none
    # -- light-port sequences of members-as-destinations ----------------
    lp_data: np.ndarray  # (L,) port numbers, root-to-leaf order, at light_port_dtype(g_indptr)
    # -- destination labels: pivots per level ---------------------------
    pivot: np.ndarray  # (k, n) int64; row 0 unused
    # -- ported-graph step records (row indptr[u] + port - 1) -----------
    g_indptr: np.ndarray  # (n+1,)
    step: np.ndarray  # (2m,) STEP_DTYPE records
    #: Weak references to the array columns :func:`compile_from_arrays`
    #: wrote into ``ent``, by :data:`ARRAYS_IN_RECORD` name (None for any
    #: other compile): the copied fields always, the
    #: :data:`RECORD_LINKS` only when the native pass used every hint as
    #: it is.  A save of those very objects skips comparing them.  A
    #: plain attribute, not a column.
    written_from = None

    def __post_init__(self) -> None:
        """Check the columns (:func:`_check_columns`)."""
        _check_columns(self)

    def __getattr__(self, name: str):
        """A :data:`COMPILED_DERIVED` column, made from the fields the
        first time it is read and kept as an instance attribute: the keys
        by :func:`~repro.core.build.arrays.entry_keys`, the others by
        :func:`~repro.core.build.arrays.derive_entries`."""
        if name not in COMPILED_DERIVED:
            raise AttributeError(name)
        if name == "entry_keys":
            value = entry_keys(self.tree_indptr, self.ent_member)
        else:
            want = {"ent_label_bits": "label_bits"}.get(name, name)
            value = derive_entries(
                self.tree_indptr, self.ent_member, self.ent, self.lp_data, (want,)
            )[want]
        self.__dict__[name] = value
        return value

    @property
    def entry_count(self) -> int:
        """Total number of (tree, member) entries in the scheme."""
        return int(self.ent.shape[0])

    @property
    def id_bits(self) -> int:
        """Width of one vertex id in a routing header."""
        return (max(self.n - 1, 0)).bit_length()

    def columns(self) -> Dict[str, np.ndarray]:
        """Every column by name (see :data:`COLUMNS`)."""
        return {name: getattr(self, name) for name in COLUMNS}

    def with_handshake(self) -> "CompiledScheme":
        """The same arrays with the §4 handshake tree selection."""
        return replace(self, handshake=True)

    # ------------------------------------------------------------------
    # Vectorized lookups
    # ------------------------------------------------------------------
    def entry_pos(
        self, tree: np.ndarray, vertex: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, found)`` of ``(tree, vertex)`` entries, batched.

        ``positions`` is only meaningful where ``found`` is True; the
        test "``vertex`` has a record for ``T_tree``" is exactly
        ``found`` (the cluster-membership check of the paper).
        """
        if self.entry_count == 0:
            z = np.zeros(np.shape(tree), dtype=np.int64)
            return z, np.zeros(np.shape(tree), dtype=bool)
        keys = np.asarray(tree, dtype=np.int64) * self.n + vertex
        pos = np.searchsorted(self.entry_keys, keys)
        pos = np.minimum(pos, self.entry_count - 1)
        return pos, self.entry_keys[pos] == keys

    def select_trees(
        self, s: np.ndarray, t: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The 4k−5 source strategy, batched: own level-0 cluster first,
        then the destination's pivots by increasing level.

        Returns ``(tree, epos_dest, epos_src, ok)``: the committed tree
        root, the entry indices of the destination (its tree label) and
        of the source inside it, and whether any usable tree exists.
        Mirrors :meth:`repro.core.scheme_k.TZRoutingScheme._commit`
        exactly.
        """
        count = s.shape[0]
        tree = np.full(count, -1, dtype=np.int64)
        epos = np.zeros(count, dtype=np.int64)
        spos = np.zeros(count, dtype=np.int64)
        ok = np.zeros(count, dtype=bool)
        # Level 0: the destination in the source's own level-0 cluster,
        # its own tree slice unless it is a landmark.
        rows = np.flatnonzero(level0_sources(self.pivot)[s])
        pos, found = self.entry_pos(s[rows], t[rows])
        hit, pos = rows[found], pos[found]
        tree[hit] = s[hit]
        epos[hit] = pos
        spos[hit] = self.root_epos[s[hit]]
        ok[hit] = True
        undecided = ~ok
        # Levels 1..k-1: commit to the first pivot tree the source is in.
        for level in range(1, self.k):
            if not undecided.any():
                break
            rows = np.flatnonzero(undecided)
            w = self.pivot[level, t[rows]]
            src_pos, in_tree = self.entry_pos(w, s[rows])
            commit = rows[in_tree]
            dpos, dfound = self.entry_pos(w[in_tree], t[rows][in_tree])
            good = commit[dfound]
            tree[good] = w[in_tree][dfound]
            epos[good] = dpos[dfound]
            spos[good] = src_pos[in_tree][dfound]
            ok[good] = True
            # Rows whose source is in the pivot tree are decided either
            # way; a missing destination label means a corrupted scheme
            # and the row fails (ok stays False).
            undecided[commit] = False
        return tree, epos, spos, ok

    def select_trees_handshake(
        self, s: np.ndarray, t: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The §4 handshake pivot alternation, batched.

        Mirrors :meth:`repro.core.handshake.HandshakeRoutingScheme.handshake_tree`:
        start from ``w = source`` and alternate endpoints, moving ``w`` to
        the active endpoint's next-level pivot until the passive endpoint
        has a record for ``T_w``.  Same return shape as
        :meth:`select_trees`.
        """
        count = s.shape[0]
        x = s.copy()
        y = t.copy()
        w = s.copy()
        ok = np.ones(count, dtype=bool)
        _, found = self.entry_pos(w, y)
        active = ~found
        level = 0
        while active.any():
            level += 1
            if level >= self.k:
                ok[active] = False
                break
            rows = np.flatnonzero(active)
            x[rows], y[rows] = y[rows], x[rows].copy()
            w[rows] = self.pivot[level, x[rows]]
            _, found = self.entry_pos(w[rows], y[rows])
            active[rows[found]] = False
        epos, dfound = self.entry_pos(w, t)
        spos, sfound = self.entry_pos(w, s)
        ok &= dfound & sfound
        return w, epos, spos, ok


#: Every ndarray column a :class:`CompiledScheme` is built from, in field order.
COLUMNS = tuple(
    f.name for f in fields(CompiledScheme) if f.name not in ("n", "k", "handshake")
)

#: The :class:`CompiledScheme` columns derived from the others on first
#: read, never stored: the int64 entry keys ``tree * n + member`` (the
#: numpy router's), the light-port CSR offsets (the records' ``lp_off``
#: plus the end) and the per-entry tree-label bits.
COMPILED_DERIVED = ("entry_keys", "lp_indptr", "ent_label_bits")

#: The five :class:`CompiledScheme` columns that *are*
#: :class:`~repro.core.build.arrays.SchemeArrays` columns, each with the
#: accessor of the array column it is bound to.
ARRAY_BOUND = {
    "ent_member": lambda a: a.ent_member,
    "tree_indptr": lambda a: a.cl_indptr,
    "root_epos": lambda a: a.lab_epos[0],
    "lp_data": lambda a: a.lp_data,
    "pivot": lambda a: a.hierarchy.pivot,
}

#: The nine :class:`~repro.core.build.arrays.SchemeArrays` columns the
#: ``ent`` records hold, by the :data:`ENT_DTYPE` field holding each.  A
#: compile copies the member, the four DFS fields and the two ports in
#: as they are (:data:`RECORD_FIELDS` and the ports); the two links
#: (:data:`RECORD_LINKS`) it resolves through a port assignment, and
#: they equal the array columns exactly when that assignment is the
#: build's own.  The member is also the bound ``ent_member`` column.
ARRAYS_IN_RECORD = {
    "ent_member": "vertex",
    "tr_f": "f",
    "tr_finish": "finish",
    "tr_heavy_finish": "heavy_finish",
    "tr_light_depth": "light_depth",
    "tr_parent_port": "parent_port",
    "tr_heavy_port": "heavy_port",
    "ent_parent_epos": "parent_epos",
    "ent_heavy_epos": "heavy_epos",
}

#: The record fields the compile pass copies from array columns as they are.
RECORD_FIELDS = ("vertex", "f", "finish", "heavy_finish", "light_depth")

#: The array columns the records hold as resolved links.
RECORD_LINKS = ("ent_parent_epos", "ent_heavy_epos")

#: The three columns compiling derives: the records and the ported
#: graph's row index and step rows.
DERIVED = tuple(name for name in COLUMNS if name not in ARRAY_BOUND)

#: Every :class:`CompiledScheme` column's dtype but ``lp_data``'s: the
#: record layouts, the width rule
#: (:data:`~repro.core.build.arrays.COLUMN_DTYPES`) for the columns bound
#: to array columns, and int64 for the per-vertex columns.  ``lp_data``
#: is at the width its own ``g_indptr`` calls for
#: (:func:`~repro.core.build.arrays.light_port_dtype`).
COMPILED_DTYPES = {
    "ent": ENT_DTYPE,
    "ent_member": COLUMN_DTYPES["ent_member"],
    "tree_indptr": COLUMN_DTYPES["cl_indptr"],
    "root_epos": COLUMN_DTYPES["lab_epos"],
    "pivot": np.dtype(np.int64),
    "g_indptr": np.dtype(np.int64),
    "step": STEP_DTYPE,
}


def array_columns(arrays) -> Dict[str, np.ndarray]:
    """The :data:`ARRAY_BOUND` columns of ``arrays``, by compiled name."""
    return {name: get(arrays) for name, get in ARRAY_BOUND.items()}


def _offsets_ok(indptr: np.ndarray, end: int) -> bool:
    """``indptr`` runs from 0 to ``end`` and never decreases (O(n))."""
    return (
        int(indptr[0]) == 0
        and int(indptr[-1]) == end
        and not np.any(indptr[1:] < indptr[:-1])
    )


def _check_columns(cs: CompiledScheme) -> None:
    """Every column has its dtype (:data:`COMPILED_DTYPES`, and for
    ``lp_data`` the light-port width its ``g_indptr`` calls for), is
    C-contiguous and agrees in shape with ``ent``, ``g_indptr`` and
    ``(k, n)``, both offset columns run from 0 to
    their column's length without decreasing, and the last record's
    light-port slice ends where ``lp_data`` does — O(n) in all, no pass
    over the entries — so no kernel (the C ones read the memory raw)
    reads past the end of a column through a slice or misreads one.
    What the kernels read out of the records is checked where they read
    it.

    Raises :class:`~repro.errors.EncodingError`: the failure a damaged
    container would otherwise surface only at route time, or not at all.
    """
    n, k = cs.n, cs.k
    cols = {name: getattr(cs, name) for name in COLUMNS}
    dtypes = dict(COMPILED_DTYPES)
    g_indptr = cols["g_indptr"]
    if isinstance(g_indptr, np.ndarray) and g_indptr.dtype == dtypes["g_indptr"]:
        dtypes["lp_data"] = light_port_dtype(g_indptr)
    bad = [
        name
        for name, col in cols.items()
        if not isinstance(col, np.ndarray)
        or col.dtype != dtypes.get(name)
        or not col.flags.c_contiguous
    ]
    entries = int(np.size(cols["ent"]))
    if not bad:
        expect = dict(
            ent=(entries,),
            ent_member=(entries,),
            lp_data=cols["lp_data"].shape[:1],
            pivot=(k, n),
            root_epos=(n,),
            tree_indptr=(n + 1,),
            g_indptr=(n + 1,),
        )
        bad = [name for name, shape in expect.items() if cols[name].shape != shape]
    if not bad:
        ends = {"tree_indptr": entries, "g_indptr": cols["step"].shape[0]}
        bad = [name for name, end in ends.items() if not _offsets_ok(cols[name], end)]
        # the light-port slices end where lp_data does: one record read
        last = cs.ent[entries - 1] if entries else None
        end = int(last["lp_off"]) + int(last["light_depth"]) if entries else 0
        bad += [] if end == cols["lp_data"].shape[0] else ["lp_data"]
    if bad:
        raise EncodingError(
            f"compiled scheme columns {bad} do not have the dtype, layout or "
            f"shape the kernels read (n={n}, k={k}, {entries} entries)"
        )


def compile_scheme(
    scheme, ported: Optional[PortedGraph] = None
) -> CompiledScheme:
    """Compile ``scheme`` into a :class:`CompiledScheme`.

    ``ported`` defaults to the port assignment the scheme was built on;
    pass the simulator's assignment explicitly if it differs (forwarding
    then crosses exactly the same physical links the reference simulator
    would).  Raises :class:`~repro.errors.RoutingError` for schemes the
    engine cannot compile (use ``engine="reference"`` for those).
    """
    from ...core.handshake import HandshakeRoutingScheme
    from ...core.scheme_k import TZRoutingScheme

    if isinstance(scheme, HandshakeRoutingScheme):
        return compile_scheme(scheme.base, ported).with_handshake()
    if not isinstance(scheme, TZRoutingScheme):
        raise RoutingError(
            f"batch engine cannot compile {type(scheme).__name__}: only "
            "TZ table/label schemes have the dense-array form "
            '(route it with engine="reference")'
        )
    return compile_from_arrays(scheme.arrays, scheme.ported if ported is None else ported)


def _resolve_columns(
    columns: Dict[str, np.ndarray],
    k: int,
    ported: PortedGraph,
    *,
    record: Dict[str, np.ndarray],
    ports: Tuple[np.ndarray, np.ndarray],
    links: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    lp_indptr: np.ndarray,
    rejected: Optional[np.ndarray] = None,
) -> CompiledScheme:
    """Write the ``ent`` and ``step`` records of an entry layout through
    ``ported`` and bind them next to the given ``columns``.

    The entries are the tree slices ``columns["tree_indptr"]`` of the
    members ``record["vertex"]``; ``record``, ``ports``, ``links`` and
    ``rejected`` are :func:`_ent_records`' inputs: the records' ports are resolved to
    weights and edge ids through the target port assignment's step
    records, and the neighbors back to entry rows of the same tree (one
    lookup at compile time saves one per hop at route time), on the
    platform's kernel.  The same pass checks the light-port CSR
    ``lp_indptr``.  A graph, entry count or light-port count the int32
    record fields cannot hold is refused
    (:class:`~repro.errors.EncodingError`) before any is written.  The
    light-port offsets stay on the compile as its derived column, given
    already; the keys and label bits it derives on first read.
    """
    graph = ported.graph
    check_index_sizes(
        ported.n, graph.adj.shape[0], columns["ent_member"].shape[0], EncodingError,
        light_ports=columns["lp_data"].shape[0],
    )
    arc = ported.arc_of_port
    step = np.empty(arc.shape[0], dtype=STEP_DTYPE)
    step["next"] = graph.adj[arc]
    step["edge"] = graph.arc_edge[arc]
    step["wt"] = graph.adj_weights[arc]
    ent = _ent_records(
        columns["tree_indptr"],
        record,
        ports,
        links,
        graph.indptr,
        step,
        resolve_kernel("auto"),
        (lp_indptr, columns["lp_data"]),
        rejected,
    )
    compiled = CompiledScheme(
        n=ported.n,
        k=k,
        handshake=False,
        ent=ent,
        g_indptr=graph.indptr,
        step=step,
        **columns,
    )
    compiled.__dict__.update(lp_indptr=lp_indptr)
    return compiled


def compile_single_tree(router, ported: PortedGraph) -> CompiledScheme:
    """Compile one spanning tree (§2 routing) for the batch engine.

    Single-tree routing is the degenerate TZ scheme with exactly one
    tree: every vertex holds a record for ``T_r`` and every destination
    label advertises ``r``.  Encoding it that way — the whole entry range
    is ``r``'s tree slice, members ``0 .. n-1``, every other tree slice
    empty, and pivot row 1 pinned to ``r``, so ``r`` is
    the one landmark and every other source's level-0 slice is empty —
    makes :meth:`CompiledScheme.select_trees` commit every pair to
    ``T_r`` at level 1 and the unchanged hop loop do the rest, so the baseline
    rides the same vectorized runtime as the real schemes
    (delivered/weight/hops bit-for-bit the reference simulator).  A lone
    spanning tree gives no vertex a cluster of its own, so this layout
    is not a :class:`~repro.core.build.arrays.SchemeArrays`; it shares
    only the resolution pass.

    ``router`` is a spanning :class:`~repro.trees.tz_tree.TreeRouter`
    over ``ported`` (every vertex must have a record).
    """
    n = ported.n
    r = int(router.root)
    if router.tree_size != n:
        raise RoutingError(
            f"single-tree compile needs a spanning tree: {router.tree_size} "
            f"records for {n} vertices"
        )

    members = np.arange(n, dtype=np.int32)
    recs = records_to_arrays([router.records[int(v)] for v in range(n)])
    lp_counts = np.fromiter(
        (len(router.labels[int(v)].light_ports) for v in range(n)), np.int64, n
    )
    lp_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lp_counts, out=lp_indptr[1:])
    lp_data = np.fromiter(
        (p for v in range(n) for p in router.labels[int(v)].light_ports),
        light_port_dtype(ported.graph.indptr),
        int(lp_indptr[-1]),
    )
    root_epos = np.full(n, -1, dtype=np.int64)
    root_epos[r] = r
    pivot = np.zeros((2, n), dtype=np.int64)
    pivot[1] = r
    tree_indptr = np.zeros(n + 1, dtype=np.int64)
    tree_indptr[r + 1 :] = n
    columns = {
        "ent_member": members,
        "tree_indptr": tree_indptr,
        "root_epos": root_epos,
        "lp_data": lp_data,
        "pivot": pivot,
    }
    return _resolve_columns(
        columns,
        2,
        ported,
        record=dict(
            vertex=members,
            f=recs["f"],
            finish=recs["finish"],
            heavy_finish=recs["heavy_finish"],
            light_depth=recs["light_depth"],
        ),
        ports=(recs["parent_port"], recs["heavy_port"]),
        links=None,
        lp_indptr=lp_indptr,
    )


def compile_from_arrays(arrays, ported: PortedGraph) -> CompiledScheme:
    """Export a :class:`~repro.core.build.arrays.SchemeArrays` scheme.

    The array form already *is* the entry layout the engine routes on
    (tree slices of the members, record columns, light-port CSR,
    pivots): its :data:`ARRAY_BOUND` columns are bound as
    they are, its :data:`ARRAYS_IN_RECORD` columns are written into the
    ``ent`` records, and what remains is resolving the stored parent and
    heavy ports through ``ported``'s step records — so routing over a
    foreign port assignment crosses exactly the links the hop-by-hop
    simulator would.

    The compile remembers the column objects it wrote into the records
    (:attr:`CompiledScheme.written_from`):
    the copied fields always, the resolved links when the record pass
    used every one of the build's own links as it is, which it does
    exactly when ``ported`` is the build's assignment.  The compile's
    derived light-port offsets are the arrays' own.
    """
    with TELEMETRY.span("engine.compile", source="arrays", entries=arrays.entry_count):
        rejected = np.zeros(1, dtype=np.int64)
        compiled = _resolve_columns(
            array_columns(arrays),
            arrays.k,
            ported,
            record={
                name: getattr(arrays, col)
                for col, name in ARRAYS_IN_RECORD.items()
                if name in RECORD_FIELDS
            },
            ports=(arrays.tr_parent_port, arrays.tr_heavy_port),
            links=(arrays.ent_parent_epos, arrays.ent_heavy_epos, arrays.ent_parent),
            lp_indptr=arrays.lp_indptr,
            rejected=rejected,
        )
        written = [
            col
            for col in ARRAYS_IN_RECORD
            if col not in RECORD_LINKS or rejected[0] == 0
        ]
        compiled.written_from = {col: weakref.ref(getattr(arrays, col)) for col in written}
        return compiled
