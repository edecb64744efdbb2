"""Compile a routing scheme into the dense arrays the batch engine routes on.

The Thorup–Zwick model is table-driven: every forwarding decision at a
vertex ``u`` inside a committed tree ``T_w`` is a constant number of
integer comparisons against ``u``'s O(1)-word record plus one indexed
read of the destination's light-port sequence.  That makes the whole
runtime state *columnar*: a :class:`CompiledScheme` materializes

* one **entry record** per (tree ``w``, member ``u``) pair — the §2
  record fields plus the parent/heavy next-hop **resolved to entry
  links, weights, edge ids and neighbors** through the shared port
  assignment — in the :data:`ENT_DTYPE` layout the native kernels read;
* the light-port sequences of every member-as-destination, flattened
  into a CSR-style ``(lp_indptr, lp_data)`` pair;
* the level-0 **member maps** (the source-side "is the destination in my
  cluster?" check) as a sorted key array;
* the **pivot matrix** of the hierarchy (which trees a destination's
  label advertises, level by level);
* the ``(vertex, port) -> (neighbor, edge, weight)`` **step records** of
  the ported graph (:data:`STEP_DTYPE`), so label-carried light ports
  resolve with one gather.

Entries are keyed by ``w * n + u`` in one sorted int64 array, so "does
``u`` have a record for ``T_w``" — the membership test behind both the
4k−5 commit strategy and the §4 handshake alternation — is a vectorized
``searchsorted`` over arbitrarily many messages at once.

One record layout from compile to kernel: :func:`_resolve_columns`
writes the ``ent`` and ``step`` records once, the numpy reference reads
their fields, the native kernels read them as C structs, and a scheme
container stores them as they are — nothing is repacked before a route.

Compiling runs on the platform's kernel (:func:`_ent_records`, under a
``kernel.compile_records`` span).  Natively, ``tz_compile_records``
writes every record in one linear pass over the key-sorted entries and
links each neighbor through the build's own ``ent_parent_epos`` /
``ent_heavy_epos`` when that hint lies in the entry's tree slice and
holds the neighbor's key, else by searching that slice — a hint is
checked, never trusted.  The same pass writes ``ent_label_bits``.  The
numpy :func:`_resolve_ports` + :func:`_link_entries` +
:func:`_label_bits` stay the byte-for-byte reference (two global
``searchsorted`` calls, hints unread).  Both refuse, with
:class:`~repro.errors.EncodingError`, what they would resolve wrongly:
keys not strictly ascending in ``[0, n*n)``, a member that is not its
key mod ``n``, a port outside its member's row, or a light-port slice
outside ``lp_data``.

One representation: a :class:`CompiledScheme` is a
:class:`~repro.core.build.arrays.SchemeArrays` plus what a port
assignment derives.  The seven columns of :data:`ARRAY_BOUND` *are*
array columns — :func:`compile_from_arrays` binds the very objects, and
a scheme container stores them once — and the five array columns of
:data:`ARRAYS_IN_RECORD` are fields of the ``ent`` records, which a
container stores in the records only.  The four others
(:data:`DERIVED`: the two record columns, label bits and the graph's
row index) are computed here; the label bits also fill the arrays' own
cache (:meth:`~repro.core.build.arrays.SchemeArrays.entry_label_bits`).
A compile records which array objects it wrote into the records
(:attr:`CompiledScheme.written_from`), so a save of those arrays need
not compare the records with them.  Every TZ scheme carries its arrays, so
:func:`compile_scheme` is :func:`compile_from_arrays` behind the §4
:class:`HandshakeRoutingScheme` unwrap; only :func:`compile_single_tree`
lays out its own entries, through the same resolution pass.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import EncodingError, RoutingError
from ...graphs.ports import PortedGraph
from ...kernels import resolve_kernel
from ...kernels.records import compile_records_native, refusal
from ...obs import TELEMETRY
from ...trees.label_codec import tree_label_bits_array
from ...trees.tz_tree import records_to_arrays


#: The §2 record of one (tree, member) entry, laid out exactly as
#: ``ent_rec`` in ``kernels/_native.c`` reads it (13 × 8 bytes, no
#: padding): the member and its tree-record fields, then the parent and
#: heavy-child moves resolved through a port assignment to the entry
#: link (``-1`` absent, ``-2`` the neighbor has no record in the tree),
#: edge weight, canonical edge id (``-1`` absent) and neighbor.
ENT_DTYPE = np.dtype(
    [
        ("vertex", "<i8"),
        ("f", "<i8"),  # DFS number of the member in its tree
        ("finish", "<i8"),  # end of the member's DFS interval
        ("heavy_finish", "<i8"),  # end of the heavy child's interval
        ("light_depth", "<i8"),  # light edges above the member
        ("parent_epos", "<i8"),
        ("parent_wt", "<f8"),
        ("parent_edge", "<i8"),
        ("parent_next", "<i8"),
        ("heavy_epos", "<i8"),
        ("heavy_wt", "<f8"),
        ("heavy_edge", "<i8"),
        ("heavy_next", "<i8"),
    ]
)

#: One half-arc of the ported graph, as ``step_rec`` in ``_native.c``
#: reads it (3 × 8 bytes): the neighbor, canonical edge id and weight
#: behind ``(u, port)``, at row ``g_indptr[u] + port - 1``.
STEP_DTYPE = np.dtype([("next", "<i8"), ("edge", "<i8"), ("wt", "<f8")])

#: The record columns of a :class:`CompiledScheme` and their dtypes;
#: every other column is C-contiguous int64.
RECORDS = {"ent": ENT_DTYPE, "step": STEP_DTYPE}


def _resolve_ports(
    g_indptr: np.ndarray, ent_vertex: np.ndarray, port: np.ndarray, step: np.ndarray
):
    """Resolve per-entry port numbers to ``(neighbor, weight, edge)``
    through the target port assignment's step records (0 = no port)."""
    count = port.shape[0]
    nxt = np.full(count, -1, dtype=np.int64)
    wt = np.zeros(count)
    edge = np.full(count, -1, dtype=np.int64)
    have = port > 0
    hop = step[g_indptr[ent_vertex[have]] + port[have] - 1]
    nxt[have] = hop["next"]
    wt[have] = hop["wt"]
    edge[have] = hop["edge"]
    return nxt, wt, edge


def _link_entries(
    entry_keys: np.ndarray, ent_vertex: np.ndarray, nxt: np.ndarray
) -> np.ndarray:
    """Entry index of each resolved neighbor in the same tree: ``-1`` for
    no transition, ``-2`` when the neighbor has no record there (only
    possible under a foreign port assignment)."""
    link = np.full(nxt.shape[0], -1, dtype=np.int64)
    have = nxt >= 0
    if have.any() and entry_keys.size:
        # tree * n + neighbor, from the entry's own key tree * n + vertex
        keys = entry_keys[have] - ent_vertex[have] + nxt[have]
        pos = np.minimum(np.searchsorted(entry_keys, keys), entry_keys.shape[0] - 1)
        found = entry_keys[pos] == keys
        link[have] = np.where(found, pos, -2)
    elif have.any():
        link[have] = -2
    return link


def _check_entries(
    keys: np.ndarray,
    vertex: np.ndarray,
    ports: Tuple[np.ndarray, np.ndarray],
    g_indptr: np.ndarray,
    light: Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = None,
) -> None:
    """Refuse what :func:`_resolve_ports`, :func:`_link_entries` and
    :func:`_label_bits` would resolve wrongly, with vectorized compares:
    keys not strictly ascending in ``[0, n*n)``, a member that is not
    its key mod ``n``, a parent or heavy port outside
    ``[0, deg(member)]`` (which would read the next vertex's step row),
    and, when ``light`` holds the light-port CSR, a slice outside
    ``lp_data``.  ``tz_compile_records`` refuses the
    same inline; raises :class:`~repro.errors.EncodingError` naming the
    first entry of the first failing check.  Only the refusal is shared:
    this runs each check over every entry in turn, the C pass meets the
    faults tree slice by tree slice, so on an input with several faults
    the two kernels may name different ones."""

    def refuse_first(what: str, mask: np.ndarray) -> None:
        bad = np.flatnonzero(mask)
        if bad.size:
            raise refusal(what, int(bad[0]))

    if not keys.size:
        return
    n = g_indptr.shape[0] - 1
    ascending = np.empty(keys.shape[0], dtype=bool)
    ascending[0] = keys[0] >= 0
    np.greater(keys[1:], keys[:-1], out=ascending[1:])
    refuse_first("keys", ~ascending | (keys >= n * n))
    refuse_first("member", vertex != keys % n)
    deg = np.diff(g_indptr)[vertex]
    for what, port in zip(("parent", "heavy"), ports):
        refuse_first(what, (port < 0) | (port > deg))
    if light is not None:
        lo, hi = light[0][:-1], light[0][1:]
        refuse_first("light", (lo < 0) | (hi < lo) | (hi > light[1].shape[0]))


def _label_bits(
    keys: np.ndarray, n: int, lp_indptr: np.ndarray, lp_data: np.ndarray
) -> np.ndarray:
    """Tree-label bits of key-sorted entries, numpy: each entry's DFS
    field at its tree's width, ``bit_length(slice length - 1)``, then its
    light ports (:func:`~repro.trees.label_codec.tree_label_bits_array`)."""
    sizes = np.diff(_slice_starts(keys, n))
    f_width = np.frexp((sizes - 1).astype(np.float64))[1].astype(np.int64)
    return tree_label_bits_array(f_width[keys // n], lp_indptr, lp_data)


def _ent_records(
    keys: np.ndarray,
    record: Dict[str, np.ndarray],
    ports: Tuple[np.ndarray, np.ndarray],
    links: Optional[Tuple[np.ndarray, np.ndarray]],
    g_indptr: np.ndarray,
    step: np.ndarray,
    kernel: str,
    light: Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """The ``ent`` records of key-sorted entries on ``kernel``.

    ``record`` holds the tree-record fields of :data:`ENT_DTYPE`
    (``vertex`` through ``light_depth``) and ``ports`` the parent and
    heavy ports (0 = none), resolved through the ``step`` records to
    neighbors, weights and edge ids; each neighbor is then linked to its
    entry row in the same tree.  ``light``, when given, is
    ``(lp_indptr, lp_data, bits)``: the light-port CSR, checked, and an
    int64 column the pass fills with each entry's tree-label bits (or
    None: check only).  The native kernel does all of it in one C pass
    and tries ``links`` (the build's own parent and heavy entry links,
    or None) before searching the tree's slice; numpy runs
    :func:`_resolve_ports`, :func:`_link_entries` and
    :func:`_label_bits`, the differential reference it must match byte
    for byte, and never reads ``links``.  Both refuse the same malformed
    entries (:func:`_check_entries`), each naming the first fault it
    meets.
    """
    ent = np.empty(keys.shape[0], dtype=ENT_DTYPE)
    with TELEMETRY.span("kernel.compile_records", impl=kernel, entries=int(keys.shape[0])):
        if kernel == "native":
            return compile_records_native(keys, record, ports, links, g_indptr, step, ent, light)
        vertex = record["vertex"]
        _check_entries(keys, vertex, ports, g_indptr, light)
        for name, col in record.items():
            ent[name] = col
        for side, port in zip(("parent", "heavy"), ports):
            nxt, wt, edge = _resolve_ports(g_indptr, vertex, port, step)
            ent[side + "_next"] = nxt
            ent[side + "_wt"] = wt
            ent[side + "_edge"] = edge
            ent[side + "_epos"] = _link_entries(keys, vertex, nxt)
        if light is not None and light[2] is not None:
            light[2][:] = _label_bits(keys, g_indptr.shape[0] - 1, light[0], light[1])
        return ent


def _slice_starts(keys: np.ndarray, n: int) -> np.ndarray:
    """``(n+1)`` start of each ``w * n + ·`` key slice in sorted ``keys``."""
    return np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * np.int64(n))


@dataclass
class CompiledScheme:
    """Dense-array export of a compiled TZ routing scheme (see module doc).

    ``ent`` and ``ent_label_bits`` are aligned with ``entry_keys``
    (sorted by ``tree * n + vertex``).  Construction checks every
    column's dtype, layout and shape (:func:`_check_columns`, also on
    :func:`dataclasses.replace`), then computes the two slice indexes
    the native kernels search.
    """

    n: int
    k: int
    handshake: bool
    # -- entries: one record per (tree, member) pair --------------------
    entry_keys: np.ndarray  # (E,) int64, sorted: tree * n + vertex
    ent: np.ndarray  # (E,) ENT_DTYPE records
    ent_label_bits: np.ndarray  # (E,) encoded tree-label bits (as dest)
    root_epos: np.ndarray  # (n,) entry index of (tree=v, v), -1 if none
    # -- light-port sequences of members-as-destinations ----------------
    lp_indptr: np.ndarray  # (E+1,) int64
    lp_data: np.ndarray  # (L,) port numbers, root-to-leaf order
    # -- source-side level-0 member maps --------------------------------
    mem_keys: np.ndarray  # (M,) int64, sorted: source * n + member
    mem_epos: np.ndarray  # (M,) entry index of (tree=source, member)
    # -- destination labels: pivots per level ---------------------------
    pivot: np.ndarray  # (k, n) int64; row 0 unused
    # -- ported-graph step records (row indptr[u] + port - 1) -----------
    g_indptr: np.ndarray  # (n+1,)
    step: np.ndarray  # (2m,) STEP_DTYPE records
    # -- slice indexes, computed from the keys at construction ----------
    tree_indptr: np.ndarray = field(init=False, repr=False)  # (n+1,) per tree root
    mem_indptr: np.ndarray = field(init=False, repr=False)  # (n+1,) per source
    #: Weak references to the array columns :func:`compile_from_arrays`
    #: wrote into ``ent``, by :data:`ARRAYS_IN_RECORD` name (None for any
    #: other compile): a save of those very objects skips comparing them.
    #: A plain attribute, not a column.
    written_from = None

    def __post_init__(self) -> None:
        """Check the columns, then index each tree's slice of the
        key-sorted entries (keys are ``w * n + member``) and each
        source's slice of its level-0 member map, the same shape of
        slice of ``mem_keys``."""
        _check_columns(self)
        self.tree_indptr = _slice_starts(self.entry_keys, self.n)
        self.mem_indptr = _slice_starts(self.mem_keys, self.n)

    @property
    def entry_count(self) -> int:
        """Total number of (tree, member) entries in the scheme."""
        return int(self.entry_keys.shape[0])

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
        """The 4k−5 source strategy, batched: own cluster first, then the
        destination's pivots by increasing level.

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
        # Level 0: destination in the source's own (level-0) cluster.
        if self.mem_keys.shape[0]:
            keys = s * self.n + t
            j = np.minimum(
                np.searchsorted(self.mem_keys, keys), self.mem_keys.shape[0] - 1
            )
            hit = self.mem_keys[j] == keys
            tree[hit] = s[hit]
            epos[hit] = self.mem_epos[j[hit]]
            spos[hit] = self.root_epos[s[hit]]
            ok[hit] = True
        else:
            hit = np.zeros(count, dtype=bool)
        undecided = ~hit
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
    f.name for f in fields(CompiledScheme) if f.init and f.name not in ("n", "k", "handshake")
)

#: The seven :class:`CompiledScheme` columns that *are*
#: :class:`~repro.core.build.arrays.SchemeArrays` columns, each with the
#: accessor of the array column it is bound to.
ARRAY_BOUND = {
    "entry_keys": lambda a: a.entry_keys,
    "root_epos": lambda a: a.lab_epos[0],
    "lp_indptr": lambda a: a.lp_indptr,
    "lp_data": lambda a: a.lp_data,
    "mem_keys": lambda a: a.mem_keys,
    "mem_epos": lambda a: a.mem_epos,
    "pivot": lambda a: a.hierarchy.pivot,
}

#: The five :class:`~repro.core.build.arrays.SchemeArrays` columns the
#: ``ent`` records hold, by the :data:`ENT_DTYPE` field holding each.
ARRAYS_IN_RECORD = {
    "ent_member": "vertex",
    "tr_f": "f",
    "tr_finish": "finish",
    "tr_heavy_finish": "heavy_finish",
    "tr_light_depth": "light_depth",
}

#: The four columns compiling derives through a port assignment.
DERIVED = tuple(name for name in COLUMNS if name not in ARRAY_BOUND)


def array_columns(arrays) -> Dict[str, np.ndarray]:
    """The :data:`ARRAY_BOUND` columns of ``arrays``, by compiled name."""
    return {name: get(arrays) for name, get in ARRAY_BOUND.items()}


def _check_columns(cs: CompiledScheme) -> None:
    """O(1) per column: every column has its record dtype
    (:data:`RECORDS`) or is int64, is C-contiguous, and agrees in shape
    with ``entry_keys``, ``lp_indptr``, ``g_indptr`` and ``(k, n)``, so
    no kernel — the C ones read the memory raw — can read past the end
    of a column or misread one.

    Raises :class:`~repro.errors.EncodingError`: the failure a damaged
    container would otherwise surface only at route time, or not at all.
    """
    n, k = cs.n, cs.k
    cols = {name: getattr(cs, name) for name in COLUMNS}
    bad = [
        name
        for name, col in cols.items()
        if not isinstance(col, np.ndarray)
        or col.dtype != RECORDS.get(name, np.int64)
        or not col.flags.c_contiguous
    ]
    entries = int(np.size(cols["entry_keys"]))
    if not bad:
        members = cols["mem_keys"].size
        expect = dict(
            entry_keys=(entries,),
            ent=(entries,),
            ent_label_bits=(entries,),
            lp_indptr=(entries + 1,),
            mem_keys=(members,),
            mem_epos=(members,),
            pivot=(k, n),
            root_epos=(n,),
            g_indptr=(n + 1,),
        )
        bad = [name for name, shape in expect.items() if cols[name].shape != shape]
    if not bad:
        ends = {"lp_data": cs.lp_indptr[-1], "step": cs.g_indptr[-1]}
        bad = [name for name, end in ends.items() if cols[name].shape != (int(end),)]
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
    links: Optional[Tuple[np.ndarray, np.ndarray]],
    label_bits: Optional[np.ndarray],
) -> CompiledScheme:
    """Write the ``ent`` and ``step`` records of an entry layout through
    ``ported`` and bind them next to the given ``columns``.

    ``record``, ``ports`` and ``links`` are :func:`_ent_records`'
    inputs: the records' ports are resolved to neighbors, weights and
    edge ids through the target port assignment's step records, and the
    neighbors back to entry rows of the same tree (one lookup at compile
    time saves one per hop at route time), on the platform's kernel.
    The same pass computes the label bits from the columns' light ports
    unless ``label_bits`` already holds them.
    """
    graph = ported.graph
    arc = ported.arc_of_port
    step = np.empty(arc.shape[0], dtype=STEP_DTYPE)
    step["next"] = graph.adj[arc]
    step["edge"] = graph.arc_edge[arc]
    step["wt"] = graph.adj_weights[arc]
    fill = label_bits is None
    if fill:
        label_bits = np.empty(columns["entry_keys"].shape[0], dtype=np.int64)
    ent = _ent_records(
        columns["entry_keys"],
        record,
        ports,
        links,
        graph.indptr,
        step,
        resolve_kernel("auto"),
        (columns["lp_indptr"], columns["lp_data"], label_bits if fill else None),
    )
    return CompiledScheme(
        n=ported.n,
        k=k,
        handshake=False,
        ent=ent,
        ent_label_bits=label_bits,
        g_indptr=graph.indptr,
        step=step,
        **columns,
    )


def compile_single_tree(router, ported: PortedGraph) -> CompiledScheme:
    """Compile one spanning tree (§2 routing) for the batch engine.

    Single-tree routing is the degenerate TZ scheme with exactly one
    tree: every vertex holds a record for ``T_r`` and every destination
    label advertises ``r``.  Encoding it that way — entries keyed
    ``r * n + v``, an *empty* level-0 member map, and pivot row 1 pinned
    to ``r`` — makes :meth:`CompiledScheme.select_trees` commit every
    pair to ``T_r`` at level 1 and the unchanged hop loop do the rest,
    so the baseline rides the same vectorized runtime as the real
    schemes (delivered/weight/hops bit-for-bit the reference simulator).
    A lone spanning tree gives no vertex a cluster of its own, so this
    layout is not a :class:`~repro.core.build.arrays.SchemeArrays`; it
    shares only the resolution pass.

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

    members = np.arange(n, dtype=np.int64)
    recs = records_to_arrays([router.records[int(v)] for v in range(n)])
    lp_counts = np.fromiter(
        (len(router.labels[int(v)].light_ports) for v in range(n)), np.int64, n
    )
    lp_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lp_counts, out=lp_indptr[1:])
    lp_data = np.fromiter(
        (p for v in range(n) for p in router.labels[int(v)].light_ports),
        np.int64,
        int(lp_indptr[-1]),
    )
    root_epos = np.full(n, -1, dtype=np.int64)
    root_epos[r] = r
    pivot = np.zeros((2, n), dtype=np.int64)
    pivot[1] = r
    columns = {
        "entry_keys": r * np.int64(n) + members,  # ascending: sorted by vertex
        "root_epos": root_epos,
        "lp_indptr": lp_indptr,
        "lp_data": lp_data,
        "mem_keys": np.zeros(0, dtype=np.int64),
        "mem_epos": np.zeros(0, dtype=np.int64),
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
        label_bits=None,
    )


def compile_from_arrays(arrays, ported: PortedGraph) -> CompiledScheme:
    """Export a :class:`~repro.core.build.arrays.SchemeArrays` scheme.

    The array form already *is* the entry layout the engine routes on
    (sorted ``tree * n + vertex`` keys, record columns, light-port CSR,
    member maps, pivots): its :data:`ARRAY_BOUND` columns are bound as
    they are, its :data:`ARRAYS_IN_RECORD` columns are written into the
    ``ent`` records, and what remains is resolving the stored parent and
    heavy ports through ``ported``'s step records — so routing over a
    foreign port assignment crosses exactly the links the hop-by-hop
    simulator would.

    The label bits come from the arrays' cache, else from the record
    pass, which then fills the cache.  The compile remembers the column
    objects it wrote into the records (:attr:`CompiledScheme.written_from`).
    """
    with TELEMETRY.span(
        "engine.compile", source="arrays", entries=int(arrays.entry_keys.shape[0])
    ):
        cached = getattr(arrays, "_entry_label_bits", None)
        compiled = _resolve_columns(
            array_columns(arrays),
            arrays.k,
            ported,
            record={name: getattr(arrays, col) for col, name in ARRAYS_IN_RECORD.items()},
            ports=(arrays.tr_parent_port, arrays.tr_heavy_port),
            links=(arrays.ent_parent_epos, arrays.ent_heavy_epos),
            label_bits=cached,
        )
        if cached is None:  # the arrays' cache: columns are append-only
            arrays._entry_label_bits = compiled.ent_label_bits
        compiled.written_from = {
            col: weakref.ref(getattr(arrays, col)) for col in ARRAYS_IN_RECORD
        }
        return compiled
