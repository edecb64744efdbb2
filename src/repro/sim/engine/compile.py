"""Compile a routing scheme into the dense arrays the batch engine routes on.

The Thorup–Zwick model is table-driven: every forwarding decision at a
vertex ``u`` inside a committed tree ``T_w`` is a constant number of
integer comparisons against ``u``'s O(1)-word record plus one indexed
read of the destination's light-port sequence.  That makes the whole
runtime state *columnar*: a :class:`CompiledScheme` materializes

* one **entry** per (tree ``w``, member ``u``) pair — the record fields
  plus the parent/heavy next-hop **resolved to concrete neighbors,
  weights and edge ids** through the shared port assignment;
* the light-port sequences of every member-as-destination, flattened
  into a CSR-style ``(lp_indptr, lp_data)`` pair;
* the level-0 **member maps** (the source-side "is the destination in my
  cluster?" check) as a sorted key array;
* the **pivot matrix** of the hierarchy (which trees a destination's
  label advertises, level by level);
* the global ``(vertex, port) -> (neighbor, weight, edge)`` step tables
  of the ported graph, so label-carried light ports resolve with one
  gather.

Entries are keyed by ``w * n + u`` in one sorted int64 array, so "does
``u`` have a record for ``T_w``" — the membership test behind both the
4k−5 commit strategy and the §4 handshake alternation — is a vectorized
``searchsorted`` over arbitrarily many messages at once.

One representation: a :class:`CompiledScheme` is exactly a
:class:`~repro.core.build.arrays.SchemeArrays` plus the columns a port
assignment derives.  The twelve columns of :data:`ARRAY_BOUND` *are*
array columns — :func:`compile_from_arrays` binds the very objects, and
a scheme container stores them once — while the thirteen others
(:data:`DERIVED`: resolved next hops, weights, edges, entry links, label
bits and step tables) are computed here.  Every TZ scheme carries its
arrays, so :func:`compile_scheme` is :func:`compile_from_arrays` behind
the §4 :class:`HandshakeRoutingScheme` unwrap; only
:func:`compile_single_tree` lays out its own entries, through the same
resolution pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import EncodingError, RoutingError
from ...graphs.ports import PortedGraph
from ...obs import TELEMETRY
from ...trees.label_codec import tree_label_bits_array
from ...trees.tz_tree import records_to_arrays


def _resolve_ports(
    graph, ent_vertex: np.ndarray, port: np.ndarray, step_next, step_wt, step_edge
):
    """Resolve per-entry port numbers to ``(neighbor, weight, edge)``
    through the target port assignment's step tables (0 = no port)."""
    count = port.shape[0]
    nxt = np.full(count, -1, dtype=np.int64)
    wt = np.zeros(count)
    edge = np.full(count, -1, dtype=np.int64)
    have = port > 0
    pos = graph.indptr[ent_vertex[have]] + port[have] - 1
    nxt[have] = step_next[pos]
    wt[have] = step_wt[pos]
    edge[have] = step_edge[pos]
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


@dataclass
class CompiledScheme:
    """Dense-array export of a compiled TZ routing scheme (see module doc).

    All ``ent_*`` arrays are aligned with ``entry_keys`` (sorted by
    ``tree * n + vertex``); ``-1`` marks an absent parent (the root) or
    heavy child (a leaf).  Build one with :func:`bind_compiled`.
    """

    n: int
    k: int
    handshake: bool
    # -- entries: one row per (tree, member) pair -----------------------
    entry_keys: np.ndarray  # (E,) int64, sorted: tree * n + vertex
    ent_vertex: np.ndarray  # (E,) the member vertex of each entry
    ent_f: np.ndarray  # (E,) DFS number of the member in its tree
    ent_finish: np.ndarray  # (E,) end of the member's DFS interval
    ent_heavy_finish: np.ndarray  # (E,) end of the heavy child's interval
    ent_light_depth: np.ndarray  # (E,) light edges above the member
    ent_parent_next: np.ndarray  # (E,) neighbor behind parent_port (-1 root)
    ent_parent_wt: np.ndarray  # (E,) weight of that edge
    ent_parent_edge: np.ndarray  # (E,) canonical edge id (-1 root)
    ent_heavy_next: np.ndarray  # (E,) neighbor behind heavy_port (-1 leaf)
    ent_heavy_wt: np.ndarray
    ent_heavy_edge: np.ndarray
    # Entry-to-entry transition links: the entry index of the parent /
    # heavy-child *in the same tree* (-1 = absent i.e. root/leaf, -2 =
    # the resolved neighbor has no record in the tree, which only
    # happens when routing over a port assignment the scheme was not
    # compiled for).  These let the hop loop step without any lookup.
    ent_parent_epos: np.ndarray  # (E,) int64
    ent_heavy_epos: np.ndarray  # (E,) int64
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
    # -- ported-graph step tables (indexed indptr[u] + port - 1) --------
    g_indptr: np.ndarray  # (n+1,)
    step_next: np.ndarray  # (2m,) neighbor reached by (u, port)
    step_wt: np.ndarray  # (2m,) edge weight
    step_edge: np.ndarray  # (2m,) canonical edge id

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
        return bind_compiled(self.n, self.k, self.columns(), handshake=True)

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


#: Every ndarray column of a :class:`CompiledScheme`, in field order.
COLUMNS = tuple(f.name for f in fields(CompiledScheme) if f.name not in ("n", "k", "handshake"))

#: The twelve :class:`CompiledScheme` columns that *are*
#: :class:`~repro.core.build.arrays.SchemeArrays` columns, each with the
#: accessor of the array column it is bound to.
ARRAY_BOUND = {
    "entry_keys": lambda a: a.entry_keys,
    "ent_vertex": lambda a: a.ent_member,
    "ent_f": lambda a: a.tr_f,
    "ent_finish": lambda a: a.tr_finish,
    "ent_heavy_finish": lambda a: a.tr_heavy_finish,
    "ent_light_depth": lambda a: a.tr_light_depth,
    "root_epos": lambda a: a.lab_epos[0],
    "lp_indptr": lambda a: a.lp_indptr,
    "lp_data": lambda a: a.lp_data,
    "mem_keys": lambda a: a.mem_keys,
    "mem_epos": lambda a: a.mem_epos,
    "pivot": lambda a: a.hierarchy.pivot,
}

#: The thirteen columns compiling derives through a port assignment.
DERIVED = tuple(name for name in COLUMNS if name not in ARRAY_BOUND)


def array_columns(arrays) -> Dict[str, np.ndarray]:
    """The :data:`ARRAY_BOUND` columns of ``arrays``, by compiled name."""
    return {name: get(arrays) for name, get in ARRAY_BOUND.items()}


def _check_shapes(n: int, k: int, cols: Dict[str, np.ndarray]) -> None:
    """O(1) per column: every column agrees with ``entry_keys``,
    ``lp_indptr``, ``g_indptr`` and ``(k, n)``, so no kernel can index
    past the end of one."""
    entries = cols["entry_keys"].shape[0]
    expect = {name: (entries,) for name in COLUMNS if name.startswith("ent")}
    expect.update(
        lp_indptr=(entries + 1,),
        mem_epos=cols["mem_keys"].shape,
        pivot=(k, n),
        root_epos=(n,),
        g_indptr=(n + 1,),
    )
    bad = [name for name, shape in expect.items() if cols[name].shape != shape]
    lp_indptr, g_indptr = cols["lp_indptr"], cols["g_indptr"]
    if not bad and cols["lp_data"].shape != (int(lp_indptr[-1]),):
        bad.append("lp_data")
    if not bad:
        steps = (int(g_indptr[-1]),)
        bad = [name for name in COLUMNS if name.startswith("step_") and cols[name].shape != steps]
    if bad:
        raise EncodingError(
            f"compiled scheme columns {bad} disagree with its shape "
            f"(n={n}, k={k}, {entries} entries)"
        )


def bind_compiled(
    n: int, k: int, columns: Dict[str, np.ndarray], *, handshake: bool = False
) -> CompiledScheme:
    """The one :class:`CompiledScheme` constructor: bind ``columns`` (all of
    :data:`COLUMNS`, arrays as given) after checking their shapes.

    Raises :class:`~repro.errors.EncodingError` when a column's length
    disagrees with the entry count, the light-port CSR, the step tables
    or ``(k, n)`` — the failure a damaged container would otherwise
    surface only at route time, or not at all.
    """
    _check_shapes(n, k, columns)
    return CompiledScheme(n=n, k=k, handshake=handshake, **columns)


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
    parent_port: np.ndarray,
    heavy_port: np.ndarray,
    label_bits: np.ndarray,
) -> CompiledScheme:
    """Derive the :data:`DERIVED` columns of an entry layout through
    ``ported`` and bind them next to the given ``columns``.

    ``parent_port``/``heavy_port`` are the records' ports (0 = none),
    resolved to neighbors, weights and edge ids through the target port
    assignment's step tables; the neighbors are then resolved back to
    entry rows of the same tree (one sorted lookup at compile time saves
    one per hop at route time).
    """
    graph = ported.graph
    arc = ported.arc_of_port
    step_next = graph.adj[arc]
    step_wt = graph.adj_weights[arc]
    step_edge = graph.arc_edge[arc]
    entry_keys, ent_u = columns["entry_keys"], columns["ent_vertex"]
    parent_next, parent_wt, parent_edge = _resolve_ports(
        graph, ent_u, parent_port, step_next, step_wt, step_edge
    )
    heavy_next, heavy_wt, heavy_edge = _resolve_ports(
        graph, ent_u, heavy_port, step_next, step_wt, step_edge
    )
    return bind_compiled(
        ported.n,
        k,
        dict(
            columns,
            ent_parent_next=parent_next,
            ent_parent_wt=parent_wt,
            ent_parent_edge=parent_edge,
            ent_heavy_next=heavy_next,
            ent_heavy_wt=heavy_wt,
            ent_heavy_edge=heavy_edge,
            ent_parent_epos=_link_entries(entry_keys, ent_u, parent_next),
            ent_heavy_epos=_link_entries(entry_keys, ent_u, heavy_next),
            ent_label_bits=label_bits,
            g_indptr=graph.indptr,
            step_next=step_next,
            step_wt=step_wt,
            step_edge=step_edge,
        ),
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
    f_width = np.full(n, (max(n - 1, 0)).bit_length(), dtype=np.int64)
    root_epos = np.full(n, -1, dtype=np.int64)
    root_epos[r] = r
    pivot = np.zeros((2, n), dtype=np.int64)
    pivot[1] = r
    columns = {
        "entry_keys": r * np.int64(n) + members,  # ascending: sorted by vertex
        "ent_vertex": members,
        "ent_f": recs["f"],
        "ent_finish": recs["finish"],
        "ent_heavy_finish": recs["heavy_finish"],
        "ent_light_depth": recs["light_depth"],
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
        parent_port=recs["parent_port"],
        heavy_port=recs["heavy_port"],
        label_bits=tree_label_bits_array(f_width, lp_indptr, lp_data),
    )


def compile_from_arrays(arrays, ported: PortedGraph) -> CompiledScheme:
    """Export a :class:`~repro.core.build.arrays.SchemeArrays` scheme.

    The array form already *is* the entry layout the engine routes on
    (sorted ``tree * n + vertex`` keys, record columns, light-port CSR,
    member maps, pivots): those :data:`ARRAY_BOUND` columns are bound as
    they are, and what remains is resolving the stored parent and heavy
    ports through ``ported``'s step tables — so routing over a foreign
    port assignment crosses exactly the links the hop-by-hop simulator
    would.
    """
    with TELEMETRY.span(
        "engine.compile", source="arrays", entries=int(arrays.entry_keys.shape[0])
    ):
        return _resolve_columns(
            array_columns(arrays),
            arrays.k,
            ported,
            parent_port=arrays.tr_parent_port,
            heavy_port=arrays.tr_heavy_port,
            label_bits=arrays.entry_label_bits(),
        )
