"""Delta-aware incremental rebuild: patch a built scheme in place of a
full reconstruction.

Given the :class:`SchemeArrays` of a built scheme, the graph it was built
on and a :class:`~repro.graphs.delta.GraphDelta`, :func:`patch_arrays`
produces the scheme of the mutated graph by rebuilding only the clusters
the delta can possibly touch and splicing the untouched entry rows
across.  The output is **bit-for-bit identical** to a fresh
:func:`~repro.core.build.vectorized.vectorized_arrays` run on the
mutated graph with the surviving landmark levels
(``tests/test_update.py`` gates this on the store's serialize digest and
on every column, dtypes included).

Why a conservative *touched set* suffices
-----------------------------------------
Clusters are subpath-closed (every prefix of a shortest path to a member
is a member), so any change to what a cluster ``C(w)`` stores must leave
a witness **inside the old cluster**:

* a member gained or lost, a distance or an SPT parent/tie-break change
  all require a changed edge endpoint, a neighbor of a
  threshold-changed vertex, or a dropped vertex's neighbor on the old
  cluster's shortest paths — each of which sits in ``C_old(w)``;
* the §2 tree records and light-port sequences embed *port numbers* of
  cluster vertices, so they can only drift at a vertex whose port row
  changed — and those vertices are diffed explicitly.

Collect the set ``S`` of all such witnesses (delta endpoints, dropped
nodes' neighbors, added nodes, threshold-changed vertices ``X`` and
their new-graph neighbors, port-changed vertices); every cluster whose
data changes has ``S ∩ C_old(w) ≠ ∅``.  So the dirty centers are
``∪_{o ∈ S} B(o)``, the tree slices whose members hold a witness, and
one pass over the member column finds them.  Everything else is
spliced verbatim (modulo the monotone vertex relabeling node removal
induces, which preserves sorted adjacency rows and hence ``"sorted"``
port values).

The rebuild itself runs the vectorized builder's stages on the
platform's kernel: its grow step (``_grow_clusters``: the level engines,
the native ``tz_frontier_sweep`` or numpy's frontier sweep and chunked
full Dijkstra rows, placed at their tree slices) over the dirty
centers, and its cluster-tree pass (``tz_cluster_trees``, or numpy's
parent and heavy-light stages).  Per-center results are engine- and
batching-independent by the float64-exact determinism contract, so a
dirty subset of centers gets the very columns a fresh build gives them.

Weight-only deltas get three refinements.  The conservative witness
set would dirty every *top-level* cluster (a top-level center sits in
every bunch), so those centers get an exact relevance test against
their stored distances and are exonerated when no updated edge can
carry a shortest path (:func:`_exonerate_unbounded`).  A top-level tree
that stays dirty holds all n vertices, yet the delta moves few of its
distances: on the native kernel its new field is repaired from the
stored one (``tz_repair_fields``, :func:`_field_repair`), touching what
the delta moves, and only the tree pass reruns on it.  The relevance
test against the stored landmark fields keeps the stored hierarchy,
and skips its multi-source sweeps, when no updated edge is relevant at
any level (:func:`_moves_hierarchy`).

The output is then one splice.  It holds one block of entries per new
center, in center order: a clean block copied from the parent's rows
(members and parents relabeled through the monotone ``id_map``) or a
dirty block from the rebuild.  Consecutive blocks whose rows are
contiguous in one source form a *run*: a clean run ends only at a dirty
block or at a dropped center, so ``d`` dirty clusters and ``r`` dropped
vertices make at most ``2d + r + 1`` runs, however large E is.  Every column,
the light-port payload included, is written one slice per run, and
every entry link moves by its run's shift, because a link never leaves
its block; so do the light-port offsets, by the payload's shift.  When
no block moves (no vertex relabeled and every block length kept), a
column whose dirty runs came back unchanged is shared, not copied.
The splice runs on the platform's kernel (:func:`_splice_columns`):
natively one ``memcpy`` per run and column, each pool worker writing
one row range of every column (:mod:`repro.kernels.splice`), with
:func:`_splice` and :func:`_splice_same` as the numpy reference.
:func:`~repro.core.build.arrays.assemble_arrays` then gets the parent
and shares its label positions when the tree slices, members and pivots
are the parent's, and finds them otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ...errors import PreprocessingError
from ...graphs.delta import GraphDelta, apply_delta
from ...graphs.graph import Graph
from ...graphs.ports import PortedGraph, assign_ports
from ...kernels import resolve_kernel
from ...kernels.frontier import repair_fields_native
from ...kernels.splice import COPY, LINK, OFFSET, REAL, splice_native, splice_same_native
from ...obs import TELEMETRY
from ..landmarks import Hierarchy, hierarchy_from_levels
from .arrays import SchemeArrays, assemble_arrays, check_index_sizes
from .vectorized import _cluster_trees, _grow_clusters, _is_float64_exact

__all__ = ["PatchResult", "patch_arrays"]


@dataclass
class PatchResult:
    """Everything the store/serve layers need after an incremental update."""

    graph: Graph  # the mutated graph
    ported: PortedGraph  # its port assignment
    hierarchy: Hierarchy  # surviving levels, recomputed pivots/distances
    arrays: SchemeArrays  # the patched scheme
    id_map: np.ndarray  # old vertex id → new id (−1 = dropped)
    stats: Dict[str, int] = field(default_factory=dict)


def _segment_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices covering ``[starts[i], starts[i]+lens[i])`` in order."""
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    rep = np.repeat(np.arange(starts.shape[0], dtype=np.int64), lens)
    ex = np.cumsum(lens) - lens
    return starts[rep] + np.arange(total, dtype=np.int64) - ex[rep]


#: Rows per block of :func:`_gather`: an intp copy of one block of int32
#: indices stays in cache.
GATHER_BLOCK = 1 << 16


def _gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]`` into one preallocated column, one block of
    :data:`GATHER_BLOCK` rows at a time: numpy casts an int32 index to
    intp before it gathers, and a whole entry column's cast costs more
    than the gather itself."""
    out = np.empty(index.shape[0], dtype=values.dtype)
    for lo in range(0, index.shape[0], GATHER_BLOCK):
        np.take(values, index[lo : lo + GATHER_BLOCK], out=out[lo : lo + GATHER_BLOCK])
    return out


def _moved(seg: np.ndarray, kind: int, link_shift: int, offset: int) -> np.ndarray:
    """A run's source rows ``seg`` as they land: int32 entry links (−1 =
    none) never leave their block, so each moves by the run's ``at −
    src``; int64 light-port offsets move by the run's payload shift."""
    if kind == LINK and link_shift:
        return np.where(seg >= 0, seg + np.int32(link_shift), np.int32(-1))
    if kind == OFFSET:
        return seg + np.int64(offset)
    return seg


def _run_rows(runs):
    """``(r, dirty, src, at, end)`` of every run, as Python ints."""
    dirty, src, at = runs
    return zip(
        range(dirty.shape[0]), dirty.tolist(), src.tolist(), at[:-1].tolist(), at[1:].tolist()
    )


def _splice_same(runs, columns) -> Dict[str, bool]:
    """The numpy reference of :func:`~repro.kernels.splice.splice_same_native`:
    per column, whether every dirty run already equals the parent's rows
    where it lands."""
    return {
        name: all(
            np.array_equal(old[at:end], _moved(new[lo : lo + end - at], kind, at - lo, 0))
            for _, dirty, lo, at, end in _run_rows(runs)
            if dirty
        )
        for name, (old, new, kind, *_into) in columns.items()
    }


def _splice(groups) -> Dict[str, np.ndarray]:
    """The numpy reference of :func:`~repro.kernels.splice.splice_native`:
    every column of every ``(runs, columns, shift)`` group, one slice per
    run."""
    out = {}
    for runs, columns, shift in groups:
        total = int(runs[2][-1])
        for name, (old, new, kind, *into) in columns.items():
            col = into[0] if into else np.empty(total, dtype=old.dtype)
            for r, dirty, lo, at, end in _run_rows(runs):
                seg = (new if dirty else old)[lo : lo + end - at]
                col[at:end] = _moved(seg, kind, at - lo, 0 if shift is None else shift[r])
            out[name] = col
    return out


def _splice_columns(runs, columns, still: bool, light, kernel: str) -> Dict[str, np.ndarray]:
    """Every spliced column of a patch, on ``kernel``.

    ``runs`` is ``(dirty, src, at)``: run ``r``'s rows start at
    ``src[r]`` in the rebuild's columns (``dirty``) or the parent's, and
    land at rows ``at[r] .. at[r+1]``; ``columns`` maps each name to
    ``(parent's, rebuild's, kind)``.  When ``still`` (no block moved), a
    column whose dirty runs already equal the parent's rows is the
    parent's, not a copy.  ``light`` holds the two light-port CSRs,
    ``(old lp_indptr, old lp_data, new lp_indptr, new lp_data)``: the
    payload splices along the same runs, through each side's offsets,
    and the offsets move with it — unless every light depth was kept:
    then the offsets are the parent's, and so is the payload when its
    dirty runs match.
    """
    same_fn, write_fn = (
        (splice_same_native, splice_native) if kernel == "native" else (_splice_same, _splice)
    )
    dirty, src, at = runs
    out = {}
    if still:
        for name, kept in same_fn(runs, columns).items():
            if kept:
                out[name] = columns.pop(name)[0]
    # Each run's first payload row in its source and where it lands.
    old_lp, old_data, new_lp, new_data = light
    d = dirty.astype(bool)
    lens = np.diff(at)
    lp_src = np.empty(src.shape[0], dtype=np.int64)
    lp_end = np.empty(src.shape[0], dtype=np.int64)
    lp_src[d], lp_end[d] = new_lp[src[d]], new_lp[src[d] + lens[d]]
    lp_src[~d], lp_end[~d] = old_lp[src[~d]], old_lp[src[~d] + lens[~d]]
    lp_at = np.zeros(src.shape[0] + 1, dtype=np.int64)
    np.cumsum(lp_end - lp_src, out=lp_at[1:])
    lp_runs = (dirty, lp_src, lp_at)
    payload = {"lp_data": (old_data, new_data, COPY)}
    if "tr_light_depth" in out:  # every payload slice kept its offsets
        out["lp_indptr"] = old_lp
        if still and same_fn(lp_runs, payload)["lp_data"]:
            out["lp_data"] = old_data
            payload = {}
    else:
        lp_indptr = np.empty(int(at[-1]) + 1, dtype=np.int64)
        lp_indptr[-1] = lp_at[-1]
        columns["lp_indptr"] = (old_lp, new_lp, OFFSET, lp_indptr)
    out.update(write_fn([(runs, columns, lp_at[:-1] - lp_src), (lp_runs, payload, None)]))
    return out


def _port_changed_vertices(
    graph: Graph,
    new_graph: Graph,
    ported: PortedGraph,
    new_ported: PortedGraph,
    id_map: np.ndarray,
    n_keep: int,
) -> np.ndarray:
    """New ids of surviving vertices whose port row drifted despite an
    unchanged adjacency row (possible under non-``"sorted"`` assignments).

    Vertices whose adjacency row changed structurally are already in the
    touched set via the delta's endpoints, so only degree-preserved rows
    need the element-wise compare.  Surviving arcs stay sorted by
    ``(tail, head)`` under the monotone relabeling, so both sides align
    without a sort.
    """
    if graph.m == 0 or n_keep == 0:
        return np.zeros(0, dtype=np.int64)
    tail = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr))
    ok = (id_map[tail] >= 0) & (id_map[graph.adj] >= 0)
    t2 = id_map[tail[ok]]
    h2 = id_map[graph.adj[ok]]
    p_old = ported.port_of_arc[ok]
    deg_kept = np.bincount(t2, minlength=new_graph.n)
    cand = np.zeros(new_graph.n, dtype=bool)
    cand[:n_keep] = deg_kept[:n_keep] == np.diff(new_graph.indptr)[:n_keep]
    start = np.zeros(new_graph.n, dtype=np.int64)
    np.cumsum(deg_kept[:-1], out=start[1:])
    rank = np.arange(t2.shape[0], dtype=np.int64) - start[t2]
    sel = cand[t2]
    if not sel.any():
        return np.flatnonzero(~cand[:n_keep]).astype(np.int64)
    pos = (new_graph.indptr[t2] + rank)[sel]
    mism = (new_graph.adj[pos] != h2[sel]) | (
        new_ported.port_of_arc[pos] != p_old[sel]
    )
    drifted = np.unique(t2[sel][mism])
    # Degree-changed survivors are structurally touched; return them too
    # so the caller need not special-case (cheap union, mostly empty).
    return np.union1d(drifted, np.flatnonzero(~cand[:n_keep]).astype(np.int64))


def _map_levels(hierarchy: Hierarchy, id_map: np.ndarray, n_new: int):
    """Surviving landmark levels in new ids (level 0 is all vertices)."""
    levels = [np.arange(n_new, dtype=np.int64)]
    for i in range(1, hierarchy.k):
        mapped = id_map[hierarchy.levels[i]]
        mapped = np.sort(mapped[mapped >= 0])
        if mapped.shape[0] == 0:
            raise PreprocessingError(
                f"delta drops every level-{i} landmark: the surviving "
                "hierarchy is degenerate — rebuild with fresh sampling"
            )
        levels.append(mapped)
    return levels


def _touched_set(
    arrays: SchemeArrays,
    graph: Graph,
    new_graph: Graph,
    delta: GraphDelta,
    id_map: np.ndarray,
    h_new: Hierarchy,
    ported: PortedGraph,
    new_ported: PortedGraph,
    old_of: np.ndarray,
    weight_only: bool,
) -> np.ndarray:
    """The witness set ``S`` in new ids (see module docstring).  A
    weight-only delta keeps every adjacency row, so under the parent's
    own port array (what ``PortedGraph.rebind`` hands it) no port row
    can drift and the port diff is skipped."""
    n_old, n_new = graph.n, new_graph.n
    n_keep = old_of.shape[0]
    s = set()

    def mapped(x: int) -> int:
        return int(id_map[x]) if x < n_old else x - n_old + n_keep

    for u, v, _w in delta.weight_updates:
        s.update((int(id_map[u]), int(id_map[v])))
    for u, v in delta.drop_edges:
        s.update((int(id_map[u]), int(id_map[v])))
    for u, v, _w in delta.add_edges:
        s.update((mapped(u), mapped(v)))
    for d in delta.drop_nodes:
        s.update(int(x) for x in id_map[graph.neighbors(d)])
    s.discard(-1)
    s.update(range(n_keep, n_new))  # added nodes

    # X: vertices whose distance-to-level (cluster threshold) changed.
    x_mask = np.zeros(n_new, dtype=bool)
    x_mask[n_keep:] = True
    for i in range(1, h_new.k):
        x_mask[:n_keep] |= h_new.dist[i][:n_keep] != arrays.hierarchy.dist[i][old_of]
    xs = np.flatnonzero(x_mask)
    s.update(xs.tolist())
    if xs.shape[0]:  # membership can spread one hop from X in the new graph
        arcs = _segment_indices(new_graph.indptr[xs], np.diff(new_graph.indptr)[xs])
        s.update(np.unique(new_graph.adj[arcs]).tolist())

    if not (weight_only and new_ported.port_of_arc is ported.port_of_arc):
        s.update(
            _port_changed_vertices(graph, new_graph, ported, new_ported, id_map, n_keep).tolist()
        )
    return np.array(sorted(x for x in s if 0 <= x < n_new), dtype=np.int64)


#: Updated edges: ``(U, 2)`` int64 endpoints, float64 old and new weights.
WeightUpdates = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _weight_updates(graph: Graph, delta: GraphDelta) -> WeightUpdates:
    """``delta``'s weight updates on ``graph``, each old weight read once."""
    ends = np.array(
        [(u, v) for u, v, _w in delta.weight_updates], dtype=np.int64
    ).reshape(-1, 2)
    w_old = np.array([graph.edge_weight(u, v) for u, v in ends.tolist()], dtype=np.float64)
    w_new = np.array([w for *_uv, w in delta.weight_updates], dtype=np.float64)
    return ends, w_old, w_new


def _relevant(du: np.ndarray, dv: np.ndarray, updates: WeightUpdates) -> np.ndarray:
    """Whether each update (the last axis) can make or break a shortest
    path of a field ``d`` with ``du``, ``dv`` at its ends: ``d(u) +
    min(w_old, w_new) <= d(v)`` or symmetrically (exact: a patch
    requires float64-exact weights)."""
    w_min = np.minimum(updates[1], updates[2])
    return (du + w_min <= dv) | (dv + w_min <= du)


def _moves_hierarchy(hierarchy: Hierarchy, updates: WeightUpdates) -> bool:
    """Weight-only deltas: whether the landmark hierarchy might change
    under ``updates``.

    Level ``i >= 1``'s field ``d(A_i, ·)`` is a multi-source shortest-path
    field, so :func:`_exonerate_unbounded`'s argument applies to it
    as is: an update ``w_old → w_new`` on ``{u, v}`` can only move it
    when ``d_i(u) + min(w_old, w_new) <= d_i(v)`` or symmetrically
    (:func:`_relevant`).  If
    no updated edge passes that test at any level, the stored field
    still satisfies Bellman optimality on the new graph with the same
    tight arcs, so it is the new field.  Each witness (the smallest-id
    landmark at ``d_i(v)``, the one reaching ``v`` along tight arcs)
    stays, and so do the consistent pivots derived from field and
    witnesses, provided the stored pivots are the consistent ones; level
    0 (every vertex its own pivot) ignores weights.  Then the stored
    hierarchy *is* ``hierarchy_from_levels(new_graph, levels)`` and its
    multi-source sweeps are skipped.  (Exact: patching requires
    float64-exact weights.)
    """
    for i in range(hierarchy.k - 1):  # stored pivots not the consistent ones
        tie = hierarchy.dist[i] == hierarchy.dist[i + 1]
        if not np.array_equal(hierarchy.pivot[i][tie], hierarchy.pivot[i + 1][tie]):
            return True
    u, v = updates[0].T
    return any(_relevant(d[u], d[v], updates).any() for d in hierarchy.dist[1 : hierarchy.k])


def _exonerate_unbounded(
    arrays: SchemeArrays,
    updates: WeightUpdates,
    h_new: Hierarchy,
    dirty_new: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Weight-only deltas: clear top-level centers no updated edge of
    ``updates`` is *relevant* to (:func:`_relevant`).

    A top-level cluster is unbounded (``C(c) = V``), so its stored rows
    are exactly ``c``'s shortest-path tree — distances, deterministic
    parents and the port-bearing §2 records derived from them.
    Membership and thresholds cannot move it, and the caller has already
    checked that no port row drifted.  For an update ``w_old → w_new``
    on ``{u, v}`` that tree can only change when the edge carries (or
    comes to carry) a shortest path:
    ``d(c,u) + min(w_old, w_new) <= d(c,v)`` or symmetrically.  An
    increase needs the old edge *tight* (``==`` by the triangle
    inequality) to lose a path or a parent tie-break; a decrease needs a
    new relaxation or tie (``<=``) to gain one.  If every updated edge
    fails both tests against ``c``'s stored distances, the old field
    still satisfies Bellman optimality on the new graph with an
    unchanged tight-edge set, so every stored byte survives and the
    cluster splices instead of rebuilding.  (All comparisons are exact:
    patching requires float64-exact weights, so the distances are
    integer-valued.)  Bounded lower-level clusters stay conservative —
    their membership thresholds can move.

    Returns the dirty centers left and, of them, the top-level ones
    whose stored slice is full: their new fields can be repaired from
    the stored ones (:func:`_field_repair`) instead of swept.
    """
    k = arrays.k
    top = dirty_new[h_new.level_of[dirty_new] == k - 1]
    if top.shape[0] == 0:
        return dirty_new, top
    ci = arrays.cl_indptr
    # A full cluster holds every vertex in member order, so (c, x) sits
    # at ``ci[c] + x`` — no search.  Anything smaller (impossible for a
    # top-level center, but cheap to verify) just stays dirty.
    partial = ci[top + 1] - ci[top] != arrays.n
    # (c, u) and (c, v): a row per top-level center, a column per update
    at = np.minimum(ci[top][:, None, None] + updates[0], max(arrays.entry_count - 1, 0))
    du, dv = np.moveaxis(arrays.ent_dist[at], 2, 0)
    relevant = partial | _relevant(du, dv, updates).any(axis=1)
    repair = top[relevant & ~partial]
    if relevant.all():
        return dirty_new, repair
    drop = np.zeros(arrays.n, dtype=bool)
    drop[top[~relevant]] = True
    TELEMETRY.count("patch.exonerated_clusters", int((~relevant).sum()))
    return dirty_new[~drop[dirty_new]], repair


def _field_repair(
    arrays: SchemeArrays, new_graph: Graph, updates: WeightUpdates, centers: np.ndarray
):
    """The ``fill`` that :func:`~repro.core.build.vectorized._grow_clusters`
    calls for the full top-level trees of ``centers`` after a weight-only
    delta of ``updates``: the native ``tz_repair_fields`` rewrites each
    stored field into the new graph's, touching what the delta moves, in
    place of a sweep of all n vertices.  Its fields are the sweep's bit
    for bit, so the tree pass after it writes the columns a fresh build
    does."""
    old_at = arrays.cl_indptr[centers]

    def fill(dist: np.ndarray, at: np.ndarray) -> None:
        tm = TELEMETRY
        with tm.span("kernel.repair", trees=int(centers.shape[0])) as span:
            marked, settled = repair_fields_native(
                new_graph, updates, arrays.ent_dist, old_at, dist, at
            )
            span.stamp(marked=marked)
        tm.count("patch.repaired_clusters", int(centers.shape[0]))
        tm.count("patch.repaired_members", settled)

    return fill


def patch_arrays(
    arrays: SchemeArrays,
    graph: Graph,
    delta: GraphDelta,
    *,
    ported: PortedGraph,
    new_ported: Optional[PortedGraph] = None,
) -> PatchResult:
    """Incrementally rebuild ``arrays`` (built on ``graph`` with
    ``ported``) after ``delta``; see the module docstring for the
    classification argument.

    ``new_ported`` defaults to ``ported`` rebound to the new graph
    (``ported.rebind``) for a weight-only delta, which leaves every
    adjacency row and so every port in place under any assignment, and
    to ``assign_ports(new_graph, "sorted")`` for a topology delta.  A
    caller with its own assignment passes it explicitly (assignments
    that renumber untouched rows simply enlarge the dirty set).  Raises
    :class:`PreprocessingError` when the delta leaves incremental
    maintenance undefined — non-float64-exact weights, a disconnected
    mutated graph, or a hierarchy level losing its last landmark — and
    the caller decides whether to fall back to a full rebuild.
    """
    if arrays.n != graph.n:
        raise PreprocessingError(
            f"arrays were built for n={arrays.n}, got a graph with n={graph.n}"
        )
    kernel = resolve_kernel("auto")
    tm = TELEMETRY

    new_graph, id_map = apply_delta(graph, delta)
    if not _is_float64_exact(graph) or not _is_float64_exact(new_graph):
        raise PreprocessingError(
            "incremental patching requires float64-exact (integer-valued) "
            "edge weights; rebuild from scratch instead"
        )
    if not new_graph.is_connected():
        raise PreprocessingError(
            "delta disconnects the graph: TZ routing requires a connected graph"
        )
    weight_only = not (
        delta.add_edges or delta.drop_edges or delta.drop_nodes or delta.add_nodes
    )
    if new_ported is None:
        # Weight changes leave every adjacency row — and hence every
        # "sorted" port — untouched, so the assignment rebinds in O(1).
        # (This also preserves non-"sorted" assignments across
        # weight-only deltas, keeping their clusters spliceable.)
        new_ported = (
            ported.rebind(new_graph)
            if weight_only
            else assign_ports(new_graph, "sorted")
        )
    old_of = np.flatnonzero(id_map >= 0)
    n_keep = int(old_of.shape[0])
    updates = _weight_updates(graph, delta) if weight_only else None

    with tm.span("patch.classify"):
        if weight_only and not _moves_hierarchy(arrays.hierarchy, updates):
            h_new = arrays.hierarchy
        else:
            h_new = hierarchy_from_levels(
                new_graph, _map_levels(arrays.hierarchy, id_map, new_graph.n)
            )
        s_new = _touched_set(
            arrays, graph, new_graph, delta, id_map, h_new, ported, new_ported, old_of,
            weight_only,
        )
        # Dirty centers: every cluster that holds a witness or a dropped
        # vertex, in one pass over the members (every tree slice holds
        # its own center, so none is empty), plus the added nodes' own
        # clusters.
        marked = np.zeros(graph.n, dtype=bool)
        marked[old_of[s_new[s_new < n_keep]]] = True
        marked[np.asarray(delta.drop_nodes, dtype=np.int64)] = True
        dirty_old = np.flatnonzero(
            np.logical_or.reduceat(_gather(marked, arrays.ent_member), arrays.cl_indptr[:-1])
        )
        mapped_dirty = id_map[dirty_old] if dirty_old.shape[0] else dirty_old
        dirty_new = np.unique(
            np.concatenate(
                [
                    mapped_dirty[mapped_dirty >= 0],
                    np.arange(n_keep, new_graph.n, dtype=np.int64),
                ]
            )
        ).astype(np.int64)
        repair = np.zeros(0, dtype=np.int64)
        if weight_only and (
            new_ported.port_of_arc is ported.port_of_arc
            or np.array_equal(ported.port_of_arc, new_ported.port_of_arc)
        ):
            dirty_new, repair = _exonerate_unbounded(arrays, updates, h_new, dirty_new)
        dirty_mask = np.zeros(new_graph.n, dtype=bool)
        dirty_mask[dirty_new] = True
        clean_new = np.flatnonzero(~dirty_mask).astype(np.int64)

    # ------------------------------------------------------------------
    # Rebuild: dirty clusters re-grown through the build's own grow step
    # (per-center output is engine-invariant), one tree slice per new
    # vertex, empty for a clean one.  On the native kernel the dirty
    # top-level trees of a weight-only delta are repaired from their
    # stored fields, not swept.
    # ------------------------------------------------------------------
    with tm.span("patch.rebuild", clusters=int(dirty_new.shape[0])):
        fields = None
        if kernel == "native" and repair.shape[0]:
            fields = (repair, _field_repair(arrays, new_graph, updates, repair))
        d_indptr, d_member, d_dist = _grow_clusters(new_graph, h_new, dirty_new, kernel, fields)
        tree = _cluster_trees(new_graph, new_ported, d_indptr, d_member, d_dist, kernel)

    # ------------------------------------------------------------------
    # Splice: one block per new center, in center order — clean blocks
    # from the parent's rows, dirty ones from the rebuild — written one
    # slice per run (see the module docstring).
    # ------------------------------------------------------------------
    n_new = new_graph.n
    ci = arrays.cl_indptr
    ed = int(d_member.shape[0])
    with tm.span("patch.splice", clusters=int(clean_new.shape[0])):
        # Each block's length and first row in its source: the rebuild
        # for a dirty center, the parent's rows for a clean one.
        clean_old = old_of[clean_new]
        lens = np.diff(d_indptr)
        src = d_indptr[:-1].copy()
        lens[clean_new] = ci[clean_old + 1] - ci[clean_old]
        src[clean_new] = ci[clean_old]
        cl_indptr = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(lens, out=cl_indptr[1:])
        check_index_sizes(n_new, new_graph.adj.shape[0], int(cl_indptr[-1]))
        relabel = n_keep < graph.n  # a dropped vertex shifts every later id
        # No block moves: every clean block sits at its own parent rows.
        still = not relabel and n_new == graph.n and np.array_equal(cl_indptr, ci)
        if still:
            cl_indptr = ci
        # A run ends where the source switches or its rows stop being
        # contiguous (a dropped center's block lay between).
        cut = np.ones(n_new, dtype=bool)
        cut[1:] = (dirty_mask[1:] != dirty_mask[:-1]) | (src[1:] != src[:-1] + lens[:-1])
        first = np.flatnonzero(cut)
        runs = (
            dirty_mask[first].astype(np.int64),
            src[first],
            np.append(cl_indptr[first], cl_indptr[-1]),
        )
        E = int(cl_indptr[-1])

        old_member, old_parent = arrays.ent_member, arrays.ent_parent
        if relabel:
            remap = np.append(id_map, -1).astype(np.int32)  # a parent of −1 stays −1
            old_member, old_parent = remap[old_member], remap[old_parent]
        columns = {
            "ent_member": (old_member, d_member, COPY),
            "ent_dist": (arrays.ent_dist, d_dist, REAL),
            "ent_parent": (old_parent, tree["ent_parent"], COPY),
            "ent_parent_epos": (arrays.ent_parent_epos, tree["ent_parent_epos"], LINK),
            "ent_heavy_epos": (arrays.ent_heavy_epos, tree["ent_heavy_epos"], LINK),
        }
        for name in ("tr_f", "tr_finish", "tr_heavy_finish", "tr_light_depth",
                     "tr_parent_port", "tr_heavy_port"):
            columns[name] = (getattr(arrays, name), tree[name], COPY)
        old_data, new_data = arrays.lp_data, tree["lp_data"]
        if old_data.dtype != new_data.dtype:  # the maximum degree crossed 255
            # splice at the wider width; assemble_arrays fits the result
            # to the new graph's, refusing a port that does not fit
            old_data, new_data = old_data.astype(np.int32), new_data.astype(np.int32)
        spliced = _splice_columns(
            runs,
            columns,
            still,
            (arrays.lp_indptr, old_data, tree["lp_indptr"], new_data),
            kernel,
        )
        if relabel and E and spliced["ent_member"].min() < 0:
            raise PreprocessingError(
                "patch classification missed a dropped member in a clean "
                "cluster (incremental maintenance invariant violated)"
            )

    with tm.span("patch.assemble"):
        new_arrays = assemble_arrays(
            new_graph, new_ported, h_new, cl_indptr=cl_indptr, parent=arrays, **spliced
        )

    ec = E - ed
    stats = {
        "touched_vertices": int(s_new.shape[0]),
        "dirty_clusters": int(dirty_new.shape[0]),
        "clean_clusters": int(clean_new.shape[0]),
        "entries_rebuilt": ed,
        "entries_reused": ec,
    }
    tm.count("patch.dirty_clusters", stats["dirty_clusters"])
    tm.count("patch.entries_rebuilt", ed)
    tm.count("patch.entries_reused", ec)
    return PatchResult(
        graph=new_graph,
        ported=new_ported,
        hierarchy=h_new,
        arrays=new_arrays,
        id_map=id_map,
        stats=stats,
    )
