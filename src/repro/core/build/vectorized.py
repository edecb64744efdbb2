"""The vectorized scheme builder: construction as array programs.

Every stage of TZ preprocessing is re-expressed over flat arrays, with
the per-vertex Python loops of the reference path replaced by batched
sweeps — each stage on the platform's kernel (:mod:`repro.kernels`):
compiled C passes when ``_native.c`` loads, numpy/scipy otherwise.

1. **Clusters** ``C(w) = {v : d(w, v) < d(A_{i+1}, v)}`` per hierarchy
   level, one of two engines per level:

   * *pruned* — a thresholded shortest-path sweep over **all centers of
     the level**, pruning any pair whose tentative distance reaches
     ``d(A_{i+1}, v)``.  Subpath closure (strict thresholds) makes
     pruning safe: every prefix of a shortest path to a member is itself
     a member, so the true distance always survives, and the work is
     proportional to the total cluster volume ``Σ|C(w)|``, not
     ``|centers| · n``.  Natively, ``tz_frontier_sweep`` runs one FIFO
     label-correcting pass per center; it serves every level, the
     unbounded top level (infinite thresholds) included.  In numpy, the
     state is a sparse sorted array of ``(center, vertex)`` pairs and
     each round relaxes the whole frontier through its out-arcs as one
     array step.
   * *full* — chunked batched single-source Dijkstra over the level's
     centers (one C-level scipy call per chunk), membership by a
     row-wise threshold comparison.  The numpy kernel uses it for
     unbounded levels, where infinite thresholds never prune.

   Each level's center blocks are copied to their tree slices of the
   int32 member column (:func:`_grow_clusters`, which a patch's rebuild
   shares), by which every later pass names an entry.

2. **SPT parents and heavy-light trees**, one cluster (tree slice) at a
   time.  The reference truncated Dijkstra relaxes ties toward
   the smaller vertex id, which makes its parent of ``v`` exactly
   ``min{u member : d(w,u) + wt(u,v) = d(w,v)}``.  Natively,
   ``tz_cluster_trees`` makes one linear pass per cluster: the first
   tight in-cluster neighbour in ``v``'s sorted row, child lists by
   counting sort, subtree sizes over a BFS order, children ordered by
   ``(-size, id)``, DFS numbers and light depths as sibling prefix
   sums, and each light-port sequence copied from the parent's.  The
   numpy reference computes the same columns for all clusters at once:
   parents as a vectorized segmented minimum, depths by pointer
   doubling, sizes by depth-bucketed scatter-adds, one global
   ``(parent, -size, id)`` lexsort, DFS numbers and light depths as
   root-path prefix sums, and light ports by a forward fill per light
   level over the DFS order.

All tie-breaks replicate the per-node reference bit-for-bit, which is
what ``tests/test_builder_equivalence.py`` enforces.  The determinism
contract matches :class:`repro.graphs.csr.CSRKernel`: for float64-exact
(integer-valued) edge weights the output is identical to the reference;
otherwise construction transparently falls back to the reference path.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ...errors import PreprocessingError
from ...graphs.graph import Graph
from ...graphs.ports import PortedGraph
from ...kernels import note_weight_fallback, resolve_kernel
from ...kernels.frontier import frontier_sweep_native
from ...kernels.trees import cluster_trees_native
from ...obs import TELEMETRY
from ..landmarks import Hierarchy
from .arrays import SchemeArrays, assemble_arrays, check_index_sizes, light_port_dtype
from .reference import reference_arrays

#: Cap on materialized cells / arc expansions per chunk (memory bound).
CHUNK_CELLS = 1 << 22


def _is_float64_exact(graph: Graph) -> bool:
    """True when all path sums are exact in float64: integer-valued
    weights whose longest possible path stays below 2^52."""
    w = graph.adj_weights
    if w.size == 0:
        return True
    if not np.all(w == np.floor(w)):
        return False
    return float(w.max()) * max(graph.n, 1) < 2.0**52


def _expand(
    graph: Graph, u: np.ndarray, dist_u: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relax every out-arc of ``u[i]`` in one array step.

    Returns ``(rep, v, nd)``: source row index, arc head, tentative
    distance ``dist_u[rep] + wt``.
    """
    indptr, adj, wts = graph.indptr, graph.adj, graph.adj_weights
    cnt = indptr[u + 1] - indptr[u]
    total = int(cnt.sum())
    if total == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
        )
    # Row indices and arc offsets both fit 32 bits (bounded by the chunk
    # expansion and the arc count); the narrower temporaries halve the
    # memory traffic of the hottest arrays in the builder.
    idx = np.int32 if total < 2**31 - 1 and adj.shape[0] < 2**31 - 1 else np.int64
    rep = np.repeat(np.arange(u.shape[0], dtype=idx), cnt)
    ex = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    arc = np.repeat((indptr[u] - ex).astype(idx), cnt) + np.arange(total, dtype=idx)
    return rep, adj[arc], dist_u[rep] + wts[arc]


def _full_level(
    graph: Graph, centers: np.ndarray, thr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster membership from chunked batched full-graph Dijkstra rows."""
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

    n = graph.n
    rows = max(1, min(centers.shape[0], CHUNK_CELLS // max(n, 1)))
    mat = graph.csr().matrix()
    unbounded = bool(np.all(np.isinf(thr)))
    key_parts, dist_parts = [], []
    for s in range(0, centers.shape[0], rows):
        chunk = centers[s : s + rows]
        dist = np.atleast_2d(_scipy_dijkstra(mat, directed=False, indices=chunk))
        if unbounded and bool(np.all(np.isfinite(dist))):
            # Reachable everywhere with infinite thresholds: every
            # cluster is full and contiguous — no mask to materialize.
            verts = np.arange(n, dtype=np.int64)
            key_parts.append((chunk[:, None] * np.int64(n) + verts[None, :]).ravel())
            dist_parts.append(dist.ravel())
            continue
        mask = dist < thr[None, :]
        mask[np.arange(chunk.shape[0]), chunk] = True  # w ∈ C(w) always
        r, v = np.nonzero(mask)
        key_parts.append(chunk[r] * np.int64(n) + v)
        dist_parts.append(dist[mask])
    return np.concatenate(key_parts), np.concatenate(dist_parts)


def _pruned_level(
    graph: Graph, centers: np.ndarray, thr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Thresholded batched label-correcting Dijkstra over all centers.

    State: sorted ``(center, vertex)`` keys with the best tentative
    distance found so far; each round relaxes the improved frontier one
    arc further and prunes at the per-vertex threshold (strict ``<``).
    Converges once no pair improves — at most the maximum hop count of
    any surviving shortest path, each round a constant number of array
    operations.
    """
    n = np.int64(graph.n)
    best_keys = centers.astype(np.int64) * n + centers
    best_dist = np.zeros(centers.shape[0])
    frontier_keys = best_keys
    frontier_dist = best_dist
    rounds = relaxed = 0
    try:
        for _round in range(graph.n + 2):
            if frontier_keys.shape[0] == 0:
                return best_keys, best_dist
            rounds += 1
            u = frontier_keys % n
            base = frontier_keys - u  # center * n
            rep, v, nd = _expand(graph, u, frontier_dist)
            relaxed += rep.shape[0]
            ok = nd < thr[v]
            ck = base[rep[ok]] + v[ok]
            cd = nd[ok]
            if ck.shape[0] == 0:
                return best_keys, best_dist
            order = np.lexsort((cd, ck))  # min distance per candidate key
            ck, cd = ck[order], cd[order]
            keep = np.ones(ck.shape[0], dtype=bool)
            keep[1:] = ck[1:] != ck[:-1]
            ck, cd = ck[keep], cd[keep]
            pos = np.minimum(np.searchsorted(best_keys, ck), best_keys.shape[0] - 1)
            exists = best_keys[pos] == ck
            upd = exists.copy()
            upd[exists] = cd[exists] < best_dist[pos[exists]]
            best_dist[pos[upd]] = cd[upd]
            fresh = ~exists
            if fresh.any():
                # ck is sorted, so new keys splice in as one O(B + C) insert
                # (no re-sort of the whole state).
                at = np.searchsorted(best_keys, ck[fresh])
                best_keys = np.insert(best_keys, at, ck[fresh])
                best_dist = np.insert(best_dist, at, cd[fresh])
            live = upd | fresh
            frontier_keys, frontier_dist = ck[live], cd[live]
        raise PreprocessingError("thresholded batched Dijkstra did not converge")
    finally:
        tm = TELEMETRY
        if tm.enabled:
            tm.count("build.frontier_rounds", rounds)
            tm.count("build.relaxed_arcs", relaxed)


def _level_parents(graph: Graph, keys: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Minimum-id tight predecessor per entry — the reference tie-break.

    The truncated-Dijkstra reference settles every tight predecessor of
    ``v`` strictly before ``v`` and keeps the smallest relaxing id, so
    its SPT parent is ``min{u ∈ C(w) : d(w,u) + wt(u,v) = d(w,v)}``;
    tight arcs between members never leave the cluster (subpath
    closure), so scanning member out-arcs finds every candidate.

    Entry positions are resolved through a reusable ``(centers, n)``
    scratch table per chunk of centers (direct gathers instead of a
    log-E binary search per relaxed arc).  Parents come out int32, the
    width rule's dtype (the caller has checked that n and E fit).
    """
    n = np.int64(graph.n)
    E = keys.shape[0]
    idx = np.int32
    parent = np.full(E, graph.n, dtype=np.int32)  # sentinel: no parent found
    center = keys // n
    member = keys - center * n
    ucen, ustart = np.unique(center, return_index=True)
    ustart = np.append(ustart, E)
    avg_deg = max(1, graph.adj.shape[0] // max(graph.n, 1))
    step = max(1, CHUNK_CELLS // (4 * avg_deg))
    if E == int(ucen.shape[0]) * graph.n:
        # Every cluster of this level is full (infinite thresholds): the
        # entry of (w, v) sits at block_start(w) + v — pure arithmetic,
        # no position table needed.
        for s in range(0, E, step):
            mem = member[s : s + step]
            block = np.arange(s, s + mem.shape[0], dtype=np.int64) - mem
            rep, v, nd = _expand(graph, mem, dist[s : s + step])
            if rep.shape[0] == 0:
                continue
            cand = block[rep] + v
            tight = dist[cand] == nd
            np.minimum.at(parent, cand[tight], mem[rep[tight]].astype(np.int32))
        parent[member == center] = -1
        if np.any(parent == graph.n):
            raise PreprocessingError(
                "vectorized cluster SPT has an orphan member: edge weights "
                "are not float64-exact (the builder should have fallen back)"
            )
        return parent
    rows = max(1, min(int(ucen.shape[0]), CHUNK_CELLS // max(graph.n, 1)))
    scratch = np.full((rows, graph.n), -1, dtype=idx)
    for c0 in range(0, ucen.shape[0], rows):
        c1 = min(c0 + rows, ucen.shape[0])
        lo, hi = int(ustart[c0]), int(ustart[c1])
        row = np.searchsorted(ucen[c0:c1], center[lo:hi]).astype(idx)
        mem = member[lo:hi]
        scratch[row, mem] = np.arange(lo, hi, dtype=idx)
        # The scratch must hold whole clusters (relaxed arcs can target
        # any member), but the expansion itself runs in bounded slices.
        for s in range(0, hi - lo, step):
            e = min(s + step, hi - lo)
            rep, v, nd = _expand(graph, mem[s:e], dist[lo + s : lo + e])
            if rep.shape[0] == 0:
                continue
            cand = scratch[row[s:e][rep], v]
            ok = cand >= 0
            cand = cand[ok]
            tight = dist[cand] == nd[ok]
            np.minimum.at(parent, cand[tight], mem[s:e][rep[ok]][tight].astype(np.int32))
        scratch[row, mem] = -1  # reset only the cells written
    parent[member == center] = -1
    if np.any(parent == graph.n):
        raise PreprocessingError(
            "vectorized cluster SPT has an orphan member: edge weights are "
            "not float64-exact (the builder should have fallen back)"
        )
    return parent


def _path_sums(gs, parent_epos: np.ndarray):
    """``out[v] = Σ g[x]`` over the root→``v`` entry path for each value
    array in ``gs``, by pointer doubling sharing one ancestor chase.

    After round ``t``, ``out[v]`` holds the sum over ``v`` and its first
    ``2^t − 1`` ancestors and ``j[v]`` points at the ``2^t``-th; each
    gather materializes its temporary before any write, so no snapshot
    copies are needed.  Value dtypes are preserved (the tree stage runs
    on int32).
    """
    outs = [np.ascontiguousarray(g).copy() for g in gs]
    j = parent_epos.copy()
    while True:
        sel = np.flatnonzero(j >= 0)
        if sel.shape[0] == 0:
            return outs
        anc = j[sel]
        for out in outs:
            out[sel] += out[anc]
        j[sel] = j[anc]


def _tree_arrays(
    graph: Graph,
    ported: PortedGraph,
    entry_keys: np.ndarray,
    ent_center: np.ndarray,
    ent_member: np.ndarray,
    ent_parent: np.ndarray,
    cl_indptr: np.ndarray,
) -> dict:
    """Heavy-light records and light-port sequences for all trees at once.

    Entry indices, DFS numbers, sizes and ports all fit 32 bits (the
    caller has checked n, 2m and E against the width rule), so every
    column is int32 from here on but two: ``lp_indptr``, int64, and
    ``lp_data``, at the graph's :func:`light_port_dtype`.
    """
    n = np.int64(graph.n)
    E = entry_keys.shape[0]
    idx = np.int32
    parent_epos = np.full(E, -1, dtype=idx)
    hasp = ent_parent >= 0
    # Full clusters are contiguous with member[j] = j, so the parent's
    # entry is block_start + parent; only sparse clusters need a search.
    full = (np.diff(cl_indptr)[ent_center] == graph.n) & hasp
    parent_epos[full] = (cl_indptr[ent_center[full]] + ent_parent[full]).astype(idx)
    rest = hasp & ~full
    parent_epos[rest] = np.searchsorted(
        entry_keys, ent_center[rest] * n + ent_parent[rest]
    ).astype(idx)

    (depth,) = _path_sums([np.ones(E, dtype=idx) * hasp], parent_epos)
    size = np.ones(E, dtype=idx)
    if E:
        # Children finalize before parents: scatter-add one depth at a time.
        order = np.argsort(depth, kind="stable").astype(idx)
        counts = np.bincount(depth)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for d in range(counts.shape[0] - 1, 0, -1):
            sel = order[bounds[d] : bounds[d + 1]]
            np.add.at(size, parent_epos[sel], size[sel])

    # Children of every tree vertex, ordered by (-subtree size, id) — the
    # reference's heavy-first order.  One global lexsort covers all trees;
    # (-size, member) packs into one int64 key since size, member < n.
    ch = np.flatnonzero(hasp).astype(idx)
    size_member = (np.int64(graph.n) - size[ch]) * n + ent_member[ch]
    order = np.lexsort((size_member, parent_epos[ch]))
    ch = ch[order]
    par = parent_epos[ch]
    first = np.ones(ch.shape[0], dtype=bool)
    first[1:] = par[1:] != par[:-1]
    gidx = (np.cumsum(first) - 1).astype(idx)
    gstart = np.flatnonzero(first).astype(idx)
    rank = np.arange(ch.shape[0], dtype=idx) - gstart[gidx]
    # The global cumsum can exceed 32 bits; only within-group differences
    # (bounded by the parent's subtree size) feed the DFS offsets.
    csum = np.cumsum(size[ch], dtype=np.int64)
    ex = csum - size[ch]  # exclusive prefix of sibling sizes
    off = np.zeros(E, dtype=idx)
    off[ch] = (1 + ex - ex[gstart][gidx]).astype(idx)
    is_light = np.zeros(E, dtype=idx)
    is_light[ch] = rank > 0
    heavy_epos = np.full(E, -1, dtype=idx)
    heavy_epos[par[first]] = ch[first]

    dfs, light_depth = _path_sums([off, is_light], parent_epos)
    finish = dfs + size - 1
    heavy_finish = dfs.copy()
    hh = heavy_epos >= 0
    heavy_finish[hh] = finish[heavy_epos[hh]]

    # One arc search resolves every port: the arc of (parent → v) gives
    # the down-port, its reverse arc the parent-port, and the heavy port
    # of v is just the down-port of its heavy child's entry.
    arc_keys = (
        np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr)) * n
        + graph.adj
    )
    rev_arc = np.searchsorted(arc_keys, graph.adj * n + arc_keys // n)
    down_arc = np.searchsorted(arc_keys, ent_parent[hasp] * n + ent_member[hasp])
    down_port = np.zeros(E, dtype=idx)  # port at the parent toward v
    down_port[hasp] = ported.port_of_arc[down_arc]
    parent_port = np.zeros(E, dtype=idx)
    parent_port[hasp] = ported.port_of_arc[rev_arc[down_arc]]
    heavy_port = np.zeros(E, dtype=idx)
    heavy_port[hh] = down_port[heavy_epos[hh]]

    # Light-port sequences: entry v's sequence holds, at slot j, the
    # down-port of its unique light ancestor edge at light level j+1.
    # Providers at one light level have disjoint DFS intervals, so in
    # (tree, dfs) order the nearest preceding provider is the ancestor —
    # one forward fill (maximum.accumulate) per light level.
    lp_indptr = np.zeros(E + 1, dtype=np.int64)
    np.cumsum(light_depth, out=lp_indptr[1:])
    lp_data = np.zeros(int(lp_indptr[-1]), dtype=light_port_dtype(graph.indptr))
    if lp_data.shape[0]:
        # dfs is a permutation within each cluster block, so (tree, dfs)
        # order is one scatter — no sort.
        od = np.empty(E, dtype=idx)
        od[cl_indptr[ent_center] + dfs] = np.arange(E, dtype=idx)
        od = od[light_depth[od] > 0]
        tree_od = ent_center[od]
        ld_od = light_depth[od]
        light_od = is_light[od].astype(bool)
        dp_od = down_port[od]
        tgt_od = lp_indptr[od]
        for j in range(int(light_depth.max())):
            # Entries whose sequences end before slot j are neither
            # providers nor receivers from here on: drop them, keeping
            # the relative (tree, dfs) order the forward fill needs.
            if j:
                keep = ld_od > j
                tree_od, ld_od, light_od = tree_od[keep], ld_od[keep], light_od[keep]
                dp_od, tgt_od = dp_od[keep], tgt_od[keep]
            positions = np.arange(tree_od.shape[0], dtype=idx)
            provider = light_od & (ld_od == j + 1)
            fill = np.maximum.accumulate(np.where(provider, positions, -1))
            src = fill
            if np.any(src < 0) or np.any(tree_od[src] != tree_od):
                raise PreprocessingError(
                    "light-port fill found no same-tree ancestor (builder bug)"
                )
            lp_data[tgt_od + j] = dp_od[src]

    return {
        "ent_parent_epos": parent_epos,
        "ent_heavy_epos": heavy_epos,
        "tr_f": dfs,
        "tr_finish": finish,
        "tr_heavy_finish": heavy_finish,
        "tr_light_depth": light_depth,
        "tr_parent_port": parent_port,
        "tr_heavy_port": heavy_port,
        "lp_indptr": lp_indptr,
        "lp_data": lp_data,
    }


def _level_clusters(
    graph: Graph, centers: np.ndarray, thr: np.ndarray, level: int, kernel: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted ``(keys, dist)`` entries of one level's clusters, under a
    ``build.clusters`` span naming the engine: ``"pruned"``, the frontier
    sweep, or ``"full"``, scipy's rows.  The native sweep is faster than
    scipy rows on every level, unbounded ones included; the numpy sweep
    gives way to scipy rows on an unbounded level, where infinite
    thresholds never prune."""
    full = kernel != "native" and bool(np.all(np.isinf(thr)))
    with TELEMETRY.span(
        "build.clusters",
        level=level,
        engine="full" if full else "pruned",
        centers=int(centers.shape[0]),
    ):
        if full:
            return _full_level(graph, centers, thr)
        with TELEMETRY.span(
            "kernel.frontier_sweep", impl=kernel, level=level, centers=int(centers.shape[0])
        ):
            if kernel == "native":
                return frontier_sweep_native(graph, centers, thr)
            return _pruned_level(graph, centers, thr)


def _grow_clusters(
    graph: Graph,
    hierarchy: Hierarchy,
    centers: np.ndarray,
    kernel: str,
    fields: Optional[Tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], None]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clusters of ``centers`` (sorted, distinct), each grown at its
    top level: ``(cl_indptr, member, dist)``, one tree slice per vertex
    of ``graph`` (empty for a vertex not in ``centers``), each slice's
    int32 members ascending with their float64 distances.

    The build grows every vertex's cluster, a patch its dirty ones.  A
    patch may hand ``fields = (full, fill)``: the sorted centers of
    ``centers`` whose clusters are all of V, not swept here, and a
    callable ``fill(dist, at)`` that writes the field of ``full[j]``
    into ``dist[at[j] : at[j] + n]``.  Every other center is swept level
    by level (:func:`_level_clusters`).  Each level's entries come out
    center-major, so its blocks are copied to their ``cl_indptr``
    offsets run by run, a run being the level's centers whose blocks
    also lie side by side in the output; no merge sorts them.
    """
    n = graph.n
    full, fill = fields if fields is not None else (np.zeros(0, dtype=np.int64), None)
    swept = np.setdiff1d(centers, full, assume_unique=True) if full.shape[0] else centers
    counts = np.zeros(n, dtype=np.int64)
    counts[full] = n
    levels = []
    for i in range(hierarchy.k):
        level = swept[hierarchy.level_of[swept] == i]
        if level.shape[0] == 0:
            continue
        keys, dist = _level_clusters(graph, level, hierarchy.dist[i + 1], i, kernel)
        TELEMETRY.count("build.cluster_entries", int(keys.shape[0]))
        # Every slice holds its own center, so each block starts at
        # its center's key.
        base = level * np.int64(n)
        starts = np.searchsorted(keys, base)
        counts[level] = np.diff(np.append(starts, keys.shape[0]))
        levels.append((level, base, starts, keys, dist))
    cl_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=cl_indptr[1:])
    total = int(cl_indptr[-1])
    member = np.empty(total, dtype=np.int32)
    dist_out = np.empty(total, dtype=np.float64)
    for level, base, starts, keys, dist in levels:
        lens = counts[level]
        at = cl_indptr[level]
        # A run starts where a block does not follow its predecessor's
        # in the output; it ends where the next run starts in ``keys``.
        first = np.flatnonzero(np.append(True, at[1:] != at[:-1] + lens[:-1]))
        src = np.append(starts[first], keys.shape[0])
        local = keys - np.repeat(base, lens)
        for lo, a, b in zip(at[first].tolist(), src[:-1].tolist(), src[1:].tolist()):
            member[lo : lo + b - a] = local[a:b]
            dist_out[lo : lo + b - a] = dist[a:b]
    if full.shape[0]:
        at = cl_indptr[full]
        vertices = np.arange(n, dtype=np.int32)
        for lo in at.tolist():
            member[lo : lo + n] = vertices
        fill(dist_out, at)
    return cl_indptr, member, dist_out


def _cluster_trees(
    graph: Graph,
    ported: PortedGraph,
    cl_indptr: np.ndarray,
    member: np.ndarray,
    dist: np.ndarray,
    kernel: str,
) -> dict:
    """SPT parents and heavy-light records of the clusters whose tree
    slices ``cl_indptr`` cut the ``member`` column (as
    :func:`_grow_clusters` returns them).

    Returns the :func:`_tree_arrays` columns plus ``ent_parent``.  The
    native kernel runs one linear C pass per cluster; numpy runs
    :func:`_level_parents` and :func:`_tree_arrays` on the keys
    ``center * n + member`` derived here, the differential reference it
    must match bit for bit.  The columns are narrowed to int32 here, so
    a graph or entry set the width rule cannot hold is refused first.
    """
    check_index_sizes(graph.n, graph.adj.shape[0], member.shape[0])
    with TELEMETRY.span("kernel.tree_pass", impl=kernel, entries=int(member.shape[0])):
        if kernel == "native":
            return cluster_trees_native(graph, ported, cl_indptr, member, dist)
        n = np.int64(graph.n)
        center = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(cl_indptr))
        keys = center * n + member
        ent_parent = _level_parents(graph, keys, dist)
        tree = _tree_arrays(graph, ported, keys, center, member, ent_parent, cl_indptr)
        tree["ent_parent"] = ent_parent
        return tree


def vectorized_arrays(
    graph: Graph,
    ported: PortedGraph,
    hierarchy: Hierarchy,
    *,
    kernel: str = "auto",
) -> SchemeArrays:
    """Construct the whole scheme as array programs (see module docstring).

    The cluster engine of each level follows from the kernel and the
    level (:func:`_level_clusters`): the native kernel sweeps every level,
    the unbounded top level included; the numpy kernel sweeps bounded
    levels and runs unbounded ones as scipy's full rows.

    ``kernel`` selects the backend of the frontier sweep and the
    cluster-tree pass — ``"numpy"`` (the differential reference),
    ``"native"`` (the compiled C kernels) or ``"auto"`` (see
    :mod:`repro.kernels`); the resulting arrays are bit-for-bit identical
    either way.
    """
    kernel = resolve_kernel(kernel)
    if not _is_float64_exact(graph):
        # Same determinism contract as CSRKernel.multi_source: when float
        # arithmetic cannot reproduce the reference bit-for-bit, run it —
        # loudly (counter + warning); this degradation used to be silent.
        note_weight_fallback()
        return reference_arrays(graph, ported, hierarchy)

    cl_indptr, member, dist = _grow_clusters(
        graph, hierarchy, np.arange(graph.n, dtype=np.int64), kernel
    )
    with TELEMETRY.span("build.trees", entries=int(member.shape[0])):
        tree = _cluster_trees(graph, ported, cl_indptr, member, dist, kernel)
    with TELEMETRY.span("build.assemble"):
        return assemble_arrays(
            graph, ported, hierarchy, cl_indptr=cl_indptr, ent_member=member, ent_dist=dist,
            **tree,
        )
