"""The per-node reference builder, packed into :class:`SchemeArrays`.

This is the construction path the package shipped with: one truncated
Dijkstra per cluster center (:func:`repro.core.clusters.compute_cluster`
via ``method="sparse"``) and one per-tree heavy-light compilation
(:func:`repro.trees.tz_tree.build_tree_router`).  :func:`pack_clusters`
is the one pass that compiles those tree routers and flattens them into
arrays: :func:`repro.core.scheme_k.build_tz_scheme` runs it over its own
clusters (whatever cluster engine computed them), so the per-node
scheme carries the arrays the batch engine compiles, and
:func:`reference_arrays` runs it over sparse clusters so the vectorized
builder can be differenced against it structure-by-structure.

It is deliberately *not* optimized: its job is to be obviously correct
(it reuses the object-world code verbatim) and to serve as the ground
truth and the benchmark baseline.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ...graphs.graph import Graph
from ...graphs.ports import PortedGraph
from ...trees.tz_tree import TreeRouter, build_tree_router, records_to_arrays
from ..clusters import Cluster, compute_all_clusters
from ..landmarks import Hierarchy
from .arrays import SchemeArrays, assemble_arrays, light_port_dtype


def hierarchy_clusters(
    graph: Graph, hierarchy: Hierarchy, *, method: str = "sparse"
) -> Dict[int, Cluster]:
    """Every vertex's cluster, grown at its top level, level by level
    (one shared threshold row per level); ``method`` is the cluster
    engine of :func:`~repro.core.clusters.compute_all_clusters`."""
    clusters: Dict[int, Cluster] = {}
    for i in range(hierarchy.k):
        lvl = hierarchy.levels[i]
        centers = [int(w) for w in lvl[hierarchy.level_of[lvl] == i]]
        if centers:
            clusters.update(
                compute_all_clusters(graph, centers, hierarchy.dist[i + 1], method=method)
            )
    return clusters


def pack_clusters(
    graph: Graph,
    ported: PortedGraph,
    hierarchy: Hierarchy,
    clusters: Dict[int, Cluster],
) -> Tuple[SchemeArrays, Dict[int, TreeRouter]]:
    """Compile one tree router per cluster and pack clusters and routers
    into :class:`SchemeArrays`.

    Returns the arrays and the routers by center, so a caller that also
    fills dict tables reads exactly the records the arrays hold.
    """
    n = graph.n
    routers: Dict[int, TreeRouter] = {}
    cl_counts = np.zeros(n, dtype=np.int64)
    member_l: List[int] = []
    dist_l: List[float] = []
    parent_l: List[int] = []
    parent_epos_l: List[int] = []
    heavy_epos_l: List[int] = []
    records = []
    lp_counts: List[int] = []
    lp_flat: List[int] = []
    for w in range(n):
        cluster = clusters[w]
        tree = cluster.tree()
        router = routers[w] = build_tree_router(tree, ported, port_model="fixed")
        members = cluster.members()
        cl_counts[w] = len(members)
        # the entry of (w, u): its rank in w's sorted members, past the
        # entries of every earlier cluster
        entry = {u: len(member_l) + i for i, u in enumerate(members)}
        entry[-1] = -1  # no parent at the center, no heavy child at a leaf
        for v in members:
            member_l.append(v)
            dist_l.append(cluster.dist[v])
            parent_l.append(cluster.parent[v])
            parent_epos_l.append(entry[cluster.parent[v]])
            heavy_epos_l.append(entry[tree.heavy[v]])
            records.append(router.records[v])
            ports = router.labels[v].light_ports
            lp_counts.append(len(ports))
            lp_flat.extend(ports)

    cl_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cl_counts, out=cl_indptr[1:])
    lp_indptr = np.zeros(len(lp_counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lp_counts, dtype=np.int64), out=lp_indptr[1:])
    recs = records_to_arrays(records)
    arrays = assemble_arrays(
        graph,
        ported,
        hierarchy,
        cl_indptr=cl_indptr,
        ent_member=np.asarray(member_l, dtype=np.int32),
        ent_dist=np.asarray(dist_l, dtype=np.float64),
        ent_parent=np.asarray(parent_l, dtype=np.int32),
        ent_parent_epos=np.asarray(parent_epos_l, dtype=np.int32),
        ent_heavy_epos=np.asarray(heavy_epos_l, dtype=np.int32),
        tr_f=recs["f"],
        tr_finish=recs["finish"],
        tr_heavy_finish=recs["heavy_finish"],
        tr_light_depth=recs["light_depth"],
        tr_parent_port=recs["parent_port"],
        tr_heavy_port=recs["heavy_port"],
        lp_indptr=lp_indptr,
        lp_data=np.asarray(lp_flat, dtype=light_port_dtype(graph.indptr)),
    )
    return arrays, routers


def reference_arrays(
    graph: Graph, ported: PortedGraph, hierarchy: Hierarchy
) -> SchemeArrays:
    """Build the scheme per-node and pack it into :class:`SchemeArrays`."""
    return pack_clusters(graph, ported, hierarchy, hierarchy_clusters(graph, hierarchy))[0]
