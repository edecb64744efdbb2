"""Scheme construction: the vectorized builder and its per-node reference.

Two interchangeable builders construct the Thorup–Zwick scheme:

* ``builder="reference"`` — the original per-node path: one truncated
  Dijkstra per cluster center, one heavy-light tree compilation per
  cluster (:mod:`repro.core.build.reference` packs its output).
* ``builder="vectorized"`` — the array-program pipeline
  (:mod:`repro.core.build.vectorized`): per-level batched cluster
  sweeps, one tight-arc parent pass, all heavy-light trees decomposed at
  once by pointer doubling and global lexsorts.

Both produce the **same scheme bit-for-bit** (clusters, bunch distances,
tree parents and ports, encoded label bits) on float64-exact weights;
``tests/test_builder_equivalence.py`` differences them structure by
structure.

Array layout (:class:`~repro.core.build.arrays.SchemeArrays`)
-------------------------------------------------------------
Every vertex ``w`` owns exactly one cluster (grown at its top hierarchy
level), so clusters form a CSR over centers::

    cl_indptr : (n+1,)  entries of C(w) at [cl_indptr[w], cl_indptr[w+1])
    ent_member / ent_dist / ent_parent      — member id (ascending in each
                                              slice), exact d(w, v), SPT
                                              parent (-1 at the center)

Aligned with the entries are the §2 tree-record columns (``tr_f``,
``tr_finish``, ``tr_heavy_finish``, ``tr_light_depth``,
``tr_parent_port``, ``tr_heavy_port``), the light-port sequences as a
nested CSR (``lp_indptr``/``lp_data``, root-to-leaf order), and the
entry-to-entry links ``ent_parent_epos``/``ent_heavy_epos``.  Derived
from those, shared by both builders, are the **label positions**
``lab_epos[i, v]``: the entry of ``v`` in its level-``i`` pivot's tree
(row 0 = ``v``'s own root entry).

No bunch is stored: ``B(v) = {w : v ∈ C(w)}`` is the clusters read the
other way round, the centers of the entries whose member is ``v``
(:meth:`SchemeArrays.bunch_sizes` counts them).  No member map is
stored: a source's level-0 cluster ``{v : d(u, v) < d(A_1, v)}`` is its
own tree slice, or just itself when it is a landmark
(:func:`~repro.core.landmarks.level0_sources`).  An entry is named by
its tree slice and its member: every membership question ("does ``u``
have a record for ``T_w``?") is a binary search of ``w``'s slice of the
member column — the same search the batch routing engine makes, which
is why :func:`compile_from_arrays
<repro.sim.engine.compile.compile_from_arrays>` exports these arrays
directly, and every scheme either builder makes carries them.  No
scheme has a key or center column: ``entry_centers()`` makes the
centers, and only the numpy references form the int64 keys ``w * n +
v`` (:func:`~repro.core.build.arrays.entry_keys`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...errors import PreprocessingError
from ...graphs.graph import Graph
from ...graphs.ports import PortedGraph
from ...obs import TELEMETRY
from ...rng import RngLike, make_rng
from ..landmarks import Hierarchy, build_hierarchy, hierarchy_from_levels
from .arrays import SchemeArrays, assemble_arrays, scheme_from_arrays
from .patch import PatchResult, patch_arrays
from .reference import reference_arrays
from .vectorized import vectorized_arrays

__all__ = [
    "PatchResult",
    "SchemeArrays",
    "assemble_arrays",
    "build_arrays",
    "build_scheme",
    "patch_arrays",
    "reference_arrays",
    "resolve_builder",
    "scheme_from_arrays",
    "vectorized_arrays",
]

#: The accepted ``builder=`` values.
BUILDERS = ("vectorized", "reference")


def resolve_builder(builder: Optional[str]) -> str:
    """Canonicalize the construction-selector keyword (``builder=``
    everywhere construction is selected; ``engine=`` selects execution).
    """
    if builder is None:
        builder = "vectorized"
    if builder not in BUILDERS:
        raise PreprocessingError(f"unknown builder {builder!r}")
    return builder


def _resolve_inputs(
    graph: Graph,
    k: int,
    ported: Optional[PortedGraph],
    rng: RngLike,
    sampling: str,
    levels: Optional[Sequence[np.ndarray]],
    consistent_pivots: bool,
):
    from ...graphs.ports import assign_ports

    if not graph.is_connected():
        raise PreprocessingError(
            "TZ routing requires a connected graph; take "
            "graph.largest_component() first"
        )
    if ported is None:
        ported = assign_ports(graph, "sorted")
    if levels is not None:
        hierarchy = hierarchy_from_levels(graph, levels, consistent=consistent_pivots)
    else:
        hierarchy = build_hierarchy(
            graph, k, make_rng(rng), sampling=sampling, consistent_pivots=consistent_pivots
        )
    return ported, hierarchy


def build_arrays(
    graph: Graph,
    k: int = 2,
    *,
    ported: Optional[PortedGraph] = None,
    builder: Optional[str] = None,
    rng: RngLike = None,
    sampling: str = "bernoulli",
    levels: Optional[Sequence[np.ndarray]] = None,
    consistent_pivots: bool = True,
    hierarchy: Optional[Hierarchy] = None,
) -> SchemeArrays:
    """Construct a scheme and return its array form (no dict world).

    The same ``rng`` yields the same hierarchy for either ``builder``, so
    ``build_arrays(g, k, builder="vectorized", rng=s)`` and
    ``...builder="reference", rng=s`` are directly comparable.  Pass
    ``hierarchy`` to share one across calls.
    """
    builder = resolve_builder(builder)
    with TELEMETRY.span("build.arrays", builder=builder, k=k, n=graph.n):
        if hierarchy is not None:
            from ...graphs.ports import assign_ports

            if ported is None:
                ported = assign_ports(graph, "sorted")
        else:
            ported, hierarchy = _resolve_inputs(
                graph, k, ported, rng, sampling, levels, consistent_pivots
            )
        if builder == "reference":
            return reference_arrays(graph, ported, hierarchy)
        return vectorized_arrays(graph, ported, hierarchy)


def build_scheme(
    graph: Graph,
    k: int = 2,
    *,
    ported: Optional[PortedGraph] = None,
    builder: Optional[str] = None,
    rng: RngLike = None,
    sampling: str = "bernoulli",
    levels: Optional[Sequence[np.ndarray]] = None,
    consistent_pivots: bool = True,
):
    """Build a routable :class:`~repro.core.scheme_k.TZRoutingScheme`.

    ``builder="vectorized"`` runs the array pipeline and materializes the
    object world from it; ``builder="reference"`` runs the original
    per-node path and packs its clusters and trees as arrays too (the
    compiled batch-engine export reads the arrays either way).  Outputs
    are bit-identical either way.
    """
    from ..scheme_k import build_tz_scheme

    return build_tz_scheme(
        graph,
        ported,
        k=k,
        rng=rng,
        sampling=sampling,
        levels=levels,
        consistent_pivots=consistent_pivots,
        cluster_method="sparse",
        builder=builder,
    )
