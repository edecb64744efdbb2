"""ctypes wrapper for the native builder cluster-tree pass, and the one
cut of the entries into ranges of whole tree slices.

``tz_cluster_trees`` walks the entries one cluster at a time — center
``w``'s tree slice ``tree_indptr[w] .. tree_indptr[w + 1]`` of the
int32 member column, with each member's distance — and emits, per
entry, the minimum-id tight SPT parent and the §2 heavy-light record
(entry links, DFS interval, light depth, ports); ``tz_light_ports``
then writes the light-port CSR — the columns the numpy
``_level_parents`` + ``_tree_arrays`` stages of
``core/build/vectorized.py`` compute, bit for bit
(``tests/test_kernels.py`` holds every column to equality).  The first
pass leaves each entry's down port (its parent's port toward it) in
``lp_indptr``, where the second reads it before writing the offsets.

Both passes run on the worker pool (:mod:`repro.pool`), one range of
whole clusters per worker (:func:`slice_ranges`, the cut every pass over
tree slices makes: the compile, derive and label-bit passes of
:mod:`repro.kernels.records` too).  Each range writes its own rows of
one set of preallocated columns with global entry links; between the two
passes each range learns where its light ports start in ``lp_data`` from
the light-depth totals of the ranges before it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .. import pool
from ..errors import PreprocessingError
from . import _build

__all__ = ["cluster_trees_native", "slice_ranges", "tree_slices"]

#: Return codes of ``tz_cluster_trees`` (``TREES_*`` in ``_native.c``).
_OOM = -1
_ORPHAN = -2
_MEMBERS = -3

#: Output columns, in the kernel's argument order.
_COLUMNS = (
    "ent_parent",
    "ent_parent_epos",
    "ent_heavy_epos",
    "tr_f",
    "tr_finish",
    "tr_heavy_finish",
    "tr_light_depth",
    "tr_parent_port",
    "tr_heavy_port",
)


def tree_slices(tree_indptr: np.ndarray, entries: int) -> Tuple[np.ndarray, int]:
    """``tree_indptr`` as int64 and its tree count ``n``; ValueError
    unless it runs from 0 to ``entries`` without decreasing."""
    tree_indptr = _build.column(tree_indptr, np.int64, "tree_indptr")
    n = int(tree_indptr.shape[0]) - 1
    if n < 0 or tree_indptr[0] != 0 or tree_indptr[-1] != entries or np.any(
        np.diff(tree_indptr) < 0
    ):
        raise ValueError("tree_indptr must run from 0 to the entry count without decreasing")
    return tree_indptr, n


def slice_ranges(tree_indptr: np.ndarray, parts: int) -> List[Tuple[int, int]]:
    """At most ``parts`` contiguous ``[lo, hi)`` entry ranges of about
    equal length covering the entries of ``tree_indptr`` (one range,
    ``(0, 0)``, when there are none), each cut where a tree slice ends:
    at the first slice end at or past an even cut.  A pass over the
    ranges meets every tree whole and in order, as a one-range pass
    does, so it writes the same rows and names the same first fault."""
    count = int(tree_indptr[-1])
    evens = [hi for _, hi in pool.even_ranges(count, parts)]
    ends = set(tree_indptr[np.searchsorted(tree_indptr, evens)].tolist()) - {0}
    cuts = [0] + sorted(ends)
    return list(zip(cuts[:-1], cuts[1:])) or [(0, 0)]


def cluster_trees_native(
    graph, ported, tree_indptr: np.ndarray, member: np.ndarray, dist: np.ndarray
) -> dict:
    """Parents, tree records and light ports of the clusters whose
    tree slices ``tree_indptr`` (int64, one per vertex, empty ones
    allowed) cut the int32 ``member`` column, members strictly ascending
    in each slice, with each member's distance ``dist``.

    Returns the dict ``_tree_arrays`` returns, plus ``ent_parent``: the
    entry columns int32, ``lp_indptr`` int64 (the width rule of
    :data:`~repro.core.build.arrays.COLUMN_DTYPES`; the caller has
    checked that E fits) and ``lp_data`` at the graph's light-port width
    (:func:`~repro.core.build.arrays.light_port_dtype`), computed in one
    range per pool worker (:func:`repro.pool.size`); the columns do not
    depend on the ranges.  Raises :class:`PreprocessingError` when some
    entry has no tight in-cluster predecessor, as the numpy path does,
    and ValueError for columns of another dtype or shape, or members out
    of order or range.
    """
    from ..core.build.arrays import light_port_dtype  # the rule's one home

    lib = _build.require()
    member = _build.column(member, np.int32, "member")
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    if member.shape != dist.shape or member.ndim != 1:
        raise ValueError("member and dist must be matching 1-d columns")
    E = int(member.shape[0])
    tree_indptr, n = tree_slices(tree_indptr, E)
    if n != graph.n:
        raise ValueError("tree_indptr must hold one slice per vertex")
    if ported.port_of_arc.shape != graph.adj.shape:
        raise ValueError("port assignment does not match the graph's arcs")
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    adj = np.ascontiguousarray(graph.adj, dtype=np.int64)
    wts = np.ascontiguousarray(graph.adj_weights, dtype=np.float64)
    port_of_arc = np.ascontiguousarray(ported.port_of_arc, dtype=np.int64)
    out = {name: np.empty(E, dtype=np.int32) for name in _COLUMNS}
    lp_indptr = np.empty(E + 1, dtype=np.int64)
    lp_indptr[0] = 0
    ranges = slice_ranges(tree_indptr, pool.size())

    # The tasks hold the arrays, not bare addresses, so no buffer can be
    # freed under a pass that is still writing it.
    args = [tree_indptr, member, dist, indptr, adj, wts, port_of_arc]
    args += [out[name] for name in _COLUMNS] + [lp_indptr]
    lens = pool.run(
        lambda lo, hi: lib.tz_cluster_trees(n, lo, hi, *(a.ctypes.data for a in args)),
        ranges,
    )
    for code in lens:
        if code == _OOM:
            raise MemoryError("native cluster-tree pass ran out of memory")
        if code == _MEMBERS:
            raise ValueError("members must strictly ascend in [0, n) within each tree slice")
        if code == _ORPHAN:
            raise PreprocessingError(
                "vectorized cluster SPT has an orphan member: edge weights are "
                "not float64-exact (the builder should have fallen back)"
            )

    lp_data = np.empty(sum(lens), dtype=light_port_dtype(indptr))
    width = _build.port_width(lp_data)
    lp_args = (tree_indptr, out["ent_parent_epos"], out["tr_f"], out["tr_light_depth"])
    lp_args += (lp_indptr, lp_data)
    bases = np.cumsum([0] + lens[:-1]).tolist()
    codes = pool.run(
        lambda lo, hi, base: lib.tz_light_ports(
            n, lo, hi, base, *(a.ctypes.data for a in lp_args), width
        ),
        [(lo, hi, base) for (lo, hi), base in zip(ranges, bases)],
    )
    if any(codes):
        raise MemoryError("native light-port pass ran out of memory")
    out["lp_indptr"] = lp_indptr
    out["lp_data"] = lp_data
    return out
