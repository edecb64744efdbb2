"""ctypes wrapper for the native builder cluster-tree pass.

``tz_cluster_trees`` walks the key-sorted ``(center * n + member,
distance)`` entries one cluster at a time and emits, per entry, the
minimum-id tight SPT parent and the §2 heavy-light record (entry links,
DFS interval, light depth, ports); ``tz_light_ports`` then writes the
light-port CSR — the columns the numpy ``_level_parents`` +
``_tree_arrays`` stages of ``core/build/vectorized.py`` compute, bit for
bit (``tests/test_kernels.py`` holds every column to equality).  The
first pass leaves each entry's down port (its parent's port toward it)
in ``lp_indptr``, where the second reads it before writing the offsets.

Both passes run on the worker pool (:mod:`repro.pool`), one range of
whole clusters per worker (:func:`tree_ranges`).  Each range writes its
own rows of one set of preallocated columns with global entry links;
between the two passes each range learns where its light ports start in
``lp_data`` from the light-depth totals of the ranges before it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .. import pool
from ..errors import PreprocessingError
from . import _build

__all__ = ["cluster_trees_native", "tree_ranges"]

#: Return codes of ``tz_cluster_trees`` (``TREES_*`` in ``_native.c``).
_OOM = -1
_ORPHAN = -2

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


def tree_ranges(keys: np.ndarray, n: int, parts: int) -> List[Tuple[int, int]]:
    """At most ``parts`` contiguous ``[lo, hi)`` ranges of about equal
    length covering the ``tree * n + member`` keys, each cut where the
    tree id ``key // n`` strictly grows.

    On sorted keys those are exactly the tree boundaries.  On keys that
    are not sorted a cut is still where a tree's slice ends in a
    one-range scan, so a ranged pass names the fault the one-range pass
    names (see ``tz_compile_records``).
    """
    count = int(keys.shape[0])
    cuts = [0]
    if n > 0:
        for c in range(1, parts):
            t = count * c // parts
            if t <= cuts[-1] or t >= count:
                continue
            tree = int(keys[t]) // n
            below = int(np.searchsorted(keys, tree * n))
            above = int(np.searchsorted(keys, (tree + 1) * n))
            cut = below if below > cuts[-1] and t - below <= above - t else above
            if cuts[-1] < cut < count and keys[cut] // n > keys[cut - 1] // n:
                cuts.append(cut)
    cuts.append(count)
    return list(zip(cuts[:-1], cuts[1:]))


def cluster_trees_native(graph, ported, keys: np.ndarray, dist: np.ndarray) -> dict:
    """Parents, tree records and light ports of key-sorted entries.

    Returns the dict ``_tree_arrays`` returns, plus ``ent_parent``: the
    entry columns int32, ``lp_indptr`` int64 (the width rule of
    :data:`~repro.core.build.arrays.COLUMN_DTYPES`; the caller has
    checked that E fits) and ``lp_data`` at the graph's light-port width
    (:func:`~repro.core.build.arrays.light_port_dtype`), computed in one
    range per pool worker (:func:`repro.pool.size`); the columns do not
    depend on the ranges.  Raises :class:`PreprocessingError` when some
    entry has no tight in-cluster predecessor, as the numpy path does.
    """
    from ..core.build.arrays import light_port_dtype  # the rule's one home

    lib = _build.load()
    if lib is None:  # pragma: no cover - callers resolve the kernel first
        raise RuntimeError(f"native kernels unavailable: {_build.native_error()}")
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    if keys.shape != dist.shape or keys.ndim != 1:
        raise ValueError("keys and dist must be matching 1-d columns")
    E = int(keys.shape[0])
    n = int(graph.n)
    if E and (keys[0] < 0 or keys[-1] >= n * n or np.any(keys[1:] <= keys[:-1])):
        raise ValueError("entry keys must be strictly ascending in [0, n*n)")
    if ported.port_of_arc.shape != graph.adj.shape:
        raise ValueError("port assignment does not match the graph's arcs")
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    adj = np.ascontiguousarray(graph.adj, dtype=np.int64)
    wts = np.ascontiguousarray(graph.adj_weights, dtype=np.float64)
    port_of_arc = np.ascontiguousarray(ported.port_of_arc, dtype=np.int64)
    out = {name: np.empty(E, dtype=np.int32) for name in _COLUMNS}
    lp_indptr = np.empty(E + 1, dtype=np.int64)
    lp_indptr[0] = 0
    ranges = tree_ranges(keys, n, pool.size())

    # The tasks hold the arrays, not bare addresses, so no buffer can be
    # freed under a pass that is still writing it.
    args = [keys, dist, indptr, adj, wts, port_of_arc]
    args += [out[name] for name in _COLUMNS] + [lp_indptr]
    lens = pool.run(
        lambda lo, hi: lib.tz_cluster_trees(n, lo, hi, *(a.ctypes.data for a in args)),
        ranges,
    )
    for code in lens:
        if code == _OOM:
            raise MemoryError("native cluster-tree pass ran out of memory")
        if code == _ORPHAN:
            raise PreprocessingError(
                "vectorized cluster SPT has an orphan member: edge weights are "
                "not float64-exact (the builder should have fallen back)"
            )

    lp_data = np.empty(sum(lens), dtype=light_port_dtype(indptr))
    width = _build.port_width(lp_data)
    lp_args = (keys, out["ent_parent_epos"], out["tr_f"], out["tr_light_depth"])
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
