"""ctypes wrapper for the native builder cluster-tree pass.

``tz_cluster_trees`` walks the key-sorted ``(center * n + member,
distance)`` entries one cluster at a time and emits, per entry, the
minimum-id tight SPT parent and the §2 heavy-light record (entry links,
DFS interval, light depth, ports) plus the light-port CSR — the columns
the numpy ``_level_parents`` + ``_tree_arrays`` stages of
``core/build/vectorized.py`` compute, bit for bit
(``tests/test_kernels.py`` holds every column to equality).
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..errors import PreprocessingError
from . import _build

__all__ = ["cluster_trees_native"]

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


def cluster_trees_native(graph, ported, keys: np.ndarray, dist: np.ndarray) -> dict:
    """Parents, tree records and light ports of key-sorted entries.

    Returns the dict ``_tree_arrays`` returns, plus ``ent_parent``; all
    columns int64.  Raises :class:`PreprocessingError` when some entry
    has no tight in-cluster predecessor, as the numpy path does.
    """
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
    inputs = [
        keys,
        dist,
        np.ascontiguousarray(graph.indptr, dtype=np.int64),
        np.ascontiguousarray(graph.adj, dtype=np.int64),
        np.ascontiguousarray(graph.adj_weights, dtype=np.float64),
        np.ascontiguousarray(ported.port_of_arc, dtype=np.int64),
    ]
    out = {name: np.empty(E, dtype=np.int64) for name in _COLUMNS}
    out["lp_indptr"] = np.empty(E + 1, dtype=np.int64)
    lp_ptr = ctypes.c_void_p()
    total = lib.tz_cluster_trees(
        n,
        E,
        *(a.ctypes.data_as(ctypes.c_void_p) for a in inputs),
        *(out[name].ctypes.data_as(ctypes.c_void_p) for name in _COLUMNS),
        out["lp_indptr"].ctypes.data_as(ctypes.c_void_p),
        ctypes.byref(lp_ptr),
    )
    if total == _OOM:
        raise MemoryError("native cluster-tree pass ran out of memory")
    if total == _ORPHAN:
        raise PreprocessingError(
            "vectorized cluster SPT has an orphan member: edge weights are "
            "not float64-exact (the builder should have fallen back)"
        )
    lp_data = np.empty(int(total), dtype=np.int64)
    if total:
        ctypes.memmove(lp_data.ctypes.data, lp_ptr.value, int(total) * 8)
    if lp_ptr.value:
        lib.tz_free(lp_ptr)
    out["lp_data"] = lp_data
    return out
