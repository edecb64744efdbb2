"""ctypes wrapper for the native draw passes: gnp's edges, random ports.

``tz_gnp_edges`` is G(n, p)'s geometric skip loop and ``tz_permute_rows``
the per-vertex ``Generator.permutation`` of ``assign_ports("random")``,
each one C pass.  Both draw from the caller's own numpy ``Generator``:
the pass calls the ``next_double`` / ``next_uint32`` function of the
bit generator's ``ctypes`` interface on its state, one call per draw,
while this wrapper holds the bit generator's lock — the same calls, in
the same order, that ``Generator.random()`` and numpy's shuffle make.
So the edges, the ports and the generator's state afterwards are the
numpy loops' own, draw for draw (``tests/test_setup_passes.py`` compares
all three).  The skip uses libm's
``log``, which is what Python's ``math.log`` calls; ``np.log`` rounds
some inputs differently and would move edges.

The references are ``generators._gnp_loop`` and
``ports._permute_rows_loop``, which run under ``REPRO_NATIVE_KERNELS=0``.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from . import _build

__all__ = ["gnp_edges_native", "permute_rows_native"]

#: Return codes of ``tz_gnp_edges`` (``GNP_*`` in ``_native.c``).
_GNP_OOM = -1
_GNP_INF_SKIP = -2

#: The width rule's bound on vertex counts, below which the skip pass's
#: index arithmetic is exact in int64.
_MAX_N = 2**31



def _draw_fn(fn) -> int:
    """The address of one of the bit generator's ``ctypes`` functions."""
    return ctypes.cast(fn, ctypes.c_void_p).value


def gnp_edges_native(n: int, p: float, gen: np.random.Generator) -> np.ndarray:
    """The ``(m, 2)`` int64 edges ``(v, u)``, ``v < u``, of G(n, p) for
    ``0 < p < 1``, drawn from ``gen`` as ``generators._gnp_loop`` draws them.
    """
    if not 0 <= n < _MAX_N:
        raise ValueError(f"gnp needs 0 <= n < 2^31, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"the skip pass needs 0 < p < 1, got {p}")
    lib = _build.require()
    bitgen = gen.bit_generator
    iface = bitgen.ctypes
    out = ctypes.c_void_p()
    with bitgen.lock:
        count = lib.tz_gnp_edges(
            n, math.log1p(-p), iface.state_address, _draw_fn(iface.next_double),
            ctypes.byref(out),
        )
    if count == _GNP_INF_SKIP:
        # What the loop's int(math.floor(inf)) raises.
        raise OverflowError("cannot convert float infinity to integer")
    if count == _GNP_OOM:
        raise MemoryError("native gnp pass ran out of memory")
    try:
        edges = np.empty((count, 2), dtype=np.int64)
        if count:
            ctypes.memmove(edges.ctypes.data, out.value, count * 16)
    finally:
        lib.tz_free(out)
    return edges


def permute_rows_native(indptr: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """``port_of_arc`` with row ``u`` set to ``gen.permutation(deg(u)) + 1``,
    rows in vertex order, as ``ports._permute_rows_loop`` draws them."""
    indptr = _build.column(indptr, np.int64, "indptr")
    if indptr.shape[0] == 0 or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must start at 0 and never decrease")
    lib = _build.require()
    ports = np.empty(int(indptr[-1]), dtype=np.int64)
    bitgen = gen.bit_generator
    iface = bitgen.ctypes
    with bitgen.lock:
        lib.tz_permute_rows(
            indptr.shape[0] - 1, indptr.ctypes.data, iface.state_address,
            _draw_fn(iface.next_uint32), ports.ctypes.data,
        )
    return ports
