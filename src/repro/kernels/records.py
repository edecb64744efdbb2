"""ctypes wrapper for the native compile pass over the entry records.

``tz_compile_records`` walks the key-sorted ``(tree * n + member)``
entries one tree slice at a time and writes each ``ENT_DTYPE`` record:
the five tree-record fields, then the parent and heavy ports resolved
through the step records to neighbour, weight and edge id, and each
neighbour linked back to its entry in the same tree — the records the
numpy ``_resolve_ports`` + ``_link_entries`` of ``sim/engine/compile.py``
write, bit for bit (``tests/test_kernels.py`` holds every byte to
equality).  The same pass writes each entry's encoded tree-label bits,
the f-width read off its slice's length, as numpy's ``_label_bits``
computes them.

A link is the caller's hint (the build's own ``ent_parent_epos`` /
``ent_heavy_epos``) when the hint lies in the entry's tree slice and
holds the neighbour's key; otherwise the pass searches that slice.
Hints are checked, never trusted, so a wrong one costs a search, not a
wrong record.  What numpy would resolve wrongly is refused inline with
the :data:`REFUSALS` the numpy path raises too.

The pass runs on the worker pool (:mod:`repro.pool`), one range of whole
trees per worker (:func:`~repro.kernels.trees.tree_ranges`), each
writing its own rows of ``out``; a refusal names its global entry
index, from the first refusing range.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .. import pool
from ..errors import EncodingError
from . import _build
from .trees import tree_ranges

__all__ = ["REFUSALS", "compile_records_native", "refusal"]

#: What the compile pass refuses, on either kernel, by name.
REFUSALS = {
    "keys": "entry keys are not strictly ascending in [0, n*n)",
    "member": "its member is not its key mod n",
    "parent": "its parent port lies outside [0, deg(member)]",
    "heavy": "its heavy port lies outside [0, deg(member)]",
    "light": "its light-port slice lies outside lp_data",
}

#: Return codes of ``tz_compile_records`` (``RECORDS_*`` in ``_native.c``).
_CODES = {-1: "keys", -2: "member", -3: "parent", -4: "heavy", -5: "light"}

#: The tree-record fields the pass copies, in the kernel's argument order.
_FIELDS = ("vertex", "f", "finish", "heavy_finish", "light_depth")


def refusal(what: str, entry: int) -> EncodingError:
    """The error for refusal ``what`` (a key of :data:`REFUSALS`) at ``entry``."""
    return EncodingError(f"cannot compile entry {entry}: {REFUSALS[what]}")


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def compile_records_native(
    keys: np.ndarray,
    record: Dict[str, np.ndarray],
    ports: Tuple[np.ndarray, np.ndarray],
    links: Optional[Tuple[np.ndarray, np.ndarray]],
    g_indptr: np.ndarray,
    step: np.ndarray,
    out: np.ndarray,
    light: Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = None,
) -> np.ndarray:
    """Fill ``out``, one entry record per key, and return it.

    ``record`` holds the tree-record fields (``vertex`` through
    ``light_depth``), ``ports`` the parent and heavy ports (0 = none),
    ``links`` the parent and heavy entry-link hints or None.  ``light``,
    when given, is ``(lp_indptr, lp_data, bits)``: the light-port CSR,
    whose slices the pass checks, and a contiguous int64 column it fills
    with each entry's tree-label bits (or None).  ``step`` and ``out``
    must be contiguous record columns of 3 and 13 words.  The records
    are written in one tree range per pool worker
    (:func:`repro.pool.size`); neither they nor a refusal depend on the
    ranges.  Raises :class:`~repro.errors.EncodingError` (see
    :func:`refusal`).
    """
    lib = _build.load()
    if lib is None:  # pragma: no cover - callers resolve the kernel first
        raise RuntimeError(f"native kernels unavailable: {_build.native_error()}")
    keys = _i64(keys)
    E = int(keys.shape[0])
    g_indptr = _i64(g_indptr)
    n = int(g_indptr.shape[0]) - 1
    cols = [_i64(record[name]) for name in _FIELDS] + [_i64(p) for p in ports]
    hints = [None, None] if links is None else [_i64(h) for h in links]
    if any(c.shape != (E,) for c in cols + [h for h in hints if h is not None]):
        raise ValueError("every entry column must hold one row per key")
    lp_indptr, lp_data, bits = (None, None, None) if light is None else light
    if light is not None:
        lp_indptr, lp_data = _i64(lp_indptr), _i64(lp_data)
        if lp_indptr.shape != (E + 1,):
            raise ValueError("lp_indptr must hold one row per key, plus one")
    if not (
        out.shape == (E,)
        and out.dtype.itemsize == 13 * 8
        and step.dtype.itemsize == 3 * 8
        and out.flags.c_contiguous
        and step.flags.c_contiguous
        and step.shape == (int(g_indptr[-1]),)
    ):
        raise ValueError("step and out must be contiguous record columns")
    if bits is not None and not (
        bits.shape == (E,) and bits.dtype == np.int64 and bits.flags.c_contiguous
    ):
        raise ValueError("bits must be a contiguous int64 column, one row per key")
    ranges = tree_ranges(keys, n, pool.size())
    bad = np.zeros(len(ranges), dtype=np.int64)
    # The task holds the arrays, not bare addresses, so no buffer can be
    # freed under a range that is still writing it.
    columns = [keys] + cols

    def task(lo: int, hi: int, j: int) -> int:
        return lib.tz_compile_records(
            n, lo, hi,
            *(a.ctypes.data for a in columns),
            *(None if h is None else h.ctypes.data for h in hints),
            g_indptr.ctypes.data, step.ctypes.data,
            *((None, None, 0) if light is None else (
                lp_indptr.ctypes.data, lp_data.ctypes.data, int(lp_data.shape[0])
            )),
            out.ctypes.data, None if bits is None else bits.ctypes.data,
            bad[j:].ctypes.data,
        )

    codes = pool.run(task, [(lo, hi, j) for j, (lo, hi) in enumerate(ranges)])
    for j, code in enumerate(codes):
        if code:
            raise refusal(_CODES[int(code)], int(bad[j]))
    return out
