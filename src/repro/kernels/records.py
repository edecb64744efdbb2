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
wrong record.  The pass also counts the entries whose parent link,
heavy link or parent neighbour differs from its hint (the third hint is
the build's ``ent_parent``): none does exactly when the records hold
the build's own links, which a save then stores once.  What numpy would
resolve wrongly is refused inline with the :data:`REFUSALS` the numpy
path raises too.

Every entry column is int32 and every key int64 (the width rule of
:data:`~repro.core.build.arrays.COLUMN_DTYPES`); :func:`record_layout`
reads back how the C compiler laid out the two record structs.

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

__all__ = ["REFUSALS", "compile_records_native", "record_layout", "refusal"]

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


#: The fields of ``ent_rec`` and ``step_rec`` in declaration order, as
#: ``tz_record_layout`` reports them (the pad of ``ent_rec`` excepted).
_LAYOUT_FIELDS = {
    "ent": (
        "vertex", "f", "finish", "heavy_finish", "light_depth", "parent_epos",
        "parent_edge", "parent_next", "heavy_epos", "heavy_edge", "heavy_next",
        "parent_wt", "heavy_wt",
    ),
    "step": ("next", "edge", "wt"),
}


def record_layout() -> Dict[str, Tuple[Dict[str, Tuple[int, int]], int]]:
    """How the C compiler laid out the record structs: per record
    column (``"ent"``, ``"step"``), each field's ``(offset, size)`` in
    bytes and the struct's size."""
    lib = _build.load()
    if lib is None:  # pragma: no cover - callers resolve the kernel first
        raise RuntimeError(f"native kernels unavailable: {_build.native_error()}")
    values = np.zeros(64, dtype=np.int64)
    used = lib.tz_record_layout(values.ctypes.data)
    words = iter(values[:used].tolist())
    layout = {}
    for record, names in _LAYOUT_FIELDS.items():
        fields = {name: (next(words), next(words)) for name in names}
        layout[record] = (fields, next(words))
    return layout


def compile_records_native(
    keys: np.ndarray,
    record: Dict[str, np.ndarray],
    ports: Tuple[np.ndarray, np.ndarray],
    links: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    g_indptr: np.ndarray,
    step: np.ndarray,
    out: np.ndarray,
    light: Optional[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = None,
    rejected: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fill ``out``, one entry record per key, and return it.

    ``keys`` is int64; ``record`` holds the int32 tree-record fields
    (``vertex`` through ``light_depth``), ``ports`` the int32 parent and
    heavy ports (0 = none), ``links`` the int32 parent-link, heavy-link
    and parent-vertex hints or None.  ``light``, when given, is
    ``(lp_indptr, lp_data, bits)``: the int64/int32 light-port CSR,
    whose slices the pass checks, and a contiguous int32 column it fills
    with each entry's tree-label bits (or None).  ``step`` and ``out``
    must be contiguous record columns of 16 and 64 bytes a row.
    ``rejected``, when given, is a one-element int64 column that
    receives the count of entries whose record differs from a hint
    (every entry without hints).  The records are written in one tree
    range per pool worker (:func:`repro.pool.size`); neither they nor a
    refusal nor the count depend on the ranges.  Raises
    :class:`~repro.errors.EncodingError` (see :func:`refusal`), and
    ValueError for a column of any other dtype or length.
    """
    lib = _build.load()
    if lib is None:  # pragma: no cover - callers resolve the kernel first
        raise RuntimeError(f"native kernels unavailable: {_build.native_error()}")
    keys = _build.column(keys, np.int64, "keys")
    E = int(keys.shape[0])
    g_indptr = _build.column(g_indptr, np.int64, "g_indptr")
    n = int(g_indptr.shape[0]) - 1
    cols = [_build.column(record[name], np.int32, name) for name in _FIELDS]
    cols += [_build.column(p, np.int32, "ports") for p in ports]
    hints = [None] * 3 if links is None else [_build.column(h, np.int32, "hints") for h in links]
    if len(hints) != 3 or any(
        c.shape != (E,) for c in cols + [h for h in hints if h is not None]
    ):
        raise ValueError("every entry column must hold one row per key")
    lp_indptr, lp_data, bits = (None, None, None) if light is None else light
    if light is not None:
        lp_indptr = _build.column(lp_indptr, np.int64, "lp_indptr")
        lp_data = _build.column(lp_data, np.int32, "lp_data")
        if lp_indptr.shape != (E + 1,):
            raise ValueError("lp_indptr must hold one row per key, plus one")
    if not (
        out.shape == (E,)
        and out.dtype.itemsize == 64
        and step.dtype.itemsize == 16
        and out.flags.c_contiguous
        and step.flags.c_contiguous
        and step.shape == (int(g_indptr[-1]),)
    ):
        raise ValueError("step and out must be contiguous record columns")
    if bits is not None and not (
        bits.shape == (E,) and bits.dtype == np.int32 and bits.flags.c_contiguous
    ):
        raise ValueError("bits must be a contiguous int32 column, one row per key")
    ranges = tree_ranges(keys, n, pool.size())
    bad = np.zeros(len(ranges), dtype=np.int64)
    differ = np.zeros(len(ranges), dtype=np.int64)
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
            bad[j:].ctypes.data, differ[j:].ctypes.data,
        )

    codes = pool.run(task, [(lo, hi, j) for j, (lo, hi) in enumerate(ranges)])
    for j, code in enumerate(codes):
        if code:
            raise refusal(_CODES[int(code)], int(bad[j]))
    if rejected is not None:
        rejected[0] = int(differ.sum())
    return out
