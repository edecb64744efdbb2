"""ctypes wrappers for the native passes over the entry records.

``tz_compile_records`` walks the entries one tree slice at a time (the
slices of ``tree_indptr`` over the int32 member column, members strictly
ascending in each) and writes each ``ENT_DTYPE`` record:
the five tree-record fields and the two ports, each port resolved
through the step records to weight and edge id and its neighbour linked
back to an entry in the same tree, and the offset of the entry's
light-port slice — the records the numpy ``_resolve_ports`` +
``_link_entries`` of ``sim/engine/compile.py`` write, bit for bit
(``tests/test_kernels.py`` holds every byte to equality).  The same pass
checks each light-port slice; it writes the records and nothing else.

A link is the caller's hint (the build's own ``ent_parent_epos`` /
``ent_heavy_epos``) when the hint lies in the entry's tree slice and
holds the neighbour as its member; otherwise the pass searches that
slice.
Hints are checked, never trusted, so a wrong one costs a search, not a
wrong record.  The pass also counts the entries whose parent link,
heavy link or parent neighbour differs from its hint (the third hint is
the build's ``ent_parent``): none does exactly when the records hold
the build's own links, which a save then stores once.  What numpy would
resolve wrongly is refused inline with the :data:`REFUSALS` the numpy
path raises too.

``tz_derive_entries`` is the other side: from a scheme's tree slices,
member column and records it derives the columns a scheme container
does not store, each entry's tree-label bits among them
(:func:`derive_entries_native`; the numpy reference is
``core/build/arrays.py::derive_entries_numpy``).  Its input may be an
unverified map, so it checks what it reads through and refuses with
:data:`DERIVE_REFUSALS`.  A built or patched scheme, which holds its
light-port CSR and no records, gets the same label bits from
``tz_label_bits`` (:func:`label_bits_native`).  Neither pass forms a
key ``tree * n + member``: an entry is its tree slice and member.

Every entry column is int32 and every offset int64 (the width rule of
:data:`~repro.core.build.arrays.COLUMN_DTYPES`), and the light ports
uint8 or int32 as the graph's degrees call for (the passes read them
through ``port_at`` at ``lp_data.dtype.itemsize`` bytes a port);
:func:`record_layout` reads back how the C compiler laid out the two
record structs.

The passes run on the worker pool (:mod:`repro.pool`), one range of
whole trees per worker (:func:`~repro.kernels.trees.slice_ranges`), each
writing its own rows; a refusal names its global entry index, from the
first refusing range.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .. import pool
from ..errors import EncodingError
from . import _build
from .trees import slice_ranges, tree_slices

#: One past the largest light-port offset the int32 ``lp_off`` holds.
_LP_LIMIT = 2**31

__all__ = [
    "DERIVE_REFUSALS",
    "REFUSALS",
    "compile_records_native",
    "derive_entries_native",
    "label_bits_native",
    "record_layout",
    "refusal",
]

#: What the compile pass refuses, on either kernel, by name.
REFUSALS = {
    "range": "its member lies outside [0, n)",
    "order": "its member does not strictly ascend in its tree slice",
    "parent": "its parent port lies outside [0, deg(member)]",
    "heavy": "its heavy port lies outside [0, deg(member)]",
    "light": "its light-port slice lies outside lp_data or is not its light depth long",
}

#: Return codes of ``tz_compile_records`` (``RECORDS_*`` in ``_native.c``).
_CODES = {-1: "range", -2: "order", -3: "parent", -4: "heavy", -5: "light"}

#: The tree-record fields the pass copies, in the kernel's argument order.
_FIELDS = ("vertex", "f", "finish", "heavy_finish", "light_depth")


def refusal(what: str, entry: int) -> EncodingError:
    """The error for refusal ``what`` (a key of :data:`REFUSALS`) at ``entry``."""
    return EncodingError(f"cannot compile entry {entry}: {REFUSALS[what]}")


#: The fields of ``ent_rec`` and ``step_rec`` in declaration order, as
#: ``tz_record_layout`` reports them.
_LAYOUT_FIELDS = {
    "ent": (
        "vertex", "f", "finish", "heavy_finish", "light_depth", "parent_epos",
        "parent_edge", "parent_port", "heavy_epos", "heavy_edge", "heavy_port",
        "lp_off", "parent_wt", "heavy_wt",
    ),
    "step": ("next", "edge", "wt"),
}


def record_layout() -> Dict[str, Tuple[Dict[str, Tuple[int, int]], int]]:
    """How the C compiler laid out the record structs: per record
    column (``"ent"``, ``"step"``), each field's ``(offset, size)`` in
    bytes and the struct's size."""
    lib = _build.require()
    values = np.zeros(64, dtype=np.int64)
    used = lib.tz_record_layout(values.ctypes.data)
    words = iter(values[:used].tolist())
    layout = {}
    for record, names in _LAYOUT_FIELDS.items():
        fields = {name: (next(words), next(words)) for name in names}
        layout[record] = (fields, next(words))
    return layout


def compile_records_native(
    tree_indptr: np.ndarray,
    record: Dict[str, np.ndarray],
    ports: Tuple[np.ndarray, np.ndarray],
    links: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    g_indptr: np.ndarray,
    step: np.ndarray,
    out: np.ndarray,
    light: Tuple[np.ndarray, np.ndarray],
    rejected: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fill ``out``, one entry record per member, and return it.

    ``tree_indptr`` holds the int64 tree slices of the entries, one per
    vertex of the graph (:func:`~repro.kernels.trees.tree_slices`);
    ``record`` holds the int32 tree-record fields (``vertex``, the
    member column, through ``light_depth``), ``ports`` the int32 parent and
    heavy ports (0 = none), ``links`` the int32 parent-link, heavy-link
    and parent-vertex hints or None.  ``light`` is ``(lp_indptr,
    lp_data)``, the light-port CSR: the pass checks each int64 slice of
    ``lp_indptr`` against ``lp_data``'s length and writes its offset as
    ``lp_off``.  ``step`` and ``out`` must be contiguous record columns of
    16 and 64 bytes a row.  ``rejected``, when given, is a one-element
    int64 column that receives the count of entries whose record differs
    from a hint (every entry without hints).  The records are written in
    one tree range per pool worker (:func:`repro.pool.size`); neither
    they nor a refusal nor the count depend on the ranges.  Raises
    :class:`~repro.errors.EncodingError` (see :func:`refusal`, and for
    ``lp_data`` too long for the int32 ``lp_off``), and ValueError for a
    column of any other dtype or length.
    """
    lib = _build.require()
    cols = [_build.column(record[name], np.int32, name) for name in _FIELDS]
    cols += [_build.column(p, np.int32, "ports") for p in ports]
    E = int(cols[0].shape[0])
    tree_indptr, n = tree_slices(tree_indptr, E)
    g_indptr = _build.column(g_indptr, np.int64, "g_indptr")
    if g_indptr.shape != (n + 1,):
        raise ValueError("g_indptr must hold one row per tree, plus one")
    hints = [None] * 3 if links is None else [_build.column(h, np.int32, "hints") for h in links]
    if len(hints) != 3 or any(
        c.shape != (E,) for c in cols + [h for h in hints if h is not None]
    ):
        raise ValueError("every entry column must hold one row per member")
    lp_indptr, lp_data = light
    lp_indptr = _build.column(lp_indptr, np.int64, "lp_indptr")
    lp_len = int(lp_data.shape[0])
    if lp_indptr.shape != (E + 1,):
        raise ValueError("lp_indptr must hold one row per member, plus one")
    if lp_len >= _LP_LIMIT:
        raise EncodingError(
            f"{lp_len} light ports exceed the int32 lp_off field (must be < 2^31)"
        )
    if not (
        out.shape == (E,)
        and out.dtype.itemsize == 64
        and step.dtype.itemsize == 16
        and out.flags.c_contiguous
        and step.flags.c_contiguous
        and step.shape == (int(g_indptr[-1]),)
    ):
        raise ValueError("step and out must be contiguous record columns")
    ranges = slice_ranges(tree_indptr, pool.size())
    bad = np.zeros(len(ranges), dtype=np.int64)
    differ = np.zeros(len(ranges), dtype=np.int64)
    # The task holds the arrays, not bare addresses, so no buffer can be
    # freed under a range that is still writing it.
    columns = [tree_indptr] + cols

    def task(lo: int, hi: int, j: int) -> int:
        return lib.tz_compile_records(
            n, lo, hi,
            *(a.ctypes.data for a in columns),
            *(None if h is None else h.ctypes.data for h in hints),
            g_indptr.ctypes.data, step.ctypes.data, lp_indptr.ctypes.data, lp_len,
            out.ctypes.data, bad[j:].ctypes.data, differ[j:].ctypes.data,
        )

    codes = pool.run(task, [(lo, hi, j) for j, (lo, hi) in enumerate(ranges)])
    for j, code in enumerate(codes):
        if code:
            raise refusal(_CODES[int(code)], int(bad[j]))
    if rejected is not None:
        rejected[0] = int(differ.sum())
    return out


#: What the derive pass refuses, on either kernel, by name.
DERIVE_REFUSALS = {
    "member": "its member lies outside [0, n)",
    "dfs": "its DFS number is outside its tree or repeats one",
    "link": "its parent link lies outside its tree or not above it",
    "light": "its light-port slice does not follow the last one inside lp_data",
}

#: Return codes of ``tz_derive_entries`` (``DERIVE_*`` in ``_native.c``).
_DERIVE_CODES = {-1: "member", -2: "dfs", -3: "link", -4: "light"}

#: What :func:`derive_entries_native` can derive, with each column's
#: dtype, in the kernel's argument order.
DERIVABLE = {
    "ent_parent": np.dtype(np.int32),
    "ent_dist": np.dtype(np.float64),
    "lp_indptr": np.dtype(np.int64),
    "label_bits": np.dtype(np.int32),
}


def derive_refusal(what: str, entry: int) -> EncodingError:
    """The error for derive refusal ``what`` at ``entry``."""
    return EncodingError(f"cannot derive entry {entry}: {DERIVE_REFUSALS[what]}")


def derive_entries_native(
    tree_indptr: np.ndarray,
    member: np.ndarray,
    ent: np.ndarray,
    lp_data: np.ndarray,
    want: Tuple[str, ...],
) -> Dict[str, np.ndarray]:
    """The :data:`DERIVABLE` columns named in ``want``, from a scheme's
    tree slices (int64, ``n + 1`` offsets from 0 to ``E``, non-decreasing),
    its int32 member column, its ``ent`` records and its uint8 or int32
    light ports, on the worker pool.

    Raises :class:`~repro.errors.EncodingError` (:func:`derive_refusal`)
    for records the derivation cannot read through, and ValueError for a
    column of another dtype or length.
    """
    lib = _build.require()
    member = _build.column(member, np.int32, "member")
    E = int(member.shape[0])
    tree_indptr, n = tree_slices(tree_indptr, E)
    lp_data = np.ascontiguousarray(lp_data)
    width = _build.port_width(lp_data)
    if ent is None or not (
        ent.shape == (E,) and ent.dtype.itemsize == 64 and ent.flags.c_contiguous
    ):
        raise ValueError("ent must hold one contiguous record per member")
    out = {name: np.empty(E + (name == "lp_indptr"), dtype=DERIVABLE[name]) for name in want}
    order = np.empty(E, dtype=np.int32) if "ent_dist" in out else None
    ranges = slice_ranges(tree_indptr, pool.size())
    bad = np.zeros(len(ranges), dtype=np.int64)

    def task(lo: int, hi: int, j: int) -> int:
        return lib.tz_derive_entries(
            n, lo, hi, tree_indptr.ctypes.data, member.ctypes.data, ent.ctypes.data,
            lp_data.ctypes.data, width, int(lp_data.shape[0]),
            None if order is None else order.ctypes.data,
            *(out[name].ctypes.data if name in out else None for name in DERIVABLE),
            bad[j:].ctypes.data,
        )

    codes = pool.run(task, [(lo, hi, j) for j, (lo, hi) in enumerate(ranges)])
    for j, code in enumerate(codes):
        if code:
            raise derive_refusal(_DERIVE_CODES[int(code)], int(bad[j]))
    if "lp_indptr" in out or "label_bits" in out:
        # the slices lie back to back from 0 (checked by the pass); the
        # last one must end where lp_data does
        end = int(ent["lp_off"][-1]) + int(ent["light_depth"][-1]) if E else 0
        if end != lp_data.shape[0]:
            raise derive_refusal("light", max(E - 1, 0))
        if "lp_indptr" in out:
            out["lp_indptr"][E] = end
    return out


def label_bits_native(
    tree_indptr: np.ndarray, lp_indptr: np.ndarray, lp_data: np.ndarray
) -> np.ndarray:
    """Each entry's encoded tree-label bits, int32, from a scheme's tree
    slices (as :func:`derive_entries_native` takes them) and its
    light-port CSR (int64 ``lp_indptr``, one row per entry plus one;
    uint8 or int32 ``lp_data``), on the worker pool: the column
    :func:`derive_entries_native` derives as ``label_bits`` from a loaded
    scheme's records, for a built or patched scheme, which holds the CSR
    instead.  The numpy reference is
    :func:`~repro.trees.label_codec.tree_label_bits_array`.  Raises
    ValueError for a column of another dtype or length, or a slice that
    does not ascend inside ``lp_data``."""
    lib = _build.require()
    lp_indptr = _build.column(lp_indptr, np.int64, "lp_indptr")
    lp_data = np.ascontiguousarray(lp_data)
    width = _build.port_width(lp_data)
    E = int(lp_indptr.shape[0]) - 1
    tree_indptr, n = tree_slices(tree_indptr, E)
    out = np.empty(E, dtype=DERIVABLE["label_bits"])

    def task(lo: int, hi: int) -> int:
        return lib.tz_label_bits(
            n, lo, hi, tree_indptr.ctypes.data, lp_indptr.ctypes.data,
            lp_data.ctypes.data, width, int(lp_data.shape[0]), out.ctypes.data,
        )

    if any(pool.run(task, slice_ranges(tree_indptr, pool.size()))):
        raise ValueError("lp_indptr's slices must ascend inside lp_data")
    return out
