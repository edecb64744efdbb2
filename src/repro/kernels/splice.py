"""ctypes wrappers for the passes a patch makes over every entry.

A patch (``core/build/patch.py``) writes the next scheme's columns as
one splice of *runs*: run ``r``'s rows start at ``src[r]`` in the
rebuild's columns (when it is dirty) or in the parent's, and land at
output rows ``at[r] .. at[r+1]``.  ``tz_splice`` writes one range of
output rows of every column: a plain column one ``memcpy`` per run, an
entry-link column shifted by its run's ``at - src`` (``-1`` stays
``-1``), a light-port offset column by the run's own shift.  A column's
rows are 1, 4 or 8 bytes wide, as its dtype is (the width rule of
:data:`~repro.core.build.arrays.COLUMN_DTYPES`): links are int32,
offsets int64, and the light ports uint8 or int32 as the graph's
degrees call for.  When no block moves, ``tz_splice_same`` first finds the
columns whose dirty runs already equal the parent's rows, which the
patch then shares.

:func:`assemble_arrays <repro.core.build.arrays.assemble_arrays>` then
finds the label entry positions with ``tz_label_positions``, each a
search of its tree's slice of the member column.

Both run on the worker pool (:mod:`repro.pool`), one row range per
worker (:func:`repro.pool.size`), each writing its own rows of shared
outputs, so no result depends on the ranges.  The numpy splice and
label positions stay the byte-for-byte reference
(``tests/test_patch_passes.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import pool
from . import _build

__all__ = [
    "COPY",
    "LINK",
    "OFFSET",
    "REAL",
    "label_positions_native",
    "splice_native",
    "splice_same_native",
]

#: How ``tz_splice`` moves a column's rows (``SPLICE_*`` in ``_native.c``):
#: integer rows as they lie, float64 rows as they lie, int32 entry links
#: moved by their run's ``at - src``, int64 light-port offsets moved by
#: the run's shift.
COPY, REAL, LINK, OFFSET = 0, 1, 2, 3

#: The dtypes each kind of column may hold (a plain column's rows are
#: 1, 4 or 8 bytes: the light ports are uint8 or int32).
_KIND_DTYPES = {
    COPY: (np.dtype(np.uint8), np.dtype(np.int32), np.dtype(np.int64)),
    REAL: (np.dtype(np.float64),),
    LINK: (np.dtype(np.int32),),
    OFFSET: (np.dtype(np.int64),),
}

#: A splice's runs: ``(dirty, src, at)``, ``at`` one row longer.
Runs = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: One column to splice: ``(parent's rows, rebuild's rows, kind)``, and
#: optionally the array to write into (at least as long as the output).
Column = Tuple


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _table(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The columns' addresses, as the C pointer table reads them."""
    return np.array([c.ctypes.data for c in columns], dtype=np.uintp)


class _Group:
    """One set of runs and the columns written along them, checked."""

    def __init__(
        self,
        runs: Runs,
        columns: Dict[str, Column],
        shift: Optional[np.ndarray],
    ) -> None:
        dirty, src, at = (_i64(a) for a in runs)
        count = dirty.shape[0]
        if src.shape != (count,) or at.shape != (count + 1,):
            raise ValueError("runs need one src per run and one more at")
        if count and (at[0] != 0 or np.any(np.diff(at) < 0)):
            raise ValueError("runs must tile the output rows in order")
        self.dirty, self.src, self.at = dirty, src, at
        self.shift = None if shift is None else _i64(shift)
        if self.shift is not None and self.shift.shape != (count,):
            raise ValueError("a shift per run")
        self.total = int(at[-1]) if count else 0
        self.names = list(columns)
        self.kinds = np.array([spec[2] for spec in columns.values()], dtype=np.int64)
        if np.any(self.kinds == OFFSET) and self.shift is None:
            raise ValueError("an offset column needs the runs' shifts")
        self.old, self.fresh, self.out = [], [], []
        widths = []
        lens = np.diff(at)
        for name, (old, fresh, kind, *into) in columns.items():
            old, fresh = np.ascontiguousarray(old), np.ascontiguousarray(fresh)
            if old.dtype not in _KIND_DTYPES[kind] or fresh.dtype != old.dtype:
                raise ValueError(
                    f"column {name!r}: both sides must share one of the dtypes "
                    f"{[d.name for d in _KIND_DTYPES[kind]]}"
                )
            widths.append(old.dtype.itemsize)
            ends = np.where(dirty != 0, fresh.shape[0], old.shape[0])
            if count and np.any((src < 0) | (src + lens > ends)):
                raise ValueError(f"column {name!r}: a run reads past its source")
            dst = into[0] if into else np.empty(self.total, dtype=old.dtype)
            if not (
                dst.dtype == old.dtype and dst.flags.c_contiguous and dst.shape[0] >= self.total
            ):
                raise ValueError(f"column {name!r}: cannot write the output there")
            self.old.append(old)
            self.fresh.append(fresh)
            self.out.append(dst)
        self.widths = np.array(widths, dtype=np.int64)


def splice_same_native(runs: Runs, columns: Dict[str, Column]) -> Dict[str, bool]:
    """For runs that land where no block moved: per column, whether
    every dirty run, moved as the splice moves it, already equals the
    parent's rows where it lands (floats compared as floats)."""
    g = _Group(runs, columns, None)
    if np.any(g.kinds == OFFSET):
        raise ValueError("offset columns move with the blocks; they are never still")
    same = np.zeros(len(g.names), dtype=np.int64)
    old, fresh = _table(g.old), _table(g.fresh)
    _build.require().tz_splice_same(
        g.dirty.shape[0], g.dirty.ctypes.data, g.src.ctypes.data, g.at.ctypes.data,
        len(g.names), g.kinds.ctypes.data, g.widths.ctypes.data, old.ctypes.data,
        fresh.ctypes.data, same.ctypes.data,
    )
    return {name: bool(flag) for name, flag in zip(g.names, same)}


def splice_native(
    groups: Sequence[Tuple[Runs, Dict[str, Column], Optional[np.ndarray]]],
) -> Dict[str, np.ndarray]:
    """Write every column of every group, ``(runs, columns, shift)``,
    in one pool run: each worker writes its share of each group's output
    rows.  ``shift`` holds the per-run shift of the group's
    :data:`OFFSET` columns (None when it has none).  Returns the written
    columns by name, each with its parent's dtype: a column's given
    output array, else a new one of the group's length."""
    lib = _build.require()
    checked = [_Group(runs, columns, shift) for runs, columns, shift in groups]
    out: Dict[str, np.ndarray] = {}
    calls = []
    parts = pool.size()
    for g in checked:
        if not g.names:
            continue
        out.update(zip(g.names, g.out))
        # The group holds the arrays, not bare addresses, so no buffer can
        # be freed under a range that is still writing it.
        tables = (_table(g.old), _table(g.fresh), _table(g.out))
        calls.append((g, tables, pool.even_ranges(g.total, parts)))

    def task(j: int) -> None:
        for g, tables, ranges in calls:
            lo, hi = ranges[j]
            lib.tz_splice(
                lo, hi, g.dirty.shape[0], g.dirty.ctypes.data, g.src.ctypes.data,
                g.at.ctypes.data, None if g.shift is None else g.shift.ctypes.data,
                len(g.names), g.kinds.ctypes.data, g.widths.ctypes.data,
                *(t.ctypes.data for t in tables),
            )

    if calls:
        pool.run(task, [(j,) for j in range(parts)])
    return out


def label_positions_native(
    n: int,
    k: int,
    cl_indptr: np.ndarray,
    ent_member: np.ndarray,
    pivot: np.ndarray,
) -> Dict[str, object]:
    """What ``assemble_arrays`` asks of its label pass, in one pool run
    over vertex ranges: ``lab_epos``, the entry of ``(v, v)`` and of
    each ``(pivot[i][v], v)``, found in the tree's slice of the int32
    member column ``ent_member`` (members ascending in each slice), and
    ``missing_level``, the lowest level some vertex has no label entry
    at (or None).
    """
    lib = _build.require()
    cl_indptr = _i64(cl_indptr)
    member = _build.column(ent_member, np.int32, "ent_member")
    pivot = _i64(pivot)
    E = int(member.shape[0])
    if cl_indptr.shape != (n + 1,) or cl_indptr[0] != 0 or cl_indptr[-1] != E:
        raise ValueError("cl_indptr must hold n + 1 offsets from 0 to the entry count")
    if np.any(np.diff(cl_indptr) < 0):
        raise ValueError("cl_indptr must not decrease")
    if pivot.shape != (k, n):
        raise ValueError("the pivots are not a (k, n) matrix")
    lab_epos = np.empty((k, n), dtype=np.int64)

    def positions(lo: int, hi: int) -> int:
        return lib.tz_label_positions(
            n, k, lo, hi, cl_indptr.ctypes.data, member.ctypes.data,
            pivot.ctypes.data, lab_epos.ctypes.data,
        )

    missing = [m for m in pool.run(positions, pool.even_ranges(n, pool.size())) if m]
    return {"lab_epos": lab_epos, "missing_level": min(missing) - 1 if missing else None}
