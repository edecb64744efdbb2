"""ctypes wrappers for the passes a patch makes over every entry.

A patch (``core/build/patch.py``) writes the next scheme's columns as
one splice of *runs*: run ``r``'s rows start at ``src[r]`` in the
rebuild's columns (when it is dirty) or in the parent's, and land at
output rows ``at[r] .. at[r+1]``.  ``tz_splice`` writes one range of
output rows of every column: a plain column one ``memcpy`` per run, an
entry-link column shifted by its run's ``at - src`` (``-1`` stays
``-1``), a light-port offset column by the run's own shift.  When no
block moves, ``tz_splice_same`` first finds the columns whose dirty runs
already equal the parent's rows, which the patch then shares.

:func:`assemble_arrays <repro.core.build.arrays.assemble_arrays>` then
derives what the core columns imply: ``tz_entry_keys`` the center and
key of every entry, ``tz_member_maps`` the level-0 member maps,
``tz_label_positions`` the label entry positions, and
``tz_member_counts`` + ``tz_bunch_scatter`` the bunch CSR as a stable
counting sort by member.

Both run on the worker pool (:mod:`repro.pool`), one row range per
worker (:func:`repro.pool.size`), each writing its own rows of shared
outputs, so no result depends on the ranges.  The numpy splice and
derivations stay the byte-for-byte reference
(``tests/test_patch_passes.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import pool
from ..errors import PreprocessingError
from . import _build

__all__ = [
    "COPY",
    "LINK",
    "OFFSET",
    "REAL",
    "assemble_native",
    "row_ranges",
    "splice_native",
    "splice_same_native",
]

#: How ``tz_splice`` moves a column's rows (``SPLICE_*`` in ``_native.c``):
#: int64 rows as they lie, float64 rows as they lie, entry links moved by
#: their run's ``at - src``, light-port offsets moved by the run's shift.
COPY, REAL, LINK, OFFSET = 0, 1, 2, 3

#: Return code of the assemble passes (``ASSEMBLE_MEMBER`` in ``_native.c``).
_BAD_MEMBER = -1

#: A splice's runs: ``(dirty, src, at)``, ``at`` one row longer.
Runs = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: One column to splice: ``(parent's rows, rebuild's rows, kind)``, and
#: optionally the array to write into (at least as long as the output).
Column = Tuple

def _lib():
    lib = _build.load()
    if lib is None:  # pragma: no cover - callers resolve the kernel first
        raise RuntimeError(f"native kernels unavailable: {_build.native_error()}")
    return lib


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _table(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The columns' addresses, as the C pointer table reads them."""
    return np.array([c.ctypes.data for c in columns], dtype=np.uintp)


def row_ranges(count: int, parts: int) -> List[Tuple[int, int]]:
    """``parts`` contiguous ``[lo, hi)`` ranges of about equal length
    covering ``count`` rows (empty ranges included)."""
    return [(count * j // parts, count * (j + 1) // parts) for j in range(parts)]


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
        lens = np.diff(at)
        for name, (old, fresh, _kind, *into) in columns.items():
            old, fresh = np.ascontiguousarray(old), np.ascontiguousarray(fresh)
            if old.dtype.itemsize != 8 or fresh.dtype != old.dtype:
                raise ValueError(f"column {name!r}: both sides must share one 8-byte dtype")
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


def splice_same_native(runs: Runs, columns: Dict[str, Column]) -> Dict[str, bool]:
    """For runs that land where no block moved: per column, whether
    every dirty run, moved as the splice moves it, already equals the
    parent's rows where it lands (floats compared as floats)."""
    g = _Group(runs, columns, None)
    if np.any(g.kinds == OFFSET):
        raise ValueError("offset columns move with the blocks; they are never still")
    same = np.zeros(len(g.names), dtype=np.int64)
    old, fresh = _table(g.old), _table(g.fresh)
    _lib().tz_splice_same(
        g.dirty.shape[0], g.dirty.ctypes.data, g.src.ctypes.data, g.at.ctypes.data,
        len(g.names), g.kinds.ctypes.data, old.ctypes.data, fresh.ctypes.data,
        same.ctypes.data,
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
    lib = _lib()
    checked = [_Group(runs, columns, shift) for runs, columns, shift in groups]
    out: Dict[str, np.ndarray] = {}
    calls = []
    for g in checked:
        if not g.names:
            continue
        out.update(zip(g.names, g.out))
        # The group holds the arrays, not bare addresses, so no buffer can
        # be freed under a range that is still writing it.
        calls.append((g, (_table(g.old), _table(g.fresh), _table(g.out))))
    parts = pool.size()

    def task(j: int) -> None:
        for g, tables in calls:
            lo, hi = g.total * j // parts, g.total * (j + 1) // parts
            lib.tz_splice(
                lo, hi, g.dirty.shape[0], g.dirty.ctypes.data, g.src.ctypes.data,
                g.at.ctypes.data, None if g.shift is None else g.shift.ctypes.data,
                len(g.names), g.kinds.ctypes.data, *(t.ctypes.data for t in tables),
            )

    if calls:
        pool.run(task, [(j,) for j in range(parts)])
    return out


def assemble_native(
    n: int,
    k: int,
    cl_indptr: np.ndarray,
    ent_member: np.ndarray,
    ent_dist: np.ndarray,
    d1: np.ndarray,
    pivot: np.ndarray,
    *,
    entry_keys: Optional[np.ndarray],
    ent_center: Optional[np.ndarray],
    maps: bool,
    labels: bool,
    bunch: bool,
) -> Dict[str, object]:
    """Derive the structures ``assemble_arrays`` asks for, in two pool
    runs over row ranges.

    Without ``entry_keys`` (given with ``ent_center`` or not at all) the
    first run writes both; ``maps`` adds ``mem_epos`` and ``mem_keys``,
    ``labels`` ``lab_epos`` (plus ``missing_level``, the lowest level
    some vertex has no label entry at, or None), ``bunch``
    ``bunch_indptr`` and ``bunch_epos``.  Raises
    :class:`PreprocessingError` for a member outside ``[0, n)``.
    """
    lib = _lib()
    cl_indptr, member = _i64(cl_indptr), _i64(ent_member)
    dist = np.ascontiguousarray(ent_dist, dtype=np.float64)
    d1 = np.ascontiguousarray(d1, dtype=np.float64)
    pivot = _i64(pivot)
    E = int(member.shape[0])
    if cl_indptr.shape != (n + 1,) or cl_indptr[0] != 0 or cl_indptr[-1] != E:
        raise ValueError("cl_indptr must hold n + 1 offsets from 0 to the entry count")
    if np.any(np.diff(cl_indptr) < 0):
        raise ValueError("cl_indptr must not decrease")
    if dist.shape != (E,) or d1.shape != (n,) or pivot.shape != (k, n):
        raise ValueError("entry and vertex columns disagree in shape")
    out: Dict[str, object] = {}
    if entry_keys is None:
        keys, center = np.empty(E, dtype=np.int64), np.empty(E, dtype=np.int64)
        out.update(entry_keys=keys, ent_center=center)
    else:
        keys, center = _i64(entry_keys), _i64(ent_center)
        if keys.shape != (E,) or center.shape != (E,):
            raise ValueError("entry keys and centers need one row per entry")
    parts = pool.size()
    ranges = row_ranges(E, parts)
    counts = np.zeros((parts, n if bunch else 0), dtype=np.int64)
    found = np.zeros(parts, dtype=np.int64)

    def first(j: int, lo: int, hi: int) -> int:
        if entry_keys is None:
            lib.tz_entry_keys(
                n, lo, hi, cl_indptr.ctypes.data, member.ctypes.data,
                center.ctypes.data, keys.ctypes.data,
            )
        if bunch and lib.tz_member_counts(
            n, lo, hi, member.ctypes.data, counts[j].ctypes.data
        ):
            return _BAD_MEMBER
        if maps:
            found[j] = lib.tz_member_maps(
                n, lo, hi, center.ctypes.data, member.ctypes.data, dist.ctypes.data,
                d1.ctypes.data, keys.ctypes.data, 0, None, None,
            )
            if found[j] < 0:
                return _BAD_MEMBER
        return 0

    if any(pool.run(first, [(j, lo, hi) for j, (lo, hi) in enumerate(ranges)])):
        raise PreprocessingError("an entry's member lies outside [0, n)")

    if maps:
        base = np.zeros(parts + 1, dtype=np.int64)
        np.cumsum(found, out=base[1:])
        mem_epos = np.empty(int(base[-1]), dtype=np.int64)
        mem_keys = np.empty(int(base[-1]), dtype=np.int64)
        out.update(mem_epos=mem_epos, mem_keys=mem_keys)
    if bunch:
        bunch_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts.sum(axis=0), out=bunch_indptr[1:])
        # each range's first slot per member: the member's own offset plus
        # the rows earlier ranges hold of it
        cursor = np.cumsum(counts, axis=0) - counts + bunch_indptr[:-1]
        bunch_epos = np.empty(E, dtype=np.int64)
        out.update(bunch_indptr=bunch_indptr, bunch_epos=bunch_epos)
    if labels:
        lab_epos = np.empty((k, n), dtype=np.int64)
        out["lab_epos"] = lab_epos
    vertex_ranges = row_ranges(n, parts)

    def second(j: int, lo: int, hi: int) -> int:
        if maps:
            lib.tz_member_maps(
                n, lo, hi, center.ctypes.data, member.ctypes.data, dist.ctypes.data,
                d1.ctypes.data, keys.ctypes.data, int(base[j]),
                mem_epos.ctypes.data, mem_keys.ctypes.data,
            )
        if bunch:
            lib.tz_bunch_scatter(
                lo, hi, member.ctypes.data, cursor[j].ctypes.data, bunch_epos.ctypes.data
            )
        if labels:
            v0, v1 = vertex_ranges[j]
            return lib.tz_label_positions(
                n, k, v0, v1, cl_indptr.ctypes.data, keys.ctypes.data,
                pivot.ctypes.data, lab_epos.ctypes.data,
            )
        return 0

    missing = pool.run(second, [(j, lo, hi) for j, (lo, hi) in enumerate(ranges)])
    if labels:
        out["missing_level"] = min(m for m in missing if m) - 1 if any(missing) else None
    return out
