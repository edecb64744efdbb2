"""ctypes wrappers for the native router kernels: ``tz_distinct_pairs``,
``tz_commit`` and ``tz_hop_loop``.

``tz_distinct_pairs`` numbers a batch's distinct ``(s, t)`` pairs in
order of first appearance, so the router commits and walks each pair
once; its numpy reference is
:func:`~repro.sim.engine.batch.distinct_pairs_numpy`.
``tz_commit`` commits each row to its tree (the 4k−5 source strategy or
the §4 handshake alternation) and writes the same eight state columns
as the numpy ``BatchRouter._commit``; ``tz_hop_loop`` then walks each
committed row independently to its outcome.  Because the numpy loop
also accumulates weight per row in hop order, the scalar walk sums the
identical float64 values in the identical order and every result column
is bit-for-bit equal (``tests/test_kernels.py``).

Both wrappers take the :class:`~repro.sim.engine.compile.CompiledScheme`
itself and hand the kernels pointers to its own memory, fresh compile
or mapped container alike: its ``ent`` and ``step`` columns already
are the record tables the C structs describe (so a parent or heavy hop
touches one 64-byte cache line and nothing else), and its other columns
are C-contiguous int64 or, per entry, int32, and its light ports uint8
or int32 as the graph's degrees call for (the kernels read their width
as ``lp_data.dtype.itemsize``) — the scheme's construction check
guarantees all three, so nothing is converted or copied before a
route.  Every lookup either kernel makes binary-searches one tree's
slice of the int32 member column ``ent_member`` inside ``tree_indptr``
(a source's own slice for the level-0 check) or indexes a full-n tree
slice directly.  The commit computes each header's label bits from the
destination's record and light ports; no per-entry label-bit column is
read.

The columns may be views of an unverified map: both kernels check every
index they read out of a record or ``root_epos`` before reading through
it, and fail the row with ``FAIL_CORRUPT`` instead.

The kernels only read the scheme, so any number of threads may route
through one at once; and because they read the scheme's own memory, an
in-place edit of a column (the engine suite severs heavy links with
``cs.ent["heavy_epos"][:] = -1``) reaches them on the next call.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Tuple

import numpy as np

from ..errors import RoutingError
from . import _build

__all__ = ["commit_native", "distinct_pairs_native", "hop_loop_native"]


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _ptr(a: Optional[np.ndarray]):
    if a is None:
        return None
    return a.ctypes.data_as(ctypes.c_void_p)



def _check_columns(count: int, cols, dtypes, what: str) -> None:
    """Refuse any column the C side would index past or misread."""
    for col, dtype in zip(cols, dtypes):
        if col.shape != (count,) or col.dtype != dtype or not col.flags.c_contiguous:
            raise RuntimeError(f"{what} must be contiguous columns of {count} rows")


def distinct_pairs_native(
    src: np.ndarray, dst: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, rows)`` of the pairs ``(src[i], dst[i])``, endpoints in
    ``[0, n)``: ``first`` (int64) holds the row where each distinct pair
    first appears, ascending, and ``rows`` (int32) the number of each
    row's pair, so ``src[first][rows] == src``.  The hash table is
    allocated here, int32 slots in a power of two at least twice the
    row count (at most 16 B a row), and dropped on return; the pass
    runs on the caller's thread."""
    src = _build.column(src, np.int64, "src")
    dst = _build.column(dst, np.int64, "dst")
    count = int(src.shape[0])
    if src.ndim != 1 or dst.shape != (count,):
        raise ValueError("src and dst must be 1-D columns of one length")
    if count >= 2**31 or n >= 2**31:
        raise ValueError(f"{count} rows over n={n} do not fit the pass's int32 ids")
    table = np.full(1 << max(1, (2 * count - 1).bit_length()), -1, dtype=np.int32)
    first = np.empty(count, dtype=np.int64)
    rows = np.empty(count, dtype=np.int32)
    distinct = _build.require().tz_distinct_pairs(
        count, _ptr(src), _ptr(dst), int(n), _ptr(table), table.shape[0] - 1,
        _ptr(first), _ptr(rows),
    )
    if distinct < 0:
        raise RuntimeError(f"tz_distinct_pairs refused a table of {table.shape[0]} slots")
    return first[:distinct], rows


def commit_native(cs, src: np.ndarray, dst: np.ndarray, state: Tuple[np.ndarray, ...]) -> None:
    """Fill the commit columns of rows ``(src, dst)`` of scheme ``cs`` in place.

    ``state`` is ``(fail, tree, header, dest_f, lp_lo, lp_hi, epos_src,
    epos_dst)`` — contiguous int8 then int64 columns as long as ``src``,
    possibly row slices of larger columns; every element is written.
    """
    src, dst = _i64(src), _i64(dst)
    count = src.shape[0]
    _check_columns(
        count, (dst,) + tuple(state), (np.int64, np.int8) + (np.int64,) * 7, "commit state"
    )
    if count and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= cs.n):
        raise RoutingError("pair endpoint out of range")
    _build.require().tz_commit(
        count,
        _ptr(src),
        _ptr(dst),
        *(_ptr(col) for col in state),
        cs.n,
        cs.k,
        cs.id_bits,
        int(bool(cs.handshake)),
        cs.entry_count,
        int(cs.lp_data.shape[0]),
        cs.lp_data.dtype.itemsize,
        _ptr(cs.ent),
        _ptr(cs.ent_member),
        _ptr(cs.tree_indptr),
        _ptr(cs.lp_data),
        _ptr(cs.root_epos),
        _ptr(cs.pivot),
    )


def hop_loop_native(
    cs,
    dst: np.ndarray,
    state: Tuple[np.ndarray, ...],
    ttl: int,
    dead_masks: Optional[np.ndarray],
    trial: Optional[np.ndarray],
    out: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> int:
    """Run the compiled hop loop over one committed batch of scheme ``cs``.

    Arguments mirror :meth:`BatchRouter._hop_loop` (``state`` is the
    commit tuple; its ``fail`` column is mutated in place, exactly like
    the numpy path).  ``out`` is ``(delivered, weight, hops)`` — zeroed
    contiguous uint8/float64/int64 columns the loop writes; rows that
    failed at commit are left untouched.  Returns ``rounds``, the
    synchronized-round count for the ``route.hop_iterations`` counter.
    """
    fail, _tree, _header, dest_f, lp_lo, lp_hi, epos_src, epos_dst = state
    delivered, weight, hops = out
    # Bind every converted buffer to a local: ctypes only captures raw
    # pointers, so the arrays must outlive the call.
    committed_tree = _i64(_tree)
    dst = _i64(dst)
    epos_src, epos_dst = _i64(epos_src), _i64(epos_dst)
    dest_f, lp_lo, lp_hi = _i64(dest_f), _i64(lp_lo), _i64(lp_hi)
    count = dst.shape[0]
    _check_columns(
        count,
        (fail, committed_tree, dest_f, lp_lo, lp_hi, epos_src, epos_dst) + tuple(out),
        (np.int8,) + (np.int64,) * 6 + (np.uint8, np.float64, np.int64),
        "hop loop state",
    )
    masks_u8 = None
    trial_i64 = None
    mask_width = 0
    if dead_masks is not None:
        if dead_masks.dtype == np.bool_ and dead_masks.flags.c_contiguous:
            masks_u8 = dead_masks.view(np.uint8)  # zero-copy reinterpret
        else:
            masks_u8 = np.ascontiguousarray(dead_masks, dtype=np.uint8)
        trial_i64 = _i64(trial)
        _check_columns(count, (trial_i64,), (np.int64,), "trial index")
        mask_width = int(masks_u8.shape[1])
    rounds = _build.require().tz_hop_loop(
        count,
        _ptr(epos_src),
        _ptr(epos_dst),
        _ptr(dst),
        _ptr(dest_f),
        _ptr(committed_tree),
        _ptr(lp_lo),
        _ptr(lp_hi),
        _ptr(delivered),
        _ptr(weight),
        _ptr(hops),
        _ptr(fail),
        cs.n,
        cs.entry_count,
        _ptr(cs.ent),
        _ptr(cs.ent_member),
        _ptr(cs.tree_indptr),
        _ptr(cs.lp_data),
        cs.lp_data.dtype.itemsize,
        _ptr(cs.g_indptr),
        _ptr(cs.step),
        _ptr(masks_u8),
        _ptr(trial_i64),
        mask_width,
        int(ttl),
    )
    return int(rounds)
