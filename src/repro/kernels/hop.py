"""ctypes wrappers for the native router kernels: ``tz_commit`` and ``tz_hop_loop``.

``tz_commit`` commits each row to its tree (the 4k−5 source strategy or
the §4 handshake alternation) and writes the same eight state columns
as the numpy ``BatchRouter._commit``; ``tz_hop_loop`` then walks each
committed row independently to its outcome.  Because the numpy loop
also accumulates weight per row in hop order, the scalar walk sums the
identical float64 values in the identical order and every result column
is bit-for-bit equal (``tests/test_kernels.py``).

The compiled scheme's thirteen per-entry field columns are packed once
per :class:`CompiledScheme` object into a single record table
(:class:`NativeSchemeView`, cached on the scheme), so a hop touches two
cache lines instead of thirteen scattered columns and repeated route
calls pay zero conversion cost.  The view also carries two slice
indexes, each built once per pack: ``tree_indptr`` — each tree root's
slice of the key-sorted entry table — and ``mem_indptr`` — each
source's slice of the level-0 member map.  Every lookup either kernel
makes binary-searches one such slice (or indexes a full-n tree slice
directly) instead of the global table.

Packing must not fork the scheme's state: the engine suite corrupts
compiled tables *in place* (severed heavy links, poisoned ports) and
both kernels must see the damage.  So after packing, the view re-points
the scheme's per-entry field columns and step tables at the packed
records themselves — later ``cs.ent_heavy_epos[:] = -1`` writes through
to the exact memory the C kernels read, and no per-call staleness check
is needed (re-verifying 4M+ entries would cost more than the hop loop).
The other columns the kernels read are pinned as contiguous int64 and
re-pointed the same way.  Columns an attribute *rebind* replaces are
caught by an identity check in :meth:`NativeSchemeView.of`, which
rebuilds the view.

Packing happens under one process-wide lock: threads that meet an
unpacked scheme together pack it once, and none of them can see a
half-rebound scheme.  Once packed, a view is read-only to both kernels,
so any number of threads may route through it at once.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Optional, Tuple

import numpy as np

from ..errors import RoutingError
from ..obs import TELEMETRY
from . import _build

__all__ = ["NativeSchemeView", "commit_native", "hop_loop_native"]

_VIEW_ATTR = "_native_view"

#: Field order and widths must match `ent_rec` in _native.c exactly
#: (13 × 8 bytes, no padding).
ENT_DTYPE = np.dtype(
    [
        ("vertex", "<i8"),
        ("f", "<i8"),
        ("finish", "<i8"),
        ("heavy_finish", "<i8"),
        ("light_depth", "<i8"),
        ("parent_epos", "<i8"),
        ("parent_wt", "<f8"),
        ("parent_edge", "<i8"),
        ("parent_next", "<i8"),
        ("heavy_epos", "<i8"),
        ("heavy_wt", "<f8"),
        ("heavy_edge", "<i8"),
        ("heavy_next", "<i8"),
    ]
)

#: Must match `step_rec` in _native.c (3 × 8 bytes).
STEP_DTYPE = np.dtype([("next", "<i8"), ("edge", "<i8"), ("wt", "<f8")])


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _ptr(a: Optional[np.ndarray]):
    if a is None:
        return None
    return a.ctypes.data_as(ctypes.c_void_p)


def _lib() -> ctypes.CDLL:
    lib = _build.load()
    if lib is None:  # pragma: no cover - callers resolve the kernel first
        raise RuntimeError(f"native kernels unavailable: {_build.native_error()}")
    return lib


def _check_columns(count: int, cols, dtypes, what: str) -> None:
    """Refuse any column the C side would index past or misread."""
    for col, dtype in zip(cols, dtypes):
        if col.shape != (count,) or col.dtype != dtype or not col.flags.c_contiguous:
            raise RuntimeError(f"{what} must be contiguous columns of {count} rows")


def _slice_starts(keys: np.ndarray, n: int) -> np.ndarray:
    """``(n+1)`` start of each ``w * n + ·`` key slice in sorted ``keys``."""
    return _i64(np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * np.int64(n)))


#: Entry field columns (``ent_<field>``) that are re-pointed at the
#: packed record table.
_ENT_FIELDS = ENT_DTYPE.names

_STEP_FIELDS = ("next", "edge", "wt")

#: Scheme columns the kernels read as plain contiguous int64 arrays.
_INT_COLUMNS = (
    "entry_keys",
    "ent_label_bits",
    "lp_indptr",
    "lp_data",
    "mem_keys",
    "mem_epos",
    "root_epos",
    "pivot",
    "g_indptr",
)

_PACK_LOCK = threading.Lock()


class NativeSchemeView:
    """Packed, dtype-pinned form of one scheme's routing tables."""

    __slots__ = (
        ("n", "k", "ent", "step", "tree_indptr", "mem_indptr", "_bound")
        + _INT_COLUMNS
    )

    def __init__(self, cs) -> None:
        """Pack the tables of ``cs`` (one-time cost, cached via :meth:`of`)."""
        self.n = n = int(cs.n)
        self.k = int(cs.k)
        for name in _INT_COLUMNS:
            setattr(self, name, _i64(getattr(cs, name)))
        if self.pivot.ndim != 2 or self.pivot.shape[0] < self.k or self.pivot.shape[1] != n:
            raise RoutingError(
                f"pivot matrix has shape {self.pivot.shape}, expected ({self.k}, {n})"
            )
        ent = np.empty(self.entry_keys.shape[0], dtype=ENT_DTYPE)
        for name in _ENT_FIELDS:
            ent[name] = getattr(cs, "ent_" + name)
        self.ent = ent
        # Tree w's entries occupy one contiguous slice of the key-sorted
        # table (keys are w * n + member); source s's level-0 member map
        # is the same shape of slice of mem_keys.
        self.tree_indptr = _slice_starts(self.entry_keys, n)
        self.mem_indptr = _slice_starts(self.mem_keys, n)
        step = np.empty(np.asarray(cs.step_next).shape[0], dtype=STEP_DTYPE)
        for name in _STEP_FIELDS:
            step[name] = getattr(cs, "step_" + name)
        self.step = step
        # Write-through aliasing (module doc): the scheme's columns
        # become the packed records' fields and the pinned int64 arrays,
        # so in-place mutation of the compiled tables reaches the
        # kernels.  _bound remembers the exact objects assigned; `of`
        # treats any rebound attribute as a new scheme state and repacks.
        self._bound = {}
        for name in _ENT_FIELDS:
            self._bound["ent_" + name] = ent[name]
        for name in _STEP_FIELDS:
            self._bound["step_" + name] = step[name]
        for name in _INT_COLUMNS:
            self._bound[name] = getattr(self, name)
        for name, col in self._bound.items():
            setattr(cs, name, col)

    def _fresh(self, cs) -> bool:
        """True while every aliased column is still the one we bound."""
        return all(getattr(cs, name) is arr for name, arr in self._bound.items())

    @classmethod
    def of(cls, cs) -> "NativeSchemeView":
        """The cached view of ``cs`` (built on first use, or when a
        column attribute was rebound since the last pack)."""
        view = getattr(cs, _VIEW_ATTR, None)
        if view is not None and view._fresh(cs):
            return view
        with _PACK_LOCK:
            view = getattr(cs, _VIEW_ATTR, None)
            if view is None or not view._fresh(cs):
                with TELEMETRY.span("kernel.pack_view", entries=int(cs.entry_count)):
                    view = cls(cs)
                setattr(cs, _VIEW_ATTR, view)
            return view


def commit_native(
    view: NativeSchemeView,
    src: np.ndarray,
    dst: np.ndarray,
    state: Tuple[np.ndarray, ...],
    *,
    handshake: bool,
    id_bits: int,
) -> None:
    """Fill the commit columns of rows ``(src, dst)`` in place.

    ``state`` is ``(fail, tree, header, dest_f, lp_lo, lp_hi, epos_src,
    epos_dst)`` — contiguous int8 then int64 columns as long as ``src``,
    possibly row slices of larger columns; every element is written.
    """
    src, dst = _i64(src), _i64(dst)
    count = src.shape[0]
    _check_columns(
        count, (dst,) + tuple(state), (np.int64, np.int8) + (np.int64,) * 7, "commit state"
    )
    if count and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= view.n):
        raise RoutingError("pair endpoint out of range")
    _lib().tz_commit(
        count,
        _ptr(src),
        _ptr(dst),
        *(_ptr(col) for col in state),
        view.n,
        view.k,
        int(id_bits),
        int(bool(handshake)),
        _ptr(view.ent),
        _ptr(view.entry_keys),
        _ptr(view.tree_indptr),
        _ptr(view.ent_label_bits),
        _ptr(view.lp_indptr),
        _ptr(view.mem_keys),
        _ptr(view.mem_epos),
        _ptr(view.mem_indptr),
        _ptr(view.root_epos),
        _ptr(view.pivot),
    )


def hop_loop_native(
    view: NativeSchemeView,
    dst: np.ndarray,
    state: Tuple[np.ndarray, ...],
    ttl: int,
    dead_masks: Optional[np.ndarray],
    trial: Optional[np.ndarray],
    out: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> int:
    """Run the compiled hop loop over one committed batch.

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
    rounds = _lib().tz_hop_loop(
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
        view.n,
        _ptr(view.ent),
        _ptr(view.entry_keys),
        _ptr(view.tree_indptr),
        _ptr(view.lp_data),
        _ptr(view.g_indptr),
        _ptr(view.step),
        _ptr(masks_u8),
        _ptr(trial_i64),
        mask_width,
        int(ttl),
    )
    return int(rounds)
