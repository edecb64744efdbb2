"""Compile ``_native.c`` with the system C toolchain and load it via ctypes.

The native backend deliberately avoids a JIT dependency: the kernels are
plain C99 (no ``Python.h``), compiled once per source revision with
whatever ``cc`` the host provides and cached as a shared library keyed
by the source hash.  The publish is an atomic rename, so concurrent
processes (test workers, a daemon started beside a CLI run) race
benignly — the last writer wins with an identical artifact.  None of
the kernels keeps global state, so the worker pool's threads may run
any of them at once.

Gating, in order:

* ``REPRO_NATIVE_KERNELS=0`` (also ``no``/``off``/``false``) disables
  the backend outright — the CI fallback leg uses this to prove the
  numpy path stays green with no compiler at all.
* ``CC`` overrides the compiler (default: ``cc`` from ``PATH``).
* ``REPRO_KERNEL_CACHE`` overrides the cache directory (default:
  ``$XDG_CACHE_HOME/repro-kernels`` or ``~/.cache/repro-kernels``).

Compilation is attempted once per process; failures are remembered in
:func:`native_error` so ``kernel="auto"`` callers can report *why* they
fell back without re-running the compiler.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

_SOURCE = Path(__file__).with_name("_native.c")

#: Environment switch that turns the native backend off entirely.
ENV_DISABLE = "REPRO_NATIVE_KERNELS"

_lib: Optional[ctypes.CDLL] = None
_error: Optional[str] = None
_attempted = False

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_PPTR = ctypes.POINTER(ctypes.c_void_p)


def disabled() -> bool:
    """True when the environment vetoes the native backend."""
    return os.environ.get(ENV_DISABLE, "").strip().lower() in (
        "0",
        "no",
        "off",
        "false",
    )


def cache_dir() -> Path:
    """Directory holding compiled kernel libraries."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(xdg) / "repro-kernels"


def _compiler() -> Optional[str]:
    """The C compiler to invoke, or None when no toolchain is present."""
    cc = os.environ.get("CC") or "cc"
    return cc if shutil.which(cc) else None


def _declare(lib: ctypes.CDLL) -> None:
    """Pin argument/return types (bare ints would truncate to c_int)."""
    lib.tz_commit.restype = None
    lib.tz_commit.argtypes = (
        [_I64]  # count
        + [_PTR] * 2  # src, dst
        + [_PTR] * 8  # fail, tree, header, dest_f, lp_lo, lp_hi, epos_src, epos_dst
        + [_I64] * 7  # n, k, id_bits, handshake, entry count, lp_data length, width
        + [_PTR] * 6  # ent records, members, tree_indptr, lp_data, root_epos, pivot
    )
    lib.tz_hop_loop.restype = _I64
    lib.tz_hop_loop.argtypes = (
        [_I64]  # count
        + [_PTR] * 7  # start..lp_hi
        + [_PTR] * 4  # delivered, weight, hops, fail
        + [_I64, _I64]  # n, entry count
        + [_PTR] * 4  # ent records, members, tree_indptr, lp_data
        + [_I64]  # lp_data width
        + [_PTR] * 2  # g_indptr, steps
        + [_PTR, _PTR]  # dead_masks, trial
        + [_I64, _I64]  # mask_width, ttl
    )
    lib.tz_distinct_pairs.restype = _I64
    lib.tz_distinct_pairs.argtypes = (
        [_I64, _PTR, _PTR, _I64]  # count, src, dst, n
        + [_PTR, _I64]  # table, its mask
        + [_PTR, _PTR]  # out first, rows
    )
    lib.tz_frontier_arcs.restype = None
    lib.tz_frontier_arcs.argtypes = (
        [_I64, _I64]  # vertex range lo, hi
        + [_PTR] * 4  # indptr, adj, wts, thr
        + [_PTR]  # out lim-sorted arcs
    )
    lib.tz_frontier_sweep.restype = _I64
    lib.tz_frontier_sweep.argtypes = (
        [_I64, _PTR, _PTR]  # n, indptr, lim-sorted arcs
        + [_I64, _PTR, _PTR]  # center count, centers, thr
        + [_PTR, _PPTR, _PPTR, _PTR]  # out sizes, out members, out dist, stats
    )
    lib.tz_multi_source.restype = _I64
    lib.tz_multi_source.argtypes = (
        [_I64] + [_PTR] * 3  # n, indptr, adj, wts
        + [_I64, _PTR]  # source count, sources in rank order
        + [_PTR] * 3  # out dist, out witness, stats
    )
    lib.tz_pair_distances.restype = _I64
    lib.tz_pair_distances.argtypes = (
        [_I64] + [_PTR] * 3  # n, indptr, adj, wts
        + [_I64, _I64]  # source range lo, hi
        + [_PTR] * 3  # sources, target indptr, targets
        + [_PTR] * 2  # out distances, stats
    )
    lib.tz_components.restype = _I64
    lib.tz_components.argtypes = (
        [_I64, _I64]  # n, edge count
        + [_PTR] * 2  # edges, keep mask (or NULL)
        + [_PTR]  # out labels
    )
    lib.tz_repair_fields.restype = _I64
    lib.tz_repair_fields.argtypes = (
        [_I64] + [_PTR] * 3  # n, indptr, adj, wts
        + [_I64] + [_PTR] * 3  # update count, endpoints, old and new weights
        + [_I64, _I64]  # tree range lo, hi
        + [_PTR] * 4  # old dist, its tree offsets, out dist, its tree offsets
        + [_PTR]  # stats
    )
    lib.tz_cluster_trees.restype = _I64
    lib.tz_cluster_trees.argtypes = (
        [_I64, _I64, _I64]  # n, entry range lo, hi
        + [_PTR] * 7  # tree_indptr, members, dist, indptr, adj, wts, port_of_arc
        + [_PTR] * 10  # parent, parent/heavy epos, f, finish, heavy finish,
        #                light depth, parent/heavy port, lp_indptr
    )
    lib.tz_light_ports.restype = _I64
    lib.tz_light_ports.argtypes = (
        [_I64, _I64, _I64, _I64]  # n, entry range lo, hi, lp_data offset
        + [_PTR] * 4  # tree_indptr, parent epos, f, light depth
        + [_PTR] * 2  # lp_indptr (down ports in), out lp_data
        + [_I64]  # lp_data width
    )
    lib.tz_compile_records.restype = _I64
    lib.tz_compile_records.argtypes = (
        [_I64, _I64, _I64]  # n, entry range lo, hi
        + [_PTR] * 6  # tree_indptr, vertex, f, finish, heavy finish, light depth
        + [_PTR] * 5  # parent/heavy port, parent/heavy/vertex hint (or NULL)
        + [_PTR] * 2  # g_indptr, step records
        + [_PTR, _I64]  # lp_indptr, lp_data length
        + [_PTR] * 3  # out ent records, refused entry, rejected hints
    )
    lib.tz_derive_entries.restype = _I64
    lib.tz_derive_entries.argtypes = (
        [_I64, _I64, _I64]  # n, entry range lo, hi
        + [_PTR] * 4  # tree_indptr, members, ent records, lp_data
        + [_I64, _I64]  # lp_data width, length
        + [_PTR] * 6  # scratch order, out parents, dist, lp_indptr,
        #               label bits (each or NULL), refused entry
    )
    lib.tz_label_bits.restype = _I64
    lib.tz_label_bits.argtypes = (
        [_I64, _I64, _I64]  # n, entry range lo, hi
        + [_PTR] * 3  # tree_indptr, lp_indptr, lp_data
        + [_I64, _I64]  # lp_data width, length
        + [_PTR]  # out label bits
    )
    lib.tz_splice.restype = None
    lib.tz_splice.argtypes = (
        [_I64, _I64]  # output rows lo, hi
        + [_I64] + [_PTR] * 4  # run count, dirty, src, at (count + 1), shift (or NULL)
        + [_I64] + [_PTR] * 5  # column count, kinds, widths, old, fresh, out (tables)
    )
    lib.tz_splice_same.restype = None
    lib.tz_splice_same.argtypes = (
        [_I64] + [_PTR] * 3  # run count, dirty, src, at (count + 1)
        + [_I64] + [_PTR] * 4  # column count, kinds, widths, old, fresh (tables)
        + [_PTR]  # out same flag per column
    )
    lib.tz_label_positions.restype = _I64
    lib.tz_label_positions.argtypes = (
        [_I64, _I64, _I64, _I64]  # n, k, vertex range lo, hi
        + [_PTR] * 3  # cl_indptr, members, pivot
        + [_PTR]  # out label positions
    )
    lib.tz_gnp_edges.restype = _I64
    lib.tz_gnp_edges.argtypes = (
        [_I64, ctypes.c_double]  # n, log1p(-p)
        + [_PTR, _PTR]  # bit generator state, its next_double
        + [_PPTR]  # out edges
    )
    lib.tz_permute_rows.restype = None
    lib.tz_permute_rows.argtypes = (
        [_I64, _PTR]  # n, indptr
        + [_PTR, _PTR]  # bit generator state, its next_uint32
        + [_PTR]  # out ports
    )
    lib.tz_record_layout.restype = _I64
    lib.tz_record_layout.argtypes = [_PTR]
    lib.tz_free.restype = None
    lib.tz_free.argtypes = [_PTR]


def column(a, dtype, what: str):
    """``a`` as a contiguous array, refused (ValueError) unless it
    already has ``dtype``: a wrapper hands a pass the dtype its C
    signature reads and never narrows a column to get there."""
    import numpy as np

    a = np.ascontiguousarray(a)
    if a.dtype != dtype:
        raise ValueError(f"{what} must be {np.dtype(dtype).name}, not {a.dtype}")
    return a


def port_width(lp_data) -> int:
    """The bytes per light port the C passes read ``lp_data`` at
    (``port_at`` in ``_native.c``): 1 for uint8, 4 for int32, the two
    widths of the light-port rule; ValueError for any other dtype."""
    import numpy as np

    if lp_data.dtype not in (np.dtype(np.uint8), np.dtype(np.int32)):
        raise ValueError(f"lp_data must be uint8 or int32, not {lp_data.dtype}")
    return lp_data.dtype.itemsize


def artifact() -> Path:
    """The cached library of this source revision: ``repro_native_`` and
    the first 16 hex digits of the source's SHA-256, in :func:`cache_dir`.
    A library placed there beforehand (the CI sanitizer build) is loaded
    as it is."""
    tag = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    return cache_dir() / f"repro_native_{tag}.so"


def _compile() -> ctypes.CDLL:
    """Build (if needed) and load the shared library; raises on failure."""
    artifact_path = artifact()
    cache = artifact_path.parent
    cache.mkdir(parents=True, exist_ok=True)
    if not artifact_path.exists():
        cc = _compiler()
        if cc is None:
            raise RuntimeError(
                "no C compiler on PATH (set CC, or install gcc/clang)"
            )
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
        os.close(fd)
        try:
            proc = subprocess.run(
                [cc, "-O3", "-fPIC", "-shared", "-o", tmp, str(_SOURCE), "-lm"],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"kernel compilation failed ({cc}): "
                    f"{proc.stderr.strip()[:500]}"
                )
            os.replace(tmp, artifact_path)  # atomic publish
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(artifact_path))
    _declare(lib)
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The loaded native library, or None (disabled / compile failed).

    The first call pays the compile (sub-second, then cached on disk);
    later calls return the memoized handle.  Failures are memoized too —
    see :func:`native_error`.
    """
    global _lib, _error, _attempted
    if disabled():
        return None
    if not _attempted:
        _attempted = True
        try:
            _lib = _compile()
        except Exception as exc:  # noqa: BLE001 - any failure means numpy
            _error = str(exc)
            _lib = None
    return _lib


def require() -> ctypes.CDLL:
    """The loaded native library, for a wrapper whose caller resolved
    the kernel first; RuntimeError, naming :func:`native_error`, when
    it is unavailable."""
    lib = load()
    if lib is None:
        raise RuntimeError(f"native kernels unavailable: {native_error()}")
    return lib


def native_error() -> Optional[str]:
    """Why the native backend is unavailable (None when it loaded)."""
    if disabled():
        return f"disabled via {ENV_DISABLE}=0"
    if not _attempted:
        load()
    return _error


def reset_for_tests() -> None:
    """Forget the memoized load so tests can re-probe under new env."""
    global _lib, _error, _attempted
    _lib = None
    _error = None
    _attempted = False
