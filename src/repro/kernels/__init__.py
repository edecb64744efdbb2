"""Compiled kernels for the hottest loops, behind a differential flag.

The router's distinct-pair pass, tree commit and synchronized hop loop
(``sim/engine/batch.py``, wrapped in :mod:`.hop`), the builder's
thresholded frontier sweep and cluster-tree pass
(``core/build/vectorized.py``, wrapped in :mod:`.frontier` and
:mod:`.trees`), the compile pass that writes the entry records and
label bits (``sim/engine/compile.py``, wrapped in :mod:`.records`), the
pass that derives what a loaded container does not store
(``core/build/arrays.py``, also in :mod:`.records`), the passes a patch
makes over every entry, its splice and the label positions of
``assemble_arrays`` (``core/build/patch.py`` and ``arrays.py``, wrapped
in :mod:`.splice`), the setup path's two
draw loops, gnp's edge skipping and the random port permutations
(``graphs/generators.py`` and ``graphs/ports.py``, wrapped in
:mod:`.draws`), and the shortest-path passes behind ``graphs/csr.py``
and ``graphs/graph.py`` — the hierarchy's multi-source sweep, exact
pair distances and connected components, wrapped in :mod:`.sssp` —
each have a native implementation in ``_native.c``, compiled on demand with the
system C toolchain and loaded through ctypes (:mod:`._build`).  The
numpy paths (scipy's, for the shortest-path passes) remain the
bit-for-bit differential reference — the same
contract the vectorized builder holds against the per-node reference
builder — enforced by ``tests/test_kernels.py`` (and, for the patch,
derive, setup, shortest-path and distinct-pair passes,
``tests/test_patch_passes.py``, ``tests/test_derived_columns.py``,
``tests/test_setup_passes.py``, ``tests/test_native_sssp.py`` and
``tests/test_distinct_pairs.py``).  The kernels keep no
global state and ctypes releases the GIL for each call, which is what
lets the worker pool (:mod:`repro.pool`) run the router's row chunks
and the build and compile passes' entry ranges at once.

The kernels change speed, never results, so the platform picks them:
every layer runs ``resolve_kernel("auto")`` — native when ``_native.c``
compiles and loads, else numpy, noting the fallback once per process
with a ``kernel.fallback`` telemetry counter and a
:class:`KernelFallbackWarning`.  Every compile takes the platform's
kernel; a ``kernel=`` selector survives only at the forks the
differential suites compare:
:class:`~repro.sim.engine.batch.BatchRouter` (commit and hop loop) and
:func:`~repro.core.build.vectorized.vectorized_arrays` (frontier sweep
and cluster-tree pass):

* ``"numpy"`` — always the pure-numpy reference path.
* ``"native"`` — the compiled path; raises
  :class:`~repro.errors.KernelError` when unavailable.
* ``"auto"`` (default) — the platform's choice above.

The backend stays a zero-dependency optional: no compiler, no
``Python.h``, or ``REPRO_NATIVE_KERNELS=0`` all degrade to numpy with
identical results.
"""

from __future__ import annotations

import warnings
from typing import Optional

from ..errors import KernelError
from ..obs import TELEMETRY
from . import _build

__all__ = [
    "KERNELS",
    "KernelFallbackWarning",
    "available",
    "native_error",
    "note_weight_fallback",
    "resolve_kernel",
]

#: Accepted values of :func:`resolve_kernel` and the fork selectors.
KERNELS = ("auto", "native", "numpy")


class KernelFallbackWarning(UserWarning):
    """A faster kernel path silently degraded to a slower reference path."""


_auto_fallback_noted = False


def available() -> bool:
    """True when the native backend compiled and loaded in this process."""
    return _build.load() is not None


def native_error() -> Optional[str]:
    """Why the native backend is unavailable (None when it is usable)."""
    return _build.native_error()


def resolve_kernel(kernel: str) -> str:
    """Resolve a ``kernel=`` request to the backend that will run.

    Returns ``"native"`` or ``"numpy"``.  ``"auto"`` degrades to numpy
    when the native library cannot be built, recording the degradation
    once per process (``kernel.fallback`` counter +
    :class:`KernelFallbackWarning`); an explicit ``"native"`` raises
    :class:`~repro.errors.KernelError` instead of degrading.
    """
    if kernel not in KERNELS:
        raise KernelError(
            f"unknown kernel {kernel!r} (choose from {', '.join(KERNELS)})"
        )
    if kernel == "numpy":
        return "numpy"
    if available():
        return "native"
    if kernel == "native":
        raise KernelError(f"native kernels unavailable: {native_error()}")
    _note_auto_fallback()
    return "numpy"


def _note_auto_fallback() -> None:
    """Record the auto→numpy degradation, once per process."""
    global _auto_fallback_noted
    TELEMETRY.count("kernel.fallback")
    if _auto_fallback_noted:
        return
    _auto_fallback_noted = True
    warnings.warn(
        f"native kernels unavailable ({native_error()}); "
        "kernel='auto' is using the numpy path",
        KernelFallbackWarning,
        stacklevel=3,
    )


def note_weight_fallback() -> None:
    """Record the non-float64-exact builder fallback (counter + warning).

    The vectorized builder silently ran the ~10× slower reference path
    for years of CPU time before this counter existed; both kernel paths
    now surface the degradation the same way.
    """
    TELEMETRY.count("kernel.fallback")
    warnings.warn(
        "edge weights are not float64-exact: the vectorized builder fell "
        "back to the per-node reference builder (10x slower); use "
        "integer-valued weights to stay on the fast path",
        KernelFallbackWarning,
        stacklevel=3,
    )
