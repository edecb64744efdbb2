"""The serving front door: answer traffic matrices from a stored scheme.

:class:`RouteService` opens one ``.tzs`` container (zero-copy, see
:mod:`repro.store.format`) and serves whole traffic matrices through
the vectorized :class:`~repro.sim.engine.batch.BatchRouter`.  Because
the compiled arrays live in a shared file mapping, *any number of
processes can serve the same scheme against the same physical pages* —
the OS page cache is the only copy in the machine.

Each batch routes its distinct pairs once: :meth:`RouteService.route_distinct`
returns their answers with the index that expands them to the whole
batch (what the serving daemon ships; no index when so few pairs repeat
that the router walked every row), and :meth:`RouteService.route` is
that call followed by the expansion.

Within one process, parallelism is the router's: on the native kernel
a large batch is cut into one row chunk per usable CPU and the chunks
run on threads that all read the mapping's own entry and step records
(see :mod:`repro.sim.engine.batch`), so the first batch after an open or
a swap costs what any later batch does.  Rows are routed independently
by construction, so chunking changes wall time, never answers (tested).

Hot swap
--------
Point the service at a lineage's ``.current`` pointer file (see
:meth:`SchemeStore.publish_patch <repro.store.store.SchemeStore.publish_patch>`)
instead of a container and it follows version publishes **between
batches**: every :meth:`route` call starts by resolving the pointer
under a lock, re-mmapping the new container if it moved, and then
routes the whole batch on that one mapping.  An in-flight batch keeps
routing on the mapping it started with (the old memory map stays alive
exactly as long as a batch references it — draining is just reference
lifetime), so every batch is answered by exactly one scheme version:
none are dropped, none are mixed.
"""

from __future__ import annotations

import threading
from pathlib import Path
from time import perf_counter
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import RoutingError
from ..obs import TELEMETRY
from ..sim.engine.batch import BatchResult, BatchRouter


class RouteService:
    """Serve traffic matrices from one stored scheme (see module doc)."""

    def __init__(self, path: Union[str, Path]) -> None:
        """Open the container at ``path`` (zero-copy mmap).

        ``path`` may be a ``.tzs`` container or a lineage's ``.current``
        pointer file; the latter puts the service in hot-swap mode — see
        the module docstring.
        """
        from .store import POINTER_SUFFIX

        self.path = Path(path)
        self.follow = self.path.name.endswith(POINTER_SUFFIX)
        self.swap_count = 0
        self._swap_lock = threading.Lock()
        self._resolved: Optional[Path] = None
        self._open_current()

    def _resolve(self) -> Path:
        """The container path to serve right now (follows the pointer)."""
        if not self.follow:
            return self.path
        try:
            key = self.path.read_text().strip()
        except OSError as exc:
            raise RoutingError(
                f"cannot resolve current version from {self.path}: {exc}"
            ) from exc
        if not key:
            raise RoutingError(f"version pointer {self.path} is empty")
        from .store import STORE_SUFFIX

        return self.path.parent / f"{key}{STORE_SUFFIX}"

    def _open(self, resolved: Path) -> None:
        """Map ``resolved`` and install its router as the serving state."""
        from .store import SchemeStore

        with TELEMETRY.span("serve.open"):
            stored = SchemeStore(resolved.parent).load(resolved)
            self.meta = stored.meta
            self.compiled = stored.compiled
            self._router = BatchRouter.from_compiled(stored.compiled)
            self._resolved = resolved

    #: Pointer re-resolve attempts before an open gives up (each retry
    #: needs a fresh publish+gc to land in the race window, so two would
    #: already be extraordinary).
    _OPEN_RETRIES = 8

    def _open_current(self) -> bool:
        """Resolve the pointer and map the version it names; True on a move.

        A store ``gc()`` racing a ``publish_patch`` can unlink the
        version this service just resolved *between* the pointer read
        and the mmap — the resolved container is then already gone, but
        the lineage is fine: the pointer moved on to a live version.
        So a vanished container is retried through a fresh pointer
        resolve instead of surfacing as an error; only a container that
        still exists and fails to open (real corruption) propagates.
        """
        from ..errors import EncodingError

        last_exc = None
        for _ in range(self._OPEN_RETRIES):
            resolved = self._resolve()
            if resolved == self._resolved:
                return False
            try:
                self._open(resolved)
                return True
            except (FileNotFoundError, EncodingError) as exc:
                if not self.follow or resolved.exists():
                    raise  # genuine damage, not the gc race
                TELEMETRY.count("serve.reload_retries")
                last_exc = exc
        raise RoutingError(
            f"current version of {self.path} kept vanishing after "
            f"{self._OPEN_RETRIES} resolve attempts"
        ) from last_exc

    def _serving_router(self) -> BatchRouter:
        """The router for one batch.

        In hot-swap mode this is the swap point: the pointer is resolved
        under the lock and a moved pointer re-mmaps before the batch
        starts (retrying through the pointer if a gc unlinked the
        resolved version mid-open, see :meth:`_open_current`).  The
        returned router pins the chosen version for the caller's whole
        batch regardless of later swaps.
        """
        if not self.follow:
            return self._router
        with self._swap_lock:
            if self._open_current():
                self.swap_count += 1
                TELEMETRY.count("serve.swaps")
            return self._router

    def reload(self) -> bool:
        """Force a pointer re-resolve now; True if a swap happened."""
        before = self.swap_count
        self._serving_router()
        return self.swap_count != before

    @property
    def n(self) -> int:
        """Vertex count of the served scheme."""
        return self.compiled.n

    @property
    def k(self) -> int:
        """Hierarchy depth of the served scheme."""
        return self.compiled.k

    @property
    def version(self) -> Optional[int]:
        """Version number of the served container (None pre-versioning)."""
        v = self.meta.get("version")
        return None if v is None else int(v)

    def route(self, pairs: np.ndarray, *, ttl: Optional[int] = None) -> BatchResult:
        """Route every ``(s, t)`` row of ``pairs``: :meth:`route_distinct`,
        then its answers gathered into input order.

        In hot-swap mode the serving version is pinned once per call, so
        the whole matrix is answered by exactly one scheme version.
        """
        result, rows = self.route_distinct(pairs, ttl=ttl)
        return result if rows is None else result.take(rows)

    def route_distinct(
        self, pairs: np.ndarray, *, ttl: Optional[int] = None
    ) -> Tuple[BatchResult, Optional[np.ndarray]]:
        """``(result, rows)``: the answers of the distinct pairs of
        ``pairs`` and the int32 index of each row's answer, None when
        every row was walked (:meth:`BatchRouter.route_distinct
        <repro.sim.engine.batch.BatchRouter.route_distinct>`), all from
        one pinned version.  The ``serve.*`` counters count every row."""
        pair_arr = np.asarray(pairs)
        if pair_arr.size == 0:
            pair_arr = pair_arr.reshape(0, 2)
        if pair_arr.ndim != 2 or pair_arr.shape[1] != 2:
            raise RoutingError("pairs must be an (m, 2) integer array")
        router = self._serving_router()
        tm = TELEMETRY
        with tm.span("serve.route", pairs=int(pair_arr.shape[0])):
            if not tm.enabled:
                return router.route_distinct(pair_arr, ttl=ttl)
            tm.count("serve.requests")
            tm.count("serve.pairs", int(pair_arr.shape[0]))
            t0 = perf_counter()
            answer = router.route_distinct(pair_arr, ttl=ttl)
            elapsed = perf_counter() - t0
            tm.observe("serve.route_seconds", elapsed)
            if elapsed > 0:
                tm.gauge("serve.pairs_per_second", pair_arr.shape[0] / elapsed)
            return answer
