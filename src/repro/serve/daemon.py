"""The persistent serving daemon: asyncio TCP front door over the store.

:class:`RouteDaemon` turns the batch-at-a-time
:class:`~repro.store.RouteService` into a long-running multi-tenant
server.  The moving parts, and the guarantees each one carries:

* **Tenancy** — every route request names a ``scheme``: a store lineage
  id (served through its ``.current`` pointer, so publishes hot-reload
  between batches), a container key (pinned version), or a container
  path.  Open tenants live in a capacity-bounded
  :class:`~repro.serve.lru.SchemeLRU`; an evicted tenant is re-mmapped
  on its next hit with bit-identical answers.
* **Admission checks** — a route request's ``pairs`` must be an
  integer ``(m, 2)`` array, its ``ttl`` a non-negative int, and its
  answer must fit one frame; anything else is answered
  ``{"error": "bad-request"}`` and never routed.
* **Bounded queue + backpressure** — route requests land in one
  bounded :class:`asyncio.Queue`.  A full queue answers
  ``{"error": "backpressure"}`` immediately instead of stalling the
  connection: under overload the daemon sheds load explicitly and
  stays responsive to pings, never queues unboundedly.
* **Per-request timeout** — each request's budget starts when it is
  *enqueued*; a request that waited out its budget in the queue is
  answered ``{"error": "timeout"}`` without routing, one that exceeds
  it mid-route is answered as soon as the overrun is observed.
* **Graceful shutdown** — SIGTERM/SIGINT (or the ``shutdown`` op)
  stops accepting connections and new work, **drains** every queued
  and in-flight batch (their responses are still delivered), then
  closes.  No accepted batch is ever dropped.
* **Observability** — ``serve.request`` spans, request-latency
  histograms and queue-depth/LRU gauges flow through the existing
  :mod:`repro.obs` registry (``--trace``/``--metrics`` on the CLI);
  a plain :attr:`stats` dict additionally serves the ``stats`` op even
  when telemetry is disabled.

Single-writer discipline: all responses of one connection are written
under that connection's lock, so worker tasks never interleave frames.
With ``workers > 1`` responses may be reordered across *requests*;
clients that pipeline tag requests with ``"id"`` (echoed verbatim).
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional, Union

import numpy as np

from ..errors import ProtocolError, ReproError, RoutingError
from ..obs import TELEMETRY
from ..store import POINTER_SUFFIX, STORE_SUFFIX, RouteService, SchemeStore
from .lru import SchemeLRU
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    error_response,
    read_frame_async,
    result_to_wire,
    route_answer_bytes,
)


@dataclass(eq=False)  # identity hash: connections live in a set
class _Connection:
    """Per-connection state: stream ends plus the response-write lock."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


@dataclass
class _QueuedRequest:
    """One admitted route request waiting for a worker."""

    conn: _Connection
    request: dict
    pairs: np.ndarray
    ttl: Optional[int]
    enqueued_at: float


class RouteDaemon:
    """Persistent multi-tenant route server (see module docstring)."""

    def __init__(
        self,
        store_dir: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        default_scheme: Optional[str] = None,
        lru_capacity: int = 4,
        queue_limit: int = 64,
        timeout: float = 30.0,
        workers: int = 1,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        """Configure a daemon over one store directory (nothing opens yet).

        ``port=0`` binds an ephemeral port (read :attr:`address` after
        :meth:`start`).  ``default_scheme`` answers route requests that
        name no scheme.  ``queue_limit`` bounds the route queue (excess
        is shed with a ``backpressure`` error), ``timeout`` is the
        per-request budget in seconds from enqueue to response, and
        ``workers`` is the number of concurrent route executors.
        """
        self.store = SchemeStore(store_dir)
        self.host = host
        self.port = int(port)
        self.default_scheme = default_scheme
        self.lru = SchemeLRU(lru_capacity)
        self.queue_limit = int(queue_limit)
        self.timeout = float(timeout)
        self.workers = max(1, int(workers))
        self.max_frame_bytes = int(max_frame_bytes)
        self.stats = {
            "requests": 0,
            "routed_pairs": 0,
            "shed": 0,
            "timeouts": 0,
            "errors": 0,
            "connections": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._workers: list = []
        self._connections: set = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_task = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener, spawn workers, install signal handlers."""
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._stopped = asyncio.Event()
        self._workers = [
            asyncio.create_task(self._worker()) for _ in range(self.workers)
        ]
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            # Unavailable off the main thread (tests) and on Windows;
            # the `shutdown` op is the portable alternative.
            with contextlib.suppress(NotImplementedError, ValueError, RuntimeError):
                loop.add_signal_handler(sig, self.request_shutdown)

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        """Block until a shutdown has fully drained."""
        await self._stopped.wait()

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (idempotent; signal-handler safe)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._shutdown())

    async def _shutdown(self) -> None:
        """Drain queued and in-flight work, then close everything."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Every admitted request is answered before the lights go out.
        await self._queue.join()
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        for conn in list(self._connections):
            conn.writer.close()
        self.lru.clear()
        self._stopped.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read frames off one connection until EOF or a fatal frame."""
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self.stats["connections"] += 1
        try:
            while True:
                try:
                    request = await read_frame_async(
                        reader, max_bytes=self.max_frame_bytes
                    )
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break  # peer hung up (possibly mid-frame) — just drop
                except ProtocolError as exc:
                    # Distinguish a garbage payload (stream still in
                    # sync: answer and keep going) from an oversized
                    # length prefix (unread payload would desync the
                    # stream: answer, then close this connection).
                    recoverable = getattr(exc, "payload_consumed", True)
                    self.stats["errors"] += 1
                    await self._respond(
                        conn, error_response("bad-frame", str(exc))
                    )
                    if not recoverable:
                        break
                    continue
                if not await self._dispatch(conn, request):
                    break
        finally:
            self._connections.discard(conn)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _dispatch(self, conn: _Connection, request: dict) -> bool:
        """Handle one request; False ends the connection's read loop."""
        op = request.get("op")
        if op == "ping":
            await self._respond(
                conn,
                {
                    "ok": True,
                    "op": "ping",
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "draining": self._draining,
                },
            )
            return True
        if op == "stats":
            await self._respond(
                conn,
                {
                    "ok": True,
                    "op": "stats",
                    "stats": dict(self.stats),
                    "queue_depth": self._queue.qsize(),
                    "lru": self.lru.stats(),
                    "tenants": self.lru.keys(),
                },
            )
            return True
        if op == "describe":
            return await self._op_describe(conn, request)
        if op == "shutdown":
            await self._respond(conn, {"ok": True, "op": "shutdown"})
            self.request_shutdown()
            return False
        if op == "route":
            return await self._op_route(conn, request)
        self.stats["errors"] += 1
        await self._respond(
            conn, error_response("unknown-op", f"unknown op {op!r}")
        )
        return True

    async def _op_describe(self, conn: _Connection, request: dict) -> bool:
        """Answer tenant facts (n, k, version) without routing."""
        try:
            service = self._service_for(request.get("scheme"))
        except ReproError as exc:
            self.stats["errors"] += 1
            await self._respond(conn, error_response("unknown-scheme", str(exc)))
            return True
        await self._respond(
            conn,
            {
                "ok": True,
                "op": "describe",
                "n": service.n,
                "k": service.k,
                "version": service.version,
                "key": service.meta.get("key"),
                "lineage": service.meta.get("lineage"),
                "handshake": bool(service.meta.get("handshake")),
            },
        )
        return True

    async def _op_route(self, conn: _Connection, request: dict) -> bool:
        """Admit one route request into the bounded queue (or shed it)."""
        if self._draining:
            await self._respond(
                conn,
                self._echo_id(
                    request,
                    error_response("shutting-down", "daemon is draining"),
                ),
            )
            return True
        try:
            pairs, ttl = self._parse_route(request)
        except ProtocolError as exc:
            self.stats["errors"] += 1
            await self._respond(
                conn, self._echo_id(request, error_response("bad-request", str(exc)))
            )
            return True
        item = _QueuedRequest(conn, request, pairs, ttl, perf_counter())
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.stats["shed"] += 1
            TELEMETRY.count("serve.shed")
            await self._respond(
                conn,
                self._echo_id(
                    request,
                    error_response(
                        "backpressure",
                        f"request queue is full ({self.queue_limit}); retry",
                        queue_depth=self._queue.qsize(),
                    ),
                ),
            )
            return True
        if TELEMETRY.enabled:
            TELEMETRY.gauge("serve.queue_depth", self._queue.qsize())
        return True

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        """Pop queued requests and answer them, forever (until cancelled)."""
        while True:
            item = await self._queue.get()
            try:
                response = await self._process_route(item)
            except Exception as exc:  # never let a request kill the worker
                self.stats["errors"] += 1
                response = self._echo_id(
                    item.request, error_response("routing-error", str(exc))
                )
            try:
                await self._respond(item.conn, response)
            except (ConnectionError, OSError):
                pass  # requester vanished; the batch result is dropped
            finally:
                self._queue.task_done()

    async def _process_route(self, item: _QueuedRequest) -> dict:
        """Route one queued request; returns the response object."""
        request = item.request
        tm = TELEMETRY
        waited = perf_counter() - item.enqueued_at
        if waited >= self.timeout:
            self.stats["timeouts"] += 1
            tm.count("serve.timeouts")
            return self._echo_id(
                request,
                error_response(
                    "timeout",
                    f"request spent {waited:.3f}s queued "
                    f"(budget {self.timeout}s)",
                ),
            )
        try:
            service = self._service_for(request.get("scheme"))
        except ReproError as exc:
            self.stats["errors"] += 1
            return self._echo_id(
                request, error_response("unknown-scheme", str(exc))
            )
        pairs, ttl = item.pairs, item.ttl
        if pairs.size and (pairs.min() < 0 or pairs.max() >= service.n):
            self.stats["errors"] += 1
            return self._echo_id(
                request,
                error_response(
                    "bad-request",
                    f"pair endpoints must be in [0, {service.n}); got "
                    f"[{pairs.min()}, {pairs.max()}]",
                ),
            )
        loop = asyncio.get_running_loop()
        with tm.span("serve.request", pairs=int(pairs.shape[0])):
            # The executor thread runs in a copy of this task's context,
            # so the route's spans nest under this request's span.
            ctx = contextvars.copy_context()
            try:
                result, version, key = await asyncio.wait_for(
                    loop.run_in_executor(
                        None, ctx.run, self._route_sync, service, pairs, ttl
                    ),
                    self.timeout - waited,
                )
            except asyncio.TimeoutError:
                self.stats["timeouts"] += 1
                tm.count("serve.timeouts")
                return self._echo_id(
                    request,
                    error_response(
                        "timeout",
                        f"route exceeded the {self.timeout}s budget",
                    ),
                )
            except RoutingError as exc:
                self.stats["errors"] += 1
                return self._echo_id(
                    request, error_response("routing-error", str(exc))
                )
        elapsed = perf_counter() - item.enqueued_at
        self.stats["requests"] += 1
        self.stats["routed_pairs"] += int(pairs.shape[0])
        if tm.enabled:  # the route counted itself (RouteService.route)
            tm.observe("serve.request_seconds", elapsed)
            tm.gauge("serve.queue_depth", self._queue.qsize())
        return self._echo_id(
            request,
            {
                "ok": True,
                "op": "route",
                "version": version,
                "key": key,
                "seconds": elapsed,
                "result": result_to_wire(result),
            },
        )

    @staticmethod
    def _route_sync(service: RouteService, pairs: np.ndarray, ttl):
        """Route one batch on the executor thread (tests hook here).

        Returns ``(result, version, key)`` read *after* the route so the
        reported version is the one that actually answered (the service
        pins its mapping for the whole batch).
        """
        result = service.route(pairs, ttl=ttl)
        return result, service.version, service.meta.get("key")

    def _parse_route(self, request: dict) -> tuple:
        """Validate a route request's ``pairs`` and ``ttl`` at admission.

        ``pairs`` must be an integer-kind ``(m, 2)`` array (a blob, or a
        JSON list of ints) whose answer fits in one frame, and ``ttl``
        absent, null or a non-negative int.  Returns ``(pairs as int64,
        ttl)``; raises :class:`ProtocolError` otherwise.  Endpoint ranges
        are checked against the tenant once a worker has opened it.
        """
        raw = request.get("pairs")
        if raw is None:
            raise ProtocolError("route request carries no 'pairs'")
        try:
            pairs = np.asarray(raw)
        except ValueError as exc:  # a ragged list
            raise ProtocolError(f"pairs are not a matrix: {exc}") from exc
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2).astype(np.int64)
        if pairs.dtype.kind not in "iu":
            raise ProtocolError(f"pairs must be integers, got dtype {pairs.dtype}")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ProtocolError(
                f"pairs must be an (m, 2) matrix, got shape {pairs.shape}"
            )
        answer = route_answer_bytes(pairs.shape[0])
        if answer > self.max_frame_bytes:
            raise ProtocolError(
                f"the answer to {pairs.shape[0]} pairs would take up to "
                f"{answer} bytes, over the {self.max_frame_bytes}-byte frame "
                f"limit; split the batch"
            )
        ttl = request.get("ttl")
        if ttl is not None and (type(ttl) is not int or ttl < 0):
            raise ProtocolError(f"ttl must be a non-negative integer, got {ttl!r}")
        return pairs.astype(np.int64, copy=False), ttl

    @staticmethod
    def _echo_id(request: dict, response: dict) -> dict:
        """Copy the client's request tag (if any) into the response."""
        if "id" in request:
            response = dict(response, id=request["id"])
        return response

    async def _respond(self, conn: _Connection, obj: dict) -> None:
        """Write one response frame under the connection's write lock."""
        async with conn.lock:
            conn.writer.write(encode_frame(obj))
            await conn.writer.drain()

    # ------------------------------------------------------------------
    # tenancy
    # ------------------------------------------------------------------
    def _service_for(self, scheme: Optional[str]) -> RouteService:
        """The (possibly cached) serving state of one tenant.

        ``scheme`` may be a lineage id (hot-reload via its ``.current``
        pointer), a container key (pinned version), or a path to either
        file kind.  Misses open through the LRU, which may evict the
        least-recently-used tenant; a later request for the evicted
        tenant simply re-mmaps it.
        """
        scheme = scheme or self.default_scheme
        if not scheme:
            raise RoutingError(
                "route request names no scheme and the daemon has no default"
            )
        path = self._tenant_path(str(scheme))
        return self.lru.get(str(path), lambda: RouteService(path))

    def _tenant_path(self, scheme: str) -> Path:
        """Map a tenant name to the pointer/container file to serve."""
        pointer = self.store.pointer_path(scheme)
        if pointer.exists():
            return pointer
        container = self.store.path_for(scheme)
        if container.exists():
            return container
        as_path = Path(scheme)
        if as_path.exists() and as_path.name.endswith(
            (STORE_SUFFIX, POINTER_SUFFIX)
        ):
            return as_path
        raise RoutingError(
            f"no lineage, container or file named {scheme!r} in "
            f"{self.store.root}"
        )


def run_daemon(
    store_dir: Union[str, Path],
    *,
    on_ready=None,
    **config,
) -> dict:
    """Run a daemon until it shuts down; returns its final stats.

    The blocking entry point behind ``repro serve --daemon``:
    constructs the daemon, starts it, calls ``on_ready(daemon)`` once
    the port is bound (the CLI prints the address / writes the port
    file there), and serves until SIGTERM/SIGINT or a ``shutdown`` op
    completes the drain.
    """

    async def _main() -> dict:
        daemon = RouteDaemon(store_dir, **config)
        await daemon.start()
        if on_ready is not None:
            on_ready(daemon)
        await daemon.serve_forever()
        return dict(daemon.stats)

    return asyncio.run(_main())
