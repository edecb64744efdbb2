"""Persistent serving: the asyncio route daemon and its load generator.

This package promotes the batch-at-a-time
:class:`~repro.store.RouteService` into a long-running server:

* :mod:`repro.serve.protocol` — ``tz-serve/v2`` length-prefixed
  frames (a JSON header plus raw array blobs in the store's blob
  layout), the request/response shapes, and the bit-exact
  :class:`~repro.sim.engine.batch.BatchResult` wire codec;
* :mod:`repro.serve.lru` — :class:`SchemeLRU`, the capacity bound on
  open ``(graph, k)`` tenants (evict → re-mmap on next hit);
* :mod:`repro.serve.daemon` — :class:`RouteDaemon`, the asyncio TCP
  server: bounded queue with explicit backpressure, per-request
  timeouts, hot reload off store lineages, graceful SIGTERM drain;
* :mod:`repro.serve.loadgen` — the Zipf load generator and
  :class:`DaemonClient` (``repro loadgen``, ``BENCH_serve.json``).
"""

from .daemon import RouteDaemon, run_daemon
from .loadgen import (
    DaemonClient,
    LoadgenReport,
    run_loadgen,
    zipf_traffic,
    zipf_weights,
)
from .lru import SchemeLRU
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
    read_frame_async,
    result_from_wire,
    result_to_wire,
    write_frame,
)

__all__ = [
    "DaemonClient",
    "LoadgenReport",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RouteDaemon",
    "SchemeLRU",
    "encode_frame",
    "read_frame",
    "read_frame_async",
    "result_from_wire",
    "result_to_wire",
    "run_daemon",
    "run_loadgen",
    "write_frame",
    "zipf_traffic",
    "zipf_weights",
]
