"""Zipf load generator: replay skewed user traffic against the daemon.

Real routing traffic is never uniform — a few sources (popular
services, chatty hosts) and a few destinations dominate.  The load
generator models that directly: **N simulated users** are mapped onto a
seeded random permutation of the graph's vertices and draw their
traffic from a Zipf(``s``) popularity law (rank ``r`` is chosen with
probability ∝ 1/r^s), destinations follow an independent Zipf law over
all vertices, and **M concurrent connections** replay the resulting
request stream against a running :class:`~repro.serve.daemon.RouteDaemon`.

Every request's wall latency is recorded client-side (send → response),
so the report's p50/p99 include framing, queueing and routing — what a
real client observes, not what the server flatters itself with.  All
traffic is pre-generated from one seed before the clock starts; a
loadgen run is deterministic in everything but the latencies.

``repro loadgen`` is the CLI face; ``benchmarks/bench_serve.py`` gates
CI on served throughput as a share of in-process routing and writes
``BENCH_serve.json``.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from ..errors import ProtocolError
from ..rng import RngLike, make_rng
from .protocol import MAX_FRAME_BYTES, delivered_from_wire, read_frame, write_frame


class DaemonClient:
    """A blocking, single-connection protocol client (tests + loadgen)."""

    def __init__(
        self, host: str, port: int, *, timeout: float = 30.0
    ) -> None:
        """Connect to a daemon at ``(host, port)``."""
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, obj: dict, *, max_bytes: int = MAX_FRAME_BYTES) -> dict:
        """One request/response round trip."""
        write_frame(self.sock, obj)
        response = read_frame(self.sock, max_bytes=max_bytes)
        if response is None:
            raise ProtocolError("daemon closed the connection before answering")
        return response

    def send_raw(self, data: bytes) -> None:
        """Send raw bytes (protocol-fuzz tests)."""
        self.sock.sendall(data)

    def read_response(self, *, max_bytes: int = MAX_FRAME_BYTES):
        """Read one frame without sending (protocol-fuzz tests)."""
        return read_frame(self.sock, max_bytes=max_bytes)

    def close(self) -> None:
        """Close the connection."""
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "DaemonClient":
        """Context-manager support."""
        return self

    def __exit__(self, *exc) -> None:
        """Close on scope exit."""
        self.close()


def zipf_weights(size: int, s: float) -> np.ndarray:
    """Zipf(``s``) probabilities over ranks ``1..size``."""
    if size < 1:
        raise ValueError(f"need at least one rank, got {size}")
    w = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** float(s)
    return w / w.sum()


def zipf_traffic(
    n: int,
    *,
    users: int,
    requests: int,
    batch: int,
    s: float = 1.2,
    rng: RngLike = None,
) -> List[np.ndarray]:
    """Pre-generate ``requests`` Zipf-skewed traffic matrices.

    Sources come from ``min(users, n)`` simulated users (vertices drawn
    by a seeded permutation, popularity Zipf-ranked); destinations from
    an independent Zipf ranking over all ``n`` vertices.  Self-pairs
    are resampled, so every row has distinct endpoints (``n >= 2``).
    """
    if n < 2:
        raise ValueError(f"need at least two vertices, got {n}")
    gen = make_rng(rng)
    users = max(1, min(int(users), n))
    user_vertices = gen.permutation(n)[:users]
    src_p = zipf_weights(users, s)
    dest_ranking = gen.permutation(n)
    dst_p = zipf_weights(n, s)
    out = []
    for _ in range(requests):
        src = user_vertices[gen.choice(users, size=batch, p=src_p)]
        dst = dest_ranking[gen.choice(n, size=batch, p=dst_p)]
        bad = src == dst
        while bad.any():
            dst[bad] = dest_ranking[
                gen.choice(n, size=int(bad.sum()), p=dst_p)
            ]
            bad = src == dst
        out.append(np.stack([src, dst], axis=1).astype(np.int64))
    return out


#: The client-side error code of a request lost to its connection: the
#: daemon closing it, a reset or a socket timeout.
CONNECTION_ERROR = "connection"


@dataclass
class LoadgenReport:
    """Client-observed outcome of one load-generator run."""

    users: int
    connections: int
    requests: int
    batch: int
    zipf_s: float
    total_pairs: int
    delivered_pairs: int
    errors: int
    error_codes: Dict[str, int]
    wall_seconds: float
    latencies: np.ndarray = field(repr=False)
    versions: List[int] = field(default_factory=list)

    @property
    def pairs_per_second(self) -> float:
        """Successfully routed pairs per wall second, across connections."""
        return self.total_pairs / max(self.wall_seconds, 1e-9)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile in seconds (lower interpolation, like p99)."""
        if self.latencies.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies, q))

    @property
    def p50(self) -> float:
        """Median request latency in seconds."""
        return self.latency_percentile(50)

    @property
    def p99(self) -> float:
        """99th-percentile request latency in seconds."""
        return self.latency_percentile(99)

    def to_dict(self) -> dict:
        """JSON-able report document (``tz-loadgen-report``)."""
        return {
            "kind": "tz-loadgen-report",
            "users": self.users,
            "connections": self.connections,
            "requests": self.requests,
            "batch": self.batch,
            "zipf_s": self.zipf_s,
            "total_pairs": self.total_pairs,
            "delivered_pairs": self.delivered_pairs,
            "delivery_rate": (
                self.delivered_pairs / self.total_pairs
                if self.total_pairs
                else None
            ),
            "errors": self.errors,
            "error_codes": dict(self.error_codes),
            "wall_seconds": self.wall_seconds,
            "pairs_per_second": self.pairs_per_second,
            "latency_seconds": {
                "p50": self.p50,
                "p99": self.p99,
                "mean": (
                    float(self.latencies.mean())
                    if self.latencies.size
                    else None
                ),
                "max": (
                    float(self.latencies.max())
                    if self.latencies.size
                    else None
                ),
            },
            "versions_seen": sorted(
                {v for v in self.versions if v is not None}
            ),
        }


def run_loadgen(
    host: str,
    port: int,
    *,
    scheme: Optional[str] = None,
    users: int = 100,
    connections: int = 4,
    requests: int = 64,
    batch: int = 256,
    zipf_s: float = 1.2,
    seed: int = 0,
    ttl: Optional[int] = None,
    timeout: float = 60.0,
) -> LoadgenReport:
    """Replay Zipf traffic against a running daemon; returns the report.

    ``requests`` is the total across all ``connections`` (distributed
    round-robin).  The tenant size is discovered with a ``describe``
    request, all traffic is pre-generated from ``seed``, and only then
    does the clock start.  Each connection thread records one latency
    sample per answered request; failures (backpressure, timeout, …)
    are counted per error code, never raised.  A round trip that fails
    on its connection ends its schedule: it and every request of the
    schedule not yet sent count under :data:`CONNECTION_ERROR`, so
    answered plus errors is ``requests``.
    """
    with DaemonClient(host, port, timeout=timeout) as probe:
        desc = probe.request({"op": "describe", "scheme": scheme})
    if not desc.get("ok"):
        raise ProtocolError(
            f"describe failed: {desc.get('error')}: {desc.get('message')}"
        )
    n = int(desc["n"])

    matrices = zipf_traffic(
        n, users=users, requests=requests, batch=batch, s=zipf_s, rng=seed
    )
    per_conn: List[List[np.ndarray]] = [[] for _ in range(max(1, connections))]
    for i, matrix in enumerate(matrices):
        per_conn[i % len(per_conn)].append(matrix)

    lock = threading.Lock()
    latencies: List[float] = []
    versions: List[int] = []
    error_codes: Dict[str, int] = {}
    totals = {"pairs": 0, "delivered": 0, "errors": 0}

    def count_errors(code: str, count: int) -> None:  # under the lock
        totals["errors"] += count
        error_codes[code] = error_codes.get(code, 0) + count

    def drive(schedule: List[np.ndarray]) -> None:
        done = 0  # the requests answered before the one in flight
        try:
            with DaemonClient(host, port, timeout=timeout) as client:
                for done, matrix in enumerate(schedule):
                    request = {"op": "route", "scheme": scheme, "pairs": matrix, "ttl": ttl}
                    t0 = perf_counter()
                    response = client.request(request)
                    elapsed = perf_counter() - t0
                    ok = bool(response.get("ok"))
                    delivered = delivered_from_wire(response["result"]) if ok else 0
                    with lock:
                        latencies.append(elapsed)
                        if ok:
                            totals["pairs"] += int(matrix.shape[0])
                            totals["delivered"] += delivered
                            versions.append(response.get("version"))
                        else:
                            count_errors(str(response.get("error")), 1)
        except (OSError, ProtocolError):
            with lock:
                count_errors(CONNECTION_ERROR, len(schedule) - done)

    threads = [
        threading.Thread(target=drive, args=(schedule,), daemon=True)
        for schedule in per_conn
        if schedule
    ]
    wall0 = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = perf_counter() - wall0

    return LoadgenReport(
        users=users,
        connections=len(threads),
        requests=requests,
        batch=batch,
        zipf_s=zipf_s,
        total_pairs=totals["pairs"],
        delivered_pairs=totals["delivered"],
        errors=totals["errors"],
        error_codes=error_codes,
        wall_seconds=wall,
        latencies=np.asarray(latencies, dtype=np.float64),
        versions=versions,
    )
