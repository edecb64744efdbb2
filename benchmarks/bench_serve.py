"""Serving daemon under Zipf load: served throughput against in-process routing.

A real ``repro serve --daemon`` subprocess (separate interpreter, real
TCP, ``tz-serve/v2`` blob frames) answers the load generator's Zipf
batches over one connection in a closed loop, and the same batches are
routed in-process through :class:`~repro.store.RouteService`.  The gate
is the ratio of the two pair rates: at :data:`GATED_BATCH` pairs per
request, where the per-pair wire codec dominates, the daemon must serve
at least :data:`RATIO_FLOOR` of the in-process rate.  The 512-pair
ratio, where the fixed per-request cost (framing, queue, executor
handoff) dominates, is reported beside it with the client-observed
p50/p99 latencies.

Each batch size runs :data:`ROUNDS` alternating in-process / served
rounds over the same batches and keeps the best rate of each side, so
one stalled round on a shared runner does not decide the ratio.

``REPRO_BENCH_N`` overrides the vertex count for local iteration.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from _emit import emit

from repro.core.build import build_arrays
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro.serve import run_loadgen, zipf_traffic
from repro.store import RouteService, SchemeStore

#: Served pairs/s as a share of in-process pairs/s that CI requires at
#: GATED_BATCH pairs per request.
RATIO_FLOOR = 0.6
GATED_BATCH = 65_536

N_DEFAULT = 2_000
K = 2
USERS = 200
#: Pairs per request → requests per round.
BATCHES = {512: 64, GATED_BATCH: 8}
ROUNDS = 3
ZIPF_S = 1.2
SEED = 2


@pytest.fixture(scope="module")
def published_store(tmp_path_factory):
    """Build and publish the served scheme lineage once."""
    store_dir = tmp_path_factory.mktemp("tzserve")
    n = int(os.environ.get("REPRO_BENCH_N", N_DEFAULT))
    graph = gen.gnp(n, 8.0 / n, rng=2026, weights=(1, 8)).largest_component()
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, K, ported=ported, rng=13)
    store = SchemeStore(store_dir)
    key = store.publish(graph, ported, arrays, seed=13)
    return store, key, graph


def _inprocess_rate(service, matrices) -> float:
    """Pairs/s of routing ``matrices`` back to back in this process."""
    t0 = time.perf_counter()
    for matrix in matrices:
        service.route(matrix)
    return sum(m.shape[0] for m in matrices) / (time.perf_counter() - t0)


def _measure(port, service, n, batch, requests) -> dict:
    """Best in-process and served rates over ROUNDS alternating rounds."""
    matrices = zipf_traffic(
        n, users=USERS, requests=requests, batch=batch, s=ZIPF_S, rng=SEED
    )
    load = dict(users=USERS, connections=1, batch=batch, zipf_s=ZIPF_S)
    service.route(matrices[0])  # untimed warm-up on both sides
    run_loadgen("127.0.0.1", port, requests=1, seed=SEED, **load)
    inprocess, served = 0.0, None
    for _ in range(ROUNDS):
        inprocess = max(inprocess, _inprocess_rate(service, matrices))
        report = run_loadgen("127.0.0.1", port, requests=requests, seed=SEED, **load)
        assert report.errors == 0, report.to_dict()["error_codes"]
        assert report.total_pairs == requests * batch
        if served is None or report.pairs_per_second > served.pairs_per_second:
            served = report
    return {
        "requests": requests,
        "inprocess_pairs_per_second": inprocess,
        "served_pairs_per_second": served.pairs_per_second,
        "served_over_inprocess": served.pairs_per_second / inprocess,
        "latency_p50_seconds": served.p50,
        "latency_p99_seconds": served.p99,
        "delivered_fraction": served.delivered_pairs / served.total_pairs,
    }


def test_served_rate_tracks_inprocess_rate(published_store):
    store, key, graph = published_store
    store_dir = store.root
    repo_root = Path(__file__).resolve().parent.parent
    port_file = store_dir / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p
    )
    # The daemon exports its telemetry on drain: serve.request spans to
    # the trace, latency histograms + queue/LRU gauges to the metrics
    # doc (both uploaded as CI artifacts next to BENCH_serve.json).
    trace_path = os.environ.get("BENCH_SERVE_TRACE", "serve_trace.jsonl")
    metrics_path = os.environ.get("BENCH_SERVE_METRICS", "serve_metrics.json")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--daemon",
            "--store", str(store_dir), "--scheme", key,
            "--port", "0", "--port-file", str(port_file),
            "--trace", trace_path, "--metrics", metrics_path,
        ],
        cwd=repo_root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    service = RouteService(store.path_for(key))
    try:
        deadline = time.monotonic() + 120
        while not port_file.exists() and time.monotonic() < deadline:
            assert proc.poll() is None, proc.stdout.read()
            time.sleep(0.05)
        assert port_file.exists(), "daemon never wrote its port file"
        port = int(port_file.read_text())
        by_batch = {
            batch: _measure(port, service, graph.n, batch, requests)
            for batch, requests in BATCHES.items()
        }
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()

    assert proc.returncode == 0, "daemon did not drain to a clean exit"
    print(f"\nserve @ n={graph.n} m={graph.m} k={K}, one connection, closed loop:")
    for batch, row in by_batch.items():
        print(
            f"  {row['requests']}x{batch} pairs: served "
            f"{row['served_pairs_per_second']:,.0f} pairs/s vs in-process "
            f"{row['inprocess_pairs_per_second']:,.0f} "
            f"(ratio {row['served_over_inprocess']:.2f}) | latency p50 "
            f"{row['latency_p50_seconds'] * 1e3:.1f} ms, "
            f"p99 {row['latency_p99_seconds'] * 1e3:.1f} ms"
        )

    emit(
        "serve",
        params={
            "n": int(graph.n),
            "m": int(graph.m),
            "k": K,
            "users": USERS,
            "connections": 1,
            "rounds": ROUNDS,
            "zipf_s": ZIPF_S,
        },
        metrics={str(batch): row for batch, row in by_batch.items()},
        floors={f"{GATED_BATCH}.served_over_inprocess": RATIO_FLOOR},
    )

    ratio = by_batch[GATED_BATCH]["served_over_inprocess"]
    assert ratio >= RATIO_FLOOR, (
        f"daemon served {ratio:.2f} of the in-process pair rate at "
        f"{GATED_BATCH}-pair batches (floor {RATIO_FLOOR})"
    )
