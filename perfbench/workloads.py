"""The workloads: serve-bulk and churn.

Each function takes the run :class:`~pipeline.Context`, the workload
seed and the measuring time, fills ``ctx.samples`` / ``ctx.layer`` /
``ctx.report`` and returns ``(e2e, attempted, failed)``: the end-to-end
metrics, the foreground operations attempted and those that failed.
A failed correctness check raises :class:`~pipeline.CheckFailed`.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from pipeline import (
    K,
    QUIET_BLOCKS,
    SETUP_REPS,
    Daemon,
    build_scheme,
    check,
    check_stretch,
    discard,
    peak_rss_mb,
    percentiles,
    quiet_median,
    result_digest,
    traffic,
    uniform_sample,
)
from repro.core.build import patch_arrays
from repro.rng import derive
from repro.scenarios.churn import random_delta
from repro.serve import encode_frame, result_from_wire, result_to_wire
from repro.serve.protocol import decode_payload
from repro.sim.engine.compile import compile_from_arrays
from repro.store import RouteService

#: Pairs in the request that ends a serve set-up (the first answered route).
WARM_BATCH = 512

#: serve-bulk: 65,536-pair batches from a fixed pool, in-process then TCP.
BULK_BATCH = 65_536
BULK_POOL = 16
BULK_INPROCESS_SHARE = 0.15

#: churn: weight-only deltas of one or two edges, one 4,096-pair batch
#: per published version, then a few warm batches on the same version.
#: Weight-only, because with random ports a topology delta makes
#: ``patch_arrays`` re-sort every port, which dirties every cluster.
CHURN_BATCH = 4_096
CHURN_POOL = 64
CHURN_WARM = 16
CHURN_STRETCH_SOURCES = 16

#: Workload pairs checked against the 4k−5 bound besides the uniform sample.
TRAFFIC_STRETCH_PAIRS = 512


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _setup(ctx, seed, make_ready):
    """SETUP_REPS full set-ups (nothing → first answered request).

    Every repetition builds a fresh store and makes it answerable with
    ``make_ready(scheme) -> (handle, close)``; all but the last are torn
    down again.  Returns ``(scheme, handle)`` of the last.
    """
    totals = []
    previous = None
    for rep in range(SETUP_REPS):
        if previous is not None:
            scheme = handle = None  # free the last set-up before the next
            previous()
        store_dir = ctx.new_dir("store")
        with ctx.tracer.span("bench.setup", rid=rep):
            t0 = perf_counter()
            scheme = build_scheme(ctx, seed, store_dir)
            handle, close = make_ready(scheme)
            totals.append(perf_counter() - t0)

        def previous(close=close, store_dir=store_dir):
            close()
            discard(store_dir)

    ctx.report["setup_s_reps"] = totals
    degrees = scheme.graph.degrees()
    ctx.layer.update(
        {
            "build.entries": scheme.arrays.entry_count,
            "build.table_bits_mean": float(
                scheme.arrays.table_bits(int(degrees.max())).mean()
            ),
            "store.container_bytes": scheme.container_bytes,
        }
    )
    scheme.compiled = None  # the store holds it; routing reads the container
    ctx.report["env"].update(
        n=int(scheme.graph.n), m=int(scheme.graph.m), k=K,
        entries=int(scheme.arrays.entry_count),
    )
    return float(np.median(totals)), scheme, handle


def _served_setup(ctx, seed):
    """Set-up for serving: ends when the daemon answers its first route."""

    def ready(scheme):
        with ctx.timed("serve.spawn_ready"):
            daemon = Daemon(ctx, scheme)
            ctx.cleanups.append(daemon.kill)
            daemon.wait_ready()
        client = daemon.client()
        ctx.cleanups.append(client.close)
        warm = traffic(scheme.graph.n, seed, "warm", requests=1, batch=WARM_BATCH)[0]
        with ctx.timed("route.first_batch"):
            resp = client.request({"op": "route", "pairs": warm.tolist()})
        check(bool(resp.get("ok")), f"first route request failed: {resp}")

        def close():
            client.close()
            check(daemon.stop() == 0, "daemon did not drain to exit code 0 on SIGTERM")

        return (daemon, client), close

    return _setup(ctx, seed, ready)


def _stop_daemon(ctx, daemon, client):
    """Read the daemon's counters, then SIGTERM it and check the drain."""
    with ctx.timed("serve.stats"):
        stats = client.request({"op": "stats"})
    check(bool(stats.get("ok")), f"stats op failed: {stats}")
    client.close()
    with ctx.timed("serve.drain"):
        code = daemon.stop()
    check(code == 0, f"daemon exited with {code} after SIGTERM, not 0")
    ctx.layer["serve.shed"] = stats["stats"]["shed"]
    ctx.layer["serve.timeouts"] = stats["stats"]["timeouts"]
    return stats["stats"]


def _open_service(ctx, scheme):
    """The in-process front door, following the lineage's pointer."""
    with ctx.timed("store.open"):
        service = RouteService(scheme.pointer)
    return service


def _codec(ctx, frames, responses, results):
    """Time the package's protocol functions on batches the workload sent."""
    wire = []
    for frame, resp, result in zip(frames, responses, results):
        with ctx.timed("serve.decode_request"):
            decode_payload(frame[4:])
        with ctx.timed("serve.encode_result"):
            encoded = encode_frame(dict(resp, result=result_to_wire(result)))
        with ctx.timed("serve.decode_result"):
            result_from_wire(decode_payload(encoded[4:])["result"])
        wire.append((len(frame) + len(encoded)) / result.source.shape[0])
    ctx.layer["serve.wire_bytes_per_pair"] = float(np.mean(wire))


def _encode_requests(ctx, matrices):
    """Pre-encode route requests (before the clock) with the package codec."""
    frames = []
    for i, matrix in enumerate(matrices):
        with ctx.timed("serve.encode_request", rid=i):
            frames.append(encode_frame({"op": "route", "id": i, "pairs": matrix.tolist()}))
    return frames


def _trace_overhead(ctx, op, reps):
    """Traced minus untraced median of one foreground operation, in ms."""
    tracer = ctx.tracer
    times = {True: [], False: []}
    for i in range(2 * reps):
        tracer.enabled = i % 2 == 0
        t0 = perf_counter()
        op(i)
        times[tracer.enabled].append(perf_counter() - t0)
    tracer.enabled = True
    ctx.layer["trace.overhead_ms"] = 1e3 * float(
        np.median(times[True]) - np.median(times[False])
    )


def _stretch(ctx, scheme, service, seed, traffic_batch):
    """Check 4k−5 on the uniform sample and a traffic slice; returns the former."""
    busy = traffic_batch[:TRAFFIC_STRETCH_PAIRS]
    check_stretch(ctx, scheme.graph, busy, service.route(busy))
    sample = uniform_sample(scheme.graph.n, seed, "serve")
    return check_stretch(ctx, scheme.graph, sample, service.route(sample))


def _common_e2e(ctx, setup_s, stretch, latency_p50_ms):
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "container_bytes_per_entry": (
            ctx.layer["store.container_bytes"] / ctx.layer["build.entries"], "B"
        ),
        "stretch_mean": (float(np.mean(stretch)), "ratio"),
        "latency_p50_ms": (latency_p50_ms, "ms"),
    }


# ----------------------------------------------------------------------
# serve-bulk: in-process route, then a closed loop over one connection
# ----------------------------------------------------------------------
def serve_bulk(ctx, seed, seconds):
    setup_s, scheme, (daemon, client) = _served_setup(ctx, seed)
    pool = traffic(scheme.graph.n, seed, "bulk", requests=BULK_POOL, batch=BULK_BATCH)
    frames = _encode_requests(ctx, pool)

    service = _open_service(ctx, scheme)
    service.route(pool[0])  # pays the one-off view packing
    digests, hops, results = [], [], []
    with ctx.tracer.span("bench.measure"):
        stop = perf_counter() + BULK_INPROCESS_SHARE * seconds
        i = 0
        while i < BULK_POOL or perf_counter() < stop:
            with ctx.timed("route.batch", rid=i):
                result = service.route(pool[i % BULK_POOL])
            if i < BULK_POOL:
                check(bool(result.delivered.all()), "a routed pair was not delivered")
                digests.append(result_digest(result))
                hops.append(float(result.hops.mean()))
                if i < 2:
                    results.append(result)
            i += 1

        client.send_raw(frames[0])  # warm-up: outside the latency sample
        check(bool(client.read_response().get("ok")), "warm-up request failed")
        latency, server, gap = [], [], []
        failed = attempted = 0
        kept = {}
        stop = perf_counter() + (1 - BULK_INPROCESS_SHARE) * seconds
        while attempted < 3 or perf_counter() < stop:
            j = attempted % BULK_POOL
            attempted += 1
            with ctx.tracer.span("serve.request", rid=attempted):
                t0 = perf_counter()
                client.send_raw(frames[j])
                resp = client.read_response()
                elapsed = perf_counter() - t0
            if not resp.get("ok"):
                failed += 1
                continue
            latency.append(elapsed)
            server.append(resp["seconds"])
            gap.append(elapsed - resp["seconds"])
            with ctx.tracer.span("bench.check"):
                served = result_from_wire(resp["result"])
                check(
                    result_digest(served) == digests[j],
                    f"served batch {j} differs from RouteService.route",
                )
            if j < 2 and j not in kept:
                kept[j] = resp

    if ctx.tracer.enabled:
        _trace_overhead(
            ctx,
            lambda i: _traced_request(ctx, client, frames[i % BULK_POOL], i),
            3,
        )
    stats = _stop_daemon(ctx, daemon, client)

    with ctx.tracer.span("bench.check"):
        stretch = _stretch(ctx, scheme, service, seed, pool[0])
    _codec(ctx, frames[: len(kept)], [kept[j] for j in sorted(kept)], results[: len(kept)])
    lat = percentiles(np.asarray(latency) * 1e3, qs=(50,))
    lat_quiet = quiet_median(latency) * 1e3
    route_pps = BULK_BATCH / ctx.median("route.batch")
    served_pps = BULK_BATCH / lat_quiet * 1e3
    ctx.layer.update(
        {
            "route.hops_mean": float(np.mean(hops)),
            "serve.server_p50_ms": float(np.median(server) * 1e3),
            "serve.client_gap_p50_ms": float(np.median(gap) * 1e3),
        }
    )
    ctx.report["daemon_stats"] = stats
    ctx.report["workload_metrics"] = {
        "latency_p50_ms": (lat_quiet, "ms", lat["count"] // QUIET_BLOCKS),
        "latency_p50_whole_run_ms": (lat["p50"], "ms", lat["count"]),
        "served_pairs_per_s": (served_pps, "1/s"),
        "route_pairs_per_s": (route_pps, "1/s"),
        "served_over_route": (served_pps / route_pps, "ratio"),
        "failed_fraction": (failed / attempted, "ratio"),
    }
    e2e = _common_e2e(ctx, setup_s, stretch, lat_quiet)
    return e2e, attempted, failed


def _traced_request(ctx, client, frame, i):
    with ctx.tracer.span("serve.request", rid=-1 - i):
        client.send_raw(frame)
        client.read_response()


# ----------------------------------------------------------------------
# churn: patch → compile → publish_patch → reload → first batch, per delta
# ----------------------------------------------------------------------
def churn(ctx, seed, seconds):
    def ready(scheme):
        with ctx.timed("store.open"):
            service = RouteService(scheme.pointer)
        warm = traffic(scheme.graph.n, seed, "warm", requests=1, batch=CHURN_BATCH)[0]
        with ctx.timed("route.first_batch"):
            service.route(warm)
        return service, lambda: None

    setup_s, scheme, service = _setup(ctx, seed, ready)
    pool = traffic(scheme.graph.n, seed, "churn", requests=CHURN_POOL, batch=CHURN_BATCH)
    graph, ported, arrays = scheme.graph, scheme.ported, scheme.arrays
    scheme.graph = scheme.ported = scheme.arrays = None  # each epoch replaces them
    parent_key = scheme.lineage
    visible, stretch, patch_stats = [], [], []
    epoch = 0
    batches = 0
    with ctx.tracer.span("bench.measure"):
        stop = perf_counter() + seconds
        while epoch < 3 or perf_counter() < stop:
            # Deltas are drawn before the clock: "in hand" is when timing starts.
            delta = random_delta(
                graph, derive(seed, "perfbench", "delta", epoch),
                weight_updates=1 + epoch % 2, edge_adds=0, edge_drops=0,
            )
            batch = pool[batches % CHURN_POOL]
            with ctx.tracer.span("bench.epoch", rid=epoch):
                t0 = perf_counter()
                with ctx.timed("patch.patch", rid=epoch):
                    patched = patch_arrays(arrays, graph, delta, ported=ported)
                with ctx.timed("engine.compile", rid=epoch):
                    compiled = compile_from_arrays(patched.arrays, patched.ported)
                with ctx.timed("store.publish_patch", rid=epoch):
                    key = scheme.store.publish_patch(
                        parent_key, patched.graph, patched.ported, patched.arrays,
                        delta=delta, seed=seed, compiled=compiled, max_versions=2,
                    )
                compiled = None
                with ctx.timed("serve.reload", rid=epoch):
                    service.reload()
                with ctx.timed("route.first_batch_after_swap", rid=epoch):
                    result = service.route(batch)
                visible.append(perf_counter() - t0)
            check(
                service.version == epoch + 1 and service.meta.get("key") == key,
                f"epoch {epoch}: batch answered by version {service.version}, "
                f"not the one just published ({epoch + 1})",
            )
            check(bool(result.delivered.all()), f"epoch {epoch}: a pair was not delivered")
            batches += 1
            for _ in range(CHURN_WARM):
                with ctx.timed("route.batch", rid=epoch):
                    warm = service.route(pool[batches % CHURN_POOL])
                check(bool(warm.delivered.all()), f"epoch {epoch}: a pair was not delivered")
                batches += 1
            with ctx.tracer.span("bench.check"):
                sample = uniform_sample(
                    patched.graph.n, seed, epoch, sources=CHURN_STRETCH_SOURCES
                )
                stretch.append(
                    check_stretch(ctx, patched.graph, sample, service.route(sample))
                )
            patch_stats.append(patched.stats)
            graph, ported, arrays = patched.graph, patched.ported, patched.arrays
            parent_key = key
            epoch += 1

    if ctx.tracer.enabled:

        def one_route(i):
            with ctx.tracer.span("route.batch", rid=-1 - i):
                service.route(pool[i % CHURN_POOL])

        _trace_overhead(ctx, one_route, 32)

    for name in ("dirty_clusters", "entries_rebuilt", "entries_reused"):
        ctx.layer[f"patch.{name}"] = float(np.median([s[name] for s in patch_stats]))
    ctx.layer["route.hops_mean"] = float(warm.hops.mean())
    vis_ms = percentiles(np.asarray(visible) * 1e3, qs=(50,))
    ctx.report["workload_metrics"] = {
        "update_visible_p50_s": (vis_ms["p50"] / 1e3, "s", vis_ms["count"]),
        "route_pairs_per_s": (CHURN_BATCH / ctx.median("route.batch"), "1/s"),
        "versions_published": (epoch, "count"),
    }
    e2e = _common_e2e(ctx, setup_s, np.concatenate(stretch), vis_ms["p50"])
    return e2e, epoch, 0


WORKLOADS = {"serve-bulk": serve_bulk, "churn": churn}
