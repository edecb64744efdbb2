"""Batch routing engine vs the hop-by-hop loop: pair throughput.

The acceptance gate of the engine PR: on a 2k-node G(n, p) graph with a
100k-pair uniform traffic matrix, the vectorized
:class:`~repro.sim.engine.BatchRouter` must route **≥ 20×** more pairs
per second than the reference :class:`~repro.sim.network.Network` hop
loop (the reference rate is measured on a subset and extrapolated — at
hop-loop speed the full matrix would take minutes).  The floor is per
kernel (:data:`SPEEDUP_FLOOR`): **≥ 100×** on the native kernels the
platform picks when they load, ≥ 20× on the numpy fallback.  Both engines are
cross-checked for bit-for-bit agreement on the subset before any clock
is trusted, and the measured numbers land in ``BENCH_router.json`` (the
CI artifact that tracks router throughput across commits).

``REPRO_BENCH_SCALE=full`` raises n; runs in tens of seconds otherwise.
"""

from __future__ import annotations

import os
import time

import pytest
from _emit import emit
from conftest import best_of

from repro.core.scheme_k2 import build_stretch3_scheme
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro.sim.engine import BatchRouter
from repro.sim.network import Network
from repro.sim.workloads import uniform_pairs

#: Per kernel (2-CPU x86-64 container, three readings each): native
#: read 202.7×, 219.0× and 225.2×, and its floor keeps about half of the
#: lowest; the numpy fallback read 39.9×, 26.7× and 33.6× and keeps the
#: 20× floor both kernels shared before.
SPEEDUP_FLOOR = {"native": 100.0, "numpy": 20.0}
N_PAIRS = 100_000
REF_SAMPLE = 2_000  # hop-loop pairs actually routed (rate extrapolates)


@pytest.fixture(scope="module")
def setup():
    n = 4000 if os.environ.get("REPRO_BENCH_SCALE") == "full" else 2000
    graph = gen.gnp(n, 10.0 / n, rng=2025, weights=(1, 8)).largest_component()
    ported = assign_ports(graph, "random", rng=7)
    scheme = build_stretch3_scheme(graph, ported, rng=11)
    pairs = uniform_pairs(graph, N_PAIRS, rng=3)
    return graph, ported, scheme, pairs


def test_batch_router_throughput(setup):
    graph, ported, scheme, pairs = setup

    # Compile outside the timed region: it is preprocessing, paid once
    # per scheme (the hop loop pays nothing comparable, which is fair —
    # serving amortizes the compile over every matrix routed).
    t0 = time.perf_counter()
    router = BatchRouter(ported, scheme)
    t_compile = time.perf_counter() - t0

    t_batch = best_of(lambda: router.route_pairs(pairs), repeats=3)
    batch = router.route_pairs(pairs)
    assert batch.delivered.all(), "stretch-3 scheme must deliver every pair"
    batch_pps = N_PAIRS / t_batch

    subset = pairs[:REF_SAMPLE]
    net = Network(ported, scheme)
    ref = [net.route(int(s), int(t)) for s, t in subset]
    t_ref = best_of(
        lambda: [net.route(int(s), int(t)) for s, t in subset], repeats=2
    )
    ref_pps = REF_SAMPLE / t_ref

    # Cross-check before trusting the clock: bit-for-bit on the subset.
    for i, res in enumerate(ref):
        assert bool(batch.delivered[i]) == res.delivered
        assert float(batch.weight[i]) == res.weight
        assert int(batch.hops[i]) == res.hops

    speedup = batch_pps / ref_pps
    floor = SPEEDUP_FLOOR[router.kernel]
    print(
        f"\nbatch router (n={graph.n}, m={graph.m}, pairs={N_PAIRS:,}): "
        f"compile {t_compile:.2f}s, route {t_batch:.2f}s "
        f"({batch_pps:,.0f} pairs/s); hop loop {ref_pps:,.0f} pairs/s "
        f"(measured on {REF_SAMPLE:,}); speedup {speedup:.1f}x "
        f"({router.kernel} kernel)"
    )

    out = emit(
        "router",
        params={
            "n": graph.n,
            "m": graph.m,
            "pairs": N_PAIRS,
            "reference_sample": REF_SAMPLE,
            "kernel": router.kernel,
        },
        metrics={
            "engine_compile_seconds": round(t_compile, 3),
            "engine_route_seconds": round(t_batch, 3),
            "engine_pairs_per_second": round(batch_pps, 1),
            "reference_pairs_per_second": round(ref_pps, 1),
            "speedup": round(speedup, 1),
            "max_hops": int(batch.hops.max()),
            "avg_hops": round(float(batch.hops.mean()), 2),
        },
        floors={"speedup": floor},
    )
    print(f"wrote {out}")

    assert speedup >= floor, (
        f"batch-router speedup {speedup:.1f}x below the {floor}x "
        f"{router.kernel} floor"
    )
