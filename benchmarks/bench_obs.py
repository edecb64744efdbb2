"""Telemetry overhead gate: disabled instrumentation must stay free.

The observability PR's acceptance gate, on the same 100k-pair route
setup as ``bench_batch_router``:

* **bit identity** — routing with telemetry enabled returns exactly the
  same result columns as routing with it disabled (instrumentation
  observes, never participates);
* **overhead ≤ 2%** — the *enabled* route time may exceed the
  *disabled* route time by at most 2% (best-of-N on both sides,
  alternated so both see the same drift: the native route of 100k
  pairs takes ~12 ms on two threads, where back-to-back blocks of five
  repeats read anywhere from 0.93× to 1.06×).
  Disabled mode does strictly less work than enabled mode (one
  attribute check vs attribute check + span/counter bookkeeping), so
  this single ratio also bounds the disabled-mode overhead the
  instrumented hot paths add.

The run also exports ``obs_trace.jsonl`` — the JSON-lines span trace of
one fully instrumented route — which CI uploads next to the
``BENCH_*.json`` artifacts, and ``BENCH_obs.json`` via the shared
emitter.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from _emit import emit
from conftest import best_of_interleaved

from repro.core.scheme_k2 import build_stretch3_scheme
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro.obs import TELEMETRY, write_trace
from repro.sim.engine import BatchRouter
from repro.sim.workloads import uniform_pairs

OVERHEAD_CEILING = 1.02  # enabled/disabled route-time ratio
N_PAIRS = 100_000
REPEATS = 15


@pytest.fixture(scope="module")
def setup():
    n = 4000 if os.environ.get("REPRO_BENCH_SCALE") == "full" else 2000
    graph = gen.gnp(n, 10.0 / n, rng=2025, weights=(1, 8)).largest_component()
    ported = assign_ports(graph, "random", rng=7)
    scheme = build_stretch3_scheme(graph, ported, rng=11)
    pairs = uniform_pairs(graph, N_PAIRS, rng=3)
    router = BatchRouter(ported, scheme)
    return graph, router, pairs


def test_obs_overhead(setup):
    graph, router, pairs = setup

    TELEMETRY.disable()
    TELEMETRY.reset()
    base = router.route_pairs(pairs)

    def route(enabled: bool) -> None:
        (TELEMETRY.enable if enabled else TELEMETRY.disable)()
        router.route_pairs(pairs)

    try:
        t_off, t_on = best_of_interleaved(
            lambda: route(False), lambda: route(True), repeats=REPEATS
        )
        TELEMETRY.reset()
        TELEMETRY.enable()
        instrumented = router.route_pairs(pairs)
        trace_out = os.environ.get("BENCH_OBS_TRACE", "obs_trace.jsonl")
        write_trace(trace_out)
        pops = TELEMETRY.counters.get("route.pairs_routed", 0)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()

    # Bit identity: telemetry observes the route, never participates.
    for name in (
        "source", "dest", "delivered", "weight", "hops", "tree",
        "max_header_bits", "failure_code",
    ):
        assert np.array_equal(
            getattr(base, name), getattr(instrumented, name)
        ), f"telemetry changed result column {name!r}"
    assert pops >= N_PAIRS  # the instrumented run actually recorded

    ratio = t_on / max(t_off, 1e-9)
    print(
        f"\ntelemetry overhead (n={graph.n}, m={graph.m}, "
        f"pairs={N_PAIRS:,}): disabled {t_off:.3f}s, enabled {t_on:.3f}s, "
        f"ratio {ratio:.4f} (ceiling {OVERHEAD_CEILING}); "
        f"trace -> {trace_out}"
    )

    out = emit(
        "obs",
        params={"n": graph.n, "m": graph.m, "pairs": N_PAIRS, "repeats": REPEATS},
        metrics={
            "disabled_route_seconds": round(t_off, 4),
            "enabled_route_seconds": round(t_on, 4),
            "overhead_ratio": round(ratio, 4),
        },
        floors={"overhead_ratio_ceiling": OVERHEAD_CEILING},
    )
    print(f"wrote {out}")

    assert ratio <= OVERHEAD_CEILING, (
        f"enabled-telemetry route is {ratio:.3f}x the disabled time, "
        f"above the {OVERHEAD_CEILING}x ceiling"
    )
