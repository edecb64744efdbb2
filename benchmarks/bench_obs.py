"""Telemetry overhead gate: disabled instrumentation must stay free.

The observability PR's acceptance gate, on the same 100k-pair route
setup as ``bench_batch_router``:

* **bit identity** — routing with telemetry enabled returns exactly the
  same result columns as routing with it disabled (instrumentation
  observes, never participates);
* **zero writes when disabled** — the noise-free half: a route with
  telemetry disabled creates no span and writes no counter, gauge or
  histogram, counted on the registry itself (and the same count reads
  non-zero when enabled, so the counting can fail);
* **overhead ≤ 2%** — the *enabled* route time may exceed the
  *disabled* route time by at most 2%, read as the median of
  :data:`SAMPLES` paired ratios.  Each sample times the two sides back
  to back, in alternating order, each over :data:`ROUTES_PER_SAMPLE`
  routes of 100k pairs, so drift slower than a sample cancels in its
  ratio.  The route runs as one row chunk and is timed in process CPU
  seconds (~28 ms a route on a 2-CPU x86-64 box), so time the box's
  other tenants take from it does not count: on that box best-of-15
  wall seconds on each side, the gate's first form, read 0.939–1.044
  over six runs of an unchanged tree, and paired wall-time ratios of
  the two-worker route spread ±5% per sample; paired CPU-time ratios of
  the one-chunk route spread ±1.5%, and their median passed 10 runs of
  10 and failed 10 of 10 with a 5% enabled-mode delay added to the
  route.
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
import time

import numpy as np
import pytest
from _emit import emit

from repro.core.scheme_k2 import build_stretch3_scheme
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro.obs import TELEMETRY, telemetry, write_trace
from repro.sim.engine import BatchRouter, batch
from repro.sim.workloads import uniform_pairs

OVERHEAD_CEILING = 1.02  # median enabled/disabled route-time ratio
N_PAIRS = 100_000
#: Paired ratios the median is taken over.
SAMPLES = 121
#: Routes of N_PAIRS timed per side per sample: one keeps the two sides
#: of a pair closest in time (medians of 121 one-route samples read
#: 1.004–1.010 over four runs, of 41 three-route samples 1.001–1.016).
ROUTES_PER_SAMPLE = 1


class _CountedDict(dict):
    """A metric dict that counts every write into it."""

    writes = 0

    def __setitem__(self, key, value):
        type(self).writes += 1
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        type(self).writes += 1
        return super().setdefault(key, default)


class _CountedList(list):
    """The registry's root-span list, counting every span attached."""

    def append(self, item):
        _CountedDict.writes += 1
        super().append(item)


def _registry_writes(monkeypatch, fn) -> int:
    """Spans created plus counter, gauge, histogram and root-span writes
    made on the process registry while ``fn()`` runs."""
    made = []

    class CountedSpan(telemetry.Span):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    _CountedDict.writes = 0
    monkeypatch.setattr(telemetry, "Span", CountedSpan)
    for name in ("counters", "gauges", "histograms"):
        monkeypatch.setattr(TELEMETRY, name, _CountedDict())
    monkeypatch.setattr(TELEMETRY, "roots", _CountedList())
    try:
        fn()
    finally:
        monkeypatch.undo()
    return len(made) + _CountedDict.writes


def paired_ratios(off, on, samples: int, routes: int) -> np.ndarray:
    """``samples`` ratios of ``on()`` over ``off()`` process CPU time,
    each side timed over ``routes`` calls back to back with the other,
    the side that goes first alternating from sample to sample."""
    ratios = np.empty(samples)
    for i in range(samples):
        seconds = {}
        for side, fn in ((("off", off), ("on", on)) if i % 2 == 0 else (("on", on), ("off", off))):
            t0 = time.process_time()
            for _ in range(routes):
                fn()
            seconds[side] = time.process_time() - t0
        ratios[i] = seconds["on"] / max(seconds["off"], 1e-9)
    return ratios


@pytest.fixture(scope="module")
def setup():
    n = 4000 if os.environ.get("REPRO_BENCH_SCALE") == "full" else 2000
    graph = gen.gnp(n, 10.0 / n, rng=2025, weights=(1, 8)).largest_component()
    ported = assign_ports(graph, "random", rng=7)
    scheme = build_stretch3_scheme(graph, ported, rng=11)
    pairs = uniform_pairs(graph, N_PAIRS, rng=3)
    router = BatchRouter(ported, scheme)
    return graph, router, pairs


def test_disabled_route_writes_nothing(setup, monkeypatch):
    _, router, pairs = setup
    TELEMETRY.disable()
    TELEMETRY.reset()
    try:
        assert _registry_writes(monkeypatch, lambda: router.route_pairs(pairs)) == 0
        TELEMETRY.enable()  # the count can fail: an enabled route writes
        assert _registry_writes(monkeypatch, lambda: router.route_pairs(pairs)) > 0
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()


def test_obs_overhead(setup, monkeypatch):
    graph, router, pairs = setup
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 1)  # one row chunk

    TELEMETRY.disable()
    TELEMETRY.reset()
    base = router.route_pairs(pairs)

    def route(enabled: bool) -> None:
        (TELEMETRY.enable if enabled else TELEMETRY.disable)()
        router.route_pairs(pairs)

    try:
        ratios = paired_ratios(
            lambda: route(False), lambda: route(True), SAMPLES, ROUTES_PER_SAMPLE
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

    ratio = float(np.median(ratios))
    q1, q3 = np.percentile(ratios, [25, 75])
    print(
        f"\ntelemetry overhead (n={graph.n}, m={graph.m}, "
        f"pairs={N_PAIRS:,}): median enabled/disabled ratio {ratio:.4f} "
        f"[{q1:.4f}, {q3:.4f}] over {SAMPLES} paired samples of "
        f"{ROUTES_PER_SAMPLE} routes (ceiling {OVERHEAD_CEILING}); "
        f"trace -> {trace_out}"
    )

    out = emit(
        "obs",
        params={
            "n": graph.n,
            "m": graph.m,
            "pairs": N_PAIRS,
            "samples": SAMPLES,
            "routes_per_sample": ROUTES_PER_SAMPLE,
        },
        metrics={
            "overhead_ratio": round(ratio, 4),
            "overhead_ratio_q1": round(float(q1), 4),
            "overhead_ratio_q3": round(float(q3), 4),
        },
        floors={"overhead_ratio_ceiling": OVERHEAD_CEILING},
    )
    print(f"wrote {out}")

    assert ratio <= OVERHEAD_CEILING, (
        f"enabled-telemetry route is {ratio:.3f}x the disabled time, "
        f"above the {OVERHEAD_CEILING}x ceiling"
    )
