"""Scenario lab: multi-trial vectorized sweep vs per-trial reference.

The acceptance gate of the scenario-lab PR: a **32-trial** edge-failure
sweep (1k-node G(n, p), k = 2, 5k-pair uniform workload, 2% i.i.d. edge
death) through the vectorized resilience engine — scheme compiled once,
all trials advanced simultaneously by
:meth:`~repro.sim.engine.batch.BatchRouter.route_trials` — must be
**≥ 75×** faster on the native kernels (≥ 18× on the numpy fallback,
:data:`SPEEDUP_FLOOR`) than the per-trial reference path (one
:class:`~repro.sim.failures.FaultyNetwork` per trial, one Python hop
loop per pair), measured over the *full* 32 trials on both sides — no
extrapolation.

Before any clock is trusted, the two paths' (delivered, weight, hops)
matrices are compared bit-for-bit.  Results land in
``BENCH_scenarios.json`` (CI artifact, uploaded next to the router /
builder / store benches).

``REPRO_BENCH_N`` overrides the vertex count for local iteration.
"""

from __future__ import annotations

import os
import time

import numpy as np
from _emit import emit
from conftest import best_of

from repro.core.build import build_arrays
from repro.core.build.arrays import scheme_from_arrays
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro.rng import make_rng, sample_pairs
from repro.sim.engine.batch import BatchRouter
from repro.sim.engine.compile import compile_from_arrays
from repro.sim.failures import iid_edge_trials, survivability_sweep

#: Per kernel, about half the lowest of three readings (2-CPU x86-64
#: container): native 151×, 190× and 161×; numpy 40×, 37× and 43×.
SPEEDUP_FLOOR = {"native": 75.0, "numpy": 18.0}
N_DEFAULT = 1024
K = 2
TRIALS = 32
PAIRS = 5000
RATE = 0.02
SEED = 2026
VEC_ROUNDS = 3


def test_scenario_sweep_speedup():
    n = int(os.environ.get("REPRO_BENCH_N", N_DEFAULT))
    graph = gen.gnp(n, 10.0 / n, rng=SEED, weights=(1, 8)).largest_component()
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, K, ported=ported, rng=SEED)
    compiled = compile_from_arrays(arrays, ported)
    scheme = scheme_from_arrays(graph, ported, arrays)
    pairs = sample_pairs(make_rng(3), graph.n, PAIRS)
    masks = iid_edge_trials(graph, TRIALS, rate=RATE, rng=4)
    router = BatchRouter.from_compiled(compiled, ported)

    # -- no clock is trusted before the answers match bit-for-bit -------
    fast = survivability_sweep(ported, None, masks, pairs, router=router)
    slow = survivability_sweep(
        ported, scheme, masks, pairs, engine="reference"
    )
    for name in ("delivered", "weight", "hops", "connected"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name

    # -- the vectorized sweep: all trials as one array program ----------
    t_vec = best_of(
        lambda: survivability_sweep(ported, None, masks, pairs, router=router),
        repeats=VEC_ROUNDS,
    )

    # -- the per-trial reference path, full 32 trials (no extrapolation)
    t0 = time.perf_counter()
    survivability_sweep(ported, scheme, masks, pairs, engine="reference")
    t_ref = time.perf_counter() - t0

    speedup = t_ref / max(t_vec, 1e-9)
    floor = SPEEDUP_FLOOR[router.kernel]
    rate = TRIALS * PAIRS / max(t_vec, 1e-9)
    print(
        f"\nscenario sweep (n={graph.n}, m={graph.m}, k={K}, "
        f"{TRIALS} trials x {PAIRS} pairs, iid rate {RATE}): "
        f"vectorized {t_vec:.3f}s ({rate:,.0f} trial-pairs/s); "
        f"per-trial reference {t_ref:.2f}s; speedup {speedup:.0f}x "
        f"(mean delivery {fast.delivery_rates.mean():.3f}, {router.kernel} kernel)"
    )

    out = emit(
        "scenarios",
        params={
            "n": graph.n,
            "m": graph.m,
            "k": K,
            "trials": TRIALS,
            "pairs": PAIRS,
            "iid_rate": RATE,
            "kernel": router.kernel,
        },
        metrics={
            "vectorized_seconds": round(t_vec, 4),
            "reference_seconds": round(t_ref, 3),
            "trial_pairs_per_second": round(rate),
            "speedup": round(speedup, 1),
            "mean_delivery_rate": round(float(fast.delivery_rates.mean()), 4),
        },
        floors={"speedup": floor},
    )
    print(f"wrote {out}")

    assert speedup >= floor, (
        f"scenario sweep speedup {speedup:.1f}x below the "
        f"{floor}x {router.kernel} floor"
    )
