"""Backend frontier: every registered backend completes, TZ stays fast.

The smoke gate of the backend-protocol PR: one small ``repro frontier``
grid (two families, k ∈ {2, 3}) must build and query **every**
registered backend — the protocol's promise is that new structures ride
the same sweep, so a backend that cannot finish the smoke grid is a
regression, not a configuration issue.  On top, the TZ scheme backend's
batch-engine query path must hold a throughput floor: routing answers
through :class:`~repro.sim.engine.batch.BatchRouter` is the whole point
of the adapter, and a silent fall-off to per-pair speed would hide
behind a passing correctness suite.

Results land in ``BENCH_frontier.json`` (CI artifact, uploaded next to
the router / builder / store / scenario benches).

``REPRO_BENCH_N`` overrides the vertex count for local iteration.
"""

from __future__ import annotations

import os

from _emit import emit

from repro.analysis.experiments import reference_graph
from repro.backends import backend_names
from repro.backends.frontier import run_frontier
from repro.kernels import resolve_kernel

#: Per kernel, about half the lowest of three readings (pairs/s, 2-CPU
#: x86-64 container): native 1,454,249, 1,443,594 and 1,559,490; numpy
#: 164,511, 245,663 and 162,534.  A fall to per-pair speed fails by far.
TZ_PAIRS_PER_SECOND_FLOOR = {"native": 750_000.0, "numpy": 80_000.0}
N_DEFAULT = 400
FAMILIES = ("gnp", "grid")
KS = (2, 3)
PAIRS = 1500
SEED = 2026


def test_frontier_smoke_all_backends_and_tz_floor():
    n = int(os.environ.get("REPRO_BENCH_N", N_DEFAULT))
    graphs = [
        (family, reference_graph(family, n, SEED).largest_component())
        for family in FAMILIES
    ]
    points = run_frontier(graphs, ks=KS, seed=SEED, n_pairs=PAIRS)

    # -- completeness: every registered backend finished every graph ----
    expected = set(backend_names())
    for family, graph in graphs:
        on_graph = {p.backend for p in points if p.family == family}
        assert on_graph == expected, (family, expected - on_graph)
    for p in points:
        assert p.size_bits > 0 and p.stretch_max >= 1.0 - 1e-9, p.row()

    # -- the scheme backend's throughput floor --------------------------
    tz = [p for p in points if p.backend == "tz"]
    tz_rate = min(p.pairs_per_second for p in tz)
    kernel = resolve_kernel("auto")
    floor = TZ_PAIRS_PER_SECOND_FLOOR[kernel]
    print(
        f"\nfrontier smoke ({len(points)} points over "
        f"{'/'.join(f for f, _ in graphs)} at n~{n}, k in {list(KS)}, "
        f"{PAIRS} pairs): tz min throughput {tz_rate:,.0f} pairs/s "
        f"({kernel} kernel, floor {floor:,.0f}); "
        f"{sum(1 for p in points if p.pareto)} Pareto points"
    )
    assert tz_rate >= floor, (
        f"tz backend throughput {tz_rate:,.0f} pairs/s is below the "
        f"{floor:,.0f} {kernel} floor — the adapter is no longer routing "
        "through the batch engine"
    )

    out = emit(
        "frontier",
        params={
            "n": n,
            "families": list(FAMILIES),
            "ks": list(KS),
            "pairs": PAIRS,
            "backends": sorted(expected),
            "kernel": kernel,
        },
        metrics={
            "tz_min_pairs_per_second": round(tz_rate),
            "points": [p.to_dict() for p in points],
        },
        floors={"tz_pairs_per_second": floor},
    )
    print(f"wrote {out}")
