"""Patch-based scheme maintenance vs full rebuild: update latency.

The acceptance gate of the incremental-maintenance PR: on a 20k-node
G(n, p) graph (k = 2) applying a single-edge weight delta (a bump on
a max-weight link) through :func:`repro.core.build.patch.patch_arrays`
must refresh the scheme **≥ 5×** faster than rebuilding it from
scratch with :func:`~repro.core.build.vectorized.vectorized_arrays`.
That ratio is the entire point of the subsystem: if patching is not
decisively cheaper than the (already heavily vectorized) full build,
churn maintenance would just rebuild.

Before any clock is trusted, the patched arrays are checked bit-exact
against the fresh rebuild, every :class:`SchemeArrays` column with its
dtype.  The store's ``serialize_digest`` (which ``tests/test_update.py``
keeps at small scale) is a function of those columns plus the shared
graph and ports, so column equality is the stronger check — and it
does not rebuild the dict world, which peaked near 5 GB RSS at this n.
One more patch, traced, reports where the patch's time went — its
``patch.classify``, ``patch.rebuild``, ``patch.splice`` and
``patch.assemble`` spans, ungated, beside the two timings.  Results land
in ``BENCH_update.json``.

``REPRO_BENCH_N`` overrides the vertex count for local iteration.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from _emit import emit
from conftest import best_of

from repro.core.build import SchemeArrays, build_arrays, patch_arrays
from repro.core.build.vectorized import vectorized_arrays
from repro.graphs import generators as gen
from repro.graphs.delta import GraphDelta
from repro.graphs.ports import assign_ports
from repro.obs import TELEMETRY

SPEEDUP_FLOOR = 5.0
N_DEFAULT = 20_000
K = 2
#: Edges whose weight the benchmark delta perturbs (the gate is about
#: single-edge churn; see ISSUE/ARCHITECTURE).
DELTA_EDGES = 1
#: The patch's phases, reported (ungated) from one traced run.
PHASES = ("classify", "rebuild", "splice", "assemble")


def traced_phases(patch) -> dict:
    """Seconds of each of :data:`PHASES` in one traced ``patch()``."""
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        patch()
        spans = {sp.name: sp.seconds for sp, _ in TELEMETRY.spans()}
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return {phase: spans[f"patch.{phase}"] for phase in PHASES}


@pytest.fixture(scope="module")
def setup():
    n = int(os.environ.get("REPRO_BENCH_N", N_DEFAULT))
    graph = gen.gnp(n, 10.0 / n, rng=2026, weights=(1, 8)).largest_component()
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, K, ported=ported, rng=11)
    # The canonical *local* churn event: a weight bump on already-heavy
    # links.  Max-weight edges almost never carry shortest paths, so the
    # delta stays local and the gate measures the patch machinery, not
    # the (legitimate, rebuild-proportional) cost of re-growing every
    # landmark tree a tight edge feeds — that regime is the churn
    # scenario's territory.  The pick is structural (by stored weight),
    # not tuned against the built scheme.
    heavy = [int(e) for e in np.flatnonzero(graph.edge_weights == graph.edge_weights.max())]
    delta = GraphDelta(
        weight_updates=tuple(
            (
                int(graph.edges[eid, 0]),
                int(graph.edges[eid, 1]),
                float(graph.edge_weights[eid] + 3.0),
            )
            for eid in heavy[:DELTA_EDGES]
        )
    )
    return graph, ported, arrays, delta


def test_patch_beats_full_rebuild(setup):
    graph, ported, arrays, delta = setup

    patched = patch_arrays(arrays, graph, delta, ported=ported)

    # Differential gate before any timing: the patch must be bit-exact
    # against a fresh vectorized build of the mutated graph.
    fresh = vectorized_arrays(patched.graph, patched.ported, patched.hierarchy)
    assert (patched.arrays.n, patched.arrays.k) == (fresh.n, fresh.k)
    for field in dataclasses.fields(SchemeArrays):
        if field.name in ("n", "k", "hierarchy"):
            continue
        got, want = getattr(patched.arrays, field.name), getattr(fresh, field.name)
        assert got.dtype == want.dtype and np.array_equal(got, want), field.name

    t_patch = best_of(
        lambda: patch_arrays(arrays, graph, delta, ported=ported), repeats=3
    )
    t_rebuild = best_of(
        lambda: vectorized_arrays(
            patched.graph, patched.ported, patched.hierarchy
        ),
        repeats=3,
    )
    speedup = t_rebuild / max(t_patch, 1e-9)
    phases = traced_phases(lambda: patch_arrays(arrays, graph, delta, ported=ported))

    stats = patched.stats
    reused = stats["entries_reused"] / max(
        stats["entries_reused"] + stats["entries_rebuilt"], 1
    )
    print(
        f"\nupdate @ n={graph.n} m={graph.m} k={K} "
        f"({DELTA_EDGES}-edge weight delta): "
        f"patch {t_patch * 1e3:.0f} ms vs rebuild {t_rebuild * 1e3:.0f} ms "
        f"-> {speedup:.1f}x (dirty {stats['dirty_clusters']}/{graph.n} "
        f"clusters, {reused:.1%} entries reused; traced patch: "
        + ", ".join(f"{phase} {phases[phase] * 1e3:.0f}" for phase in PHASES)
        + " ms)"
    )

    emit(
        "update",
        params={
            "n": int(graph.n),
            "m": int(graph.m),
            "k": K,
            "delta_edges": DELTA_EDGES,
        },
        metrics={
            "patch_seconds": t_patch,
            "rebuild_seconds": t_rebuild,
            **{f"{phase}_seconds": phases[phase] for phase in PHASES},
            "speedup": speedup,
            "dirty_clusters": int(stats["dirty_clusters"]),
            "entries_reused_fraction": reused,
        },
        floors={"speedup": SPEEDUP_FLOOR},
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"patch only {speedup:.1f}x faster than a full rebuild "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
