"""Run declarative resilience scenarios end-to-end, vectorized.

One :func:`run_scenario` call takes a
:class:`~repro.scenarios.spec.ScenarioSpec` through the whole stack:
generate the graph family, build (or fetch from a
:class:`~repro.store.SchemeStore` — the scheme is a pure function of
``(graph, k, seed, ports)``, so a warm store turns the build step into
an mmap) the scheme, compile it once, draw the workload and the
``(trials, m)`` dead-edge matrix from the named failure model, and
sweep every trial simultaneously through
:func:`~repro.sim.failures.survivability_sweep`.

Determinism contract: everything derives from ``spec.seed`` via
:func:`repro.rng.derive` with fixed tags, so the same spec always
reproduces the same graph, ports, scheme, pairs, failure sets and
therefore the same delivery numbers — whether the scheme came from the
store or a fresh build, and whichever engine routes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..analysis.experiments import reference_graph
from ..core.build import build_arrays
from ..graphs.graph import Graph
from ..graphs.ports import assign_ports
from ..rng import derive
from ..sim.engine.compile import compile_from_arrays
from ..sim.failures import failure_trials, survivability_sweep
from ..sim.workloads import make_workload
from .spec import ScenarioSpec


def default_failure_params(graph: Graph, model: str) -> Dict[str, float]:
    """Graph-scaled default parameters of each failure model.

    Used when a spec carries no explicit ``failure_params``: 2% i.i.d.
    edge death, one ball of radius the median edge weight (the
    epicenter's immediate neighborhood — keep outages local), ~2% of
    vertices down, churn up to 10% of edges.
    """
    if model == "iid-edges":
        return {"rate": 0.02}
    if model == "geo-ball":
        med = float(np.median(graph.edge_weights)) if graph.m else 1.0
        return {"radius": med}
    if model == "node-down":
        return {"f": max(1, graph.n // 50)}
    if model == "churn":
        return {"f_final": max(1, graph.m // 10)}
    return {}


@dataclass
class ScenarioResult:
    """Measured outcome of one scenario (spec + per-trial numbers)."""

    spec: ScenarioSpec
    n: int
    m: int
    delivery_rates: List[float]
    connected_fraction: float
    engine: str
    store_hit: Optional[bool] = None
    build_seconds: float = 0.0
    sweep_seconds: float = 0.0
    failure_params: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_delivery(self) -> float:
        """Mean per-trial delivery rate among still-connected pairs."""
        return float(np.mean(self.delivery_rates)) if self.delivery_rates else 1.0

    @property
    def min_delivery(self) -> float:
        """Worst trial's delivery rate (the tail the sweep is for)."""
        return float(np.min(self.delivery_rates)) if self.delivery_rates else 1.0

    def row(self) -> Dict[str, object]:
        """One report-table row (consumed by the reporting layer)."""
        return {
            "scenario": self.spec.name,
            "graph": self.spec.graph,
            "n": self.n,
            "m": self.m,
            "k": self.spec.k,
            "workload": self.spec.workload,
            "failures": self.spec.failure_model,
            "trials": self.spec.trials,
            "delivery_mean": round(self.mean_delivery, 4),
            "delivery_min": round(self.min_delivery, 4),
            "connected": round(self.connected_fraction, 4),
            "engine": self.engine,
            "sweep_s": round(self.sweep_seconds, 3),
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict: the spec plus every measured field."""
        return {
            "spec": self.spec.to_dict(),
            "name": self.spec.name,
            "n": self.n,
            "m": self.m,
            "delivery_rates": [float(r) for r in self.delivery_rates],
            "delivery_mean": self.mean_delivery,
            "delivery_min": self.min_delivery,
            "connected_fraction": self.connected_fraction,
            "engine": self.engine,
            "store_hit": self.store_hit,
            "build_seconds": round(self.build_seconds, 4),
            "sweep_seconds": round(self.sweep_seconds, 4),
            "failure_params": self.failure_params,
        }


def run_scenario(spec: ScenarioSpec, *, store=None, _cache=None) -> ScenarioResult:
    """Run one scenario end-to-end (see module docstring).

    ``store`` is an optional :class:`~repro.store.SchemeStore`; when
    given, the scheme comes from ``get_or_build`` (bit-identical to a
    fresh build, file-backed either way), so repeated sweeps over the
    same ``(graph, k, seed)`` pay construction once across runs *and*
    processes.  ``_cache`` is the per-sweep memo :func:`run_scenarios`
    threads through: grid cells that differ only in workload/failure
    model share one graph, port assignment and scheme build (the spec
    dimensions those depend on are exactly ``(graph, n, k, seed)``).
    """
    graph_key = ("graph", spec.graph, spec.n, spec.seed)
    if _cache is not None and graph_key in _cache:
        graph, ported = _cache[graph_key]
    else:
        graph = reference_graph(spec.graph, spec.n, spec.seed).largest_component()
        ported = assign_ports(
            graph,
            "random",
            rng=derive(spec.seed, "scenario-ports", spec.graph, spec.n),
        )
        if _cache is not None:
            _cache[graph_key] = (graph, ported)

    t0 = time.perf_counter()
    store_hit: Optional[bool] = None
    scheme_key = ("scheme", spec.graph, spec.n, spec.k, spec.seed)
    if store is not None:
        store_hit = store.key_for(graph, spec.k, spec.seed, ported) in store
        stored = store.get_or_build(graph, spec.k, spec.seed, ported=ported)
        arrays, compiled = stored.arrays, stored.compiled
    elif _cache is not None and scheme_key in _cache:
        arrays, compiled = _cache[scheme_key]
    else:
        arrays = build_arrays(graph, spec.k, ported=ported, rng=spec.seed)
        compiled = compile_from_arrays(arrays, ported)
        if _cache is not None:
            _cache[scheme_key] = (arrays, compiled)
    if spec.handshake:
        compiled = compiled.with_handshake()
    build_seconds = time.perf_counter() - t0

    pairs = make_workload(
        graph,
        spec.workload,
        spec.pairs,
        derive(spec.seed, "scenario-pairs", spec.workload),
    )
    params = spec.params or default_failure_params(graph, spec.failure_model)
    masks = failure_trials(
        graph,
        spec.failure_model,
        spec.trials,
        rng=derive(spec.seed, "scenario-failures", spec.failure_model),
        **params,
    )

    t0 = time.perf_counter()
    if spec.engine == "reference":
        from ..core.build.arrays import scheme_from_arrays

        scheme = scheme_from_arrays(graph, ported, arrays)
        if spec.handshake:
            from ..core.handshake import HandshakeRoutingScheme

            scheme = HandshakeRoutingScheme(scheme)
        sweep = survivability_sweep(
            ported, scheme, masks, pairs, engine="reference"
        )
    else:
        from ..sim.engine.batch import BatchRouter

        router = BatchRouter.from_compiled(compiled, ported)
        sweep = survivability_sweep(
            ported, None, masks, pairs, engine=spec.engine, router=router
        )
    sweep_seconds = time.perf_counter() - t0

    return ScenarioResult(
        spec=spec,
        n=graph.n,
        m=graph.m,
        delivery_rates=[float(r) for r in sweep.delivery_rates],
        connected_fraction=(
            float(sweep.connected.mean()) if sweep.connected.size else 1.0
        ),
        engine=sweep.engine,
        store_hit=store_hit,
        build_seconds=build_seconds,
        sweep_seconds=sweep_seconds,
        failure_params=dict(params),
    )


def run_scenarios(
    specs: Iterable[ScenarioSpec], *, store=None, progress=None
) -> List[ScenarioResult]:
    """Run a list of scenarios in order; optional ``progress(spec)`` hook.

    Grid cells that share ``(graph, n, k, seed)`` — e.g. the same graph
    swept over several workloads and failure models — reuse one graph,
    port assignment and scheme build through a sweep-local memo (results
    are bit-identical to building per cell; the build is a pure
    function of those dimensions).
    """
    cache: Dict[tuple, object] = {}
    results = []
    for spec in specs:
        if progress is not None:
            progress(spec)
        results.append(run_scenario(spec, store=store, _cache=cache))
    return results
