"""Churn sweeps: maintain one scheme while the graph mutates under it.

Where :mod:`repro.scenarios.lab` measures a *static* scheme against
failures at route time, this module measures the **maintenance loop**:
every epoch a random :class:`~repro.graphs.GraphDelta` lands on the
graph and the runner must produce the scheme of the mutated graph —
either by :func:`~repro.core.build.patch.patch_arrays` (rebuild only
the dirty clusters, splice the rest) or by a full rebuild — before the
next traffic batch arrives.  Each epoch records both sides of the
trade: the update cost (wall time, dirty-cluster count, fraction of
entries actually rebuilt) and the routing quality of the refreshed
scheme (delivery, stretch against exact distances on the *mutated*
graph).

With a :class:`~repro.store.SchemeStore` the loop also exercises the
full versioned-serving path: epoch 0 publishes the root version,
every later epoch publishes a patch into the same lineage, and traffic
is answered by a :class:`~repro.store.RouteService` following the
lineage's ``.current`` pointer — so each epoch's batch is served off a
hot-swapped mmap, exactly as a long-running server would see it.

Determinism contract: same as the lab — everything derives from
``seed`` via :func:`repro.rng.derive` with fixed tags (``"churn"``
plus the epoch index), so a churn run is exactly re-derivable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.build import build_arrays, patch_arrays
from ..errors import GraphError, PreprocessingError
from ..graphs.delta import GraphDelta, apply_delta
from ..graphs.graph import Graph
from ..graphs.ports import assign_ports
from ..obs import TELEMETRY
from ..rng import derive
from ..sim.runner import _stretch_values, pair_true_distances
from ..sim.stats import stretch_stats
from ..sim.workloads import make_workload

__all__ = ["ChurnEpoch", "ChurnResult", "random_delta", "run_churn"]

POLICIES = ("auto", "patch", "rebuild")


def random_delta(
    graph: Graph,
    rng: np.random.Generator,
    *,
    weight_updates: int = 2,
    edge_adds: int = 1,
    edge_drops: int = 1,
    node_drops: int = 0,
    max_weight: int = 16,
    retries: int = 16,
) -> GraphDelta:
    """Draw a random connectivity-preserving delta for ``graph``.

    Candidate mutations are sampled (integer weights keep the result on
    the float64-exact contract the patch builder requires) and checked
    by actually applying them; a candidate that disconnects the graph
    is rejected and redrawn with the destructive parts halved, so the
    function always returns a delta whose application leaves the graph
    connected.  Raises :class:`~repro.errors.GraphError` only if even
    the pure-additive fallback fails, which cannot happen on a
    connected input.
    """
    drops_e, drops_n = int(edge_drops), int(node_drops)
    for _ in range(max(int(retries), 1)):
        delta = _draw_candidate(
            graph, rng, int(weight_updates), int(edge_adds), drops_e,
            drops_n, int(max_weight),
        )
        try:
            mutated, _ = apply_delta(graph, delta)
        except GraphError:
            continue
        if mutated.is_connected():
            return delta
        # Destructive candidates are the only way to disconnect; decay
        # them toward the always-safe additive-only delta.
        drops_e //= 2
        drops_n //= 2
    raise GraphError(
        "random_delta could not find a connectivity-preserving delta "
        f"after {retries} attempts"
    )


def _draw_candidate(
    graph: Graph,
    rng: np.random.Generator,
    weight_updates: int,
    edge_adds: int,
    edge_drops: int,
    node_drops: int,
    max_weight: int,
) -> GraphDelta:
    """One unchecked candidate delta (may disconnect; caller verifies)."""
    m, n = graph.m, graph.n
    used = set()

    w_upd = []
    for eid in _sample(rng, m, weight_updates):
        u, v = (int(x) for x in graph.edges[eid])
        used.add((u, v))
        old = float(graph.edge_weights[eid])
        w = float(rng.integers(1, max_weight + 1))
        if w == old:  # force an actual change
            w = old + 1.0
        w_upd.append((u, v, w))

    dropped = []
    for eid in _sample(rng, m, edge_drops):
        u, v = (int(x) for x in graph.edges[eid])
        if (u, v) in used:
            continue
        used.add((u, v))
        dropped.append((u, v))

    drop_nodes = tuple(int(x) for x in _sample(rng, n, node_drops))

    existing = {tuple(int(x) for x in e) for e in graph.edges}
    adds = []
    for _ in range(edge_adds * 4):
        if len(adds) >= edge_adds:
            break
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in existing or key in used:
            continue
        used.add(key)
        adds.append((*key, float(rng.integers(1, max_weight + 1))))

    return GraphDelta(
        weight_updates=tuple(w_upd),
        add_edges=tuple(adds),
        drop_edges=tuple(dropped),
        drop_nodes=drop_nodes,
    )


def _sample(rng: np.random.Generator, limit: int, count: int) -> np.ndarray:
    count = min(int(count), int(limit))
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(limit, size=count, replace=False).astype(np.int64)


@dataclass
class ChurnEpoch:
    """Measured outcome of one churn epoch (update + routing)."""

    epoch: int
    classes: List[str]
    method: str  #: ``"patch"`` or ``"rebuild"`` — what actually ran
    update_seconds: float
    n: int
    m: int
    dirty_clusters: int = 0
    clean_clusters: int = 0
    entries_rebuilt: int = 0
    entries_reused: int = 0
    delivery: float = 1.0
    mean_stretch: float = 1.0
    max_stretch: float = 1.0
    key: Optional[str] = None
    version: Optional[int] = None

    @property
    def reuse_fraction(self) -> float:
        """Fraction of scheme entries carried over unrebuilt."""
        total = self.entries_rebuilt + self.entries_reused
        return self.entries_reused / total if total else 0.0

    def row(self) -> Dict[str, object]:
        """One report-table row."""
        return {
            "epoch": self.epoch,
            "classes": "+".join(self.classes) if self.classes else "none",
            "method": self.method,
            "n": self.n,
            "m": self.m,
            "update_s": round(self.update_seconds, 4),
            "dirty": self.dirty_clusters,
            "reused": round(self.reuse_fraction, 4),
            "delivery": round(self.delivery, 4),
            "stretch_mean": round(self.mean_stretch, 4),
            "stretch_max": round(self.max_stretch, 4),
            "version": self.version,
        }

    def to_dict(self) -> Dict[str, object]:
        out = dict(self.row())
        out.update(
            classes=list(self.classes),
            entries_rebuilt=self.entries_rebuilt,
            entries_reused=self.entries_reused,
            clean_clusters=self.clean_clusters,
            key=self.key,
        )
        return out


@dataclass
class ChurnResult:
    """Full churn-run report: setup plus the per-epoch trajectory."""

    graph: str
    n0: int
    m0: int
    k: int
    seed: int
    policy: str
    pairs: int
    epochs: List[ChurnEpoch] = field(default_factory=list)
    build_seconds: float = 0.0
    lineage: Optional[str] = None

    @property
    def patched_epochs(self) -> int:
        return sum(1 for e in self.epochs if e.method == "patch")

    @property
    def mean_update_seconds(self) -> float:
        if not self.epochs:
            return 0.0
        return float(np.mean([e.update_seconds for e in self.epochs]))

    def rows(self) -> List[Dict[str, object]]:
        return [e.row() for e in self.epochs]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready report (kind ``tz-churn-report``)."""
        return {
            "kind": "tz-churn-report",
            "graph": self.graph,
            "n0": self.n0,
            "m0": self.m0,
            "k": self.k,
            "seed": self.seed,
            "policy": self.policy,
            "pairs": self.pairs,
            "build_seconds": round(self.build_seconds, 4),
            "patched_epochs": self.patched_epochs,
            "mean_update_seconds": round(self.mean_update_seconds, 6),
            "lineage": self.lineage,
            "epochs": [e.to_dict() for e in self.epochs],
        }


def run_churn(
    graph: Graph,
    *,
    k: int = 2,
    seed: int = 0,
    epochs: int = 4,
    pairs: int = 256,
    policy: str = "auto",
    store=None,
    workload: str = "uniform",
    graph_label: str = "graph",
    max_versions: Optional[int] = None,
    delta_params: Optional[Dict[str, int]] = None,
) -> ChurnResult:
    """Run ``epochs`` rounds of mutate → update scheme → route traffic.

    ``policy`` picks the maintenance strategy per epoch: ``"patch"``
    always patches (a delta the patch builder rejects raises),
    ``"rebuild"`` always rebuilds from scratch, ``"auto"`` tries the
    patch and falls back to a full rebuild when it raises
    :class:`~repro.errors.PreprocessingError`.  With ``store`` (a
    :class:`~repro.store.SchemeStore`) every version is published into
    one lineage and traffic is served through a hot-swapping
    :class:`~repro.store.RouteService` on the lineage pointer;
    without one, routing compiles the fresh arrays in memory.
    """
    if policy not in POLICIES:
        raise PreprocessingError(
            f"unknown churn policy {policy!r}; expected one of {POLICIES}"
        )
    graph = graph.largest_component()
    ported = assign_ports(graph, "sorted")

    t0 = time.perf_counter()
    arrays = build_arrays(
        graph, k, ported=ported, rng=derive(seed, "churn", "hierarchy")
    )
    build_seconds = time.perf_counter() - t0

    result = ChurnResult(
        graph=graph_label, n0=graph.n, m0=graph.m, k=k, seed=int(seed),
        policy=policy, pairs=int(pairs), build_seconds=build_seconds,
    )

    service = None
    parent_key = None
    if store is not None:
        parent_key = store.publish(graph, ported, arrays, seed=seed)
        result.lineage = parent_key
        from ..store import RouteService

        service = RouteService(store.pointer_path(parent_key))

    params = dict(delta_params or {})
    bound = float(4 * k - 5) if k > 1 else 1.0
    for epoch in range(int(epochs)):
        with TELEMETRY.span("churn.epoch", epoch=epoch, policy=policy):
            delta = random_delta(
                graph, derive(seed, "churn", "delta", epoch), **params
            )
            t0 = time.perf_counter()
            method, graph, ported, arrays, stats = _update(
                arrays, graph, delta, ported, policy,
                derive(seed, "churn", "rebuild", epoch),
            )
            update_seconds = time.perf_counter() - t0

            key = version = None
            if store is not None:
                key = store.publish_patch(
                    parent_key, graph, ported, arrays, delta=delta,
                    seed=seed, builder=method, max_versions=max_versions,
                )
                parent_key = key
                service.reload()
                version = service.version
                router = service
            else:
                from ..sim.engine.batch import BatchRouter
                from ..sim.engine.compile import compile_from_arrays

                router = BatchRouter.from_compiled(compile_from_arrays(arrays, ported))

            pair_arr = make_workload(
                graph, workload, pairs, derive(seed, "churn", "pairs", epoch)
            )
            batch = (
                router.route(pair_arr)
                if store is not None
                else router.route_pairs(pair_arr)
            )
            true_d = pair_true_distances(graph, pair_arr)
            st = stretch_stats(
                _stretch_values(batch.weight, true_d)[batch.delivered],
                delivered=batch.delivered_count,
                attempted=batch.attempted,
                bound=bound,
            )
            delivery = (
                batch.delivered_count / batch.attempted if batch.attempted else 1.0
            )

            result.epochs.append(
                ChurnEpoch(
                    epoch=epoch,
                    classes=list(delta.classes()),
                    method=method,
                    update_seconds=update_seconds,
                    n=graph.n,
                    m=graph.m,
                    dirty_clusters=int(stats.get("dirty_clusters", 0)),
                    clean_clusters=int(stats.get("clean_clusters", 0)),
                    entries_rebuilt=int(stats.get("entries_rebuilt", 0)),
                    entries_reused=int(stats.get("entries_reused", 0)),
                    delivery=delivery,
                    mean_stretch=st.mean,
                    max_stretch=st.max,
                    key=key,
                    version=version,
                )
            )
    return result


def _update(arrays, graph, delta, ported, policy, rebuild_rng):
    """Apply one delta per ``policy``; returns the new scheme state.

    Returns ``(method, graph', ported', arrays', stats)`` where
    ``stats`` is the patch-stats dict (empty for a full rebuild).
    """
    if policy in ("patch", "auto"):
        try:
            patched = patch_arrays(arrays, graph, delta, ported=ported)
            return (
                "patch", patched.graph, patched.ported, patched.arrays,
                dict(patched.stats),
            )
        except PreprocessingError:
            if policy == "patch":
                raise
            TELEMETRY.count("churn.patch_fallbacks")
    new_graph, _ = apply_delta(graph, delta)
    new_ported = assign_ports(new_graph, "sorted")
    new_arrays = build_arrays(new_graph, arrays.k, ported=new_ported, rng=rebuild_rng)
    return "rebuild", new_graph, new_ported, new_arrays, {}
