"""Drive many routed pairs through a scheme and summarize the outcome.

Two execution engines serve every entry point here:

* ``"batch"`` — the vectorized :class:`~repro.sim.engine.BatchRouter`:
  the scheme is compiled to dense arrays once and the whole pair set
  advances one synchronized hop per numpy step.  This is the default for
  every compiled TZ scheme and what makes 10⁵–10⁶-pair traffic matrices
  routine.
* ``"reference"`` — the hop-by-hop :class:`~repro.sim.network.Network`,
  the adversarial ground truth.  It is the only engine that can drive
  arbitrary (including pathological test) schemes, and the batch engine
  is required to agree with it bit-for-bit on delivered/weight/hops.

``engine="auto"`` picks the batch engine whenever the scheme compiles
(see :meth:`~repro.core.router.RoutingScheme.compile_batch`) and falls
back to the reference simulator otherwise.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.router import RoutingScheme
from ..errors import DeliveryError
from ..graphs.graph import Graph
from ..graphs.ports import PortedGraph
from ..rng import RngLike, make_rng, sample_pairs
from .network import Network, RouteResult
from .stats import StretchStats, stretch_stats

ENGINES = ("auto", "batch", "reference")


def pair_true_distances(
    graph: Graph,
    pairs: np.ndarray,
    true_dist: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact shortest-path distance of every ``(s, t)`` row of ``pairs``
    (inf for a pair in different components).

    With ``true_dist`` (a full all-pairs matrix, if the caller already
    has one) this is a gather.  Without it, distances come from
    :meth:`~repro.graphs.csr.CSRKernel.pair_distances`: one Dijkstra
    per *unique source*, stopped once its last requested target has
    settled — ``O(k·m log n)`` at most for ``k`` distinct sources
    instead of the ``O(n·m log n)`` full matrix.  Memory is
    O(pool workers · n + pairs) on the native kernel (no
    ``k × n`` matrix, no predecessors), which keeps the stretch check
    of a sampled pair set within reach at n = 10⁶; the numpy reference
    takes scipy's distance rows in blocks of bounded size.
    """
    pair_arr = np.asarray(pairs, dtype=np.int64)
    if pair_arr.size == 0:
        return np.zeros(0)
    if true_dist is not None:
        return np.asarray(true_dist)[pair_arr[:, 0], pair_arr[:, 1]].astype(
            np.float64
        )
    return graph.csr().pair_distances(pair_arr[:, 0], pair_arr[:, 1])


def _resolve_engine(scheme: RoutingScheme, ported: PortedGraph, engine: str):
    """Returns a compiled :class:`BatchRouter` or ``None`` (reference)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; use one of {ENGINES}")
    if engine == "reference":
        return None
    from .engine import BatchRouter

    compiled = scheme.compile_batch(ported)
    if compiled is None:
        if engine == "batch":
            from ..errors import RoutingError

            raise RoutingError(
                f"scheme {scheme.name!r} has no batch form; use "
                'engine="reference"'
            )
        return None
    return BatchRouter(ported, scheme)


def _stretch_values(
    weights: np.ndarray, true_d: np.ndarray
) -> np.ndarray:
    """Per-pair stretch with the 0-distance convention (stretch 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(true_d > 0, weights / np.maximum(true_d, 1e-300), 1.0)


def _route_batch_checked(router, pair_arr, *, strict, ttl=None):
    """Route through the batch engine, enforcing strict delivery."""
    batch = router.route_pairs(pair_arr, ttl=ttl)
    if strict and not batch.delivered.all():
        bad = int(np.flatnonzero(~batch.delivered)[0])
        raise DeliveryError(
            f"pair ({batch.source[bad]},{batch.dest[bad]}) undelivered: "
            f"{batch.failure(bad)}"
        )
    return batch


def run_pairs(
    ported: PortedGraph,
    scheme: RoutingScheme,
    pairs: np.ndarray,
    *,
    true_dist: Optional[np.ndarray] = None,
    strict: bool = True,
    engine: str = "auto",
    ttl: Optional[int] = None,
) -> Tuple[List[RouteResult], List[float]]:
    """Route every ``(s, t)`` pair; returns results and per-pair stretch.

    ``true_dist`` is an optional all-pairs distance matrix; without it,
    true distances come from a batched Dijkstra over the pair set's
    unique sources (see :func:`pair_true_distances`).  With
    ``strict=True`` a routing failure raises — experiments must not
    silently drop undeliverable pairs (coverage principle); property
    tests that *expect* failures pass ``strict=False``.  ``engine``
    selects the execution path (module docstring); ``ttl`` caps the hop
    budget per message (default ``4·n + 16``, as in the simulator).
    """
    graph = ported.graph
    pair_arr = np.asarray(pairs, dtype=np.int64)
    router = _resolve_engine(scheme, ported, engine)
    if router is not None:
        batch = _route_batch_checked(router, pair_arr, strict=strict, ttl=ttl)
        true_d = pair_true_distances(graph, pair_arr, true_dist)
        values = _stretch_values(batch.weight, true_d)
        stretches = [float(v) for v in values[batch.delivered]]
        return batch.to_route_results(), stretches

    true_d = pair_true_distances(graph, pair_arr, true_dist)
    net = Network(ported, scheme)
    results: List[RouteResult] = []
    stretches: List[float] = []
    for i, (s, t) in enumerate(pair_arr):
        s, t = int(s), int(t)
        res = net.route(s, t, ttl=ttl, strict=strict)
        results.append(res)
        if res.delivered:
            d = float(true_d[i])
            if d <= 0:
                stretches.append(1.0)
            else:
                stretches.append(res.weight / d)
        elif strict:
            raise DeliveryError(f"pair ({s},{t}) undelivered: {res.failure}")
    return results, stretches


def measure_scheme(
    ported: PortedGraph,
    scheme: RoutingScheme,
    *,
    pairs: Optional[np.ndarray] = None,
    n_pairs: int = 500,
    rng: RngLike = None,
    true_dist: Optional[np.ndarray] = None,
    strict: bool = True,
    engine: str = "auto",
) -> StretchStats:
    """Sample pairs (or use the given ones) and return stretch statistics
    checked against the scheme's proven bound.

    On the batch engine the whole measurement stays columnar (no
    per-pair Python objects), so six-figure samples are routine; the
    summary includes hop-count percentiles either way.
    """
    gen = make_rng(rng)
    n = ported.n
    if pairs is None:
        pairs = sample_pairs(gen, n, n_pairs)
    pair_arr = np.asarray(pairs, dtype=np.int64)

    router = _resolve_engine(scheme, ported, engine)
    if router is not None:
        batch = _route_batch_checked(router, pair_arr, strict=strict)
        true_d = pair_true_distances(ported.graph, pair_arr, true_dist)
        values = _stretch_values(batch.weight, true_d)
        return stretch_stats(
            values[batch.delivered],
            delivered=batch.delivered_count,
            attempted=batch.attempted,
            bound=scheme.stretch_bound(),
            hops=batch.hops[batch.delivered],
        )

    results, stretches = run_pairs(
        ported,
        scheme,
        pair_arr,
        true_dist=true_dist,
        strict=strict,
        engine="reference",
    )
    delivered = sum(1 for r in results if r.delivered)
    return stretch_stats(
        stretches,
        delivered=delivered,
        attempted=len(results),
        bound=scheme.stretch_bound(),
        hops=[r.hops for r in results if r.delivered],
    )
