"""Edge-failure injection: what TZ compact routing does *not* survive.

The TZ schemes are static: tables are compiled against a fixed graph,
and a failed edge silently breaks every route whose committed tree used
it.  Quantifying that fragility is the standard motivation for the
fault-tolerant compact-routing line of work that followed the paper
(e.g. forbidden-set labeling and FT routing schemes), so this module
makes the limitation measurable:

* :class:`FaultyNetwork` — a simulator whose ``route`` drops messages at
  dead edges (the packet reaches the endpoint, finds the link down, and
  the static scheme has no recourse);
* :func:`survivability` — delivered fraction under ``f`` random edge
  failures, counted only over pairs that remain connected in ``G∖F``
  (disconnected pairs are excluded: no scheme could deliver those);
* the **failure models** (:data:`FAILURE_MODELS`) — generators of
  ``(trials, m)`` boolean dead-edge matrices: i.i.d. edge death
  (:func:`iid_edge_trials`), correlated geographic outages via
  distance balls (:func:`geographic_failure_trials`), node crashes
  (:func:`node_failure_trials`), and progressive churn curves
  (:func:`churn_trials`);
* :func:`survivability_sweep` — the multi-trial vectorized resilience
  engine: all trials of a failure sweep advance through one
  :meth:`~repro.sim.engine.batch.BatchRouter.route_trials` call
  (scheme compiled once, trials as an extra array axis), bit-for-bit
  identical per (trial, pair) to routing each trial through
  :class:`FaultyNetwork` — the per-trial reference this module started
  from.

Expected shape (verified by tests): single-tree routing collapses worst
(every tree edge is a single point of failure for Θ(n²) pairs), the TZ
schemes degrade in proportion to how many committed trees touch the dead
edges, and recompiling on the surviving graph restores 100% delivery —
the "preprocessing is the fault boundary" statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from ..core.router import RoutingScheme
from ..errors import RoutingError
from ..graphs.graph import Graph, edge_components
from ..graphs.ports import PortedGraph
from ..rng import RngLike, make_rng, spawn
from .network import SCHEME_FAULTS, Network, RouteResult


def _canon(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


class FaultyNetwork(Network):
    """A :class:`~repro.sim.network.Network` with dead edges.

    A message that tries to cross a dead edge is dropped with failure
    reason ``"dead link"`` — modeling a router that sees the interface
    down and has no alternate entry in its static table.
    """

    def __init__(
        self,
        ported: PortedGraph,
        scheme: RoutingScheme,
        dead_edges: Iterable[Tuple[int, int]],
    ) -> None:
        super().__init__(ported, scheme)
        self.dead: FrozenSet[Tuple[int, int]] = frozenset(
            _canon(int(a), int(b)) for a, b in dead_edges
        )

    def route(
        self,
        source: int,
        dest: int,
        *,
        ttl: Optional[int] = None,
        strict: bool = False,
    ) -> RouteResult:
        n = self.ported.n
        if ttl is None:
            ttl = 4 * n + 16
        path = [source]
        weight = 0.0
        u = source
        max_header = 0
        try:
            header = self.scheme.initial_header(source, dest)
            max_header = self.scheme.header_bits(header)
            for _ in range(ttl):
                port, header = self.scheme.decide(u, header)
                max_header = max(max_header, self.scheme.header_bits(header))
                if port is None:
                    if u != dest:
                        raise RoutingError(
                            f"scheme declared delivery at {u}, wanted {dest}"
                        )
                    return RouteResult(
                        source, dest, True, path, weight, None, max_header
                    )
                v = self.ported.step(u, port)
                if _canon(u, v) in self.dead:
                    raise RoutingError(f"dead link ({u},{v})")
                weight += self.ported.step_weight(u, port)
                u = v
                path.append(u)
            raise RoutingError(f"TTL of {ttl} hops exhausted")
        except SCHEME_FAULTS as exc:
            if strict:
                raise
            return RouteResult(
                source, dest, False, path, weight, str(exc), max_header
            )


@dataclass
class SurvivabilityReport:
    """Outcome of a failure experiment."""

    failed_edges: Tuple[Tuple[int, int], ...]
    attempted: int
    connected_pairs: int
    delivered: int

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction among still-connected pairs."""
        if self.connected_pairs == 0:
            return 1.0
        return self.delivered / self.connected_pairs


def sample_edge_failures(
    graph: Graph, f: int, rng: RngLike = None
) -> Tuple[Tuple[int, int], ...]:
    """``f`` distinct random edges (as canonical endpoint pairs).

    ``f = 0`` returns the empty tuple without touching the generator's
    stream (so it is well defined on edgeless graphs too); ``f = m``
    fails every edge.
    """
    if f < 0:
        raise ValueError(f"cannot fail a negative number of edges ({f})")
    if f > graph.m:
        raise ValueError(f"cannot fail {f} of {graph.m} edges")
    if f == 0:
        return ()
    gen = make_rng(rng)
    picks = gen.choice(graph.m, size=f, replace=False)
    return tuple(
        (int(graph.edges[e, 0]), int(graph.edges[e, 1])) for e in picks
    )


def dead_edge_mask(graph: Graph, dead: Iterable[Tuple[int, int]]) -> np.ndarray:
    """``(m,)`` boolean mask of the listed edges, by canonical edge id.

    Endpoint order does not matter: ``(u, v)`` and ``(v, u)`` flag the
    same undirected edge (``graph.edge_id`` canonicalizes).
    """
    mask = np.zeros(graph.m, dtype=bool)
    for a, b in dead:
        mask[graph.edge_id(int(a), int(b))] = True
    return mask


def edges_from_mask(graph: Graph, mask: np.ndarray) -> Tuple[Tuple[int, int], ...]:
    """The flagged edges of one mask row, as canonical endpoint pairs."""
    ids = np.flatnonzero(np.asarray(mask, dtype=bool))
    return tuple(
        _canon(int(graph.edges[e, 0]), int(graph.edges[e, 1])) for e in ids
    )


# ----------------------------------------------------------------------
# Failure models: (trials, m) dead-edge matrices
# ----------------------------------------------------------------------
def _check_trials(trials: int) -> None:
    """Reject negative trial counts uniformly across the failure models."""
    if trials < 0:
        raise ValueError(f"trial count must be non-negative, got {trials}")


def iid_edge_trials(
    graph: Graph,
    trials: int,
    *,
    f: Optional[int] = None,
    rate: Optional[float] = None,
    rng: RngLike = None,
) -> np.ndarray:
    """``trials`` independent i.i.d. edge-failure sets as a mask matrix.

    Exactly one of ``f`` (fail exactly that many edges per trial — each
    trial draws through its own :func:`repro.rng.spawn` child stream, so
    trial ``t`` reproduces ``sample_edge_failures(graph, f, child_t)``
    bit for bit) and ``rate`` (each edge dies independently with that
    probability; ``0.0`` kills nothing, ``1.0`` kills everything) must
    be given.
    """
    _check_trials(trials)
    if (f is None) == (rate is None):
        raise ValueError("give exactly one of f= (count) or rate= (probability)")
    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"failure rate must be in [0, 1], got {rate}")
        return make_rng(rng).random((trials, graph.m)) < rate
    masks = np.zeros((trials, graph.m), dtype=bool)
    for t, child in enumerate(spawn(make_rng(rng), trials)):
        masks[t] = dead_edge_mask(graph, sample_edge_failures(graph, f, child))
    return masks


def node_failure_trials(
    graph: Graph, trials: int, *, f: int = 1, rng: RngLike = None
) -> np.ndarray:
    """Per trial, crash ``f`` random vertices: every incident edge dies.

    A crashed router drops all its links, so pairs whose endpoint is
    down become disconnected in ``G∖F`` and are excluded from delivery
    rates automatically (the vertex is isolated).
    """
    _check_trials(trials)
    if not 0 <= f <= graph.n:
        raise ValueError(f"cannot crash {f} of {graph.n} vertices")
    masks = np.zeros((trials, graph.m), dtype=bool)
    down = np.zeros(graph.n, dtype=bool)
    for t, child in enumerate(spawn(make_rng(rng), trials)):
        down[:] = False
        if f:
            down[child.choice(graph.n, size=f, replace=False)] = True
        if graph.m:
            masks[t] = down[graph.edges[:, 0]] | down[graph.edges[:, 1]]
    return masks


def geographic_failure_trials(
    graph: Graph,
    trials: int,
    *,
    radius: float,
    rng: RngLike = None,
    epicenters: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Correlated regional outages: one distance ball dies per trial.

    Each trial picks a random epicenter vertex (or uses the given
    ``epicenters``) and kills every edge **both** of whose endpoints lie
    within shortest-path distance ``radius`` of it — the landmark-ball
    locality the TZ clusters themselves are built from, so a single
    outage takes out a coherent region instead of scattered links.
    Balls come from one batched Dijkstra over all epicenters, distance
    rows only.
    """
    _check_trials(trials)
    if radius < 0:
        raise ValueError(f"ball radius must be non-negative, got {radius}")
    if trials == 0:
        return np.zeros((0, graph.m), dtype=bool)
    if epicenters is None:
        epicenters = make_rng(rng).integers(0, graph.n, size=trials)
    centers = np.asarray(epicenters, dtype=np.int64)
    if centers.shape != (trials,):
        raise ValueError(f"need {trials} epicenters, got shape {centers.shape}")
    if graph.m == 0:
        return np.zeros((trials, 0), dtype=bool)
    in_ball = graph.csr().distance_rows(centers) <= radius
    return in_ball[:, graph.edges[:, 0]] & in_ball[:, graph.edges[:, 1]]


def churn_trials(
    graph: Graph,
    trials: int,
    *,
    f_final: Optional[int] = None,
    rng: RngLike = None,
) -> np.ndarray:
    """A progressive churn curve: nested failure sets of growing size.

    One random edge order is drawn; trial ``t`` kills the first
    ``count_t`` edges of it, with counts ramping linearly from 0 to
    ``f_final`` (default ``m // 10``).  Trial ``t``'s dead set contains
    trial ``t-1``'s, so the sweep traces a monotone degradation curve —
    "how does delivery decay as the network churns out from under the
    static tables".
    """
    _check_trials(trials)
    if f_final is None:
        f_final = graph.m // 10
    if not 0 <= f_final <= graph.m:
        raise ValueError(f"cannot churn {f_final} of {graph.m} edges")
    if trials == 0:
        return np.zeros((0, graph.m), dtype=bool)
    perm = make_rng(rng).permutation(graph.m)
    rank = np.empty(graph.m, dtype=np.int64)
    rank[perm] = np.arange(graph.m, dtype=np.int64)
    if trials == 1:
        counts = np.array([f_final], dtype=np.int64)
    else:
        counts = np.rint(np.linspace(0.0, float(f_final), trials)).astype(np.int64)
    return rank[None, :] < counts[:, None]


#: Named failure models usable by the scenario lab and the CLI.  Each
#: maps ``(graph, trials, rng=..., **params) -> (trials, m) bool``.
FAILURE_MODELS: Dict[str, Callable[..., np.ndarray]] = {
    "iid-edges": iid_edge_trials,
    "geo-ball": geographic_failure_trials,
    "node-down": node_failure_trials,
    "churn": churn_trials,
}


def failure_trials(
    graph: Graph, model: str, trials: int, rng: RngLike = None, **params
) -> np.ndarray:
    """Build the ``(trials, m)`` dead-edge matrix of one named model.

    ``model`` is a :data:`FAILURE_MODELS` key; ``params`` are forwarded
    to the model function (e.g. ``rate=`` for ``iid-edges``,
    ``radius=`` for ``geo-ball``).
    """
    try:
        fn = FAILURE_MODELS[model]
    except KeyError:
        raise ValueError(
            f"unknown failure model {model!r}; "
            f"known: {', '.join(sorted(FAILURE_MODELS))}"
        ) from None
    return fn(graph, trials, rng=rng, **params)


def surviving_graph(graph: Graph, dead: Iterable[Tuple[int, int]]) -> Graph:
    """``G ∖ F``: the graph with the dead edges removed."""
    dead_set = {_canon(int(a), int(b)) for a, b in dead}
    keep = [
        eid
        for eid in range(graph.m)
        if _canon(int(graph.edges[eid, 0]), int(graph.edges[eid, 1]))
        not in dead_set
    ]
    return Graph(
        graph.n,
        graph.edges[keep],
        graph.edge_weights[keep],
    )


def survivability(
    ported: PortedGraph,
    scheme: RoutingScheme,
    dead: Iterable[Tuple[int, int]],
    pairs: np.ndarray,
    *,
    engine: str = "auto",
) -> SurvivabilityReport:
    """Delivered fraction under failures, over still-connected pairs.

    ``engine="auto"`` routes the still-connected pairs through the batch
    engine (dead edges are dropped at the same point the hop-by-hop
    :class:`FaultyNetwork` drops them) when the scheme compiles, and
    falls back to the reference simulator otherwise;
    ``engine="reference"`` forces the hop-by-hop path.
    """
    dead = tuple(_canon(int(a), int(b)) for a, b in dead)
    pair_arr = np.asarray(pairs, dtype=np.int64)
    if pair_arr.size == 0:
        return SurvivabilityReport(dead, 0, 0, 0)
    mask = dead_edge_mask(ported.graph, dead)
    conn_mask = _connected_matrix(ported.graph, mask[None, :], pair_arr)[0]
    connected = int(conn_mask.sum())

    from .runner import _resolve_engine

    router = _resolve_engine(scheme, ported, engine)
    if router is not None:
        batch = router.route_pairs(pair_arr[conn_mask], dead_edges=dead)
        delivered = batch.delivered_count
    else:
        net = FaultyNetwork(ported, scheme, dead)
        delivered = sum(
            1
            for s, t in pair_arr[conn_mask]
            if net.route(int(s), int(t)).delivered
        )
    return SurvivabilityReport(
        failed_edges=dead,
        attempted=len(pair_arr),
        connected_pairs=connected,
        delivered=delivered,
    )


# ----------------------------------------------------------------------
# Multi-trial vectorized resilience engine
# ----------------------------------------------------------------------
def _connected_matrix(
    graph: Graph, masks: np.ndarray, pair_arr: np.ndarray
) -> np.ndarray:
    """``(T, P)`` pair-connectivity in ``G∖F_t``, one CC pass per trial.

    This is the *only* "pair connectivity under failures" implementation
    in the module — the classic :func:`survivability` routes through it
    with a one-row mask — so the sweep and the single-trial report can
    never diverge.  Each trial is one pass of the package's components
    pass (:func:`~repro.graphs.graph.edge_components`, the one that
    ``Graph.connected_components`` runs) over ``graph.edges`` under the
    trial's keep mask: no ``Graph`` object is built, since at 32+ trials
    the CSR/edge-index construction would dominate the whole sweep.
    """
    T = masks.shape[0]
    out = np.zeros((T, pair_arr.shape[0]), dtype=bool)
    for t in range(T):
        _, labels = edge_components(graph.n, graph.edges, ~masks[t])
        out[t] = labels[pair_arr[:, 0]] == labels[pair_arr[:, 1]]
    return out


@dataclass
class SweepResult:
    """Per-(trial, pair) outcome of a multi-trial failure sweep.

    ``delivered``/``weight``/``hops`` have shape ``(T, P)`` — trial
    axis first, matching
    :class:`~repro.sim.engine.batch.TrialSweepResult` — and are
    bit-for-bit identical between the vectorized engine and the
    per-trial :class:`FaultyNetwork` reference (the differential suite
    in ``tests/test_scenarios.py`` enforces it).  ``connected`` marks
    the pairs still connected in each trial's surviving graph; delivery
    rates count only those, exactly as :func:`survivability` does.
    """

    dead_masks: np.ndarray  # (T, m) bool
    edges: np.ndarray  # (m, 2) graph edge endpoints (for reports)
    source: np.ndarray  # (P,)
    dest: np.ndarray  # (P,)
    delivered: np.ndarray  # (T, P) bool
    weight: np.ndarray  # (T, P) float64
    hops: np.ndarray  # (T, P) int64
    connected: np.ndarray  # (T, P) bool
    engine: str  # "batch" or "reference"

    @property
    def trials(self) -> int:
        """Number of failure trials (first axis)."""
        return int(self.dead_masks.shape[0])

    @property
    def pair_count(self) -> int:
        """Number of routed pairs per trial (second axis)."""
        return int(self.source.shape[0])

    @property
    def delivery_rates(self) -> np.ndarray:
        """Per-trial delivered fraction among still-connected pairs.

        Trials with no connected pair report 1.0, matching
        :attr:`SurvivabilityReport.delivery_rate`.
        """
        connected = self.connected.sum(axis=1).astype(np.float64)
        delivered = (self.delivered & self.connected).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(connected > 0, delivered / np.maximum(connected, 1), 1.0)

    def report(self, t: int) -> SurvivabilityReport:
        """Trial ``t`` summarized as a classic :class:`SurvivabilityReport`."""
        ids = np.flatnonzero(self.dead_masks[t])
        failed = tuple(
            _canon(int(self.edges[e, 0]), int(self.edges[e, 1])) for e in ids
        )
        return SurvivabilityReport(
            failed_edges=failed,
            attempted=self.pair_count,
            connected_pairs=int(self.connected[t].sum()),
            delivered=int((self.delivered[t] & self.connected[t]).sum()),
        )


def survivability_sweep(
    ported: PortedGraph,
    scheme: Optional[RoutingScheme],
    dead_masks: np.ndarray,
    pairs: np.ndarray,
    *,
    engine: str = "auto",
    ttl: Optional[int] = None,
    router=None,
) -> SweepResult:
    """Route one pair set under many failure trials at once.

    The vectorized path (``engine="auto"``/``"batch"``) compiles the
    scheme once and advances **all trials simultaneously** through
    :meth:`~repro.sim.engine.batch.BatchRouter.route_trials` — the
    per-trial dead-edge mask is just one more gather in the hop loop.
    ``engine="reference"`` replays the sweep the way it was done before
    this engine existed: one :class:`FaultyNetwork` per trial, one
    Python hop loop per pair — the differential ground truth.

    ``dead_masks`` is a ``(T, m)`` boolean matrix (see
    :func:`failure_trials`).  ``router`` optionally supplies a
    pre-built :class:`~repro.sim.engine.batch.BatchRouter` (e.g. over a
    store-loaded compiled scheme), in which case ``scheme`` may be
    ``None``.  All pairs are routed in every trial;
    ``connected`` and the per-trial reports restrict to still-connected
    pairs exactly as :func:`survivability` does.
    """
    from .runner import ENGINES

    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; use one of {ENGINES}")
    graph = ported.graph
    masks = np.ascontiguousarray(np.asarray(dead_masks, dtype=bool))
    if masks.ndim != 2 or masks.shape[1] != graph.m:
        raise ValueError(
            f"dead_masks must have shape (trials, {graph.m}), "
            f"got {masks.shape}"
        )
    pair_arr = np.asarray(pairs, dtype=np.int64)
    if pair_arr.size == 0:
        pair_arr = pair_arr.reshape(0, 2)
    T = masks.shape[0]
    P = pair_arr.shape[0]
    connected = _connected_matrix(graph, masks, pair_arr)

    if router is None and engine != "reference":
        from .runner import _resolve_engine

        if scheme is None:
            raise ValueError('scheme may only be None when router= is given')
        router = _resolve_engine(scheme, ported, engine)
    if engine == "reference":
        router = None

    if router is not None:
        res = router.route_trials(pair_arr, masks, ttl=ttl)
        return SweepResult(
            dead_masks=masks,
            edges=graph.edges,
            source=res.source,
            dest=res.dest,
            delivered=res.delivered,
            weight=res.weight,
            hops=res.hops,
            connected=connected,
            engine="batch",
        )

    if scheme is None:
        raise ValueError('engine="reference" needs the scheme object')
    delivered = np.zeros((T, P), dtype=bool)
    weight = np.zeros((T, P))
    hops = np.zeros((T, P), dtype=np.int64)
    for t in range(T):
        net = FaultyNetwork(ported, scheme, edges_from_mask(graph, masks[t]))
        for i in range(P):
            res = net.route(int(pair_arr[i, 0]), int(pair_arr[i, 1]), ttl=ttl)
            delivered[t, i] = res.delivered
            weight[t, i] = res.weight
            hops[t, i] = res.hops
    return SweepResult(
        dead_masks=masks,
        edges=graph.edges,
        source=np.ascontiguousarray(pair_arr[:, 0]),
        dest=np.ascontiguousarray(pair_arr[:, 1]),
        delivered=delivered,
        weight=weight,
        hops=hops,
        connected=connected,
        engine="reference",
    )
