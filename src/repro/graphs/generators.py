"""Graph and tree generators for the experiment suite.

Every generator is deterministic given ``rng`` (an int seed or numpy
Generator; see :mod:`repro.rng`).  Routing experiments need connected
graphs; generators accept ``connected=True`` (default) which restricts to
the largest connected component and relabels — the standard practice in
the compact-routing evaluation literature.

Edge weights: ``weights=None`` gives unit weights; ``weights=(lo, hi)``
draws independent uniform *integer* weights in ``[lo, hi]``, which keeps
all distance arithmetic exact in float64 (see
:mod:`repro.graphs.shortest_paths`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..errors import GraphError
from ..kernels import resolve_kernel
from ..kernels.draws import gnp_edges_native
from ..rng import RngLike, make_rng
from .graph import Graph, GraphBuilder

WeightSpec = Optional[Tuple[int, int]]


def _apply_weights(graph: Graph, weights: WeightSpec, rng: np.random.Generator) -> Graph:
    if weights is None:
        return graph
    lo, hi = weights
    if not (1 <= lo <= hi):
        raise GraphError(f"weight range must satisfy 1 <= lo <= hi, got {weights}")
    w = rng.integers(lo, hi + 1, size=graph.m).astype(np.float64)
    return graph.with_edge_weights(w)


def _finalize(
    graph: Graph, connected: bool, weights: WeightSpec, rng: np.random.Generator
) -> Graph:
    if connected:
        graph = graph.largest_component()
    return _apply_weights(graph, weights, rng)


# ----------------------------------------------------------------------
# Random graph families
# ----------------------------------------------------------------------
def gnp(
    n: int,
    p: float,
    *,
    rng: RngLike = None,
    connected: bool = True,
    weights: WeightSpec = None,
) -> Graph:
    """Erdős–Rényi ``G(n, p)``.

    Sampled by geometric edge skipping (Batagelj & Brandes 2005; O(n + m)
    expected), so large sparse instances are cheap.  The skip loop runs
    as one native pass (:mod:`repro.kernels.draws`) drawing from ``rng``
    itself, or as :func:`_gnp_loop` when the platform has no native
    kernels; both give the same edges and leave ``rng`` in the same state.
    """
    gen = make_rng(rng)
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    if p <= 0:
        edges = np.zeros((0, 2), dtype=np.int64)
    elif p >= 1.0:
        edges = np.stack(np.triu_indices(n, 1), axis=1)
    elif resolve_kernel("auto") == "native":
        edges = gnp_edges_native(n, p, gen)
    else:
        edges = _gnp_loop(n, p, gen)
    return _finalize(Graph(n, edges), connected, weights, gen)


def _gnp_loop(n: int, p: float, gen: np.random.Generator) -> np.ndarray:
    """The reference skip loop over the linearized lower triangle: edges
    ``(v, u)``, ``v < u``, ascending in ``u*(u-1)/2 + v``, one
    ``gen.random()`` per skip (and one more for the skip past the end)."""
    total = n * (n - 1) // 2
    log_q = math.log1p(-p)
    edges = []
    idx = -1
    while True:
        r = gen.random()
        idx += 1 + int(math.floor(math.log(1.0 - r) / log_q))
        if idx >= total:
            break
        u = int((1 + math.isqrt(1 + 8 * idx)) // 2)
        # Correct u so that u*(u-1)/2 <= idx < (u+1)*u/2.
        while u * (u - 1) // 2 > idx:
            u -= 1
        while (u + 1) * u // 2 <= idx:
            u += 1
        edges.append((idx - u * (u - 1) // 2, u))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def gnm(
    n: int,
    m: int,
    *,
    rng: RngLike = None,
    connected: bool = True,
    weights: WeightSpec = None,
) -> Graph:
    """Uniform random graph with exactly ``m`` edges."""
    gen = make_rng(rng)
    total = n * (n - 1) // 2
    if m > total:
        raise GraphError(f"cannot place {m} edges in a simple graph on {n} vertices")
    builder = GraphBuilder(n)
    while builder.m < m:
        u = int(gen.integers(0, n))
        v = int(gen.integers(0, n))
        builder.add_edge(u, v)
    return _finalize(builder.build(), connected, weights, gen)


def random_geometric(
    n: int,
    radius: float,
    *,
    rng: RngLike = None,
    connected: bool = True,
    weights: WeightSpec = None,
) -> Graph:
    """Random geometric graph on the unit square (grid-bucketed, so the
    expected cost is O(n) rather than O(n²) for small radii)."""
    gen = make_rng(rng)
    pts = gen.random((n, 2))
    cell = max(radius, 1e-9)
    buckets = {}
    for i in range(n):
        key = (int(pts[i, 0] / cell), int(pts[i, 1] / cell))
        buckets.setdefault(key, []).append(i)
    builder = GraphBuilder(n)
    r2 = radius * radius
    for (cx, cy), members in buckets.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                other = buckets.get((cx + dx, cy + dy))
                if other is None:
                    continue
                for i in members:
                    for j in other:
                        if i < j:
                            d = pts[i] - pts[j]
                            if d[0] * d[0] + d[1] * d[1] <= r2:
                                builder.add_edge(i, j)
    return _finalize(builder.build(), connected, weights, gen)


def barabasi_albert(
    n: int,
    m_attach: int,
    *,
    rng: RngLike = None,
    weights: WeightSpec = None,
) -> Graph:
    """Barabási–Albert preferential attachment (always connected).

    The classic approximation of Internet AS-level topology used
    throughout the compact-routing evaluation literature.
    """
    gen = make_rng(rng)
    if m_attach < 1 or n <= m_attach:
        raise GraphError("need 1 <= m_attach < n")
    builder = GraphBuilder(n)
    targets = list(range(m_attach))
    repeated: list = list(range(m_attach))  # attachment pool ∝ degree
    for v in range(m_attach, n):
        chosen = set()
        for t in targets:
            if builder.add_edge(v, t):
                chosen.add(t)
        repeated.extend(chosen)
        repeated.extend([v] * len(chosen))
        # Sample next targets proportionally to degree (with dedup).
        nxt = set()
        while len(nxt) < min(m_attach, v + 1):
            nxt.add(int(repeated[int(gen.integers(0, len(repeated)))]))
        targets = sorted(nxt)
    return _apply_weights(builder.build(), weights, gen)


def powerlaw_cluster(
    n: int,
    m_attach: int,
    triangle_p: float,
    *,
    rng: RngLike = None,
    weights: WeightSpec = None,
) -> Graph:
    """Holme–Kim power-law graph with tunable clustering — the "AS-like"
    topology used for experiment F7 (heavy-tailed degrees *and*
    clustering, like the measured Internet)."""
    gen = make_rng(rng)
    if m_attach < 1 or n <= m_attach:
        raise GraphError("need 1 <= m_attach < n")
    builder = GraphBuilder(n)
    # Each vertex's neighbors in the order add_edge accepted its edges.
    neighbors: List[List[int]] = [[] for _ in range(n)]

    def attach(v: int, w: int) -> bool:
        if not builder.add_edge(v, w):
            return False
        neighbors[v].append(w)
        neighbors[w].append(v)
        return True

    repeated: list = list(range(m_attach))
    for v in range(m_attach, n):
        count = 0
        last_target = -1
        guard = 0
        while count < min(m_attach, v):
            guard += 1
            if guard > 50 * m_attach + 100:
                break
            if last_target >= 0 and gen.random() < triangle_p:
                # Triangle step: attach to a random neighbor of the last
                # target, closing a triangle.
                nbrs = [u for u in neighbors[last_target] if u != v]
                if nbrs:
                    w = int(nbrs[int(gen.integers(0, len(nbrs)))])
                    if attach(v, w):
                        repeated.extend([w, v])
                        count += 1
                        continue
            t = int(repeated[int(gen.integers(0, len(repeated)))])
            if attach(v, t):
                repeated.extend([t, v])
                last_target = t
                count += 1
    return _apply_weights(builder.build(), weights, gen)


def waxman(
    n: int,
    alpha: float = 0.4,
    beta: float = 0.1,
    *,
    rng: RngLike = None,
    connected: bool = True,
    weights: WeightSpec = None,
) -> Graph:
    """Waxman random topology: P(edge) = alpha * exp(-d / (beta * L))."""
    gen = make_rng(rng)
    pts = gen.random((n, 2))
    builder = GraphBuilder(n)
    scale = beta * math.sqrt(2.0)
    for u in range(n):
        d = np.linalg.norm(pts[u + 1 :] - pts[u], axis=1)
        probs = alpha * np.exp(-d / scale)
        hits = np.flatnonzero(gen.random(d.size) < probs)
        for h in hits:
            builder.add_edge(u, u + 1 + int(h))
    return _finalize(builder.build(), connected, weights, gen)


def internet_as_like(
    n: int,
    *,
    rng: RngLike = None,
    weights: WeightSpec = None,
) -> Graph:
    """Synthetic AS-level-Internet-like topology (substitution note in
    DESIGN.md §2.5): Holme–Kim with m=2, high clustering — heavy-tailed
    degree distribution, small diameter, the workload of experiment F7."""
    return powerlaw_cluster(n, 2, 0.5, rng=rng, weights=weights)


# ----------------------------------------------------------------------
# Structured families
# ----------------------------------------------------------------------
def grid2d(
    rows: int,
    cols: int,
    *,
    torus: bool = False,
    rng: RngLike = None,
    weights: WeightSpec = None,
) -> Graph:
    """``rows × cols`` grid (optionally wrapped into a torus)."""
    gen = make_rng(rng)
    builder = GraphBuilder(rows * cols)

    def vid(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                builder.add_edge(vid(r, c), vid(r, c + 1))
            elif torus and cols > 2:
                builder.add_edge(vid(r, c), vid(r, 0))
            if r + 1 < rows:
                builder.add_edge(vid(r, c), vid(r + 1, c))
            elif torus and rows > 2:
                builder.add_edge(vid(r, c), vid(0, c))
    return _apply_weights(builder.build(), weights, gen)


def hypercube(dim: int, *, rng: RngLike = None, weights: WeightSpec = None) -> Graph:
    """The ``dim``-dimensional hypercube on ``2**dim`` vertices."""
    gen = make_rng(rng)
    n = 1 << dim
    builder = GraphBuilder(n)
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if u < v:
                builder.add_edge(u, v)
    return _apply_weights(builder.build(), weights, gen)


def ring(n: int, *, rng: RngLike = None, weights: WeightSpec = None) -> Graph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise GraphError("a ring needs at least 3 vertices")
    gen = make_rng(rng)
    edges = [(i, (i + 1) % n) for i in range(n)]
    g = Graph(n, edges)
    return _apply_weights(g, weights, gen)


def complete(n: int, *, rng: RngLike = None, weights: WeightSpec = None) -> Graph:
    """Complete graph ``K_n``."""
    gen = make_rng(rng)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _apply_weights(Graph(n, edges), weights, gen)


# ----------------------------------------------------------------------
# Tree families (workloads of experiment F2)
# ----------------------------------------------------------------------
def path_tree(n: int, *, rng: RngLike = None, weights: WeightSpec = None) -> Graph:
    """Path on ``n`` vertices — worst case for naive schemes, depth n."""
    gen = make_rng(rng)
    return _apply_weights(Graph(n, [(i, i + 1) for i in range(n - 1)]), weights, gen)


def star_tree(n: int, *, rng: RngLike = None, weights: WeightSpec = None) -> Graph:
    """Star ``K_{1,n-1}`` — worst case for port-number label size."""
    gen = make_rng(rng)
    return _apply_weights(Graph(n, [(0, i) for i in range(1, n)]), weights, gen)


def random_tree(n: int, *, rng: RngLike = None, weights: WeightSpec = None) -> Graph:
    """Uniform random labeled tree via Prüfer-sequence decoding."""
    gen = make_rng(rng)
    if n <= 0:
        raise GraphError("tree needs at least one vertex")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return _apply_weights(Graph(2, [(0, 1)]), weights, gen)
    prufer = gen.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for x in prufer:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return _apply_weights(Graph(n, edges), weights, gen)


def caterpillar(
    spine: int,
    legs_per_vertex: int,
    *,
    rng: RngLike = None,
    weights: WeightSpec = None,
) -> Graph:
    """Caterpillar: a spine path with ``legs_per_vertex`` leaves each."""
    gen = make_rng(rng)
    n = spine * (1 + legs_per_vertex)
    builder = GraphBuilder(n)
    for i in range(spine - 1):
        builder.add_edge(i, i + 1)
    nxt = spine
    for i in range(spine):
        for _ in range(legs_per_vertex):
            builder.add_edge(i, nxt)
            nxt += 1
    return _apply_weights(builder.build(), weights, gen)


def balanced_binary_tree(
    depth: int, *, rng: RngLike = None, weights: WeightSpec = None
) -> Graph:
    """Complete binary tree of the given depth (``2^{depth+1}-1`` nodes)."""
    gen = make_rng(rng)
    n = (1 << (depth + 1)) - 1
    edges = [((i - 1) // 2, i) for i in range(1, n)]
    return _apply_weights(Graph(n, edges), weights, gen)


def broom(
    handle: int, bristles: int, *, rng: RngLike = None, weights: WeightSpec = None
) -> Graph:
    """A path of length ``handle`` ending in a star of ``bristles`` leaves
    — exercises both deep and wide label components at once."""
    gen = make_rng(rng)
    n = handle + bristles
    builder = GraphBuilder(n)
    for i in range(handle - 1):
        builder.add_edge(i, i + 1)
    for j in range(bristles):
        builder.add_edge(handle - 1, handle + j)
    return _apply_weights(builder.build(), weights, gen)


def spider(
    legs: int, leg_length: int, *, rng: RngLike = None, weights: WeightSpec = None
) -> Graph:
    """``legs`` paths of ``leg_length`` vertices joined at a hub."""
    gen = make_rng(rng)
    n = 1 + legs * leg_length
    builder = GraphBuilder(n)
    vid = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            builder.add_edge(prev, vid)
            prev = vid
            vid += 1
    return _apply_weights(builder.build(), weights, gen)


TREE_FAMILIES = {
    "random": lambda n, rng: random_tree(n, rng=rng),
    "path": lambda n, rng: path_tree(n, rng=rng),
    "star": lambda n, rng: star_tree(n, rng=rng),
    "caterpillar": lambda n, rng: caterpillar(max(2, n // 3), 2, rng=rng),
    "binary": lambda n, rng: balanced_binary_tree(
        max(1, int(math.log2(max(2, n))) - 1), rng=rng
    ),
    "broom": lambda n, rng: broom(max(1, n // 2), max(1, n - n // 2), rng=rng),
}
