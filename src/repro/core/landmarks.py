"""Landmark hierarchies, the ``center`` algorithm, and consistent pivots.

Three ingredients of TZ SPAA'01 §3–§4 live here:

1. :func:`sample_hierarchy` — the sampling
   ``A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k-1}``, each level keeping vertices of the
   previous one independently with probability ``n^{-1/k}`` (retried
   until ``A_{k-1} ≠ ∅``, as in the paper).

2. :func:`center` — the landmark-selection algorithm of §3 (Theorem 3.1):
   repeatedly sample ``s/|W|``-rate subsets of the still-uncovered
   vertices ``W`` and recompute cluster sizes, until every cluster has at
   most ``4n/s`` members.  Returns A with ``E[|A|] = O(s·log n)``.

3. :func:`compute_pivots` — the *consistent* pivots ``p_i(v)``:
   ``p_i(v)`` is the nearest ``A_i`` vertex, except that whenever
   ``d(A_i, v) = d(A_{i+1}, v)`` we force ``p_i(v) = p_{i+1}(v)``.
   Consistency is what guarantees ``v ∈ C(p_i(v))`` for every level
   (either the inequality ``d_i(v) < d_{i+1}(v)`` is strict — making
   ``v`` a cluster member outright — or the pivot chain escalates to the
   top level, whose clusters span everything).  Ablation A2 switches this
   off and watches label construction break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PreprocessingError
from ..graphs.graph import Graph
from ..graphs.shortest_paths import truncated_dijkstra
from ..rng import RngLike, make_rng
from .clusters import DENSE_LIMIT


@dataclass
class Hierarchy:
    """A fully-resolved landmark hierarchy over a graph.

    ``dist`` has shape ``(k+1, n)``: ``dist[i, v] = d(A_i, v)`` with the
    sentinel row ``dist[k] = inf`` (``A_k = ∅``).  ``pivot`` has shape
    ``(k, n)`` and holds the consistent pivots.  ``level_of[v]`` is the
    highest level containing ``v``.
    """

    k: int
    levels: List[np.ndarray]
    dist: np.ndarray
    pivot: np.ndarray
    level_of: np.ndarray

    @property
    def n(self) -> int:
        return self.level_of.shape[0]

    def top_level(self) -> np.ndarray:
        return self.levels[self.k - 1]

    def threshold_for(self, w: int) -> int:
        """Index of the distance row bounding ``w``'s cluster:
        ``C(w) = {v : d(w,v) < dist[level_of[w]+1, v]}``."""
        return int(self.level_of[w]) + 1

    def sizes(self) -> List[int]:
        return [int(a.size) for a in self.levels]


def level0_sources(pivot: np.ndarray) -> np.ndarray:
    """The sources that check level 0, ``(n,)`` bool, from the ``(k, n)``
    pivot matrix: every vertex when ``k == 1``, else each vertex that is
    not its own level-1 pivot.

    A source table of the paper stores the level-0 cluster ``C_0(u) =
    {v : d(u, v) < d(A_1, v)}``, and the scheme already holds it: for
    ``u ∉ A_1`` it is ``u``'s own cluster ``C(u)``, whose threshold is
    the same ``d(A_1, ·)``, so the source searches its own tree slice;
    for a landmark ``u ∈ A_1`` it is ``{u}``, since ``d(A_1, v) ≤ d(u,
    v)``, and a route never asks for ``u`` itself (``s == t`` is
    trivial).  A landmark is exactly a vertex that is its own level-1
    pivot: weights are positive, so ``d(A_1, u) = 0`` only on ``A_1``,
    where ``u`` is its own nearest witness.  The levels must nest (see
    :func:`hierarchy_from_levels`); ``tz_commit`` in ``kernels/_native.c``
    mirrors this rule inline."""
    k, n = pivot.shape
    if k == 1:
        return np.ones(n, dtype=bool)
    return pivot[1] != np.arange(n)


def sample_hierarchy(
    n: int,
    k: int,
    rng: RngLike = None,
    *,
    q: Optional[float] = None,
    max_retries: int = 200,
) -> List[np.ndarray]:
    """Sample level sets ``A_0 ⊇ … ⊇ A_{k-1}`` (Bernoulli ``n^{-1/k}``).

    Retries until the top level is non-empty; the paper conditions on the
    same event.  Raises :class:`PreprocessingError` if the retry budget is
    exhausted (only possible for adversarially tiny ``n``/huge ``k``).
    """
    if k < 1:
        raise PreprocessingError(f"k must be >= 1, got {k}")
    if n < 1:
        raise PreprocessingError(f"n must be >= 1, got {n}")
    gen = make_rng(rng)
    prob = float(n ** (-1.0 / k)) if q is None else float(q)
    for _ in range(max_retries):
        levels = [np.arange(n, dtype=np.int64)]
        ok = True
        for _i in range(1, k):
            prev = levels[-1]
            keep = prev[gen.random(prev.size) < prob]
            if keep.size == 0:
                ok = False
                break
            levels.append(keep)
        if ok:
            return levels
    raise PreprocessingError(
        f"could not sample a non-empty {k}-level hierarchy on {n} vertices "
        f"within {max_retries} attempts"
    )


def center(
    graph: Graph,
    s: float,
    rng: RngLike = None,
    *,
    cap_factor: float = 4.0,
    max_rounds: int = 200,
    dist_matrix: Optional[np.ndarray] = None,
) -> np.ndarray:
    """TZ §3 landmark selection (Theorem 3.1).

    Returns a sorted landmark array ``A`` such that every ``w ∉ A`` has
    ``|C(w)| = |{v : d(w,v) < d(A,v)}| ≤ cap_factor·n/s``; the expected
    size of ``A`` is ``O(s·log n)``.

    With ``dist_matrix`` (an ``(n, n)`` all-pairs array) or for
    ``n ≤ DENSE_LIMIT`` the per-round cluster sizes are computed by one
    vectorized comparison; otherwise capped truncated Dijkstra runs are
    used per uncovered vertex.
    """
    gen = make_rng(rng)
    n = graph.n
    if s <= 0:
        raise PreprocessingError(f"s must be positive, got {s}")
    cap = cap_factor * n / s
    dense = dist_matrix is not None or n <= DENSE_LIMIT
    D = dist_matrix
    if dense and D is None:
        from ..graphs.shortest_paths import all_pairs_shortest_paths

        D = all_pairs_shortest_paths(graph)

    in_A = np.zeros(n, dtype=bool)
    W = np.arange(n, dtype=np.int64)
    for _round in range(max_rounds):
        if W.size == 0:
            break
        p = min(1.0, s / W.size)
        picked = W[gen.random(W.size) < p]
        if picked.size == 0 and W.size > 0:
            # Ensure progress: force one uniformly random pick.
            picked = np.array([W[int(gen.integers(0, W.size))]], dtype=np.int64)
        in_A[picked] = True
        A = np.flatnonzero(in_A)
        if dense:
            dA = D[A].min(axis=0)
            # |C(w)| per remaining vertex, vectorized row comparisons.
            candidates = W[~in_A[W]]
            if candidates.size:
                sizes = (D[candidates] < dA[None, :]).sum(axis=1)
                W = candidates[sizes > cap]
            else:
                W = candidates
        else:
            # Witness-free batched sweep: one C-level pass per round.
            dA = graph.csr().multi_source_distances(A)
            still = []
            limit = int(np.floor(cap))
            for w in W:
                w = int(w)
                if in_A[w]:
                    continue
                _, _, capped = truncated_dijkstra(graph, w, dA, cap=limit)
                if capped:
                    still.append(w)
            W = np.array(still, dtype=np.int64)
    else:
        raise PreprocessingError(
            f"center() did not converge within {max_rounds} rounds"
        )
    return np.flatnonzero(in_A)


def compute_pivots(
    graph: Graph,
    levels: Sequence[np.ndarray],
    *,
    consistent: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Distances to every level and the (consistent) pivots.

    Returns ``(dist, pivot)`` of shapes ``(k+1, n)`` and ``(k, n)``.
    ``consistent=False`` reproduces the naive "nearest witness per level"
    choice — exactly the bug ablation A2 quantifies.
    """
    k = len(levels)
    n = graph.n
    dist = np.full((k + 1, n), np.inf)
    witness = np.full((k, n), -1, dtype=np.int64)
    # One multi-source sweep per level, the levels at once on the pool:
    # the landmark distance table d(A_i, ·) plus the deterministic
    # nearest-landmark witness.
    for i, (di, wi) in enumerate(graph.csr().multi_source_sets(levels)):
        dist[i] = di
        witness[i] = wi
    pivot = witness.copy()
    if consistent:
        for i in range(k - 2, -1, -1):
            same = dist[i] == dist[i + 1]
            pivot[i][same] = pivot[i + 1][same]
    return dist, pivot


def _check_nested(n: int, levels: List[np.ndarray]) -> None:
    """Raise :class:`PreprocessingError`, naming the first level at
    fault, unless ``levels`` nest as the paper's do: ``A_0 = V ⊇ A_1 ⊇
    … ⊇ A_{k-1} ≠ ∅`` over the ids ``[0, n)``."""
    if not levels:
        raise PreprocessingError("a hierarchy needs at least level 0")
    below = np.ones(n, dtype=bool)  # A_{i-1} as a mask; V under level 0
    for i, level in enumerate(levels):
        if level.ndim != 1 or np.any((level < 0) | (level >= n)):
            raise PreprocessingError(f"level {i} holds ids outside [0, {n})")
        here = np.zeros(n, dtype=bool)
        here[level] = True
        if i == 0 and not here.all():
            raise PreprocessingError("level 0 is not every vertex: A_0 must be V")
        if np.any(here & ~below):
            raise PreprocessingError(
                f"level {i} is not a subset of level {i - 1}: the levels must nest"
            )
        below = here
    if levels[-1].size == 0:
        raise PreprocessingError(f"the top level {len(levels) - 1} is empty")


def hierarchy_from_levels(
    graph: Graph,
    levels: Sequence[np.ndarray],
    *,
    consistent: bool = True,
) -> Hierarchy:
    """Resolve explicit level sets into a full :class:`Hierarchy`
    (distances, consistent pivots, top level per vertex).

    The levels must nest, ``A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k-1} ≠ ∅``, or
    :class:`PreprocessingError` names the first level at fault: each
    vertex's top level, and with it the threshold of its cluster, is
    only the paper's on nested levels (and :func:`level0_sources` reads
    the level-0 clusters off the tree slices only then)."""
    levels = [np.asarray(a, dtype=np.int64) for a in levels]
    _check_nested(graph.n, levels)
    k = len(levels)
    dist, pivot = compute_pivots(graph, levels, consistent=consistent)
    level_of = np.zeros(graph.n, dtype=np.int64)
    for i in range(1, k):
        level_of[levels[i]] = i
    return Hierarchy(k=k, levels=levels, dist=dist, pivot=pivot, level_of=level_of)


def build_hierarchy(
    graph: Graph,
    k: int,
    rng: RngLike = None,
    *,
    sampling: str = "bernoulli",
    consistent_pivots: bool = True,
    cap_factor: float = 4.0,
    max_attempts: int = 8,
) -> Hierarchy:
    """Sample levels and resolve distances/pivots into a :class:`Hierarchy`.

    ``sampling``:

    * ``"bernoulli"`` — the paper's basic ``n^{-1/k}`` sampling (bunch
      sizes bounded in expectation / w.h.p.).
    * ``"capped"`` — draw ``max_attempts`` independent Bernoulli
      hierarchies and keep the one minimizing the largest bunch
      (heuristic variant for ablation A1; see DESIGN.md §2.5).
    """
    gen = make_rng(rng)
    n = graph.n

    def resolve(levels: List[np.ndarray]) -> Hierarchy:
        return hierarchy_from_levels(graph, levels, consistent=consistent_pivots)

    if sampling == "bernoulli":
        return resolve(sample_hierarchy(n, k, gen))
    if sampling == "capped":
        best: Optional[Hierarchy] = None
        best_score = np.inf
        for _ in range(max_attempts):
            h = resolve(sample_hierarchy(n, k, gen))
            score = _max_bunch_size(h)
            if score < best_score:
                best, best_score = h, score
        assert best is not None
        return best
    raise PreprocessingError(f"unknown sampling strategy {sampling!r}")


def _max_bunch_size(h: Hierarchy) -> int:
    """Largest bunch size implied by a hierarchy: for each v, the number
    of (level, landmark) pairs with d(w, v) < d_{i+1}(v).  Computed
    approximately from level sizes when exact clusters are unavailable;
    used only to rank candidate hierarchies in "capped" sampling."""
    # Cheap proxy: sum over levels of the count of level members strictly
    # closer than the next level. Exact bunches need all-pairs distances;
    # the proxy (number of levels with strict progress, weighted by level
    # size ratio) correlates well and is enough to rank candidates.
    score = 0
    for i in range(h.k - 1):
        strict = h.dist[i] < h.dist[i + 1]
        ratio = max(1, h.levels[i].size // max(1, h.levels[i + 1].size))
        score += int(strict.sum()) * ratio
    return score
