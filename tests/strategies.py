"""Shared hypothesis strategies and seed→instance builders for the suite.

Randomized tests across the suite follow one idiom: hypothesis draws a
*seed*, and a deterministic builder turns it into a graph/tree instance
(so failures shrink to a single reproducible integer).  The builders and
the strategy wrappers both live here; individual test modules pick the
graph family, size and weight range that stresses their subject.

Weight ranges are integer ``(lo, hi)`` pairs — integer-valued weights
keep all distance arithmetic exact in float64, which the deterministic
tie-breaking (and the builder-equivalence contract) relies on.
"""

from __future__ import annotations

from typing import Optional, Tuple

from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import dijkstra
from repro.graphs.trees import RootedTree, tree_from_parents

SEED_MAX = 10**6

WeightSpec = Optional[Tuple[int, int]]

#: Graph families used by family-sweep tests (builder equivalence et al.).
FAMILIES = ("gnp", "ba", "grid", "tree", "geometric")


def seeds(max_value: int = SEED_MAX) -> st.SearchStrategy[int]:
    """The canonical seed strategy: a shrink-friendly non-negative int."""
    return st.integers(min_value=0, max_value=max_value)


def ks(lo: int = 1, hi: int = 4) -> st.SearchStrategy[int]:
    """Hierarchy level counts."""
    return st.integers(min_value=lo, max_value=hi)


# ----------------------------------------------------------------------
# Deterministic seed -> instance builders
# ----------------------------------------------------------------------
def gnp_from_seed(
    seed: int,
    *,
    n: int = 40,
    p: float = 0.12,
    weights: WeightSpec = (1, 7),
    connected: bool = True,
) -> Graph:
    """The workhorse G(n, p) instance used by property tests."""
    return gen.gnp(n, p, rng=seed, connected=connected, weights=weights)


def family_from_seed(
    seed: int,
    family: str,
    *,
    n: int = 48,
    weights: WeightSpec = (1, 7),
) -> Graph:
    """A connected instance of one of :data:`FAMILIES`, sized ~``n``."""
    if family == "gnp":
        return gen.gnp(n, 2.5 / max(n - 1, 1), rng=seed, weights=weights)
    if family == "ba":
        return gen.barabasi_albert(n, 2, rng=seed, weights=weights)
    if family == "grid":
        side = max(2, int(round(n**0.5)))
        return gen.grid2d(side, side, rng=seed, weights=weights)
    if family == "tree":
        return gen.random_tree(n, rng=seed, weights=weights)
    if family == "geometric":
        return gen.random_geometric(n, 1.8 * (1.0 / n) ** 0.5, rng=seed, weights=weights)
    raise ValueError(f"unknown graph family {family!r}")


def hub_graph(hub_degree: int, n: int = 300) -> Graph:
    """Vertex 0 tied to vertices 1..hub_degree at weight 1, and a ring of
    weight 3 through every other vertex: the hub's own tree, and every
    tree it is an inner vertex of, branch at it into light children whose
    ports run up to its degree, so the light ports need one byte exactly
    while ``hub_degree`` is at most 255."""
    edges = [(0, v) for v in range(1, hub_degree + 1)]
    edges += [(v, v + 1) for v in range(1, n - 1)] + [(n - 1, 1)]
    return Graph(n, edges, [1.0] * hub_degree + [3.0] * (n - 1))


def rooted_from_graph(tree_graph: Graph, root: int = 0) -> RootedTree:
    """Root a tree-shaped graph at ``root`` via its SPT parents."""
    _, parent = dijkstra(tree_graph, root)
    pmap = {v: int(parent[v]) for v in range(tree_graph.n)}
    pmap[root] = -1
    return tree_from_parents(root, pmap)


def random_rooted(seed: int, n: int = 60) -> RootedTree:
    """A random rooted tree — the heavy-light test workhorse."""
    return rooted_from_graph(gen.random_tree(n, rng=seed))


# ----------------------------------------------------------------------
# Strategy wrappers
# ----------------------------------------------------------------------
def gnp_graphs(
    *,
    n: int = 40,
    p: float = 0.12,
    weights: WeightSpec = (1, 7),
    connected: bool = True,
) -> st.SearchStrategy[Graph]:
    return seeds().map(
        lambda s: gnp_from_seed(s, n=n, p=p, weights=weights, connected=connected)
    )


def family_graphs(
    *,
    n: int = 48,
    weights: WeightSpec = (1, 7),
    families: Tuple[str, ...] = FAMILIES,
) -> st.SearchStrategy[Graph]:
    """A connected graph drawn across generator families."""
    return st.tuples(seeds(), st.sampled_from(families)).map(
        lambda sf: family_from_seed(sf[0], sf[1], n=n, weights=weights)
    )


def rooted_trees(*, n: int = 60) -> st.SearchStrategy[RootedTree]:
    return seeds().map(lambda s: random_rooted(s, n=n))


# ----------------------------------------------------------------------
# Graph deltas (incremental maintenance)
# ----------------------------------------------------------------------
#: Delta classes the strategy can mix (node-add rides on edge-add).
DELTA_CLASSES = ("weight", "edge-add", "edge-drop", "node-drop", "node-add")


def delta_from_seed(
    graph: Graph,
    seed: int,
    *,
    classes: Tuple[str, ...] = DELTA_CLASSES,
    max_weight: int = 7,
):
    """A deterministic random :class:`~repro.graphs.GraphDelta` for
    ``graph`` mixing the requested ``classes``.

    Weights are integers (the float64-exact contract the patch builder
    requires).  The delta is *not* guaranteed to keep the graph
    connected — property tests accept either a successful patch or the
    patch builder's explicit ``PreprocessingError`` refusal; use
    :func:`repro.scenarios.random_delta` when connectivity must hold.
    """
    import numpy as np

    from repro.graphs.delta import GraphDelta

    rng = np.random.Generator(np.random.PCG64([seed, 0xDE17A]))
    used = set()
    w_upd, adds, drops, drop_nodes = [], [], [], ()
    add_nodes = 0

    def pick_edges(count):
        count = min(count, graph.m)
        if count <= 0:
            return []
        eids = rng.choice(graph.m, size=count, replace=False)
        out = []
        for eid in eids:
            u, v = (int(x) for x in graph.edges[eid])
            if (u, v) not in used:
                used.add((u, v))
                out.append((eid, u, v))
        return out

    if "weight" in classes:
        for eid, u, v in pick_edges(int(rng.integers(1, 4))):
            w = float(rng.integers(1, max_weight + 1))
            if w == float(graph.edge_weights[eid]):
                w += 1.0
            w_upd.append((u, v, w))
    if "edge-drop" in classes:
        drops = [(u, v) for _, u, v in pick_edges(int(rng.integers(1, 3)))]
    if "node-drop" in classes and graph.n > 4:
        drop_nodes = tuple(
            int(x) for x in rng.choice(graph.n, size=1, replace=False)
        )
    if "node-add" in classes:
        add_nodes = 1
    if "edge-add" in classes or add_nodes:
        existing = {tuple(int(x) for x in e) for e in graph.edges}
        want = int(rng.integers(1, 3)) if "edge-add" in classes else 0
        hi = graph.n + add_nodes
        for _ in range(4 * (want + add_nodes)):
            if len(adds) >= want + 2 * add_nodes:
                break
            u, v = (int(x) for x in rng.integers(0, hi, size=2))
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in existing or key in used:
                continue
            used.add(key)
            adds.append((*key, float(rng.integers(1, max_weight + 1))))
        if add_nodes and not any(
            max(u, v) >= graph.n for u, v, _ in adds
        ):
            # ensure the appended node is wired to something
            anchor = int(rng.integers(0, graph.n))
            adds.append((anchor, graph.n, float(rng.integers(1, max_weight + 1))))

    return GraphDelta(
        weight_updates=tuple(w_upd),
        add_edges=tuple(adds),
        drop_edges=tuple(drops),
        drop_nodes=drop_nodes,
        add_nodes=add_nodes,
    )


def graph_deltas(
    *,
    classes: Tuple[str, ...] = DELTA_CLASSES,
    max_weight: int = 7,
) -> st.SearchStrategy:
    """Strategy over non-empty deltas for a graph chosen by the test.

    Draws ``(seed, class-subset)`` and returns a builder closure
    ``make(graph) -> GraphDelta`` so one draw can be applied to any
    instance (tests typically pair it with :func:`family_graphs`).
    """
    subsets = st.sets(
        st.sampled_from(classes), min_size=1, max_size=len(classes)
    ).map(lambda s: tuple(sorted(s)))
    return st.tuples(seeds(), subsets).map(
        lambda sc: (
            lambda graph: delta_from_seed(
                graph, sc[0], classes=sc[1], max_weight=max_weight
            )
        )
    )
