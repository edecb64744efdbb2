"""The top-level field repair: ``tz_repair_fields`` ≡ the frontier sweep.

A patch of a weight-only delta rewrites each dirty top-level tree's
stored field into the new graph's
(:func:`~repro.kernels.frontier.repair_fields_native`) in place of a
sweep of all n vertices.  The contract is the sweep's field bit for
bit:

1. **the kernel**: on the five reference families, every repaired field
   equals ``frontier_sweep_native`` of its center on the new graph, for
   weight-only deltas of every kind — raises of tight and loose edges,
   decreases, decreases that make a new tie, edges at the center, and a
   decrease at the center that moves most of the field — one kind per
   update, several updates per delta, drawn by hypothesis;
2. **the patch**: which top-level trees ``_exonerate_unbounded`` keeps
   dirty, each of them repaired and no top level swept, and the result
   ≡ a fresh build (``assert_matches_fresh``);
3. **the port diff** is skipped for a weight-only patch under the
   parent's own port array and runs under any other assignment.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import family_from_seed, seeds
from test_update import assert_matches_fresh

from repro.analysis.experiments import reference_graph
from repro.core.build import build_arrays, patch_arrays
from repro.core.build import patch as patch_mod
from repro.graphs.delta import GraphDelta, apply_delta
from repro.graphs.ports import assign_ports
from repro.kernels import available, native_error
from repro.kernels.frontier import frontier_sweep_native, repair_fields_native
from repro.obs import TELEMETRY
from repro.rng import derive
from repro.scenarios import random_delta

needs_native = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

REFERENCE_FAMILIES = ("gnp", "ba", "as-like", "grid", "geometric")

#: One update per kind (see :func:`updates_of`).
KINDS = ("raise-tight", "raise", "lower", "tie", "at-center", "hub")


# ----------------------------------------------------------------------
# 1. The kernel
# ----------------------------------------------------------------------
def sweep(graph, centers):
    """Every center's full field on ``graph``, one row per center."""
    _, dist = frontier_sweep_native(graph, centers, np.full(graph.n, np.inf))
    return dist.reshape(centers.shape[0], graph.n)


def updates_of(graph, field, center, kind, seed):
    """Weight updates ``(u, v, w)`` of one ``kind``, read off the
    ``center``'s field on ``graph``:

    * ``raise-tight``: an edge of the center's shortest paths, raised;
    * ``raise``: any edge, raised;
    * ``lower``: an edge heavier than 1, lowered;
    * ``tie``: a loose edge lowered to exactly the difference of its
      ends' distances, a new tight arc that moves no distance;
    * ``at-center``: an edge at the center, raised or lowered;
    * ``hub``: every edge at the center lowered to 1.
    """
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    w = graph.edge_weights
    gap = np.abs(field[u] - field[v])
    pick = {
        "raise-tight": np.flatnonzero(gap == w),
        "raise": np.arange(graph.m),
        "lower": np.flatnonzero(w > 1),
        "tie": np.flatnonzero((gap < w) & (gap >= 1)),
        "at-center": np.flatnonzero((u == center) | (v == center)),
    }
    if kind == "hub":
        eids = np.flatnonzero(((u == center) | (v == center)) & (w > 1))
        return [(int(u[e]), int(v[e]), 1.0) for e in eids]
    if pick[kind].shape[0] == 0:
        return []
    e = int(rng.choice(pick[kind]))
    old = float(w[e])
    if kind == "tie":
        new = float(gap[e])
    elif kind == "lower" or (kind == "at-center" and old > 1 and rng.random() < 0.5):
        new = float(rng.integers(1, old))
    else:
        new = old + float(rng.integers(1, 6))
    return [(int(u[e]), int(v[e]), new)]


def weight_delta(graph, updates):
    """One update per edge (the first wins), none that keeps a weight."""
    seen, kept = set(), []
    for a, b, w in updates:
        if (a, b) not in seen and w != graph.edge_weight(a, b):
            seen.add((a, b))
            kept.append((a, b, w))
    return GraphDelta(weight_updates=tuple(kept))


def repair(graph, new_graph, delta, centers, old):
    """The native repair of the rows ``old`` (each center's field on
    ``graph``) after ``delta``: ``(fields, (marked, settled))``."""
    ends = np.array([(a, b) for a, b, _ in delta.weight_updates], dtype=np.int64).reshape(-1, 2)
    w_old = np.array([graph.edge_weight(a, b) for a, b in ends.tolist()], dtype=np.float64)
    w_new = np.array([w for *_, w in delta.weight_updates], dtype=np.float64)
    at = np.arange(centers.shape[0], dtype=np.int64) * graph.n
    out = np.full(old.size, np.nan)
    stats = repair_fields_native(new_graph, (ends, w_old, w_new), old.ravel(), at, out, at)
    return out.reshape(old.shape), stats


def assert_repairs_match_sweep(graph, delta, centers):
    """Every center's repaired field ≡ its sweep on the new graph."""
    new_graph, _ = apply_delta(graph, delta)
    old = sweep(graph, centers)
    got, stats = repair(graph, new_graph, delta, centers, old)
    want = sweep(new_graph, centers)
    bad = [int(c) for c, g, f in zip(centers, got, want) if g.tobytes() != f.tobytes()]
    assert not bad, f"repaired fields differ from the sweep at centers {bad}"
    return old, want, stats


def family_graph(family, seed, n=96):
    """The reference family's instance; the unit-weight ones (as-like,
    grid) after a prior delta that raised a third of their edges to 2 or
    3, so that they too have weights to lower and loose edges to tie."""
    graph = reference_graph(family, n, seed).largest_component()
    if np.all(graph.edge_weights == 1):
        rng = np.random.default_rng(seed)
        eids = rng.choice(graph.m, size=graph.m // 3, replace=False)
        raised = [
            (int(graph.edges[e, 0]), int(graph.edges[e, 1]), float(rng.integers(2, 4)))
            for e in eids
        ]
        graph, _ = apply_delta(graph, GraphDelta(weight_updates=tuple(raised)))
    return graph


@needs_native
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", REFERENCE_FAMILIES)
def test_every_kind_on_every_family(family, kind):
    """One update of ``kind`` against every vertex's field as a center."""
    graph = family_graph(family, 3)
    centers = np.arange(graph.n, dtype=np.int64)
    focus = int(np.random.default_rng(KINDS.index(kind)).integers(graph.n))
    field = sweep(graph, np.array([focus]))[0]
    delta = weight_delta(graph, updates_of(graph, field, focus, kind, 0))
    if not delta.weight_updates:
        pytest.skip(f"no {kind} edge on this {family} instance")
    old, new, (marked, settled) = assert_repairs_match_sweep(graph, delta, centers)
    raised = [w > graph.edge_weight(a, b) for a, b, w in delta.weight_updates]
    if kind == "raise-tight":
        assert marked > 0  # some field lost a shortest path
    if any(raised) and (new > old).any():
        assert marked > 0
    if (new < old).any():
        assert settled > 0


@needs_native
@pytest.mark.parametrize("family", ["gnp", "ba", "geometric"])
def test_a_decrease_that_moves_most_of_the_field(family):
    """Every edge at the center lowered to 1: most of its field drops,
    and the repair settles most of the vertices again."""
    graph = family_graph(family, 5)
    slack = np.bincount(graph.edges.ravel(), np.repeat(graph.edge_weights - 1, 2))
    for center in np.argsort(-slack):
        center = int(center)
        field = sweep(graph, np.array([center]))[0]
        delta = weight_delta(graph, updates_of(graph, field, center, "hub", 0))
        new_graph, _ = apply_delta(graph, delta)
        if (sweep(new_graph, np.array([center]))[0] < field).mean() > 0.5:
            break
    else:
        pytest.fail(f"no center of this {family} instance moves most of its field")
    old, new, (_, settled) = assert_repairs_match_sweep(
        graph, delta, np.array([center], dtype=np.int64)
    )
    assert (new < old).mean() > 0.5 and settled > graph.n // 2


@st.composite
def weight_deltas(draw):
    """``(family, graph seed, center seed, [(kind, seed), ...])``."""
    family = draw(st.sampled_from(REFERENCE_FAMILIES))
    kinds = draw(st.lists(st.tuples(st.sampled_from(KINDS), seeds()), min_size=1, max_size=4))
    return family, draw(seeds(50)), draw(seeds()), kinds


@needs_native
@settings(max_examples=80, deadline=None)
@given(weight_deltas())
def test_drawn_deltas_repair_like_the_sweep(drawn):
    """Several updates of mixed kinds, each read off one focus center's
    field, against the fields of the focus and eleven other centers."""
    family, graph_seed, center_seed, kinds = drawn
    graph = family_graph(family, graph_seed, n=80)
    rng = np.random.default_rng(center_seed)
    focus = int(rng.integers(graph.n))
    field = sweep(graph, np.array([focus]))[0]
    updates = [u for kind, seed in kinds for u in updates_of(graph, field, focus, kind, seed)]
    delta = weight_delta(graph, updates)
    if not delta.weight_updates:
        return
    centers = np.union1d([focus], rng.choice(graph.n, size=min(11, graph.n), replace=False))
    assert_repairs_match_sweep(graph, delta, centers.astype(np.int64))


@needs_native
def test_repair_refuses_a_field_outside_its_column():
    graph = family_graph("gnp", 1, n=32)
    old = sweep(graph, np.array([0]))
    ends = np.array([[int(graph.edges[0, 0]), int(graph.edges[0, 1])]], dtype=np.int64)
    updates = (ends, np.array([graph.edge_weights[0]]), np.array([graph.edge_weights[0] + 1]))
    out = np.empty(graph.n)
    with pytest.raises(ValueError, match="outside its column"):
        repair_fields_native(
            graph, updates, old.ravel(), np.array([1], dtype=np.int64), out,
            np.array([0], dtype=np.int64),
        )


# ----------------------------------------------------------------------
# 2. The patch
# ----------------------------------------------------------------------
def traced(fn):
    """``fn()``, its telemetry counters and its span names with attrs."""
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        out = fn()
        return out, dict(TELEMETRY.counters), [(sp.name, sp.attrs) for sp, _ in TELEMETRY.spans()]
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()


def top_level_instance(seed=0, k=2):
    graph = family_from_seed(seed, "gnp", n=64)
    ported = assign_ports(graph, "random", rng=seed)
    arrays = build_arrays(graph, k, ported=ported, rng=seed)
    top = np.flatnonzero(arrays.hierarchy.level_of == k - 1)
    ci = arrays.cl_indptr
    fields = np.stack([arrays.ent_dist[ci[c] : ci[c + 1]] for c in top])
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    # which top-level trees each edge is tight in (a raise is relevant
    # to exactly those)
    tight = np.abs(fields[:, u] - fields[:, v]) == graph.edge_weights
    return graph, ported, arrays, top, tight


def bump(graph, eid, by=1.0):
    u, v = (int(x) for x in graph.edges[eid])
    return GraphDelta(weight_updates=((u, v, float(graph.edge_weights[eid] + by)),))


def test_a_bump_no_top_level_tree_carries_leaves_them_clean():
    graph, ported, arrays, top, tight = top_level_instance()
    h = arrays.hierarchy
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    # loose in every top-level tree and in every landmark field, so the
    # hierarchy stays and the witnesses are the edge's two ends
    loose = ~tight.any(axis=0)
    for i in range(1, arrays.k):
        loose &= np.abs(h.dist[i][u] - h.dist[i][v]) < graph.edge_weights
    eid = int(np.flatnonzero(loose)[0])
    patched, counters, spans = traced(
        lambda: patch_arrays(arrays, graph, bump(graph, eid), ported=ported)
    )
    assert patched.hierarchy is h
    assert counters["patch.exonerated_clusters"] == top.shape[0]
    assert "patch.repaired_clusters" not in counters
    assert not [name for name, _ in spans if name == "kernel.repair"]
    # rebuilt: exactly the lower-level trees holding an end of the edge
    holds = np.isin(arrays.ent_member, graph.edges[eid])
    dirty = np.flatnonzero(np.logical_or.reduceat(holds, arrays.cl_indptr[:-1]))
    lower = dirty[h.level_of[dirty] < arrays.k - 1]
    assert patched.stats["dirty_clusters"] == lower.shape[0]
    assert patched.stats["entries_rebuilt"] == int(np.diff(arrays.cl_indptr)[lower].sum())
    assert_matches_fresh(patched)


@needs_native
def test_a_bump_on_an_edge_tight_in_one_top_level_tree_repairs_it():
    graph, ported, arrays, top, tight = top_level_instance()
    eid = int(np.flatnonzero(tight.sum(axis=0) == 1)[0])
    (center,) = top[tight[:, eid]]
    patched, counters, spans = traced(
        lambda: patch_arrays(arrays, graph, bump(graph, eid, by=3.0), ported=ported)
    )
    assert counters["patch.exonerated_clusters"] == top.shape[0] - 1
    assert counters["patch.repaired_clusters"] == 1
    assert [attrs["trees"] for name, attrs in spans if name == "kernel.repair"] == [1]
    assert not [
        attrs for name, attrs in spans
        if name == "kernel.frontier_sweep" and attrs["level"] == arrays.k - 1
    ]
    ci = patched.arrays.cl_indptr
    want = sweep(patched.graph, np.array([center]))[0]
    assert np.array_equal(patched.arrays.ent_dist[ci[center] : ci[center + 1]], want)
    assert_matches_fresh(patched)


@needs_native
@pytest.mark.parametrize("family", ["gnp", "ba", "grid"])
def test_weight_epochs_repair_and_never_sweep_the_top_level(family):
    """A chain of perfbench-style weight deltas under random ports: no
    epoch sweeps the top level, most repair a tree, each ≡ a fresh
    build."""
    graph = family_from_seed(1, family)
    ported = assign_ports(graph, "random", rng=1)
    arrays = build_arrays(graph, 3, ported=ported, rng=1)
    repaired = 0
    for epoch in range(12):
        delta = random_delta(
            graph, derive(1, "repair", epoch),
            weight_updates=1 + epoch % 2, edge_adds=0, edge_drops=0,
        )
        patched, counters, spans = traced(
            lambda: patch_arrays(arrays, graph, delta, ported=ported)
        )
        assert not [
            attrs for name, attrs in spans
            if name == "kernel.frontier_sweep" and attrs["level"] == arrays.k - 1
        ], f"epoch {epoch} swept the top level"
        repaired += counters.get("patch.repaired_clusters", 0) > 0
        assert_matches_fresh(patched)
        graph, ported, arrays = patched.graph, patched.ported, patched.arrays
    assert repaired >= 6


# ----------------------------------------------------------------------
# 3. The port diff
# ----------------------------------------------------------------------
def test_a_rebound_weight_patch_skips_the_port_diff(monkeypatch):
    graph = family_from_seed(2, "gnp")
    ported = assign_ports(graph, "random", rng=2)
    arrays = build_arrays(graph, 3, ported=ported, rng=2)
    delta = bump(graph, 0)

    def refuse(*args):
        raise AssertionError("the port diff ran")

    monkeypatch.setattr(patch_mod, "_port_changed_vertices", refuse)
    patched = patch_arrays(arrays, graph, delta, ported=ported)
    assert patched.ported.port_of_arc is ported.port_of_arc
    assert_matches_fresh(patched)
    other = assign_ports(apply_delta(graph, delta)[0], "random", rng=3)
    with pytest.raises(AssertionError, match="the port diff ran"):
        patch_arrays(arrays, graph, delta, ported=ported, new_ported=other)
