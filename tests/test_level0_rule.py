"""The level-0 check needs no member map: the tree slices already hold it.

A source table of the paper stores its level-0 cluster ``C_0(u) = {v :
d(u, v) < d(A_1, v)}``.  For ``u ∉ A_1`` that is ``u``'s own cluster (same
threshold); for a landmark it is ``{u}``.  The scheme therefore stores no
member map: a source checks level 0 in its own tree slice unless it is
its own level-1 pivot (:func:`~repro.core.landmarks.level0_sources`).

Over the reference families × k ∈ 1..4 × {bernoulli, capped} sampling,
on a fresh build and along a 10-epoch patch chain with edge deltas:

* the mask equals ``level_of == 0``;
* the entries it implies (:meth:`SchemeArrays.level0_entries`) equal the
  paper's definition, ``member == center or d(center, member) <
  d(A_1, member)``, computed here from the distances;
* the dict tables' ``members`` equal the per-node reference builder's,
  which keeps the explicit ``d(u, v) < d(A_1, v)`` test.

The rule needs nested levels, which ``hierarchy_from_levels`` enforces
(``tests/test_landmarks.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import reference_graph
from repro.core.build import build_arrays, build_scheme, patch_arrays
from repro.core.build.arrays import scheme_from_arrays
from repro.core.landmarks import level0_sources
from repro.graphs.ports import assign_ports
from repro.rng import derive
from repro.scenarios import random_delta

REFERENCE_FAMILIES = ("gnp", "ba", "as-like", "grid", "geometric")
EPOCHS = 10


def _defined_members(arrays) -> np.ndarray:
    """The entries ``(u, v)`` with ``v ∈ C_0(u)``, by the definition."""
    d1 = arrays.hierarchy.dist[1] if arrays.k >= 2 else np.full(arrays.n, np.inf)
    member, center = arrays.ent_member, arrays.entry_centers()
    return (member == center) | (arrays.ent_dist < d1[member])


def _check_rule(arrays, context: str) -> None:
    h = arrays.hierarchy
    assert np.array_equal(level0_sources(h.pivot), h.level_of == 0), context
    assert np.array_equal(arrays.level0_entries(), _defined_members(arrays)), context


def _check_members(graph, ported, arrays, context: str) -> None:
    """The dict tables from the arrays hold the reference's members."""
    ref = build_scheme(
        graph, arrays.k, ported=ported, builder="reference", levels=arrays.hierarchy.levels
    )
    vec = scheme_from_arrays(graph, ported, arrays)
    for u in range(graph.n):
        assert vec.tables[u].members == ref.tables[u].members, f"vertex {u} {context}"


@pytest.mark.parametrize("sampling", ["bernoulli", "capped"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("family", REFERENCE_FAMILIES)
def test_rule_is_the_definition_fresh_and_patched(family, k, sampling):
    graph = reference_graph(family, 60, k).largest_component()
    ported = assign_ports(graph, "random", rng=derive(k, "level0", family))
    arrays = build_arrays(graph, k, ported=ported, rng=k, sampling=sampling)
    context = f"({family} k={k} {sampling}"
    _check_rule(arrays, context + " fresh)")
    _check_members(graph, ported, arrays, context + " fresh)")
    landmarks = 0
    for epoch in range(EPOCHS):
        delta = random_delta(
            graph, derive(k, "level0", family, epoch),
            weight_updates=1, edge_adds=1 + epoch % 2, edge_drops=epoch % 2,
        )
        patched = patch_arrays(arrays, graph, delta, ported=ported)
        graph, ported, arrays = patched.graph, patched.ported, patched.arrays
        _check_rule(arrays, f"{context} epoch {epoch})")
        landmarks += int(np.count_nonzero(~level0_sources(arrays.hierarchy.pivot)))
    _check_members(graph, ported, arrays, f"{context} epoch {EPOCHS - 1})")
    # k > 1 has landmarks, whose level-0 cluster is the root alone
    assert (landmarks > 0) == (k > 1)
