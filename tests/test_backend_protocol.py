"""The shared backend contract: one suite, every registered backend.

``repro.backends`` promises that anything in the registry — oracle,
labeling, spanner, Cowen, single tree, full tables, TZ scheme — obeys
the same protocol.  This suite is the promise, parametrized over
``backend_names()`` so a newly registered backend is under contract the
moment its module imports:

* ``query_many`` equals a per-pair ``query_one`` loop bit for bit;
* every answer respects the declared stretch envelope (lower-bounded by
  the true distance, upper-bounded by ``capabilities.stretch`` times it);
* ``size_bits()`` is at least the information floor of naming vertices;
* ``serialize → deserialize → query`` is bit-identical, both in memory
  and through a :class:`~repro.store.SchemeStore` round trip;
* the TZ backend's space equals what the per-structure dict world
  reports (the differential gate: the frontier's space axis is the same
  number the scheme paths have always printed).

Plus the retired spellings of the construction selector: ``method=``
keywords and ``builder="pernode"`` are refused, not aliased.
"""

from __future__ import annotations

import numpy as np
import pytest
from strategies import family_from_seed

from repro.backends import Backend, backend_names, build_backend, get_backend
from repro.backends.accounting import id_bits
from repro.backends.frontier import mark_pareto, run_frontier
from repro.bitio import code_width
from repro.core.build import build_arrays, build_scheme
from repro.core.scheme_k import build_tz_scheme
from repro.errors import PreprocessingError
from repro.rng import derive, sample_pairs
from repro.sim.runner import pair_true_distances

BACKENDS = backend_names()
FAMILIES = ("gnp", "grid")


def _instance(family: str, seed: int, n: int = 44):
    graph = family_from_seed(seed, family, n=n).largest_component()
    pairs = sample_pairs(derive(seed, "contract", family), graph.n, 160)
    true_d = pair_true_distances(graph, pairs)
    return graph, pairs, true_d


@pytest.fixture(scope="module")
def contract_case():
    """One shared (graph, pairs, true distances) instance per module run."""
    return _instance("gnp", seed=3)


def _built(name: str, graph, k: int = 3, seed: int = 7) -> Backend:
    return build_backend(name, graph, k, seed)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_holds_all_seven():
    assert BACKENDS == sorted(BACKENDS)
    assert set(BACKENDS) == {
        "cowen", "labels", "oracle", "shortest-path", "spanner", "tree", "tz",
    }


def test_unknown_backend_raises():
    with pytest.raises(PreprocessingError):
        get_backend("quantum")


# ----------------------------------------------------------------------
# The contract, per backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKENDS)
def test_query_many_equals_query_one(name, contract_case):
    graph, pairs, _ = contract_case
    backend = _built(name, graph)
    many = backend.query_many(pairs)
    one = np.array([backend.query_one(int(u), int(v)) for u, v in pairs])
    assert np.array_equal(many, one)


@pytest.mark.parametrize("name", BACKENDS)
def test_stretch_envelope(name, contract_case):
    graph, pairs, true_d = contract_case
    backend = _built(name, graph)
    answers = backend.query_many(pairs)
    # Lower bound: no structure may report below the true distance.
    assert np.all(answers >= true_d - 1e-9)
    bound = backend.stretch_bound()
    if np.isfinite(bound):
        assert np.all(answers <= bound * true_d + 1e-9)
    if backend.capabilities.exact:
        assert np.array_equal(answers, true_d)


@pytest.mark.parametrize("name", BACKENDS)
def test_size_bits_above_information_floor(name, contract_case):
    graph, _, _ = contract_case
    backend = _built(name, graph)
    # Any of these structures must at least name a vertex per vertex.
    assert backend.size_bits() >= graph.n * code_width(graph.n)
    assert id_bits(graph.n) == code_width(graph.n)


@pytest.mark.parametrize("name", BACKENDS)
def test_serialize_round_trip_bit_equality(name, contract_case):
    graph, pairs, _ = contract_case
    backend = _built(name, graph)
    meta, blobs = backend.serialize()
    clone = type(backend).deserialize(
        meta, {key: np.array(blob, copy=True) for key, blob in blobs.items()}
    )
    assert np.array_equal(clone.query_many(pairs), backend.query_many(pairs))
    assert clone.size_bits() == backend.size_bits()


@pytest.mark.parametrize("name", BACKENDS)
def test_store_round_trip_bit_equality(name, contract_case, tmp_path):
    from repro.store import SchemeStore

    graph, pairs, _ = contract_case
    backend = _built(name, graph)
    store = SchemeStore(tmp_path)
    path = store.save_backend(backend, graph, k=3, seed=7)
    loaded = store.load_backend(path)
    assert np.array_equal(loaded.query_many(pairs), backend.query_many(pairs))
    memo = store.get_or_build_backend(name, graph, 3, seed=7)
    assert np.array_equal(memo.query_many(pairs), backend.query_many(pairs))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", BACKENDS)
def test_contract_across_families(name, family):
    graph, pairs, true_d = _instance(family, seed=11, n=36)
    backend = _built(name, graph, k=2, seed=5)
    answers = backend.query_many(pairs)
    assert np.all(answers >= true_d - 1e-9)
    bound = backend.stretch_bound()
    if np.isfinite(bound):
        assert np.all(answers <= bound * true_d + 1e-9)


# ----------------------------------------------------------------------
# Differential gate: the TZ backend's space axis is the dict world's
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [2, 3])
def test_tz_backend_space_matches_per_structure_accounting(k):
    graph = family_from_seed(21, "gnp", n=40).largest_component()
    seed = 13
    backend = _built("tz", graph, k=k, seed=seed)
    scheme = build_tz_scheme(
        graph,
        k=k,
        rng=derive(seed, "backend", "tz", k),
        builder="vectorized",
    )
    expected = sum(scheme.table_bits(u) for u in range(graph.n)) + sum(
        scheme.label_bits(v) for v in range(graph.n)
    )
    assert backend.size_bits() == expected
    assert backend.stretch_bound() == scheme.stretch_bound()


def test_tz_backend_answers_match_scheme_measurement(contract_case):
    from repro.sim.runner import run_pairs

    graph, pairs, _ = contract_case
    backend = _built("tz", graph, k=2, seed=7)
    scheme = build_tz_scheme(
        graph, k=2, rng=derive(7, "backend", "tz", 2), builder="vectorized"
    )
    results, _ = run_pairs(scheme.ported, scheme, pairs, engine="batch")
    assert np.array_equal(
        backend.query_many(pairs), np.array([r.weight for r in results])
    )


# ----------------------------------------------------------------------
# Frontier sweep semantics
# ----------------------------------------------------------------------
def test_run_frontier_grid_shape_and_pareto(contract_case):
    graph, _, _ = contract_case
    points = run_frontier([("gnp", graph)], ks=(2, 3), seed=3, n_pairs=60)
    with_k = [p for p in points if p.k is not None]
    without_k = [p for p in points if p.k is None]
    # k-using backends appear once per k, the rest once per graph.
    assert {p.backend for p in without_k} == {"cowen", "shortest-path", "tree"}
    assert len(with_k) == 2 * 4 and len(without_k) == 3
    assert any(p.pareto for p in points)
    # shortest-path is exact: observed stretch exactly 1.
    sp = next(p for p in points if p.backend == "shortest-path")
    assert sp.stretch_max == 1.0 and sp.exact


def test_mark_pareto_dominance():
    points = run_frontier(
        [("gnp", family_from_seed(4, "gnp", n=30).largest_component())],
        ks=(2,),
        backends=["tz", "tree"],
        seed=1,
        n_pairs=40,
    )
    mark_pareto(points)
    for p in points:
        dominated = any(
            q.size_bits <= p.size_bits
            and q.stretch_max <= p.stretch_max
            and q.query_seconds <= p.query_seconds
            and (
                q.size_bits < p.size_bits
                or q.stretch_max < p.stretch_max
                or q.query_seconds < p.query_seconds
            )
            for q in points
            if q is not p
        )
        assert p.pareto == (not dominated)


# ----------------------------------------------------------------------
# Retired spellings of the construction selector
# ----------------------------------------------------------------------
def test_method_kwarg_refused():
    graph = family_from_seed(8, "gnp", n=32).largest_component()
    with pytest.raises(TypeError, match="method"):
        build_arrays(graph, 2, method="reference", rng=5)
    with pytest.raises(TypeError, match="method"):
        build_scheme(graph, 2, method="vectorized", rng=5)


def test_pernode_builder_value_refused():
    graph = family_from_seed(9, "gnp", n=30).largest_component()
    with pytest.raises(PreprocessingError, match="pernode"):
        build_tz_scheme(graph, k=2, rng=3, builder="pernode")


def test_store_method_kwarg_refused(tmp_path):
    from repro.store import SchemeStore

    graph = family_from_seed(10, "gnp", n=30).largest_component()
    store = SchemeStore(tmp_path)
    with pytest.raises(TypeError, match="method"):
        store.get_or_build(graph, 2, 3, method="vectorized")
    assert store.keys() == []


def test_unknown_builder_rejected():
    graph = family_from_seed(12, "gnp", n=24).largest_component()
    with pytest.raises(PreprocessingError):
        build_arrays(graph, 2, builder="quantum")
    with pytest.raises(PreprocessingError):
        build_tz_scheme(graph, k=2, builder="quantum")
