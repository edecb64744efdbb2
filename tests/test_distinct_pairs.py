"""Each distinct pair once: the distinct-pair pass and the routes built on it.

Two contracts:

* ``tz_distinct_pairs`` (:func:`~repro.kernels.hop.distinct_pairs_native`)
  returns the same ``first`` and ``rows`` — values and dtypes — as its
  numpy reference :func:`~repro.sim.engine.batch.distinct_pairs_numpy`,
  and both number the pairs by first appearance: on Zipf batches,
  all-distinct batches, one pair repeated, self-pairs, empty and
  one-row batches, and endpoints near 2^31;
* a route of a repeat-heavy batch answers every row exactly as routing
  its pair alone would, on both kernels, with dead edges and a short
  ``ttl`` too, and as the hop-by-hop :class:`~repro.sim.network.Network`
  on a sample; its counters count every answered row, and
  ``route.pairs_distinct`` the pairs walked, which are every row from
  a :data:`~repro.sim.engine.batch.DISTINCT_WALK_SHARE` of distinct
  pairs up and only the distinct pairs below it.

Native-only checks skip cleanly when no C toolchain is present.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import family_from_seed

from repro.core.build import build_scheme
from repro.graphs.ports import assign_ports
from repro.kernels import _build, available, native_error
from repro.kernels.hop import distinct_pairs_native
from repro.obs import TELEMETRY
from repro.rng import derive, make_rng
from repro.serve import zipf_traffic
from repro.sim.engine.batch import (
    DISTINCT_WALK_SHARE,
    BatchResult,
    BatchRouter,
    distinct_pairs_numpy,
)
from repro.sim.failures import FaultyNetwork
from repro.sim.network import Network

needs_native = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

KERNELS = ("numpy", "native") if available() else ("numpy",)

RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(BatchResult))


def numbering(src, dst, n):
    """The reference's ``(first, rows)``, checked to number the pairs by
    first appearance, and the native pass's, checked equal to it."""
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    first, rows = distinct_pairs_numpy(src, dst, n)
    assert first.dtype == np.int64 and rows.dtype == np.int32
    assert rows.shape == src.shape
    assert np.array_equal(src[first][rows], src) and np.array_equal(dst[first][rows], dst)
    assert np.all(np.diff(first) > 0)  # numbered in order of first appearance
    assert np.array_equal(rows[first], np.arange(first.shape[0]))
    assert np.all(np.arange(src.shape[0]) >= first[rows])  # first is the first row
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert first.shape[0] == len(pairs)
    if available():
        got_first, got_rows = distinct_pairs_native(src, dst, n)
        assert got_first.dtype == first.dtype and got_rows.dtype == rows.dtype
        assert np.array_equal(got_first, first) and np.array_equal(got_rows, rows)
    return first, rows


# ----------------------------------------------------------------------
# The pass: native ≡ numpy reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("batch", [512, 4096, 65_536])
def test_zipf_batches(seed, batch):
    (pairs,) = zipf_traffic(500, users=60, requests=1, batch=batch, rng=seed)
    first, _ = numbering(pairs[:, 0], pairs[:, 1], 500)
    assert first.shape[0] < batch  # Zipf traffic repeats itself


def test_all_distinct_batch():
    rng = make_rng(derive(0, "distinct-all"))
    n = 300
    keys = rng.choice(n * n, size=20_000, replace=False)
    first, rows = numbering(keys // n, keys % n, n)
    assert np.array_equal(first, np.arange(20_000))
    assert np.array_equal(rows, np.arange(20_000))


def test_one_pair_repeated():
    first, rows = numbering(np.full(1000, 3), np.full(1000, 7), 10)
    assert first.tolist() == [0] and not rows.any()


def test_self_pairs():
    v = np.array([4, 4, 0, 9, 0, 4, 9, 9])
    first, rows = numbering(v, v, 10)
    assert first.tolist() == [0, 2, 3] and rows.tolist() == [0, 0, 1, 2, 1, 0, 2, 2]
    # (s, s) and (t, t) are never confused with (s, t)
    src = np.array([1, 1, 2, 1, 2])
    dst = np.array([1, 2, 2, 2, 1])
    first, rows = numbering(src, dst, 3)
    assert first.tolist() == [0, 1, 2, 4] and rows.tolist() == [0, 1, 2, 1, 3]


@pytest.mark.parametrize("count", [0, 1])
def test_empty_and_one_row_batches(count):
    first, rows = numbering(np.arange(count), np.arange(count)[::-1], 5)
    assert first.tolist() == list(range(count)) and rows.tolist() == list(range(count))


def test_endpoints_near_the_id_limit():
    n = 2**31 - 1
    src = np.array([n - 1, 0, n - 2, n - 1, 0, n - 1])
    dst = np.array([0, n - 1, n - 1, 0, n - 1, n - 1])
    first, rows = numbering(src, dst, n)
    assert first.tolist() == [0, 1, 2, 5] and rows.tolist() == [0, 1, 2, 0, 1, 3]


@given(
    n=st.integers(min_value=1, max_value=12),
    raw=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=200),
)
@settings(max_examples=80, deadline=None)
def test_random_batches(n, raw):
    pairs = np.array(raw, dtype=np.int64).reshape(-1, 2) % n
    numbering(pairs[:, 0], pairs[:, 1], n)


@needs_native
def test_native_wrapper_refuses_what_the_pass_cannot_take():
    col = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError, match="int64"):
        distinct_pairs_native(col.astype(np.int32), col, 5)
    with pytest.raises(ValueError, match="one length"):
        distinct_pairs_native(col, col[:3], 5)
    with pytest.raises(ValueError, match="int32"):
        distinct_pairs_native(col, col, 2**31)
    # the pass itself refuses a table it could overrun or fill
    lib = _build.require()
    first, rows = np.empty(4, np.int64), np.empty(4, np.int32)
    for slots in (4, 12):  # under twice the rows; not a power of two
        table = np.full(slots, -1, dtype=np.int32)
        got = lib.tz_distinct_pairs(
            4, col.ctypes.data, col.ctypes.data, 5, table.ctypes.data, slots - 1,
            first.ctypes.data, rows.ctypes.data,
        )
        assert got == -1, slots


# ----------------------------------------------------------------------
# Routes of repeat-heavy batches
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def instance():
    graph = family_from_seed(5, "gnp", n=80)
    ported = assign_ports(graph, "random", rng=derive(5, "distinct-ports"))
    scheme = build_scheme(graph, 3, ported=ported, rng=5)
    routers = {kern: BatchRouter(ported, scheme, kernel=kern) for kern in KERNELS}
    (pairs,) = zipf_traffic(graph.n, users=12, requests=1, batch=3000, rng=5)
    pairs[:40, 1] = pairs[:40, 0]  # self-pairs, repeated too
    return graph, ported, scheme, routers, pairs


def assert_results_equal(a, b, context=""):
    for name in RESULT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, f"{name} dtype differs {context}"
        assert np.array_equal(x, y), f"{name} differs {context}"


def routed_alone(router, pairs, **kwargs):
    """Every row's answer from a route of its pair alone."""
    alone = {}
    for s, t in pairs.tolist():
        if (s, t) not in alone:
            alone[(s, t)] = router.route_pairs(np.array([[s, t]]), **kwargs)
    rows = [alone[(s, t)] for s, t in pairs.tolist()]
    return BatchResult(
        **{name: np.concatenate([getattr(r, name) for r in rows]) for name in RESULT_FIELDS}
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "kwargs", [{}, {"ttl": 2}, {"dead": 8}, {"dead": 8, "ttl": 3}], ids=str
)
def test_repeats_route_as_each_pair_alone(instance, kernel, kwargs):
    graph, _, _, routers, pairs = instance
    kwargs = dict(kwargs)
    if "dead" in kwargs:
        kwargs["dead_edges"] = [tuple(int(v) for v in e) for e in graph.edges[: kwargs.pop("dead")]]
    router = routers[kernel]
    got = router.route_pairs(pairs, **kwargs)
    assert_results_equal(routed_alone(router, pairs, **kwargs), got, f"({kernel}, {kwargs})")
    assert_results_equal(routers["numpy"].route_pairs(pairs, **kwargs), got, f"({kwargs})")
    if "ttl" not in kwargs and "dead_edges" not in kwargs:
        assert got.delivered.all()


@pytest.mark.parametrize("kernel", KERNELS)
def test_route_distinct_is_route_pairs_before_the_gather(instance, kernel):
    _, _, _, routers, pairs = instance
    router = routers[kernel]
    first, rows = distinct_pairs_numpy(pairs[:, 0], pairs[:, 1], router.compiled.n)
    result, got_rows = router.route_distinct(pairs)
    assert got_rows.dtype == np.int32 and np.array_equal(got_rows, rows)
    assert_results_equal(router.route_pairs(pairs[first]), result)
    assert_results_equal(router.route_pairs(pairs), result.take(got_rows))
    # no repeat, no index: the answer is the batch's own
    alone, none = router.route_distinct(pairs[first])
    assert none is None
    assert_results_equal(result, alone)


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_batch_of_few_repeats_walks_every_row(instance, kernel):
    """At the walk share of distinct pairs every row is walked and no
    ``rows`` index is made; one distinct pair fewer and only the
    distinct pairs are walked.  Both answer as each pair alone."""
    graph, _, _, routers, _ = instance
    router = routers[kernel]
    n, count = graph.n, 200
    keys = make_rng(derive(5, "walk-share")).choice(n * n, count, replace=False)
    distinct = np.stack([keys // n, keys % n], axis=1)
    at = int(np.ceil(DISTINCT_WALK_SHARE * count))
    for walked, batch in (
        (count, np.concatenate([distinct[:at], distinct[: count - at]])),
        (at - 1, np.concatenate([distinct[: at - 1], distinct[: count - at + 1]])),
    ):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            result, rows = router.route_distinct(batch)
            counters = dict(TELEMETRY.counters)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert counters["route.pairs_distinct"] == walked
        assert counters["route.pairs_routed"] == count
        assert (rows is None) == (walked == count)
        assert result.attempted == walked
        got = result if rows is None else result.take(rows)
        assert_results_equal(routed_alone(router, batch), got, f"({kernel}, {walked})")


def test_repeats_match_the_hop_by_hop_network(instance):
    graph, ported, scheme, routers, pairs = instance
    sample = pairs[make_rng(derive(5, "distinct-sample")).choice(pairs.shape[0], 150)]
    dead = [tuple(int(v) for v in e) for e in graph.edges[:8]]
    for kern, router in routers.items():
        for net, kwargs in ((Network(ported, scheme), {}),
                            (FaultyNetwork(ported, scheme, dead), {"dead_edges": dead})):
            batch = router.route_pairs(sample, **kwargs)
            for i, (s, t) in enumerate(sample.tolist()):
                ref = net.route(s, t)
                assert bool(batch.delivered[i]) == ref.delivered, (kern, s, t)
                assert float(batch.weight[i]) == ref.weight, (kern, s, t)
                assert int(batch.hops[i]) == ref.hops, (kern, s, t)
                if ref.delivered:
                    assert int(batch.max_header_bits[i]) == ref.max_header_bits


@pytest.mark.parametrize("kernel", KERNELS)
def test_counters_count_answered_rows(instance, kernel):
    _, _, _, routers, pairs = instance
    router = routers[kernel]
    first, _ = distinct_pairs_numpy(pairs[:, 0], pairs[:, 1], router.compiled.n)
    counts = {}
    for name, batch in (("repeats", pairs), ("distinct", pairs[first])):
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            result = router.route_pairs(batch)
            counts[name] = dict(TELEMETRY.counters)
            (root,) = TELEMETRY.roots
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert root.name == "route.route_pairs"
        assert [sp.name for sp in root.children][:1] == ["route.distinct"]
        assert counts[name]["route.pairs_routed"] == batch.shape[0]
        assert counts[name]["route.pairs_distinct"] == first.shape[0]
        assert counts[name]["route.delivered"] == result.delivered_count
    # the walk is the distinct pairs' walk either way
    assert counts["repeats"]["route.hop_iterations"] == counts["distinct"]["route.hop_iterations"]
