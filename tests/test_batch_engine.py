"""The batch engine's exact-equivalence gate.

The vectorized :class:`~repro.sim.engine.BatchRouter` is only allowed to
exist because it agrees with the hop-by-hop
:class:`~repro.sim.network.Network` **bit-for-bit** on
``(delivered, weight, hops)`` — weights included, since both accumulate
the same float64 edge weights in the same per-hop order.  This module is
that gate: every generator family × every workload × both the §3
stretch-3 scheme and the general §4 scheme, plus the handshake wrapper,
failure injection, and the runner/stats plumbing around the engine.

The schemes here come from the per-node builder (dense cluster engine
by default at these sizes); the engine compiles them through
``compile_from_arrays`` from the arrays the builder packed alongside
its dict tables, while ``Network`` walks the dict tables themselves.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.handshake import HandshakeRoutingScheme
from repro.core.scheme_k import build_tz_scheme
from repro.core.scheme_k2 import build_stretch3_scheme
from repro.errors import DeliveryError, EncodingError, RoutingError
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro.graphs.shortest_paths import all_pairs_shortest_paths
from repro.oracles.distance_oracle import build_distance_oracle
from repro.rng import derive
from repro.sim.engine import BatchRouter
from repro.sim.failures import sample_edge_failures, survivability
from repro.sim.network import Network
from repro.sim.runner import measure_scheme, pair_true_distances, run_pairs

# ---------------------------------------------------------------------------
# One representative instance per generator family (small, connected).
# ---------------------------------------------------------------------------
FAMILIES = {
    "gnp": lambda: gen.gnp(70, 0.08, rng=1, weights=(1, 9)),
    "gnm": lambda: gen.gnm(70, 180, rng=2, weights=(1, 5)),
    "geometric": lambda: gen.random_geometric(60, 0.35, rng=3, weights=(1, 9)),
    "barabasi_albert": lambda: gen.barabasi_albert(70, 3, rng=4, weights=(1, 9)),
    "powerlaw_cluster": lambda: gen.powerlaw_cluster(70, 3, 0.4, rng=5),
    "waxman": lambda: gen.waxman(60, rng=6, weights=(1, 5)),
    "internet_as_like": lambda: gen.internet_as_like(80, rng=7),
    "grid2d": lambda: gen.grid2d(7, 7, rng=8, weights=(1, 4)),
    "hypercube": lambda: gen.hypercube(5, rng=9, weights=(1, 9)),
    "ring": lambda: gen.ring(40, rng=10, weights=(1, 5)),
    "complete": lambda: gen.complete(24, rng=11, weights=(1, 9)),
    "path_tree": lambda: gen.path_tree(40, rng=12, weights=(1, 5)),
    "star_tree": lambda: gen.star_tree(40, rng=13),
    "random_tree": lambda: gen.random_tree(60, rng=14, weights=(1, 5)),
    "caterpillar": lambda: gen.caterpillar(16, 2, rng=15),
    "balanced_binary_tree": lambda: gen.balanced_binary_tree(5, rng=16),
    "broom": lambda: gen.broom(20, 20, rng=17),
    "spider": lambda: gen.spider(6, 7, rng=18, weights=(1, 5)),
}

WORKLOADS = ("uniform", "gravity", "all_to_one", "locality", "adversarial")

_SETUPS: dict = {}


def _setup(family: str):
    """Graph + ports + both schemes + APSP for one family, built once."""
    if family not in _SETUPS:
        graph = FAMILIES[family]().largest_component()
        ported = assign_ports(graph, "random", rng=derive(0, "eqports", family))
        schemes = {
            "scheme_k2": build_stretch3_scheme(
                graph, ported, rng=derive(0, "eqk2", family)
            ),
            "scheme_k": build_tz_scheme(
                graph, ported, k=3, rng=derive(0, "eqk3", family)
            ),
        }
        dist = all_pairs_shortest_paths(graph)
        _SETUPS[family] = (graph, ported, schemes, dist)
    return _SETUPS[family]


def _workload_pairs(name: str, graph, dist, seed_key: str) -> np.ndarray:
    from repro.sim import workloads

    rng = derive(0, "eqwl", seed_key)
    count = 40
    if name == "uniform":
        return workloads.uniform_pairs(graph, count, rng)
    if name == "gravity":
        return workloads.gravity_pairs(graph, count, rng)
    if name == "all_to_one":
        return workloads.all_to_one(graph, rng=rng)
    if name == "locality":
        radius = float(np.median(dist[dist > 0]))
        return workloads.locality_pairs(
            graph, count, radius, rng, dist_matrix=dist
        )
    if name == "adversarial":
        oracle = build_distance_oracle(graph, 2, rng=derive(0, "eqo", seed_key))
        return workloads.adversarial_pairs(
            graph, count, oracle, rng, candidates=256, dist_matrix=dist
        )
    raise AssertionError(name)


def _assert_equivalent(ported, scheme, pairs, *, dead=None):
    """Batch output must equal the reference hop-by-hop simulator."""
    router = BatchRouter(ported, scheme)
    batch = router.route_pairs(pairs, dead_edges=dead)
    if dead:
        from repro.sim.failures import FaultyNetwork

        net = FaultyNetwork(ported, scheme, dead)
    else:
        net = Network(ported, scheme)
    for i, (s, t) in enumerate(np.asarray(pairs, dtype=np.int64)):
        ref = net.route(int(s), int(t))
        assert bool(batch.delivered[i]) == ref.delivered, (s, t, ref.failure)
        assert float(batch.weight[i]) == ref.weight, (s, t)  # bit-for-bit
        assert int(batch.hops[i]) == ref.hops, (s, t)
        if ref.delivered:
            assert int(batch.max_header_bits[i]) == ref.max_header_bits, (s, t)
    return batch


# ---------------------------------------------------------------------------
# The full equivalence matrix: families x workloads x schemes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_engine_matches_reference(family, workload):
    graph, ported, schemes, dist = _setup(family)
    pairs = _workload_pairs(workload, graph, dist, f"{family}/{workload}")
    for scheme in schemes.values():
        _assert_equivalent(ported, scheme, pairs)


@pytest.mark.parametrize("family", ["gnp", "internet_as_like", "grid2d"])
def test_engine_matches_reference_handshake(family):
    graph, ported, schemes, dist = _setup(family)
    hs = HandshakeRoutingScheme(schemes["scheme_k"])
    pairs = _workload_pairs("uniform", graph, dist, f"hs/{family}")
    _assert_equivalent(ported, hs, pairs)


def test_engine_matches_reference_k1_and_k4():
    """Degenerate (k=1, full tables) and deep (k=4) hierarchies."""
    graph = FAMILIES["gnp"]().largest_component()
    ported = assign_ports(graph, "sorted")
    dist = all_pairs_shortest_paths(graph)
    pairs = _workload_pairs("uniform", graph, dist, "kdepth")
    for k in (1, 4):
        scheme = build_tz_scheme(graph, ported, k=k, rng=derive(0, "kd", k))
        _assert_equivalent(ported, scheme, pairs)


@pytest.mark.parametrize("cluster_method", ["dense", "sparse"])
def test_engine_matches_reference_per_cluster_engine(cluster_method):
    """Unit weights make the dense and sparse cluster engines pick
    different SPT parents on ties; the packed arrays are the builder's
    own either way, so both route exactly like the hop-by-hop walk."""
    graph = gen.grid2d(7, 7)
    ported = assign_ports(graph, "random", rng=2)
    pairs = _workload_pairs("uniform", graph, None, f"engine/{cluster_method}")
    scheme = build_tz_scheme(
        graph, ported, k=3, rng=1, cluster_method=cluster_method
    )
    other = "sparse" if cluster_method == "dense" else "dense"
    rival = build_tz_scheme(graph, ported, k=3, rng=1, cluster_method=other)
    assert not np.array_equal(scheme.arrays.ent_parent, rival.arrays.ent_parent)
    compiled = scheme.compile_batch(ported)
    assert compiled.ent_member is scheme.arrays.ent_member
    assert np.array_equal(compiled.ent["f"], scheme.arrays.tr_f)
    _assert_equivalent(ported, scheme, pairs)
    _assert_equivalent(ported, HandshakeRoutingScheme(scheme), pairs)


def test_engine_matches_reference_on_mismatched_ports():
    """Routing over a port assignment the scheme was NOT compiled for.

    Messages step onto wrong neighbors and leave their trees; the
    reference crosses the edge before discovering the missing record
    (and even delivers when it lands on the destination).  The engine
    must reproduce those failure prefixes — weight and hops included —
    not just the happy path.
    """
    graph = FAMILIES["gnp"]().largest_component()
    compiled_on = assign_ports(graph, "sorted")
    routed_on = assign_ports(graph, "random", rng=derive(0, "mismatch"))
    dist = all_pairs_shortest_paths(graph)
    pairs = _workload_pairs("uniform", graph, dist, "mismatch")
    for k in (2, 3):
        scheme = build_tz_scheme(graph, compiled_on, k=k, rng=derive(0, "mm", k))
        _assert_equivalent(routed_on, scheme, pairs)


def test_engine_empty_pair_set():
    graph, ported, schemes, _ = _setup("gnp")
    router = BatchRouter(ported, schemes["scheme_k2"])
    batch = router.route_pairs(np.zeros((0, 2), dtype=np.int64))
    assert batch.attempted == 0 and batch.delivered_count == 0
    results, stretches = run_pairs(
        ported, schemes["scheme_k2"], [], engine="batch"
    )
    assert results == [] and stretches == []


def test_reference_records_label_faults_instead_of_crashing():
    """A corrupted destination label (too few light ports) must yield a
    recorded failure from BOTH engines, not an uncaught LabelError."""
    from repro.core.router import RouteHeader
    from repro.trees.label_codec import TreeLabel

    graph, ported, schemes, _ = _setup("gnp")
    scheme = schemes["scheme_k"]

    class CorruptedLabels(type(scheme)):
        def __init__(self):  # bypass preprocessing; share compiled state
            self.__dict__.update(scheme.__dict__)

        def _commit(self, u, header):
            committed = scheme._commit(u, header)
            return RouteHeader(
                dest=committed.dest,
                tree=committed.tree,
                tree_label=TreeLabel(committed.tree_label.f, ()),
            )

    bad = CorruptedLabels()
    net = Network(ported, bad)
    undelivered = 0
    for s in range(graph.n):
        res = net.route(s, (s + 17) % graph.n)  # must not raise
        undelivered += not res.delivered
    assert undelivered > 0  # the corruption actually bites somewhere


def test_engine_guards_severed_heavy_links():
    """A heavy move whose link is gone must fail the row cleanly
    (FAIL_PORT, the reference's port-0 PortError analog) — never route
    through ``ent["f"][-1]`` via negative indexing."""
    from repro.sim.engine.batch import FAIL_PORT

    graph = FAMILIES["gnp"]().largest_component()
    ported = assign_ports(graph, "sorted")
    scheme = build_tz_scheme(graph, ported, k=2, rng=derive(0, "sever"))
    router = BatchRouter(ported, scheme)
    pairs = _workload_pairs("uniform", graph, None, "sever")
    clean = router.route_pairs(pairs)
    assert clean.delivered.all()

    cs = router.compiled
    backup = cs.ent["heavy_epos"].copy()
    try:
        cs.ent["heavy_epos"] = -1  # sever every heavy link
        broken = router.route_pairs(pairs)
        numpy_broken = BatchRouter.from_compiled(cs, ported, kernel="numpy").route_pairs(pairs)
    finally:
        cs.ent["heavy_epos"] = backup
    # The in-place edit reaches the platform's kernel and the numpy
    # reference alike: both read the one record table.
    for name in ("delivered", "weight", "hops", "failure_code"):
        assert np.array_equal(getattr(broken, name), getattr(numpy_broken, name)), name
    hit = ~broken.delivered
    assert hit.any()  # heavy edges are on real routes; corruption bites
    # Failed rows stop exactly at the severed link: the clean failure
    # code, and a strict prefix of the healthy route.
    assert set(broken.failure_code[hit].tolist()) == {FAIL_PORT}
    assert np.all(broken.weight[hit] <= clean.weight[hit])
    assert np.all(broken.hops[hit] <= clean.hops[hit])
    # Rows untouched by heavy edges are byte-identical.
    ok = broken.delivered
    assert np.array_equal(broken.weight[ok], clean.weight[ok])
    assert np.array_equal(broken.hops[ok], clean.hops[ok])


def test_engine_self_pairs_and_duplicates():
    graph, ported, schemes, _ = _setup("gnp")
    pairs = np.array([[3, 3], [0, 7], [0, 7], [5, 5]], dtype=np.int64)
    batch = _assert_equivalent(ported, schemes["scheme_k2"], pairs)
    assert batch.delivered.all()
    assert batch.weight[0] == 0.0 and batch.hops[0] == 0


def test_engine_dead_edges_match_faulty_network():
    graph, ported, schemes, dist = _setup("gnp")
    dead = sample_edge_failures(graph, 12, rng=derive(0, "dead"))
    pairs = _workload_pairs("uniform", graph, dist, "dead")
    for scheme in schemes.values():
        _assert_equivalent(ported, scheme, pairs, dead=dead)


def test_survivability_engines_agree():
    graph, ported, schemes, _ = _setup("barabasi_albert")
    scheme = schemes["scheme_k2"]
    dead = sample_edge_failures(graph, 10, rng=derive(0, "surv"))
    pairs = _workload_pairs("uniform", graph, None, "surv")
    fast = survivability(ported, scheme, dead, pairs)
    slow = survivability(ported, scheme, dead, pairs, engine="reference")
    assert fast.delivered == slow.delivered
    assert fast.connected_pairs == slow.connected_pairs
    assert fast.delivery_rate == slow.delivery_rate


# ---------------------------------------------------------------------------
# Runner plumbing around the engine
# ---------------------------------------------------------------------------
class TestRunnerEngines:
    def test_run_pairs_engines_agree(self):
        graph, ported, schemes, dist = _setup("gnp")
        pairs = _workload_pairs("uniform", graph, dist, "runner")
        fast, st_fast = run_pairs(ported, schemes["scheme_k2"], pairs, engine="batch")
        slow, st_slow = run_pairs(
            ported, schemes["scheme_k2"], pairs, engine="reference"
        )
        assert st_fast == st_slow  # bit-for-bit, not approx
        for a, b in zip(fast, slow):
            assert (a.delivered, a.weight, a.hops) == (b.delivered, b.weight, b.hops)

    def test_auto_prefers_batch_and_falls_back(self):
        from repro.baselines.shortest_path_routing import build_shortest_path_scheme

        graph, ported, schemes, _ = _setup("gnp")
        assert schemes["scheme_k2"].compile_batch(ported) is not None
        sp = build_shortest_path_scheme(graph, ported)
        if sp.compile_batch(ported) is None:
            # Falls back to the reference loop without error.
            pairs = np.array([[0, 5], [5, 0]], dtype=np.int64)
            results, _ = run_pairs(ported, sp, pairs, engine="auto")
            assert all(r.delivered for r in results)
            with pytest.raises(RoutingError):
                run_pairs(ported, sp, pairs, engine="batch")

    def test_batch_strict_raises_on_failure(self):
        graph, ported, schemes, _ = _setup("gnp")
        pairs = _workload_pairs("uniform", graph, None, "strict")
        # ttl=1 allows one forwarding decision: no (s != t) pair can both
        # cross an edge and declare arrival, so every row must fail.
        with pytest.raises(DeliveryError):
            run_pairs(ported, schemes["scheme_k2"], pairs, ttl=1)
        results, stretches = run_pairs(
            ported, schemes["scheme_k2"], pairs, ttl=1, strict=False
        )
        assert stretches == [] and not any(r.delivered for r in results)
        assert all("TTL" in r.failure for r in results)

    def test_ttl_semantics_match_reference(self):
        graph, ported, schemes, _ = _setup("gnp")
        scheme = schemes["scheme_k2"]
        net = Network(ported, scheme)
        router = BatchRouter(ported, scheme)
        pairs = np.array([[0, 9]], dtype=np.int64)
        for ttl in (1, 2, 3, 30):
            ref = net.route(0, 9, ttl=ttl)
            batch = router.route_pairs(pairs, ttl=ttl)
            assert bool(batch.delivered[0]) == ref.delivered
            assert int(batch.hops[0]) == ref.hops
            assert float(batch.weight[0]) == ref.weight

    def test_pair_true_distances_unique_sources(self):
        graph, _, _, dist = _setup("gnp")
        pairs = np.array([[0, 5], [0, 9], [3, 1], [3, 3]], dtype=np.int64)
        got = pair_true_distances(graph, pairs)
        want = dist[pairs[:, 0], pairs[:, 1]]
        assert np.array_equal(got, want)
        # With an explicit matrix it is a pure gather.
        assert np.array_equal(pair_true_distances(graph, pairs, dist), want)

    def test_measure_scheme_reports_hop_percentiles(self):
        graph, ported, schemes, dist = _setup("gnp")
        st = measure_scheme(
            ported, schemes["scheme_k2"], n_pairs=200, rng=3, true_dist=dist
        )
        assert st.delivered == 200 and st.violations == 0
        assert 1 <= st.hop_p50 <= st.hop_p95 <= st.hop_p99 <= st.hop_max
        row = st.row()
        assert {"p50_stretch", "p95_stretch", "p99_stretch"} <= set(row)
        assert {"p50_hops", "p99_hops", "max_hops"} <= set(row)

    def test_measure_scheme_engines_agree(self):
        graph, ported, schemes, dist = _setup("grid2d")
        kwargs = dict(n_pairs=150, rng=9, true_dist=dist)
        fast = measure_scheme(ported, schemes["scheme_k"], engine="batch", **kwargs)
        slow = measure_scheme(
            ported, schemes["scheme_k"], engine="reference", **kwargs
        )
        assert fast == slow  # dataclass equality: every field identical

    def test_unknown_engine_rejected(self):
        graph, ported, schemes, _ = _setup("gnp")
        with pytest.raises(ValueError):
            run_pairs(
                ported,
                schemes["scheme_k2"],
                np.array([[0, 1]]),
                engine="warp",
            )


class TestCompiledSchemeShape:
    def test_replace_runs_the_construction_check(self):
        """Every way to build a CompiledScheme, ``dataclasses.replace``
        included, refuses a column the kernels would read past or
        misread: a pivot narrower than (k, n), a short record table,
        records of another layout, a column of another width (an int64
        ``lp_data``, whose width rule says int32) or a strided column."""
        graph, ported, schemes, _ = _setup("gnp")
        cs = schemes["scheme_k"].compile_batch(ported)
        damaged = {
            "pivot": cs.pivot[:, :-1],
            "ent": cs.ent[:-1],
            "step": cs.step.astype([("next", "<i8"), ("wt", "<f8"), ("edge", "<i8")]),
            "lp_data": cs.lp_data.astype(np.int64),
            "ent_member": np.repeat(cs.ent_member, 2)[::2],
        }
        for name, col in damaged.items():
            with pytest.raises(EncodingError, match=name):
                dataclasses.replace(cs, **{name: col})
        assert dataclasses.replace(cs, handshake=True).handshake

    def test_compile_is_cached_per_ports(self):
        graph, ported, schemes, _ = _setup("gnp")
        scheme = schemes["scheme_k2"]
        first = scheme.compile_batch(ported)
        assert scheme.compile_batch(ported) is first
        other = assign_ports(graph, "sorted")
        assert scheme.compile_batch(other) is not first

    def test_entry_arrays_consistent(self):
        graph, ported, schemes, _ = _setup("gnp")
        cs = schemes["scheme_k"].compile_batch(ported)
        assert cs.entry_count == sum(
            len(t) for t in schemes["scheme_k"].tree_labels.values()
        )
        assert np.all(np.diff(cs.entry_keys) > 0)  # strictly sorted keys
        assert cs.lp_indptr[-1] == cs.lp_data.shape[0]
        # Every vertex's own root entry is its (tree, member) row.
        verts = np.arange(cs.n)
        assert np.array_equal(cs.entry_keys[cs.root_epos], verts * cs.n + verts)

    def test_label_bits_match_scalar_codec(self):
        from repro.trees.label_codec import tree_label_bits

        graph, ported, schemes, _ = _setup("gnp")
        scheme = schemes["scheme_k"]
        cs = scheme.compile_batch(ported)
        pos = 0
        for w in sorted(scheme.tree_labels):
            for u in sorted(scheme.tree_labels[w]):
                want = tree_label_bits(
                    scheme.tree_labels[w][u], scheme.tree_sizes[w]
                )
                assert int(cs.ent_label_bits[pos]) == want
                pos += 1
