"""Telemetry subsystem: spans, counters, merge semantics, exporters.

Pins the three contracts the observability layer makes:

* span trees nest correctly and survive exceptions;
* disabled mode is a strict no-op and routing results are bit-identical
  with telemetry on or off;
* a batch the router cuts into threaded row chunks is still recorded
  once, on the calling thread: exact counters and one span tree.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from repro.analysis.obs_report import (
    render_metrics,
    render_span_tree,
    span_rows,
    write_obs_markdown,
)
from repro.graphs import generators as gen
from repro.graphs.ports import assign_ports
from repro.obs import (
    TELEMETRY,
    Telemetry,
    metrics_doc,
    timed,
    trace_records,
    write_metrics,
    write_trace,
)
from repro.obs import telemetry
from repro.obs.telemetry import NOOP_SPAN, peak_rss_mb, rss_anon_mb


@pytest.fixture
def tm():
    """A fresh, enabled registry (module singleton untouched)."""
    registry = Telemetry()
    registry.enable()
    return registry


@pytest.fixture
def global_tm():
    """Enable the module singleton for one test, restoring it after."""
    TELEMETRY.reset()
    TELEMETRY.enable()
    yield TELEMETRY
    TELEMETRY.disable()
    TELEMETRY.reset()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def test_span_nesting(tm):
    with tm.span("outer", phase=1):
        with tm.span("inner.a"):
            pass
        with tm.span("inner.b"):
            pass

    assert len(tm.roots) == 1
    outer = tm.roots[0]
    assert outer.name == "outer"
    assert outer.attrs == {"phase": 1}
    assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
    assert all(c._parent is outer for c in outer.children)
    # Preorder walk with depths.
    assert [(s.name, d) for s, d in tm.spans()] == [
        ("outer", 0), ("inner.a", 1), ("inner.b", 1),
    ]


def test_span_timing_and_self_time(tm):
    with tm.span("outer"):
        with tm.span("inner"):
            pass

    outer, inner = tm.roots[0], tm.roots[0].children[0]
    assert outer.end_ns >= outer.start_ns
    assert outer.duration_ns >= inner.duration_ns
    assert outer.self_ns == outer.duration_ns - inner.duration_ns
    assert inner.self_ns == inner.duration_ns
    assert outer.seconds == outer.duration_ns / 1e9


def test_span_exception_safety(tm):
    with pytest.raises(ValueError, match="boom"):
        with tm.span("outer"):
            with tm.span("failing"):
                raise ValueError("boom")

    # Both spans closed, the failing one stamped, the stack restored.
    outer = tm.roots[0]
    failing = outer.children[0]
    assert failing.end_ns >= failing.start_ns
    assert failing.attrs["error"] == "ValueError"
    assert outer.attrs["error"] == "ValueError"  # propagated through
    assert tm._current.get() is None
    with tm.span("after"):
        pass
    assert tm.roots[1].name == "after"  # a new root, not a child


def test_disabled_mode_is_noop(tm):
    tm.disable()
    sp = tm.span("anything", level=3)
    assert sp is NOOP_SPAN
    with sp:
        tm.count("c")
        tm.gauge("g", 1.0)
        tm.observe("h", 2.0)
    assert tm.roots == []
    assert tm.counters == {}
    assert tm.gauges == {}
    assert tm.histograms == {}
    assert NOOP_SPAN.seconds == 0.0


def test_timed_span_times_even_when_disabled():
    TELEMETRY.disable()
    with timed("cli.phase") as tsp:
        sum(range(1000))
    assert tsp.seconds > 0
    assert TELEMETRY.roots == []  # no span recorded while disabled


def test_timed_span_records_when_enabled(global_tm):
    with timed("cli.phase", stage="x") as tsp:
        pass
    assert tsp.seconds >= 0
    assert [s.name for s in global_tm.roots] == ["cli.phase"]
    assert global_tm.roots[0].attrs == {"stage": "x"}


# ---------------------------------------------------------------------------
# counters / gauges / histograms / merge
# ---------------------------------------------------------------------------
def test_metrics_accumulate(tm):
    tm.count("pops")
    tm.count("pops", 41)
    tm.gauge("rate", 10.0)
    tm.gauge("rate", 20.0)
    tm.observe("lat", 0.5)
    tm.observe("lat", 1.5)
    assert tm.counters == {"pops": 42}
    assert tm.gauges == {"rate": 20.0}
    assert tm.histograms == {"lat": [0.5, 1.5]}


def test_reset_clears_but_keeps_enabled(tm):
    with tm.span("s"):
        tm.count("c")
    tm.reset()
    assert tm.enabled
    assert tm.roots == [] and tm.counters == {}


def test_stamp_child_rss_marks_direct_children(tm):
    with tm.span("root"):
        tm.stamp_child_rss()
        with tm.span("a"):
            with tm.span("a.inner"):
                held = np.ones(4 << 20)  # 32 MB, resident while "a" closes
            del held
        with tm.span("b", kind="x"):
            pass
    root = tm.roots[0]
    a, b = root.children
    assert "maxrss_mb" not in root.attrs
    assert "maxrss_mb" not in a.children[0].attrs
    assert a.attrs["maxrss_mb"] >= 32
    # The peak never falls: "b" closes after "a" released its block.
    assert b.attrs["maxrss_mb"] >= a.attrs["maxrss_mb"]
    rows = span_rows(tm)
    assert [r["maxrss MB"] != "" for r in rows] == [False, True, False, True]
    assert rows[3]["span"].strip() == "b[kind=x]"  # not in the label


@pytest.mark.parametrize(
    "platform, maxrss", [("linux", 3 << 10), ("darwin", 3 << 20), ("freebsd14", 3 << 10)]
)
def test_peak_rss_mb_reads_the_platforms_unit(monkeypatch, platform, maxrss):
    import resource
    import sys
    from types import SimpleNamespace

    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss))
    assert peak_rss_mb() == 3.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RssAnon is Linux's")
def test_stamp_child_rss_stamps_the_resident_anonymous_memory_on_linux(tm):
    with tm.span("root"):
        tm.stamp_child_rss()
        with tm.span("a", kind="x"):
            held = np.ones(4 << 20)  # 32 MB of anonymous memory, resident
            held[::512] = 2.0
            anon_held = rss_anon_mb()
        del held
    a = tm.roots[0].children[0]
    assert 0 < a.attrs["rss_anon_mb"] and anon_held >= 32
    assert "rss_anon_mb" not in tm.roots[0].attrs
    rows = span_rows(tm)
    assert [r["anon MB"] != "" for r in rows] == [False, True]
    assert rows[1]["span"].strip() == "a[kind=x]"  # a column, not in the label


def test_rss_anon_is_absent_where_the_status_file_is(tm, monkeypatch):
    def missing(*args, **kwargs):
        raise FileNotFoundError("/proc/self/status")

    monkeypatch.setattr(telemetry, "open", missing, raising=False)
    assert rss_anon_mb() is None
    with tm.span("root"):
        tm.stamp_child_rss()
        with tm.span("a"):
            pass
    assert "rss_anon_mb" not in tm.roots[0].children[0].attrs
    assert tm.roots[0].children[0].attrs["maxrss_mb"] > 0
    assert "anon MB" not in span_rows(tm)[0]


def test_stamp_child_rss_is_a_noop_when_disabled_or_outside_a_span(tm):
    tm.stamp_child_rss()  # no span open
    with tm.span("root"):
        with tm.span("a"):
            pass
    assert "maxrss_mb" not in tm.roots[0].children[0].attrs
    assert "maxrss MB" not in span_rows(tm)[0]
    off = Telemetry()
    with off.span("root"):
        off.stamp_child_rss()
    assert off.roots == []


# ---------------------------------------------------------------------------
# routing bit-identity and instrumentation coverage
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def routed_setup():
    from repro.core.scheme_k2 import build_stretch3_scheme
    from repro.sim.engine import BatchRouter
    from repro.sim.workloads import uniform_pairs

    graph = gen.gnp(220, 0.05, rng=5, weights=(1, 6)).largest_component()
    ported = assign_ports(graph, "random", rng=6)
    scheme = build_stretch3_scheme(graph, ported, rng=7)
    router = BatchRouter(ported, scheme)
    pairs = uniform_pairs(graph, 4000, rng=8)
    return router, pairs


RESULT_COLUMNS = (
    "source", "dest", "delivered", "weight", "hops", "tree",
    "max_header_bits", "failure_code",
)


def test_disabled_vs_enabled_route_bit_identity(routed_setup):
    router, pairs = routed_setup
    TELEMETRY.disable()
    TELEMETRY.reset()
    base = router.route_pairs(pairs)
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        instrumented = router.route_pairs(pairs)
    finally:
        TELEMETRY.disable()
    for name in RESULT_COLUMNS:
        got, want = getattr(instrumented, name), getattr(base, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    TELEMETRY.reset()


def test_route_instrumentation_records(routed_setup, global_tm):
    router, pairs = routed_setup
    result = router.route_pairs(pairs)
    assert global_tm.counters["route.pairs_routed"] == pairs.shape[0]
    assert global_tm.counters["route.delivered"] == int(result.delivered.sum())
    assert global_tm.counters["route.hop_iterations"] >= 1
    names = [s.name for s, _ in global_tm.spans()]
    assert names[0] == "route.route_pairs"
    assert "route.commit" in names and "route.hop_loop" in names


def test_builder_instrumentation_records(global_tm):
    from repro.core.build import build_arrays

    graph = gen.gnp(150, 0.06, rng=9, weights=(1, 4)).largest_component()
    arrays = build_arrays(graph, k=2, rng=3)
    names = [s.name for s, _ in global_tm.spans()]
    assert names[0] == "build.arrays"
    assert "build.trees" in names and "build.assemble" in names
    assert any(n == "build.clusters" for n in names)
    assert global_tm.counters["build.cluster_entries"] == arrays.entry_count


def test_threaded_service_counters(tmp_path, global_tm, monkeypatch):
    """Row chunks run on threads, but every count lands once, exactly."""
    from repro.sim.engine import batch
    from repro.sim.workloads import uniform_pairs
    from repro.store import RouteService, SchemeStore

    graph = gen.gnp(200, 0.05, rng=11, weights=(1, 5)).largest_component()
    stored = SchemeStore(tmp_path).get_or_build(graph, k=2, seed=0)
    pairs = uniform_pairs(graph, 600, rng=12)
    service = RouteService(stored.path)
    single = service.route(pairs)  # below the floor: one chunk
    rounds = global_tm.counters["route.hop_iterations"]

    monkeypatch.setattr(batch, "ROUTE_CHUNK_FLOOR", 64)
    monkeypatch.setattr(batch, "_usable_cpus", lambda: 2)
    global_tm.reset()
    chunked = service.route(pairs)

    assert global_tm.counters["serve.requests"] == 1
    assert global_tm.counters["serve.pairs"] == pairs.shape[0]
    # Chunk threads never count: the batch-level counters are recorded
    # once by the caller, and the round count is the maximum over chunks.
    assert global_tm.counters["route.pairs_routed"] == pairs.shape[0]
    assert global_tm.counters["route.delivered"] == int(chunked.delivered.sum())
    assert global_tm.counters["route.hop_iterations"] == rounds
    assert len(global_tm.histograms["serve.route_seconds"]) == 1
    assert global_tm.gauges["serve.pairs_per_second"] > 0
    # One span tree per request, every span under it.
    assert [sp.name for sp in global_tm.roots] == ["serve.route"]
    assert global_tm.roots[0].children[0].name == "route.route_pairs"

    # And chunked still equals one chunk, telemetry on.
    for name in RESULT_COLUMNS:
        assert np.array_equal(getattr(chunked, name), getattr(single, name))


def test_store_hit_miss_counters(tmp_path, global_tm):
    from repro.store import SchemeStore

    graph = gen.gnp(120, 0.07, rng=13, weights=(1, 4)).largest_component()
    store = SchemeStore(tmp_path)
    store.get_or_build(graph, k=2, seed=0)
    assert global_tm.counters["store.misses"] == 1
    assert "store.hits" not in global_tm.counters
    store.get_or_build(graph, k=2, seed=0)
    assert global_tm.counters["store.hits"] == 1
    assert global_tm.counters["store.misses"] == 1
    names = [s.name for s, _ in global_tm.spans()]
    assert "store.save" in names and "store.load" in names
    assert "engine.compile" in names


def test_backend_wrappers_record(global_tm):
    from repro.backends.registry import build_backend

    graph = gen.gnp(90, 0.08, rng=17, weights=(1, 3)).largest_component()
    backend = build_backend("tz", graph, k=2, seed=0)
    pairs = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
    backend.query_many(pairs)
    names = [s.name for s, _ in global_tm.spans()]
    assert "backend.build" in names
    assert "backend.query_many" in names
    assert global_tm.counters["backend.pairs_queried"] == 3
    build_span = next(s for s, _ in global_tm.spans() if s.name == "backend.build")
    assert build_span.attrs["backend"] == "tz"


def test_backend_wrapper_not_double_applied():
    from repro.backends.registry import BACKENDS

    for cls in BACKENDS.values():
        build_fn = cls.build.__func__
        assert getattr(build_fn, "__obs_wrapper__", False)
        wrapped = getattr(build_fn, "__wrapped__", None)
        assert wrapped is not None
        assert not getattr(wrapped, "__obs_wrapper__", False), cls


# ---------------------------------------------------------------------------
# exporters and report rendering
# ---------------------------------------------------------------------------
def _populated():
    tm = Telemetry()
    tm.enable()
    with tm.span("root", k=2):
        with tm.span("child", level=0):
            pass
    tm.count("c", 3)
    tm.gauge("g", 1.5)
    for v in (0.1, 0.2, 0.3):
        tm.observe("h", v)
    return tm


def test_trace_records_reconstruct_tree():
    tm = _populated()
    records = trace_records(tm)
    assert [r["name"] for r in records] == ["root", "child"]
    assert records[0]["parent"] == -1
    assert records[1]["parent"] == 0
    assert records[1]["depth"] == 1
    assert records[0]["attrs"] == {"k": 2}
    assert records[0]["self_ns"] + records[1]["duration_ns"] == pytest.approx(
        records[0]["duration_ns"]
    )


def test_write_trace_jsonl(tmp_path):
    tm = _populated()
    path = write_trace(tmp_path / "trace.jsonl", tm)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"schema": "tz-trace/v1", "spans": 2}
    assert [rec["name"] for rec in lines[1:]] == ["root", "child"]


def test_write_metrics_doc(tmp_path):
    tm = _populated()
    path = write_metrics(tmp_path / "metrics.json", tm)
    doc = json.loads(path.read_text())
    assert doc["schema"] == "tz-metrics/v1"
    assert doc["counters"] == {"c": 3}
    assert doc["gauges"] == {"g": 1.5}
    hist = doc["histograms"]["h"]
    assert hist["count"] == 3
    assert hist["min"] == 0.1 and hist["max"] == 0.3
    assert hist["mean"] == pytest.approx(0.2)
    assert metrics_doc(tm)["counters"] == {"c": 3}


def test_report_rendering(tmp_path):
    tm = _populated()
    rows = span_rows(tm)
    assert rows[0]["span"] == "root[k=2]"
    assert rows[1]["span"] == "  child[level=0]"
    assert rows[0]["%cum"] == "100.0"
    tree = render_span_tree(tm, title="spans")
    assert "root[k=2]" in tree and "spans" in tree
    metrics = render_metrics(tm)
    assert "c" in metrics and "p99" in metrics
    out = write_obs_markdown(tmp_path / "obs.md", tm)
    text = (tmp_path / "obs.md").read_text()
    assert out == str(tmp_path / "obs.md")
    assert "# Telemetry report" in text and "root[k=2]" in text


def test_empty_registry_renders():
    tm = Telemetry()
    assert render_span_tree(tm) == "(no spans recorded)"
    assert "(no metrics recorded)" in render_metrics(tm)
    assert trace_records(tm) == []
