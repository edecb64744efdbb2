"""The serving daemon: protocol, scheme LRU, backpressure, hot reload.

The load-bearing contracts:

* the ``tz-serve/v3`` codec round-trips ``BatchResult`` **bit for bit**
  (columns travel as raw little-endian blobs at their wire widths, each
  distinct pair's answer once with the ``rows`` index that expands
  them, and decode widens them back), a frame with no arrays is exactly
  its v1 JSON encoding, and every malformed manifest, ``rows`` or route
  field is refused with a clean error;
* the scheme LRU never exceeds its capacity, evicts in LRU order, and
  an evicted tenant re-mmapped on its next hit answers bit-identically;
* the daemon sheds overload with explicit ``backpressure`` errors and
  stays responsive to pings while doing so;
* a graceful shutdown drains every admitted batch;
* with telemetry on, overlapping requests on several workers each hold
  exactly their own ``serve.route`` span;
* the subprocess soak test: ``publish_patch`` repoints the lineage
  while clients stream batches — every response matches exactly one
  version's reference answers, never a blend.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.build import build_arrays, patch_arrays
from repro.errors import ProtocolError
from repro.graphs.delta import GraphDelta
from repro.graphs.ports import assign_ports
from repro.serve import (
    DaemonClient,
    RouteDaemon,
    SchemeLRU,
    encode_frame,
    result_from_wire,
    result_to_wire,
    run_daemon,
    run_loadgen,
    zipf_traffic,
    zipf_weights,
)
from repro.serve.protocol import (
    ERROR_CODES,
    decode_payload,
    delivered_from_wire,
    error_response,
    read_frame,
    route_answer_bytes,
    write_frame,
)
from repro.sim.engine.batch import BatchResult, BatchRouter
from repro.sim.engine.compile import compile_from_arrays
from repro.store import RouteService, SchemeStore

from strategies import family_from_seed

RESULT_COLS = (
    "source", "dest", "delivered", "weight", "hops", "tree",
    "max_header_bits", "failure_code",
)


def assert_results_identical(a: BatchResult, b: BatchResult) -> None:
    for col in RESULT_COLS:
        x, y = getattr(a, col), getattr(b, col)
        assert x.dtype == y.dtype, col
        assert np.array_equal(x, y), col


def publish_scheme(tmp_path, seed=0, family="gnp", k=2):
    """Build + publish one scheme lineage; returns (store, key, graph,
    ported, arrays)."""
    store = SchemeStore(tmp_path)
    graph = family_from_seed(seed, family)
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, k, ported=ported, rng=seed)
    key = store.publish(graph, ported, arrays, seed=seed)
    return store, key, graph, ported, arrays


class running_daemon:
    """Context manager: run a RouteDaemon in a background thread."""

    def __init__(self, store_dir, **config):
        self.store_dir = store_dir
        self.config = config
        self.daemon = None
        self.stats = None

    def __enter__(self):
        ready = threading.Event()

        def on_ready(d):
            self.daemon = d
            ready.set()

        def main():
            self.stats = run_daemon(
                self.store_dir, on_ready=on_ready, **self.config
            )

        self.thread = threading.Thread(target=main, daemon=True)
        self.thread.start()
        assert ready.wait(30), "daemon never became ready"
        return self

    @property
    def address(self):
        return self.daemon.address

    def client(self, **kw) -> DaemonClient:
        host, port = self.address
        return DaemonClient(host, port, **kw)

    def __exit__(self, *exc):
        if self.thread.is_alive():
            try:
                with self.client(timeout=5.0) as c:
                    c.request({"op": "shutdown"})
            except OSError:
                pass
        self.thread.join(30)
        assert not self.thread.is_alive(), "daemon failed to drain"


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
def _frame_parts(frame: bytes):
    """Split a blob frame into (JSON header dict, payload, data start)."""
    payload = frame[4:]
    end = payload.index(b"\0")
    return json.loads(payload[:end]), payload, -(-(end + 1) // 64) * 64


def _with_header(frame: bytes, header: dict) -> bytes:
    """Re-frame ``frame``'s blob data section under a different header."""
    _, payload, start = _frame_parts(frame)
    hjson = json.dumps(header).encode()
    head = hjson + bytes(-(-(len(hjson) + 1) // 64) * 64 - len(hjson))
    body = head + payload[start:]
    return struct.pack(">I", len(body)) + body


def _result_columns(n, m, seed) -> BatchResult:
    rng = np.random.default_rng(seed)
    return BatchResult(
        source=rng.integers(0, n, m).astype(np.int64),
        dest=rng.integers(0, n, m).astype(np.int64),
        delivered=rng.random(m) < 0.9,
        weight=rng.random(m) * rng.integers(1, 1000, m),
        hops=rng.integers(0, 30, m).astype(np.int64),
        tree=rng.integers(-1, n, m).astype(np.int64),
        max_header_bits=rng.integers(0, 200, m).astype(np.int64),
        failure_code=rng.integers(0, 4, m).astype(np.int8),
    )


#: Named tamperings of a ``pairs`` frame's manifest entry; each must be refused.
MANIFEST_CORRUPTIONS = {
    "negative-dims": lambda e: e.update(shape=[-2, -4]),
    "object-dtype": lambda e: e.update(dtype="|O"),
    "unicode-dtype": lambda e: e.update(dtype="<U4"),
    "big-endian": lambda e: e.update(dtype=">i8"),
    "bad-dtype": lambda e: e.update(dtype="not-a-dtype"),
    "float-dim": lambda e: e.update(shape=[2.5, 2]),
    "bool-dim": lambda e: e.update(shape=[True, 2]),
    "nbytes-mismatch": lambda e: e.update(nbytes=e["nbytes"] + 8),
    "past-the-end": lambda e: e.update(offset=64),
    "negative-offset": lambda e: e.update(offset=-64),
    "missing-field": lambda e: e.pop("offset"),
    "unknown-fields": lambda e: e.clear() or e.update(x=1),
}


class TestProtocol:
    def test_frame_roundtrip(self):
        obj = {"op": "route", "pairs": [[0, 1]], "id": "x", "ttl": None}
        frame = encode_frame(obj)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        back = decode_payload(frame[4:])
        pairs = back.pop("pairs")  # an int list still travels as a blob
        assert pairs.dtype == np.int32 and pairs.tolist() == obj["pairs"]
        assert back == {k: v for k, v in obj.items() if k != "pairs"}

    @pytest.mark.parametrize(
        "obj",
        [
            {"op": "ping"},
            {"op": "route", "pairs": [], "id": 3},
            {"op": "route", "pairs": [[0.5, 1.5]], "ttl": 2},
            {"op": "route", "pairs": [[0, 1], [2]]},
            {"ok": True, "op": "stats", "stats": {"requests": 4}},
            error_response("bad-request", "why", id=[1, "a"]),
        ],
    )
    def test_arrayless_frame_is_v1_json(self, obj):
        payload = json.dumps(obj, separators=(",", ":")).encode()
        assert encode_frame(obj) == struct.pack(">I", len(payload)) + payload
        assert decode_payload(payload) == obj

    def test_blob_frame_layout_and_views(self):
        pairs = np.arange(10, dtype=np.int64).reshape(5, 2)
        frame = encode_frame({"op": "route", "pairs": pairs, "id": 1})
        header, payload, start = _frame_parts(frame)
        assert header["arrays"] == {  # pairs that fit int32 travel as int32
            "pairs": {"dtype": "<i4", "shape": [5, 2], "offset": 0, "nbytes": 40}
        }
        assert payload[start : start + 40] == pairs.astype(np.int32).tobytes()
        buf = bytearray(payload)  # the client's receive buffer
        back = decode_payload(buf)["pairs"]
        assert np.array_equal(back, pairs)
        assert np.shares_memory(back, np.frombuffer(buf, dtype=np.uint8))

    def test_decode_rejects_garbage_and_non_objects(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"not json!")
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2, 3]")
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe")
        with pytest.raises(ProtocolError):  # NUL-delimited, no manifest
            decode_payload(b'{"op":"route"}\0')

    @pytest.mark.parametrize("corruption", sorted(MANIFEST_CORRUPTIONS))
    def test_blob_manifest_corruption_matrix(self, corruption):
        frame = encode_frame({"op": "route", "pairs": np.zeros((4, 2), np.int64)})
        header, _, _ = _frame_parts(frame)
        MANIFEST_CORRUPTIONS[corruption](header["arrays"]["pairs"])
        with pytest.raises(ProtocolError):
            decode_payload(_with_header(frame, header)[4:])

    @pytest.mark.parametrize(
        "header",
        [
            {"op": "route", "pairs": 1},          # blob collides with a field
            {"op": "route", "result": 7},         # nested blob under a scalar
            {"op": "route", "arrays": [1, 2]},    # manifest not an object
        ],
    )
    def test_blob_placement_is_checked(self, header):
        frame = encode_frame({"op": "route", "pairs": np.zeros((1, 2), np.int64),
                              "result": {"x": np.zeros(1)}})
        manifest, _, _ = _frame_parts(frame)
        if "arrays" not in header:
            header = dict(header, arrays=manifest["arrays"])
        with pytest.raises(ProtocolError):
            decode_payload(_with_header(frame, header)[4:])

    def test_error_response_shape(self):
        for code in ERROR_CODES:
            resp = error_response(code, "why")
            assert resp == {"ok": False, "error": code, "message": "why"}

    @given(
        n=st.integers(min_value=2, max_value=50),
        m=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        big_endian=st.booleans(),
        stride=st.integers(min_value=1, max_value=3),
        receive_buffer=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_result_codec_bit_identity(
        self, n, m, seed, big_endian, stride, receive_buffer
    ):
        """Arbitrary result columns survive the wire bit for bit —
        float64 weights that are not short decimals, big-endian inputs
        and non-contiguous slices included."""
        full = _result_columns(n, m * stride, seed)
        result = BatchResult(**{
            col: (
                getattr(full, col)[::stride].astype(
                    getattr(full, col).dtype.newbyteorder(">")
                )
                if big_endian
                else getattr(full, col)[::stride]
            )
            for col in RESULT_COLS
        })
        payload = encode_frame({"ok": True, "result": result_to_wire(result)})[4:]
        if receive_buffer:
            payload = bytearray(payload)
        decoded = result_from_wire(decode_payload(payload)["result"])
        for col in RESULT_COLS:
            got, want = getattr(decoded, col), getattr(result, col)
            assert got.dtype == want.dtype.newbyteorder("="), col
            assert got.tobytes() == np.ascontiguousarray(want, dtype=got.dtype).tobytes(), col

    def test_result_from_wire_rejects_malformed(self):
        with pytest.raises(ProtocolError):
            result_from_wire({"source": np.zeros(1, np.int64)})  # columns missing
        with pytest.raises(ProtocolError):
            result_from_wire([1, 2])
        good = result_to_wire(_result_columns(10, 2, 0))
        result_from_wire(good)
        for name, bad in (
            ("weight", ["NaN-ish garbage"]),
            ("weight", [0.5, 1.5]),                     # a list, not a blob
            ("weight", good["weight"].astype(np.float32)),
            ("source", good["source"].astype(np.int64)),
            ("delivered", good["delivered"].astype(np.int8)),
            ("source", good["source"][:1]),             # ragged
            ("dest", good["dest"].reshape(1, 2)),       # not 1-D
        ):
            with pytest.raises(ProtocolError):
                result_from_wire(dict(good, **{name: bad}))

    @given(
        answers=st.integers(min_value=0, max_value=30),
        extra=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_answers_roundtrip_with_and_without_rows(self, answers, extra, seed):
        """The answers of U distinct pairs and a rows index of P ≥ U
        entries travel as they are and decode to the expanded result,
        as the expanded result does without ``rows``;
        ``delivered_from_wire`` counts what the decode delivers."""
        distinct = _result_columns(50, answers, seed)
        rng = np.random.default_rng(seed)
        rows = np.concatenate([
            np.arange(answers), rng.integers(0, max(answers, 1), extra if answers else 0)
        ]).astype(np.int32)
        rng.shuffle(rows)
        expanded = distinct.take(rows)
        for wire in (result_to_wire(distinct, rows), result_to_wire(expanded)):
            payload = encode_frame({"ok": True, "result": wire})[4:]
            sent = decode_payload(payload)["result"]
            assert sent["source"].shape[0] == (answers if "rows" in wire else rows.shape[0])
            decoded = result_from_wire(sent)
            assert_results_identical(expanded, decoded)
            assert delivered_from_wire(sent) == decoded.delivered_count
        assert "rows" in result_to_wire(distinct, rows)

    def test_result_from_wire_rejects_malformed_rows(self):
        good = result_to_wire(_result_columns(10, 4, 0), np.tile(np.arange(4, dtype=np.int32), 40))
        assert "rows" in good
        result_from_wire(good)
        for bad in (
            good["rows"].astype(np.int64),          # not int32
            good["rows"].astype(np.uint32),
            good["rows"].reshape(-1, 2),            # not 1-D
            good["rows"].tolist(),                  # a list, not a blob
            np.array([0, 4], dtype=np.int32),       # past the answers
            np.array([-1, 0], dtype=np.int32),      # negative
        ):
            for decode in (result_from_wire, delivered_from_wire):
                with pytest.raises(ProtocolError, match="rows"):
                    decode(dict(good, rows=bad))
        no_answers = {name: col[:0] for name, col in good.items() if name != "rows"}
        result_from_wire(dict(no_answers, rows=np.zeros(0, np.int32)))
        assert delivered_from_wire(dict(no_answers, rows=np.zeros(0, np.int32))) == 0
        for decode in (result_from_wire, delivered_from_wire):
            with pytest.raises(ProtocolError, match="rows"):
                decode(dict(no_answers, rows=np.zeros(1, np.int32)))

    @pytest.mark.parametrize("m", [0, 1, 63, 4097, 100_000])
    def test_route_answer_bytes_bounds_the_answer(self, m):
        """The bound holds for both answer shapes — every pair distinct
        (no ``rows``), and from two pairs up all but one distinct with
        ``rows`` — and is tight for the larger: 34 bytes a pair."""
        answers = [result_to_wire(_result_columns(50, m, m))]
        if m >= 2:
            rows = np.minimum(np.arange(m), m - 2).astype(np.int32)
            answers.append(result_to_wire(_result_columns(50, m - 1, m), rows))
        sizes = [
            len(encode_frame({
                "ok": True, "op": "route", "version": 12, "key": "k" * 64,
                "seconds": 0.123456789, "id": "request-tag", "result": answer,
            }))
            for answer in answers
        ]
        assert max(sizes) <= route_answer_bytes(m) <= max(sizes) + 4096 + 64 * 10
        assert route_answer_bytes(m) - route_answer_bytes(0) >= 34 * m


# ---------------------------------------------------------------------------
# scheme LRU
# ---------------------------------------------------------------------------
class _Closeable:
    def __init__(self, key):
        self.key = key
        self.closed = False

    def close(self):
        self.closed = True


class TestSchemeLRU:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SchemeLRU(0)

    def test_opener_failure_leaves_cache_unchanged(self):
        lru = SchemeLRU(2)
        lru.get("a", lambda: _Closeable("a"))

        def boom():
            raise OSError("mmap failed")

        with pytest.raises(OSError):
            lru.get("b", boom)
        assert lru.keys() == ["a"] and len(lru) == 1

    @given(
        capacity=st.integers(min_value=1, max_value=5),
        accesses=st.lists(
            st.integers(min_value=0, max_value=9), min_size=1, max_size=60
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_capacity_bound_and_lru_order(self, capacity, accesses):
        """Model check: for any access sequence the cache (a) never
        exceeds capacity, (b) holds exactly the most-recently-used
        distinct keys, LRU-first, (c) closes exactly the evicted
        entries."""
        lru = SchemeLRU(capacity)
        opened = {}
        recency = []  # most recent last, distinct keys

        for a in accesses:
            key = f"k{a}"
            entry = lru.get(key, lambda k=key: opened.setdefault(
                k, []
            ).append(_Closeable(k)) or opened[k][-1])
            assert entry.key == key
            if key in recency:
                recency.remove(key)
            recency.append(key)
            assert len(lru) <= capacity
            expect = recency[-capacity:]
            assert lru.keys() == expect
            # the live entry for each cached key is its newest opening
            for k in expect:
                assert not opened[k][-1].closed
        # every opening not currently cached has been closed
        cached = set(lru.keys())
        for k, instances in opened.items():
            for inst in instances[:-1]:
                assert inst.closed
            if k not in cached:
                assert instances[-1].closed
        stats = lru.stats()
        assert stats["size"] == len(lru) <= stats["capacity"] == capacity
        assert stats["hits"] + stats["misses"] == len(accesses)
        assert stats["misses"] == sum(len(v) for v in opened.values())

    def test_explicit_evict_and_clear(self):
        lru = SchemeLRU(3)
        entries = [lru.get(k, lambda k=k: _Closeable(k)) for k in "abc"]
        assert lru.evict("b") and not lru.evict("b")
        assert entries[1].closed and not entries[0].closed
        lru.clear()
        assert len(lru) == 0 and all(e.closed for e in entries)
        assert lru.evictions == 3

    def test_evict_then_remmap_is_bit_identical(self, tmp_path):
        """The correctness half of eviction: a tenant dropped from the
        cache and re-opened on its next hit answers bit-identically."""
        store, key, graph, ported, arrays = publish_scheme(tmp_path, seed=11)
        path = str(store.pointer_path(key))
        lru = SchemeLRU(1)
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, graph.n, size=(64, 2)).astype(np.int64)

        service = lru.get(path, lambda: RouteService(path))
        before = service.route(pairs)
        lru.get("other-tenant", lambda: _Closeable("other"))  # evicts
        assert path not in lru
        reopened = lru.get(path, lambda: RouteService(path))
        assert reopened is not service
        assert_results_identical(before, reopened.route(pairs))
        assert lru.stats()["evictions"] >= 1


# ---------------------------------------------------------------------------
# zipf traffic
# ---------------------------------------------------------------------------
class TestZipfTraffic:
    def test_weights_normalized_and_skewed(self):
        w = zipf_weights(100, 1.2)
        assert w.shape == (100,) and np.isclose(w.sum(), 1.0)
        assert np.all(np.diff(w) < 0)  # strictly rank-decreasing
        flat = zipf_weights(50, 0.0)
        assert np.allclose(flat, 1.0 / 50)
        with pytest.raises(ValueError):
            zipf_weights(0, 1.2)

    def test_traffic_shape_determinism_and_bounds(self):
        a = zipf_traffic(40, users=5, requests=6, batch=16, rng=9)
        b = zipf_traffic(40, users=5, requests=6, batch=16, rng=9)
        assert len(a) == 6
        for ma, mb in zip(a, b):
            assert np.array_equal(ma, mb)
            assert ma.shape == (16, 2) and ma.dtype == np.int64
            assert np.all(ma[:, 0] != ma[:, 1])
            assert ma.min() >= 0 and ma.max() < 40
        # sources are confined to the 5 user vertices
        srcs = np.unique(np.concatenate([m[:, 0] for m in a]))
        assert srcs.size <= 5
        with pytest.raises(ValueError):
            zipf_traffic(1, users=1, requests=1, batch=1)


# ---------------------------------------------------------------------------
# daemon, in process
# ---------------------------------------------------------------------------
class TestDaemon:
    def test_route_bit_identical_to_direct_router(self, tmp_path):
        store, key, graph, ported, arrays = publish_scheme(tmp_path, seed=21)
        ref_router = BatchRouter.from_compiled(
            compile_from_arrays(arrays, ported)
        )
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, graph.n, size=(48, 2)).astype(np.int64)
        ref = ref_router.route_pairs(pairs)

        with running_daemon(tmp_path, default_scheme=key) as rd:
            with rd.client() as c:
                pong = c.request({"op": "ping"})
                assert pong["ok"] and pong["pid"] == os.getpid()
                assert pong["protocol"] == 3
                desc = c.request({"op": "describe"})
                assert desc["ok"] and desc["n"] == graph.n and desc["k"] == 2
                resp = c.request(
                    {"op": "route", "pairs": pairs.tolist(), "id": 7}
                )
                assert resp["ok"] and resp["id"] == 7
                assert resp["version"] == 0 and resp["key"] == key
                assert_results_identical(ref, result_from_wire(resp["result"]))
                stats = c.request({"op": "stats"})
                assert stats["stats"]["routed_pairs"] == 48
        assert rd.stats["requests"] == 1

    def test_multi_tenant_lru_eviction_and_reopen(self, tmp_path):
        """Two tenants through a capacity-1 LRU: alternating requests
        force evict → re-mmap every time, answers stay correct."""
        store, key_a, graph_a, ported_a, arrays_a = publish_scheme(
            tmp_path, seed=31, family="gnp"
        )
        graph_b = family_from_seed(32, "grid")
        ported_b = assign_ports(graph_b, "sorted")
        arrays_b = build_arrays(graph_b, 2, ported=ported_b, rng=32)
        key_b = store.publish(graph_b, ported_b, arrays_b, seed=32)

        rng = np.random.default_rng(2)
        pairs_a = rng.integers(0, graph_a.n, size=(16, 2)).astype(np.int64)
        pairs_b = rng.integers(0, graph_b.n, size=(16, 2)).astype(np.int64)
        ref_a = BatchRouter.from_compiled(
            compile_from_arrays(arrays_a, ported_a)
        ).route_pairs(pairs_a)
        ref_b = BatchRouter.from_compiled(
            compile_from_arrays(arrays_b, ported_b)
        ).route_pairs(pairs_b)

        with running_daemon(tmp_path, lru_capacity=1) as rd:
            with rd.client() as c:
                for _ in range(3):
                    ra = c.request(
                        {"op": "route", "scheme": key_a,
                         "pairs": pairs_a.tolist()}
                    )
                    rb = c.request(
                        {"op": "route", "scheme": key_b,
                         "pairs": pairs_b.tolist()}
                    )
                    assert ra["ok"] and rb["ok"]
                    assert_results_identical(
                        ref_a, result_from_wire(ra["result"])
                    )
                    assert_results_identical(
                        ref_b, result_from_wire(rb["result"])
                    )
                stats = c.request({"op": "stats"})
            assert stats["lru"]["size"] == 1
            assert stats["lru"]["evictions"] >= 5

    def test_error_paths(self, tmp_path):
        store, key, graph, *_ = publish_scheme(tmp_path, seed=41)
        with running_daemon(tmp_path) as rd:
            with rd.client() as c:
                assert c.request({"op": "fly"})["error"] == "unknown-op"
                assert (
                    c.request({"op": "describe", "scheme": "nope"})["error"]
                    == "unknown-scheme"
                )
                # no scheme named and no default configured
                resp = c.request({"op": "route", "pairs": [[0, 1]]})
                assert resp["error"] == "unknown-scheme"
                for bad in (
                    {"op": "route", "scheme": key},
                    {"op": "route", "scheme": key, "pairs": [[0, 1, 2]]},
                    {"op": "route", "scheme": key, "pairs": "zzz"},
                    {"op": "route", "scheme": key,
                     "pairs": [[0, graph.n + 5]]},
                ):
                    resp = c.request(bad)
                    assert not resp["ok"]
                    assert resp["error"] == "bad-request", bad
                # the connection survived every error
                assert c.request({"op": "ping"})["ok"]

    def test_answer_over_frame_limit_is_refused_before_routing(self, tmp_path):
        """A batch whose answer cannot fit one frame is refused at
        admission (its request frame itself fits), and the stream stays
        in sync; the largest admitted batch's answer is readable."""
        store, key, graph, *_ = publish_scheme(tmp_path, seed=43)
        limit = 64 * 1024
        fit = (limit - route_answer_bytes(0) - 9 * 64) // 34
        assert route_answer_bytes(fit) <= limit < route_answer_bytes(fit + 200)
        pairs = np.zeros((fit + 200, 2), dtype=np.int64)
        pairs[:, 1] = 1
        with running_daemon(
            tmp_path, default_scheme=key, max_frame_bytes=limit
        ) as rd:
            with rd.client() as c:
                resp = c.request({"op": "route", "pairs": pairs, "id": 1})
                assert resp["error"] == "bad-request" and resp["id"] == 1
                assert "frame limit" in resp["message"]
                resp = c.request({"op": "route", "pairs": pairs[:fit]}, max_bytes=limit)
                assert resp["ok"] and result_from_wire(resp["result"]).attempted == fit
                assert c.request({"op": "stats"})["stats"]["routed_pairs"] == fit

    def test_duplicate_heavy_answers_decode_to_the_service_route(self, tmp_path):
        """Zipf traffic repeats pairs: the daemon ships each distinct
        answer once, with the ``rows`` index, and the client decodes
        exactly what ``RouteService.route`` answers in process."""
        store, key, graph, *_ = publish_scheme(tmp_path, seed=47)
        batches = zipf_traffic(graph.n, users=8, requests=3, batch=2048, rng=47)
        batches.append(np.array([[0, 1]] * 64))  # one pair, 64 times
        service = RouteService(store.path_for(key))
        with running_daemon(tmp_path, default_scheme=key) as rd:
            with rd.client() as c:
                for pairs in batches:
                    resp = c.request({"op": "route", "pairs": pairs})
                    assert resp["ok"], resp
                    wire = resp["result"]
                    assert wire["rows"].shape == (pairs.shape[0],)
                    assert wire["source"].shape[0] == len({tuple(p) for p in pairs.tolist()})
                    assert_results_identical(
                        service.route(pairs), result_from_wire(wire)
                    )

    def test_backpressure_sheds_and_stays_responsive(self, tmp_path):
        store, key, graph, *_ = publish_scheme(tmp_path, seed=51)
        release = threading.Event()
        started = threading.Event()

        def slow_route(service, pairs, ttl):
            started.set()
            release.wait(30)
            return RouteDaemon._route_sync(service, pairs, ttl)

        with running_daemon(
            tmp_path, default_scheme=key, queue_limit=2
        ) as rd:
            rd.daemon._route_sync = slow_route
            host, port = rd.address
            # one in-flight + two queued fill the daemon; the rest shed
            clients = [DaemonClient(host, port) for _ in range(6)]
            try:
                clients[0].send_raw(encode_frame(
                    {"op": "route", "pairs": [[0, 1]], "id": 0}
                ))
                assert started.wait(20)  # request 0 is now in flight
                for i, c in enumerate(clients[1:], start=1):
                    c.send_raw(encode_frame(
                        {"op": "route", "pairs": [[0, 1]], "id": i}
                    ))
                with rd.client() as probe:
                    deadline = time.monotonic() + 20
                    while time.monotonic() < deadline:
                        stats = probe.request({"op": "stats"})["stats"]
                        if stats["shed"] >= 3:
                            break
                        time.sleep(0.05)
                    assert stats["shed"] >= 3
                    assert probe.request({"op": "ping"})["ok"]
                release.set()
                outcomes = {"ok": 0, "backpressure": 0}
                for c in clients:
                    resp = c.read_response()
                    if resp["ok"]:
                        outcomes["ok"] += 1
                    else:
                        assert resp["error"] == "backpressure"
                        assert resp["queue_depth"] >= 0
                        outcomes["backpressure"] += 1
                assert outcomes["ok"] == 3  # 1 in flight + queue_limit
                assert outcomes["backpressure"] == 3
            finally:
                release.set()
                for c in clients:
                    c.close()

    def test_request_timeout(self, tmp_path):
        store, key, graph, *_ = publish_scheme(tmp_path, seed=61)

        def stuck_route(service, pairs, ttl):
            time.sleep(2.0)
            return RouteDaemon._route_sync(service, pairs, ttl)

        with running_daemon(
            tmp_path, default_scheme=key, timeout=0.2
        ) as rd:
            rd.daemon._route_sync = stuck_route
            with rd.client() as c:
                resp = c.request({"op": "route", "pairs": [[0, 1]]})
                assert not resp["ok"] and resp["error"] == "timeout"
            assert rd.daemon.stats["timeouts"] == 1

    def test_graceful_shutdown_drains_queued_requests(self, tmp_path):
        """Requests admitted before the shutdown op are all answered."""
        store, key, graph, *_ = publish_scheme(tmp_path, seed=71)
        gate = threading.Event()
        started = threading.Event()

        def gated_route(service, pairs, ttl):
            started.set()
            gate.wait(30)
            return RouteDaemon._route_sync(service, pairs, ttl)

        with running_daemon(tmp_path, default_scheme=key) as rd:
            rd.daemon._route_sync = gated_route
            host, port = rd.address
            workers = [DaemonClient(host, port) for _ in range(3)]
            try:
                for i, c in enumerate(workers):
                    c.send_raw(encode_frame(
                        {"op": "route", "pairs": [[0, 1]], "id": i}
                    ))
                # all three admitted: one in flight, two queued
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline and not (
                    started.is_set() and rd.daemon._queue.qsize() == 2
                ):
                    time.sleep(0.01)
                assert started.is_set() and rd.daemon._queue.qsize() == 2
                with rd.client() as c:
                    assert c.request({"op": "shutdown"})["ok"]
                gate.set()
                answered = sorted(c.read_response()["id"] for c in workers)
                assert answered == [0, 1, 2]
            finally:
                gate.set()
                for c in workers:
                    c.close()
        assert rd.stats["requests"] == 3

    def test_draining_daemon_rejects_new_routes(self, tmp_path):
        store, key, graph, *_ = publish_scheme(tmp_path, seed=81)
        with running_daemon(tmp_path, default_scheme=key) as rd:
            rd.daemon._draining = True
            with rd.client() as c:
                resp = c.request({"op": "route", "pairs": [[0, 1]]})
                assert resp["error"] == "shutting-down"
            rd.daemon._draining = False

    def test_overlapping_requests_keep_their_own_route_spans(self, tmp_path):
        """Three workers route at once, with telemetry on: every
        ``serve.request`` span holds exactly its own ``serve.route`` and
        no other request, although the routes run on executor threads."""
        from repro.obs import TELEMETRY

        store, key, graph, *_ = publish_scheme(tmp_path, seed=91)
        overlap = threading.Barrier(3, timeout=30)

        def overlapping_route(service, pairs, ttl):
            overlap.wait()  # all three routes are in flight together
            return RouteDaemon._route_sync(service, pairs, ttl)

        rng = np.random.default_rng(91)
        pairs = rng.integers(0, graph.n, size=(20_000, 2))
        answers = []

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with running_daemon(tmp_path, default_scheme=key, workers=3) as rd:
                rd.daemon._route_sync = overlapping_route

                def client():
                    with rd.client() as c:
                        for _ in range(3):
                            answers.append(c.request({"op": "route", "pairs": pairs})["ok"])

                clients = [threading.Thread(target=client) for _ in range(3)]
                for t in clients:
                    t.start()
                for t in clients:
                    t.join(60)
                assert not any(t.is_alive() for t in clients)
            requests = [
                sp for sp, _ in TELEMETRY.spans() if sp.name == "serve.request"
            ]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
            sys.setswitchinterval(switch)
        assert answers == [True] * 9
        assert len(requests) == 9
        for request in requests:
            inside = [sp.name for sp, _ in request.walk()][1:]
            assert inside.count("serve.route") == 1, inside
            assert "serve.request" not in inside, inside

    def test_each_route_request_counts_once(self, tmp_path):
        """With telemetry on, N route requests to an in-process daemon
        count N ``serve.requests`` (the route's own count, not a second
        one from the daemon) and every pair once in ``serve.pairs``."""
        from repro.obs import TELEMETRY

        store, key, graph, *_ = publish_scheme(tmp_path, seed=92)
        pairs = [[0, 1], [1, graph.n - 1]]
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with running_daemon(tmp_path, default_scheme=key) as rd:
                with rd.client() as c:
                    for _ in range(3):
                        assert c.request({"op": "route", "pairs": pairs})["ok"]
            counters = dict(TELEMETRY.counters)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert counters["serve.requests"] == 3
        assert counters["serve.pairs"] == 6


class TestRouteValidation:
    """Malformed route fields are refused with ``bad-request``, unrouted."""

    @pytest.fixture(scope="class")
    def live(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("validation")
        store, key, graph, ported, arrays = publish_scheme(tmp_path, seed=45)
        with running_daemon(tmp_path, default_scheme=key) as rd:
            yield rd, BatchRouter.from_compiled(compile_from_arrays(arrays, ported))

    @pytest.mark.parametrize(
        "fields",
        [
            {"pairs": [[0.9, 1.7]]},
            {"pairs": [[True, False]]},
            {"pairs": [["1", "2"]]},
            {"pairs": [[0, 1], [2]]},
            {"pairs": np.array([[0.0, 1.0]])},
            {"pairs": np.array([[True, False]])},
            {"pairs": [[0, 1]], "ttl": "abc"},
            {"pairs": [[0, 1]], "ttl": 2.7},
            {"pairs": [[0, 1]], "ttl": -1},
            {"pairs": [[0, 1]], "ttl": True},
            {"pairs": [[0, 1]], "ttl": 2**31},
        ],
        ids=[
            "float-list", "bool-list", "string-list", "ragged-list",
            "float-blob", "bool-blob", "ttl-string", "ttl-float",
            "ttl-negative", "ttl-bool", "ttl-2^31",
        ],
    )
    def test_malformed_route_input_is_refused(self, live, fields):
        rd, _ = live
        with rd.client() as c:
            before = c.request({"op": "stats"})["stats"]["routed_pairs"]
            resp = c.request({"op": "route", "id": 9, **fields})
            assert not resp["ok"] and resp["error"] == "bad-request", resp
            assert resp["id"] == 9
            assert c.request({"op": "stats"})["stats"]["routed_pairs"] == before

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    @pytest.mark.parametrize("ttl", [None, 0, 5, 2**31 - 1])
    def test_integer_pairs_of_any_width_route(self, live, dtype, ttl):
        rd, router = live
        pairs = np.array([[0, 1], [2, 0], [1, 1]])
        with rd.client() as c:
            resp = c.request({"op": "route", "pairs": pairs.astype(dtype), "ttl": ttl})
        assert resp["ok"], resp
        assert_results_identical(
            router.route_pairs(pairs, ttl=ttl), result_from_wire(resp["result"])
        )


# ---------------------------------------------------------------------------
# protocol fuzz against a live daemon
# ---------------------------------------------------------------------------
class TestProtocolFuzz:
    @pytest.fixture()
    def live(self, tmp_path):
        publish_scheme(tmp_path, seed=91)
        with running_daemon(tmp_path) as rd:
            yield rd

    def test_garbage_json_answers_and_survives(self, live):
        with live.client() as c:
            c.send_raw(struct.pack(">I", 9) + b"not json!")
            resp = c.read_response()
            assert resp["error"] == "bad-frame"
            assert c.request({"op": "ping"})["ok"]  # stream still in sync

    def test_non_object_payload_answers_and_survives(self, live):
        with live.client() as c:
            c.send_raw(struct.pack(">I", 7) + b"[1,2,3]")
            assert c.read_response()["error"] == "bad-frame"
            assert c.request({"op": "ping"})["ok"]

    @pytest.mark.parametrize("corruption", sorted(MANIFEST_CORRUPTIONS))
    def test_corrupt_manifest_answers_bad_frame(self, live, corruption):
        frame = encode_frame({"op": "route", "pairs": np.zeros((4, 2), np.int64)})
        header, _, _ = _frame_parts(frame)
        MANIFEST_CORRUPTIONS[corruption](header["arrays"]["pairs"])
        with live.client() as c:
            c.send_raw(_with_header(frame, header))
            assert c.read_response()["error"] == "bad-frame"
            assert c.request({"op": "ping"})["ok"]  # stream still in sync

    def test_oversized_length_answers_then_closes(self, live):
        with live.client() as c:
            c.send_raw(struct.pack(">I", 2**31))
            resp = c.read_response()
            assert resp["error"] == "bad-frame"
            # stream is desynced: the daemon must hang up on us
            assert c.read_response() is None

    def test_truncated_frame_then_hangup_is_harmless(self, live):
        with live.client() as c:
            c.send_raw(struct.pack(">I", 100) + b"only a few bytes")
        # daemon just drops the connection; it still serves others
        with live.client() as c:
            assert c.request({"op": "ping"})["ok"]

    def test_partial_length_prefix_hangup_is_harmless(self, live):
        with live.client() as c:
            c.send_raw(b"\x00\x00")
        with live.client() as c:
            assert c.request({"op": "ping"})["ok"]

    @given(data=st.binary(min_size=0, max_size=64))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_bytes_never_kill_the_daemon(self, live, data):
        with live.client() as c:
            try:
                c.send_raw(data)
                c.sock.settimeout(0.2)
                try:
                    c.read_response()
                except (ProtocolError, socket.timeout, OSError):
                    pass
            except OSError:
                pass
        with live.client() as c:
            assert c.request({"op": "ping"})["ok"]


# ---------------------------------------------------------------------------
# loadgen
# ---------------------------------------------------------------------------
class TestLoadgen:
    def test_report_against_live_daemon(self, tmp_path):
        store, key, graph, ported, arrays = publish_scheme(tmp_path, seed=101)
        with running_daemon(tmp_path, default_scheme=key, workers=2) as rd:
            host, port = rd.address
            report = run_loadgen(
                host, port, users=10, connections=2, requests=10,
                batch=32, seed=5,
            )
        doc = report.to_dict()
        assert doc["kind"] == "tz-loadgen-report"
        assert report.errors == 0
        assert report.total_pairs == 10 * 32
        assert doc["versions_seen"] == [0]
        assert report.pairs_per_second > 0
        assert 0 <= report.p50 <= report.p99
        assert doc["delivery_rate"] is not None

    def test_loadgen_counts_errors_not_raises(self, tmp_path):
        publish_scheme(tmp_path, seed=103)
        with running_daemon(tmp_path) as rd:  # no default scheme
            host, port = rd.address
            with pytest.raises(ProtocolError):
                run_loadgen(host, port, requests=2)  # describe fails

    def test_a_dropped_connection_counts_every_request_it_loses(self):
        """A stub that answers ``describe`` and then closes each
        connection: every route request is counted as a ``connection``
        error, the one in flight and those never sent, none dropped."""

        class HangUp(socketserver.BaseRequestHandler):
            def handle(self):
                request = read_frame(self.request)
                if request is not None and request.get("op") == "describe":
                    write_frame(self.request, {"ok": True, "n": 50})

        with socketserver.ThreadingTCPServer(("127.0.0.1", 0), HangUp) as server:
            server.daemon_threads = True
            serving = threading.Thread(target=server.serve_forever, daemon=True)
            serving.start()
            try:
                host, port = server.server_address
                report = run_loadgen(
                    host, port, connections=2, requests=6, batch=8, timeout=10
                )
            finally:
                server.shutdown()
        assert report.errors == 6
        assert report.error_codes == {"connection": 6}
        assert report.total_pairs == 0 and report.latencies.size == 0


# ---------------------------------------------------------------------------
# the serving soak test: hot reload under live traffic, over the wire
# ---------------------------------------------------------------------------
class TestServingSoak:
    def _publish_v1(self, store, root, graph, ported, arrays, seed):
        """Patch several weights and publish v1 on the same lineage."""
        updates = tuple(
            (int(u), int(v), float(graph.edge_weights[eid] + 5.0))
            for eid, (u, v) in enumerate(graph.edges[:8])
        )
        delta = GraphDelta(weight_updates=updates)
        patched = patch_arrays(arrays, graph, delta, ported=ported)
        store.publish_patch(
            root, patched.graph, patched.ported, patched.arrays,
            delta=delta, seed=seed,
        )
        return patched

    def test_subprocess_soak_lineage_swap_mid_load(self, tmp_path):
        """The acceptance scenario end to end: a real ``repro serve
        --daemon`` subprocess, clients streaming batches over TCP, a
        ``publish_patch`` repointing the lineage mid-load.  Every
        response must be bit-identical to one single-version reference
        (old or new), the swap must land, and SIGTERM must drain to a
        clean exit."""
        store, root, graph, ported, arrays = publish_scheme(
            tmp_path, seed=4, family="gnp"
        )
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, graph.n, size=(64, 2)).astype(np.int64)
        ref0 = BatchRouter.from_compiled(
            compile_from_arrays(arrays, ported)
        ).route_pairs(pairs)
        updates = tuple(
            (int(u), int(v), float(graph.edge_weights[eid] + 5.0))
            for eid, (u, v) in enumerate(graph.edges[:8])
        )
        delta = GraphDelta(weight_updates=updates)
        patched = patch_arrays(arrays, graph, delta, ported=ported)
        ref1 = BatchRouter.from_compiled(
            compile_from_arrays(patched.arrays, patched.ported)
        ).route_pairs(pairs)
        assert not np.array_equal(ref0.weight, ref1.weight)

        port_file = tmp_path / "port"
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--daemon",
                "--store", str(tmp_path), "--scheme", root,
                "--port", "0", "--port-file", str(port_file),
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stdout.read()
                time.sleep(0.05)
            assert port_file.exists(), "daemon never wrote its port file"
            port = int(port_file.read_text())

            batches = {"old": 0, "new": 0}
            published = threading.Event()

            def publisher():
                # let some traffic land on v0 first
                while batches["old"] < 3:
                    time.sleep(0.01)
                store.publish_patch(
                    root, patched.graph, patched.ported, patched.arrays,
                    delta=delta, seed=4,
                )
                published.set()

            pub = threading.Thread(target=publisher)
            pub.start()
            with DaemonClient("127.0.0.1", port) as c:
                for _ in range(400):
                    resp = c.request(
                        {"op": "route", "pairs": pairs.tolist()}
                    )
                    assert resp["ok"], resp
                    got = result_from_wire(resp["result"])
                    is_old = np.array_equal(got.weight, ref0.weight)
                    is_new = np.array_equal(got.weight, ref1.weight)
                    assert is_old != is_new, "batch mixed scheme versions"
                    if is_old:
                        assert resp["version"] == 0
                        batches["old"] += 1
                    else:
                        assert resp["version"] == 1
                        batches["new"] += 1
                        if batches["new"] >= 3:
                            break
                pub.join(30)
                # once published, the very next batch serves v1 exactly
                resp = c.request({"op": "route", "pairs": pairs.tolist()})
                assert resp["version"] == 1
                assert_results_identical(ref1, result_from_wire(resp["result"]))
            assert batches["old"] >= 3 and batches["new"] >= 3

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "daemon drained" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)

    def test_in_process_hot_reload_over_the_wire(self, tmp_path):
        """Same invariant without the subprocess: cheaper, runs the
        daemon code in-thread so coverage sees it."""
        store, root, graph, ported, arrays = publish_scheme(
            tmp_path, seed=6, family="gnp"
        )
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, graph.n, size=(32, 2)).astype(np.int64)
        ref0 = BatchRouter.from_compiled(
            compile_from_arrays(arrays, ported)
        ).route_pairs(pairs)
        patched = self._publish_v1(store, root, graph, ported, arrays, 6)
        ref1 = BatchRouter.from_compiled(
            compile_from_arrays(patched.arrays, patched.ported)
        ).route_pairs(pairs)

        with running_daemon(tmp_path, default_scheme=root) as rd:
            with rd.client() as c:
                resp = c.request({"op": "route", "pairs": pairs.tolist()})
                assert resp["version"] == 1
                assert_results_identical(
                    ref1, result_from_wire(resp["result"])
                )
        assert not np.array_equal(ref0.weight, ref1.weight)


def test_daemon_imports_load_no_scipy():
    """``repro serve --daemon`` never runs a shortest-path sweep, so its
    imports must not pull in scipy (a third of a second of start-up)."""
    code = (
        "import sys, repro.cli, repro.serve, repro.store; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_daemon_process_keeps_freed_memory():
    """``retain_freed_memory`` sets glibc's thresholds (in a fresh
    process: it changes the allocator of the process that calls it)
    and reports False where the C library has no working ``mallopt``,
    as under a preloaded sanitizer allocator, whose stub refuses."""
    code = (
        "from repro.serve.daemon import retain_freed_memory; "
        "print(retain_freed_memory())"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    got = out.stdout.strip()
    glibc = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"
    if glibc and not os.environ.get("LD_PRELOAD"):
        assert got == "True"
    else:
        assert got in ("True", "False")
