"""The persistent scheme store: round trips, corruption, serving.

The contract under test is the acceptance bar of the store PR: a scheme
saved by :class:`SchemeStore` and loaded via mmap must route **bit-for-
bit identically** to the freshly built in-memory scheme (delivered,
weight, hops, header bits), across generator families; and a damaged
store file must raise a clean :class:`EncodingError` — never return
wrong routes.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import reference_graph
from repro.core.build import build_arrays
from repro.core.build.arrays import DERIVED_COLUMNS
from repro.errors import EncodingError
from repro.graphs.ports import assign_ports
from repro.kernels import available, native_error
from repro.rng import make_rng, sample_pairs
from repro.sim.engine import batch
from repro.sim.engine.batch import BatchRouter
from repro.sim.engine.compile import (
    ARRAY_BOUND,
    ARRAYS_IN_RECORD,
    DERIVED,
    ENT_DTYPE,
    STEP_DTYPE,
    compile_from_arrays,
)
from repro.store import (
    FORMAT_VERSION,
    RouteService,
    SchemeStore,
    graph_content_hash,
    port_hash,
    read_container,
    scheme_key,
    write_container,
)
from repro.store.format import DIGEST_CHUNK, read_header
from repro.store.schemes import RECORD_ONLY, STORED_ARRAYS_FIELDS
from strategies import FAMILIES, family_from_seed, hub_graph

ROUTE_FIELDS = ("delivered", "weight", "hops", "max_header_bits", "failure_code")


def _build_instance(family: str, seed: int, k: int):
    graph = family_from_seed(seed, family, n=36)
    ported = assign_ports(graph, "random", rng=seed + 9)
    return graph, ported


def _rewrite_header(path: Path, edit) -> None:
    """Re-write ``path`` with ``edit(header)`` applied and a valid CRC,
    keeping its data section."""
    data = path.read_bytes()
    hlen = int.from_bytes(data[12:20], "little")
    header = json.loads(data[24 : 24 + hlen])
    blobs = data[-(-(24 + hlen) // 64) * 64 :]
    header = edit(header) or header
    hjson = json.dumps(header).encode()
    head = (
        data[:12] + len(hjson).to_bytes(8, "little")
        + zlib.crc32(hjson).to_bytes(4, "little") + hjson
    )
    path.write_bytes(head + bytes(-(-len(head) // 64) * 64 - len(head)) + blobs)


#: Header tampering (checksum kept valid) that must raise EncodingError.
HEADER_CORRUPTIONS = {
    "negative-dims": lambda h: h["arrays"]["a"].update(shape=[-2, -4]),
    "object-dtype": lambda h: h["arrays"]["a"].update(dtype="|O"),
    "unicode-dtype": lambda h: h["arrays"]["a"].update(dtype="<U2"),
    "big-endian": lambda h: h["arrays"]["a"].update(dtype=">i8"),
    "float-dim": lambda h: h["arrays"]["a"].update(shape=[1.5]),
    "string-offset": lambda h: h["arrays"]["a"].update(offset="0"),
    "past-the-end": lambda h: h["arrays"]["a"].update(offset=h["data_bytes"]),
    "nbytes-mismatch": lambda h: h["arrays"]["a"].update(nbytes=16),
    "manifest-not-object": lambda h: h.update(arrays=[1]),
    "data-bytes-string": lambda h: h.update(data_bytes="64"),
    "header-not-object": lambda h: [h],
}


def _short(name: str, rows: int = 1):
    """Header edit: drop ``rows`` rows off blob ``name`` (nbytes kept
    consistent, so the container itself stays well-formed)."""

    def edit(header):
        spec = header["arrays"][name]
        row = spec["nbytes"] // spec["shape"][0]
        spec["shape"][0] -= rows
        spec["nbytes"] -= rows * row

    return edit


def _retype(name: str, dtype: str):
    """Header edit: blob ``name`` read as ``dtype``, shape kept (its
    nbytes follows, so the blob stays inside the data section)."""

    def edit(header):
        spec = header["arrays"][name]
        spec["dtype"] = dtype
        spec["nbytes"] = int(np.prod(spec["shape"])) * np.dtype(dtype).itemsize

    return edit


def _narrow(name: str, width: int):
    """Header edit: the rows of record blob ``name`` read ``width`` int64
    words wide, one fewer than its record's (nbytes kept consistent)."""

    def edit(header):
        spec = header["arrays"][name]
        spec["shape"][1] = width
        spec["nbytes"] = spec["shape"][0] * width * 8

    return edit


#: Column damage a CRC-valid header can carry: each must raise
#: EncodingError at load, not IndexError (or a read past a blob, or a
#: silent misread) at route time.
SHAPE_CORRUPTIONS = {
    "short-derived-entry-column": _short("cs_ent"),
    "short-bound-entry-column": _short("arr_ent_member"),
    "short-lp-data": _short("arr_lp_data"),
    "short-pivot": _short("arr_h_pivot"),
    "short-label-positions": _short("arr_lab_epos"),
    "short-step-table": _short("cs_step"),
    "short-g-indptr": _short("cs_g_indptr"),
    "int64-members": _retype("arr_ent_member", "<i8"),
    "int32-tree-slices": _retype("arr_cl_indptr", "<i4"),
    "int64-lp-data": _retype("arr_lp_data", "<i8"),
    "int32-lp-data-where-bytes-fit": _retype("arr_lp_data", "<i4"),
    "narrow-entry-records": _narrow("cs_ent", ENT_DTYPE.itemsize // 8 - 1),
    "narrow-step-records": _narrow("cs_step", STEP_DTYPE.itemsize // 8 - 1),
}


def _assert_routes_equal(a, b):
    for name in ROUTE_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ----------------------------------------------------------------------
# Container format
# ----------------------------------------------------------------------
class TestContainer:
    def test_round_trip_arrays_and_meta(self, tmp_path):
        path = tmp_path / "x.tzs"
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0, 1, 5),
            "c": np.zeros((2, 3), dtype=np.int64),
            "empty": np.zeros(0, dtype=np.float64),
            "flags": np.array([True, False]),
        }
        write_container(path, arrays, {"hello": "world"})
        header, back = read_container(path, verify_data=True)
        assert header["meta"] == {"hello": "world"}
        assert set(back) == set(arrays)
        for name, arr in arrays.items():
            assert np.array_equal(back[name], arr)
            assert back[name].dtype == arr.dtype

    def test_mmap_views_share_one_map(self, tmp_path):
        path = tmp_path / "x.tzs"
        write_container(
            path, {"a": np.arange(4, dtype=np.int64), "b": np.ones(3)}, {}
        )
        _, back = read_container(path)
        bases = {a.base.base if a.base.base is not None else a.base for a in back.values()}
        assert len(bases) == 1  # zero-copy: every array views one mmap

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.tzs"
        write_container(path, {"a": np.arange(3)}, {})
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(data)
        with pytest.raises(EncodingError, match="magic"):
            read_container(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "x.tzs"
        write_container(path, {"a": np.arange(3)}, {})
        data = bytearray(path.read_bytes())
        data[8] = FORMAT_VERSION + 1
        path.write_bytes(data)
        with pytest.raises(EncodingError, match="version"):
            read_container(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "x.tzs"
        write_container(path, {"a": np.arange(100, dtype=np.int64)}, {})
        data = path.read_bytes()
        for cut in (4, len(data) // 2, len(data) - 8):
            path.write_bytes(data[:cut])
            with pytest.raises(EncodingError):
                read_container(path)

    def test_header_corruption(self, tmp_path):
        path = tmp_path / "x.tzs"
        write_container(path, {"a": np.arange(3)}, {})
        data = bytearray(path.read_bytes())
        data[30] ^= 0xFF  # inside the JSON header
        path.write_bytes(data)
        with pytest.raises(EncodingError, match="checksum"):
            read_container(path)

    def test_data_corruption_detected_on_verify(self, tmp_path):
        path = tmp_path / "x.tzs"
        write_container(path, {"a": np.arange(64, dtype=np.int64)}, {})
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x40  # inside the array blob
        path.write_bytes(data)
        read_container(path)  # zero-copy open cannot see it...
        with pytest.raises(EncodingError, match="data checksum"):
            read_container(path, verify_data=True)  # ...verification must

    def test_not_a_file(self, tmp_path):
        with pytest.raises(EncodingError):
            read_container(tmp_path / "missing.tzs")

    @pytest.mark.parametrize("corruption", sorted(HEADER_CORRUPTIONS))
    def test_manifest_corruption_matrix(self, tmp_path, corruption):
        path = tmp_path / "x.tzs"
        write_container(path, {"a": np.arange(4, dtype=np.int64)}, {})
        _rewrite_header(path, lambda h: None)
        read_container(path, verify_data=True)  # the rewrite itself is sound
        _rewrite_header(path, HEADER_CORRUPTIONS[corruption])
        with pytest.raises(EncodingError):
            read_container(path)

    def test_unsupported_dtype_refused_on_write(self, tmp_path):
        with pytest.raises(EncodingError, match="dtype"):
            write_container(tmp_path / "x.tzs", {"a": np.array(["x"])}, {})

    @staticmethod
    def _chunked(path):
        """Write a container of three and a half digest chunks with a
        zero pad between two blobs; returns its header, data section
        start and the pad's first byte (file offsets)."""
        chunk = DIGEST_CHUNK
        header = write_container(
            path,
            {
                "a": np.arange(3 * chunk // 8, dtype=np.int64),
                "b": np.arange(5, dtype=np.uint8),
                "c": np.arange(chunk // 16, dtype=np.float64),
            },
            {},
        )
        hlen = int.from_bytes(path.read_bytes()[12:20], "little")
        data_start = -(-(24 + hlen) // 64) * 64
        b = header["arrays"]["b"]
        pad = b["offset"] + b["nbytes"]
        assert pad < header["arrays"]["c"]["offset"]
        return header, data_start, data_start + pad

    def test_digest_is_the_sha256_of_the_chunk_digests(self, tmp_path):
        path = tmp_path / "x.tzs"
        header, data_start, _ = self._chunked(path)
        data = path.read_bytes()[data_start:]
        assert len(data) == header["data_bytes"] > 3 * DIGEST_CHUNK
        root = hashlib.sha256(
            b"".join(
                hashlib.sha256(data[i : i + DIGEST_CHUNK]).digest()
                for i in range(0, len(data), DIGEST_CHUNK)
            )
        ).hexdigest()
        assert header["data_sha256"] == root
        assert read_container(path, verify_data=True)[0] == header

    @pytest.mark.parametrize("where", ["first chunk", "middle chunk", "last chunk", "pad"])
    def test_a_flipped_byte_fails_verification(self, tmp_path, where):
        path = tmp_path / "x.tzs"
        header, data_start, pad = self._chunked(path)
        at = {
            "first chunk": data_start + 17,
            "middle chunk": data_start + DIGEST_CHUNK + DIGEST_CHUNK // 2,
            "last chunk": data_start + header["data_bytes"] - 1,
            "pad": pad,
        }[where]
        data = bytearray(path.read_bytes())
        data[at] ^= 0x01
        path.write_bytes(data)
        read_container(path)  # the zero-copy open cannot see it
        with pytest.raises(EncodingError, match="data checksum"):
            read_container(path, verify_data=True)

    def test_a_header_dropping_the_last_chunk_fails_verification(self, tmp_path):
        path = tmp_path / "x.tzs"
        header, _, _ = self._chunked(path)
        kept = header["data_bytes"] // DIGEST_CHUNK * DIGEST_CHUNK
        _rewrite_header(path, lambda h: h.update(data_bytes=kept))
        with pytest.raises(EncodingError, match="data checksum"):
            read_container(path, verify_data=True)

    def test_container_bytes_pinned(self, tmp_path):
        """The writer's exact bytes — byte order, strides, 0-d and empty
        arrays included — are pinned, so layout refactors cannot move
        them (a bump would also need a FORMAT_VERSION change)."""
        path = tmp_path / "x.tzs"
        write_container(
            path,
            {
                "a": np.arange(7, dtype=np.int64),
                "be": np.arange(5, dtype=">i4"),
                "strided": np.arange(20, dtype=np.float64)[::3],
                "flags": np.array([True, False, True]),
                "scalar": np.array(3.5),
                "empty": np.zeros((0, 3), dtype=np.int16),
                "grid": np.arange(12, dtype=np.uint8).reshape(3, 4).T,
            },
            {"hello": "world"},
        )
        raw = path.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == (
            "9ab79976b6c6ad1694aa66a0dc677dc25a80309699facef3e5ce4bc6c7f75d3f"
        )
        # the data section alone, unchanged since format 5: only the
        # preamble's and the header's format version (and the header's
        # CRC) moved
        start = len(raw) - read_header(path)["data_bytes"]
        assert hashlib.sha256(raw[start:]).hexdigest() == (
            "5b54457c6d5dc59db718a2e6e561af94c7d55af8f069fbd834cb3a0dc7253e91"
        )


# ----------------------------------------------------------------------
# Store round trips: mmap-loaded must route bit-identically
# ----------------------------------------------------------------------
class TestStoreRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_route_bit_identical_across_families(self, tmp_path, family, k):
        graph, ported = _build_instance(family, seed=17, k=k)
        arrays = build_arrays(graph, k, ported=ported, rng=5)
        compiled = compile_from_arrays(arrays, ported)

        store = SchemeStore(tmp_path)
        store.save(graph, ported, arrays, seed=5, compiled=compiled)
        stored = store.load(store.key_for(graph, k, 5, ported))

        # Stored arrays are the built arrays, byte for byte.
        from repro.store.schemes import ARRAYS_FIELDS

        for name in ARRAYS_FIELDS:
            assert np.array_equal(
                getattr(stored.arrays, name), getattr(arrays, name)
            ), name

        pairs = sample_pairs(make_rng(2), graph.n, 2000)
        pairs = np.vstack([pairs, np.repeat(np.arange(4), 2).reshape(-1, 2)])
        fresh = BatchRouter.from_compiled(compiled).route_pairs(pairs)
        loaded = stored.router().route_pairs(pairs)
        _assert_routes_equal(fresh, loaded)

    def test_get_or_build_caches(self, tmp_path):
        graph, ported = _build_instance("gnp", seed=3, k=2)
        store = SchemeStore(tmp_path)
        key = store.key_for(graph, 2, 7, ported)
        assert key not in store
        first = store.get_or_build(graph, 2, 7, ported=ported)
        assert key in store and first.key == key
        mtime = first.path.stat().st_mtime_ns
        again = store.get_or_build(graph, 2, 7, ported=ported)
        assert again.path.stat().st_mtime_ns == mtime  # hit: no rewrite
        pairs = sample_pairs(make_rng(0), graph.n, 500)
        _assert_routes_equal(
            first.router().route_pairs(pairs), again.router().route_pairs(pairs)
        )

    def test_key_separates_inputs(self, tmp_path):
        graph, ported = _build_instance("gnp", seed=3, k=2)
        other_ports = assign_ports(graph, "sorted")
        g_sha, p_sha = graph_content_hash(graph), port_hash(ported)
        assert scheme_key(g_sha, 2, 7, p_sha) != scheme_key(g_sha, 3, 7, p_sha)
        assert scheme_key(g_sha, 2, 7, p_sha) != scheme_key(g_sha, 2, 8, p_sha)
        assert scheme_key(g_sha, 2, 7, p_sha) != scheme_key(
            g_sha, 2, 7, port_hash(other_ports)
        )

    def test_handshake_variant_gets_its_own_key(self, tmp_path):
        """The §4 handshake selects different trees; its compiled form
        must never share a store entry with the plain scheme."""
        graph, ported = _build_instance("gnp", seed=3, k=2)
        arrays = build_arrays(graph, 2, ported=ported, rng=7)
        plain = compile_from_arrays(arrays, ported)
        store = SchemeStore(tmp_path)
        p_plain = store.save(graph, ported, arrays, seed=7, compiled=plain)
        p_hand = store.save(
            graph, ported, arrays, seed=7, compiled=plain.with_handshake()
        )
        assert p_plain != p_hand
        assert store.load(p_plain).compiled.handshake is False
        assert store.load(p_hand).compiled.handshake is True
        # get_or_build (plain) must hit the plain entry.
        assert store.get_or_build(graph, 2, 7, ported=ported).path == p_plain

    def test_strict_upgrade_keeps_stored_arrays(self, tmp_path):
        """A digest-less entry served strictly is upgraded in place from
        the checksum-verified stored arrays — not rebuilt."""
        graph, ported = _build_instance("gnp", seed=12, k=2)
        store = SchemeStore(tmp_path)
        first = store.get_or_build(graph, 2, 9, ported=ported)
        assert "serialize_sha256" not in first.meta
        before = np.array(first.arrays.ent_dist)
        upgraded = store.get_or_build(graph, 2, 9, ported=ported, strict=True)
        assert "serialize_sha256" in upgraded.meta
        assert upgraded.path == first.path
        assert np.array_equal(np.array(upgraded.arrays.ent_dist), before)
        # And the upgraded file now passes a plain strict load.
        store.load(upgraded.path, strict=True, graph=graph, ported=ported)

    def test_graph_hash_sees_weights(self):
        from repro.graphs.graph import Graph

        a = Graph(3, [(0, 1), (1, 2)], [1.0, 1.0])
        b = Graph(3, [(0, 1), (1, 2)], [1.0, 2.0])
        assert graph_content_hash(a) != graph_content_hash(b)

    def test_fresh_process_routes_identically(self, tmp_path):
        """The acceptance-criterion shape: save here, mmap-load in a
        brand-new interpreter, compare routed columns bit-for-bit."""
        graph, ported = _build_instance("gnp", seed=23, k=2)
        store = SchemeStore(tmp_path)
        stored = store.get_or_build(graph, 2, 11, ported=ported)
        pairs = sample_pairs(make_rng(4), graph.n, 1500)
        mine = stored.router().route_pairs(pairs)
        ref = tmp_path / "expected.npz"
        np.savez(
            ref,
            pairs=pairs,
            **{name: getattr(mine, name) for name in ROUTE_FIELDS},
        )
        script = (
            "import numpy as np, sys\n"
            "from repro.store import RouteService\n"
            "exp = np.load(sys.argv[2])\n"
            "res = RouteService(sys.argv[1]).route(exp['pairs'])\n"
            f"names = {ROUTE_FIELDS!r}\n"
            "for name in names:\n"
            "    assert np.array_equal(getattr(res, name), exp[name]), name\n"
            "print('OK')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(stored.path), str(ref)],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert out.returncode == 0 and out.stdout.strip() == "OK", out.stderr


# ----------------------------------------------------------------------
# One representation: each column stored once, bound on load
# ----------------------------------------------------------------------
class TestSingleRepresentation:
    @pytest.fixture
    def saved(self, tmp_path):
        graph, ported = _build_instance("gnp", seed=31, k=3)
        arrays = build_arrays(graph, 3, ported=ported, rng=4)
        store = SchemeStore(tmp_path)
        path = store.save(graph, ported, arrays, seed=4)
        return graph, ported, arrays, store, path

    def test_compile_binds_the_array_columns(self, saved):
        _, ported, arrays, _, _ = saved
        compiled = compile_from_arrays(arrays, ported)
        assert len(ARRAY_BOUND) == 5 and len(DERIVED) == 3 and len(ARRAYS_IN_RECORD) == 9
        for name, get in ARRAY_BOUND.items():
            assert np.shares_memory(getattr(compiled, name), get(arrays)), name
        assert compiled.ent.dtype == ENT_DTYPE and compiled.step.dtype == STEP_DTYPE
        for name, field in ARRAYS_IN_RECORD.items():
            assert np.array_equal(compiled.ent[field], getattr(arrays, name)), name

    def test_loaded_columns_share_the_arrays_memory(self, saved):
        _, _, _, store, path = saved
        stored = store.load(path)
        for name, get in ARRAY_BOUND.items():
            assert np.shares_memory(
                getattr(stored.compiled, name), get(stored.arrays)
            ), name
        # ...and the other way round: the array columns only the records
        # hold are fields of the loaded records (the member is the bound
        # dense column above).
        for name in RECORD_ONLY:
            assert np.shares_memory(stored.compiled.ent, getattr(stored.arrays, name)), name

    def test_container_holds_only_derived_compiled_columns(self, saved):
        _, _, arrays, _, path = saved
        header, blobs = read_container(path)
        assert header["format_version"] == FORMAT_VERSION == 9
        # one byte a light port: every degree of the graph is <= 255
        assert blobs["arr_lp_data"].dtype == np.uint8
        assert sorted(n for n in blobs if n.startswith("cs_")) == sorted(
            "cs_" + name for name in DERIVED
        )
        # Exactly these array blobs: a column added back fails here.
        hierarchy = ("h_dist", "h_pivot", "h_level_of", "h_levels_data", "h_levels_indptr")
        assert STORED_ARRAYS_FIELDS == ("cl_indptr", "ent_member", "lp_data", "lab_epos")
        assert sorted(n for n in blobs if n.startswith("arr_")) == sorted(
            "arr_" + name for name in STORED_ARRAYS_FIELDS + hierarchy
        )
        assert not {"arr_" + name for name in RECORD_ONLY + DERIVED_COLUMNS} & set(blobs)
        # The records are stored as plain int64 rows, one per record:
        # 8 words for a 64-byte entry record, 2 for a 16-byte step.
        assert blobs["cs_ent"].dtype == np.int64
        assert blobs["cs_ent"].shape == (arrays.entry_count, 8)
        assert blobs["cs_step"].dtype == np.int64
        assert blobs["cs_step"].shape == (2 * header["meta"]["m"], 2)

    def test_save_refuses_a_foreign_compile(self, saved):
        graph, ported, arrays, store, _ = saved
        other = build_arrays(graph, 3, ported=ported, rng=5)
        with pytest.raises(EncodingError, match="not the given arrays"):
            store.save(
                graph, ported, arrays, seed=4, compiled=compile_from_arrays(other, ported)
            )
        # Equal columns are accepted when they are not the same objects.
        copied = compile_from_arrays(arrays, ported)
        for name in ARRAY_BOUND:
            setattr(copied, name, np.array(getattr(copied, name)))
        store.save(graph, ported, arrays, seed=4, compiled=copied)

    @pytest.mark.parametrize("version", range(1, FORMAT_VERSION))
    def test_format_refused_and_rebuilt(self, saved, version):
        """A container of any older format is refused by its version,
        and ``get_or_build`` rebuilds it in place; no older reader is
        kept."""
        graph, ported, _, store, _ = saved
        stored = store.get_or_build(graph, 2, 6, ported=ported)
        path = stored.path
        pairs = sample_pairs(make_rng(1), graph.n, 300)
        want = stored.router().route_pairs(pairs)
        del stored  # release the mmap before rewriting
        data = bytearray(path.read_bytes())
        data[8:12] = version.to_bytes(4, "little")
        path.write_bytes(data)
        with pytest.raises(EncodingError, match=f"version {version}"):
            store.load(path)
        again = store.get_or_build(graph, 2, 6, ported=ported)
        assert again.path == path
        assert read_container(path)[0]["format_version"] == FORMAT_VERSION
        _assert_routes_equal(want, again.router().route_pairs(pairs))

    def test_materialized_scheme_compiles_from_stored_arrays(self, saved):
        graph, ported, _, store, path = saved
        stored = store.load(path)
        compiled = stored.scheme(graph, ported).compile_batch()
        for name, get in ARRAY_BOUND.items():
            assert np.shares_memory(getattr(compiled, name), get(stored.arrays)), name
        for name in DERIVED:
            assert np.array_equal(getattr(compiled, name), getattr(stored.compiled, name))

    @pytest.mark.parametrize("corruption", sorted(SHAPE_CORRUPTIONS))
    def test_column_shape_corruption_matrix(self, saved, corruption):
        _, _, _, store, path = saved
        _rewrite_header(path, lambda h: None)
        store.load(path, verify_data=True)  # the rewrite itself is sound
        _rewrite_header(path, SHAPE_CORRUPTIONS[corruption])
        with pytest.raises(EncodingError):
            store.load(path)

    @pytest.mark.parametrize(
        "hub_degree, stored, wrong", [(255, "|u1", "<i4"), (256, "<i4", "|u1")]
    )
    def test_light_ports_off_their_width_are_refused(self, tmp_path, hub_degree, stored, wrong):
        """The light ports are one byte each while every degree is at
        most 255, int32 past that: a container holding them at the other
        width is refused on load, for either graph."""
        graph = hub_graph(hub_degree)
        ported = assign_ports(graph, "sorted")
        store = SchemeStore(tmp_path)
        path = store.save(graph, ported, build_arrays(graph, 2, ported=ported, rng=1), seed=1)
        assert read_header(path)["arrays"]["arr_lp_data"]["dtype"] == stored
        store.load(path, verify_data=True)
        _rewrite_header(path, _retype("arr_lp_data", wrong))
        with pytest.raises(EncodingError, match="lp_data"):
            store.load(path)

    @pytest.mark.skipif(not available(), reason=f"native kernels unavailable: {native_error()}")
    def test_first_route_after_load_copies_nothing(self, tmp_path):
        """A loaded scheme routes on the container's own records: its
        ``ent`` and ``step`` columns are views of the container map, and
        the first native route after ``load`` allocates no more than the
        second one, to under 1 B per entry (counted by tracemalloc, so no
        timing noise enters)."""
        graph = reference_graph("gnp", 2000, 0).largest_component()
        ported = assign_ports(graph, "random", rng=3)
        arrays = build_arrays(graph, 3, ported=ported, rng=1)
        compiled = compile_from_arrays(arrays, ported)
        store = SchemeStore(tmp_path)
        path = store.save(graph, ported, arrays, seed=1, compiled=compiled)
        pairs = sample_pairs(make_rng(5), graph.n, 4000)
        # Warm the kernel library on another scheme object first.
        BatchRouter.from_compiled(compiled, kernel="native").route_pairs(pairs[:16])

        stored = store.load(path)
        cs = stored.compiled

        def root(a):
            while isinstance(a, np.ndarray) and a.base is not None:
                a = a.base
            return a

        container_map = root(stored.arrays.ent_member)
        assert isinstance(container_map, mmap.mmap)
        assert root(cs.ent) is container_map and root(cs.step) is container_map
        router = BatchRouter.from_compiled(cs, kernel="native")
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                router.route_pairs(pairs)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        extra = peaks[0] - peaks[1]
        assert extra < cs.entry_count, (
            f"first route after load allocated {extra / cs.entry_count:.1f} B "
            "per entry more than the second"
        )

    def test_backend_deserialize_checks_column_shapes(self, saved):
        from repro.backends import build_backend

        graph, _, _, store, _ = saved
        backend = build_backend("tz", graph, 2, 3)
        path = store.save_backend(backend, graph, k=2, seed=3)
        store.load_backend(path)
        _rewrite_header(path, _short("bk_cs_ent"))
        with pytest.raises(EncodingError):
            store.load_backend(path)
        meta, blobs = backend.serialize()
        blobs["cs_lp_data"] = blobs["cs_lp_data"][:-1]
        with pytest.raises(EncodingError):
            type(backend).deserialize(meta, blobs)


# ----------------------------------------------------------------------
# Strict verification: the bit-exact codec replay
# ----------------------------------------------------------------------
class TestPublishOverhead:
    """A publish hashes the graph and the ports once, and the version
    layer reads container headers without mapping any container."""

    @staticmethod
    def _chain(tmp_path, epochs):
        from repro.core.build import patch_arrays
        from repro.graphs.delta import GraphDelta

        store = SchemeStore(tmp_path)
        graph = family_from_seed(3, "gnp", n=60)
        ported = assign_ports(graph, "random", rng=3)
        arrays = build_arrays(graph, 2, ported=ported, rng=3)
        key = store.publish(graph, ported, arrays, seed=0)
        for i in range(epochs):
            u, v = (int(x) for x in graph.edges[i])
            delta = GraphDelta(weight_updates=((u, v, graph.edge_weight(u, v) + 1.0),))
            patched = patch_arrays(arrays, graph, delta, ported=ported)
            yield store, key, patched, delta
            graph, ported, arrays = patched.graph, patched.ported, patched.arrays
            key = store.current(store.lineages()[0])

    def test_one_hash_of_each_per_publish_patch(self, tmp_path, monkeypatch):
        from repro.store import store as store_mod

        calls = {"graph": 0, "ports": 0}

        def counted(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)

            return spy

        monkeypatch.setattr(
            store_mod, "graph_content_hash", counted("graph", store_mod.graph_content_hash)
        )
        monkeypatch.setattr(store_mod, "port_hash", counted("ports", store_mod.port_hash))
        for store, parent, patched, delta in self._chain(tmp_path, 3):
            before = dict(calls)
            store.publish_patch(
                parent, patched.graph, patched.ported, patched.arrays,
                delta=delta, seed=0, max_versions=2,
            )
            assert {name: calls[name] - before[name] for name in calls} == {
                "graph": 1,
                "ports": 1,
            }

    def test_store_spans_open_before_the_key_is_hashed(self, tmp_path, monkeypatch):
        """``get_or_build``, ``get_or_build_backend``, ``publish`` and
        ``publish_patch`` hash the graph for the content key inside their
        own spans, and stamp what they learn there (the hit, the lineage
        and version) on the span; a disabled registry's shared span keeps
        no label."""
        from repro.obs import TELEMETRY
        from repro.obs.telemetry import NOOP_SPAN
        from repro.store import store as store_mod

        opened = []
        real = store_mod.graph_content_hash

        def spy(graph):
            opened.append(getattr(TELEMETRY._current.get(), "name", None))
            return real(graph)

        monkeypatch.setattr(store_mod, "graph_content_hash", spy)
        ((store, parent, patched, delta),) = self._chain(tmp_path, 1)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            opened.clear()
            store.publish_patch(
                parent, patched.graph, patched.ported, patched.arrays, delta=delta, seed=0
            )
            assert opened == ["store.publish_patch"]
            for hit in (False, True):
                opened.clear()
                store.get_or_build(patched.graph, 2, 5, ported=patched.ported)
                assert opened[0] == "store.get_or_build"
                assert TELEMETRY.roots[-1].attrs == {"k": 2, "hit": hit}
            for hit in (False, True):
                opened.clear()
                store.get_or_build_backend("tz", patched.graph, 2, seed=5)
                assert opened[0] == "store.get_or_build_backend"
                assert TELEMETRY.roots[-1].attrs == {"backend": "tz", "k": 2, "hit": hit}
            assert TELEMETRY.roots[0].name == "store.publish_patch"
            assert TELEMETRY.roots[0].attrs == {"lineage": store.lineages()[0], "version": 1}
            opened.clear()
            root = store.publish(patched.graph, patched.ported, patched.arrays, seed=1)
            assert opened == ["store.publish"]
            assert TELEMETRY.roots[-1].name == "store.publish"
            assert TELEMETRY.roots[-1].attrs == {"lineage": root}
            assert [sp.name for sp in TELEMETRY.roots[-1].children] == [
                "engine.compile", "store.save",
            ]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        store.get_or_build(patched.graph, 2, 5, ported=patched.ported)
        store.get_or_build_backend("tz", patched.graph, 2, seed=5)
        assert NOOP_SPAN.attrs == {}

    def test_publishes_count_the_bytes_they_write(self, tmp_path):
        """``store.bytes_written`` adds each save's container file: a
        root and one patch publish read as the two files' sizes."""
        from repro.core.build import patch_arrays
        from repro.graphs.delta import GraphDelta
        from repro.obs import TELEMETRY

        store = SchemeStore(tmp_path)
        graph = family_from_seed(4, "gnp", n=60)
        ported = assign_ports(graph, "random", rng=4)
        arrays = build_arrays(graph, 2, ported=ported, rng=4)
        u, v = (int(x) for x in graph.edges[0])
        delta = GraphDelta(weight_updates=((u, v, graph.edge_weight(u, v) + 1.0),))
        patched = patch_arrays(arrays, graph, delta, ported=ported)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            root = store.publish(graph, ported, arrays, seed=0)
            after_root = TELEMETRY.counters["store.bytes_written"]
            key = store.publish_patch(
                root, patched.graph, patched.ported, patched.arrays, delta=delta, seed=0
            )
            written = TELEMETRY.counters["store.bytes_written"]
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        sizes = [store.path_for(k).stat().st_size for k in (root, key)]
        assert after_root == sizes[0]
        assert written == sum(sizes)

    def test_versions_info_and_gc_map_no_container(self, tmp_path, monkeypatch):
        from repro.store import store as store_mod

        for store, parent, patched, delta in self._chain(tmp_path, 3):
            store.publish_patch(
                parent, patched.graph, patched.ported, patched.arrays, delta=delta, seed=0
            )
        lineage = store.lineages()[0]
        mapped = []
        real = store_mod.read_container
        monkeypatch.setattr(
            store_mod, "read_container", lambda *a, **kw: mapped.append(a) or real(*a, **kw)
        )
        assert [m["version"] for m in store.versions(lineage)] == [0, 1, 2, 3]
        assert store.info(store.current(lineage))["version"] == 3
        assert len(store.gc(lineage, 2)) == 2
        assert mapped == []


class TestStrictVerify:
    def test_strict_round_trip(self, tmp_path):
        graph, ported = _build_instance("ba", seed=5, k=2)
        store = SchemeStore(tmp_path)
        stored = store.get_or_build(graph, 2, 1, ported=ported, strict=True)
        assert "serialize_sha256" in stored.meta
        # Explicit strict load over the same file also passes.
        store.load(stored.path, strict=True, graph=graph, ported=ported)

    def test_strict_needs_context(self, tmp_path):
        graph, ported = _build_instance("ba", seed=5, k=2)
        store = SchemeStore(tmp_path)
        stored = store.get_or_build(graph, 2, 1, ported=ported, strict=True)
        with pytest.raises(EncodingError, match="strict"):
            store.load(stored.path, strict=True)

    def test_strict_rejects_wrong_graph(self, tmp_path):
        graph, ported = _build_instance("ba", seed=5, k=2)
        other = family_from_seed(6, "ba", n=36)
        store = SchemeStore(tmp_path)
        stored = store.get_or_build(graph, 2, 1, ported=ported, strict=True)
        with pytest.raises(EncodingError, match="different graph"):
            store.load(
                stored.path,
                strict=True,
                graph=other,
                ported=assign_ports(other, "sorted"),
            )

    def test_strict_catches_array_tampering(self, tmp_path):
        """Flip one byte inside a distance array: the zero-copy open
        stays silent, strict verification must refuse to serve."""
        graph, ported = _build_instance("grid", seed=2, k=2)
        store = SchemeStore(tmp_path)
        stored = store.get_or_build(graph, 2, 3, ported=ported, strict=True)
        path = stored.path
        del stored  # release the mmap before rewriting
        data = bytearray(path.read_bytes())
        data[-7] ^= 0x08
        path.write_bytes(data)
        store.load(path)  # non-strict open cannot see it
        with pytest.raises(EncodingError, match="checksum"):
            store.load(path, strict=True, graph=graph, ported=ported)


# ----------------------------------------------------------------------
# Serving layer
# ----------------------------------------------------------------------
class TestRouteService:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        graph, ported = _build_instance("gnp", seed=8, k=3)
        store = SchemeStore(tmp_path_factory.mktemp("store"))
        stored = store.get_or_build(graph, 3, 2, ported=ported)
        return graph, stored

    def test_service_metadata(self, served):
        graph, stored = served
        service = RouteService(stored.path)
        assert service.n == graph.n and service.k == 3

    def test_threaded_chunks_equal_one_chunk(self, served, monkeypatch):
        """Row chunks on threads answer exactly the one-chunk route, in
        input row order (the numpy kernel never chunks, so there the
        check is trivially true)."""
        graph, stored = served
        service = RouteService(stored.path)
        pairs = sample_pairs(make_rng(9), graph.n, 4000)
        single = service.route(pairs)  # below the floor: one chunk
        monkeypatch.setattr(batch, "ROUTE_CHUNK_FLOOR", 64)
        for cpus in (2, 3):
            monkeypatch.setattr(batch, "_usable_cpus", lambda cpus=cpus: cpus)
            chunked = service.route(pairs)
            _assert_routes_equal(single, chunked)
            assert np.array_equal(single.source, chunked.source)
            assert np.array_equal(single.dest, chunked.dest)
            assert np.array_equal(single.tree, chunked.tree)

    def test_bad_pairs_shape(self, served):
        _, stored = served
        from repro.errors import RoutingError

        with pytest.raises(RoutingError):
            RouteService(stored.path).route(np.arange(9).reshape(3, 3))

    def test_dead_edges_need_ported(self, served):
        _, stored = served
        from repro.errors import RoutingError

        router = stored.router()  # no ported graph attached
        with pytest.raises(RoutingError, match="dead_edges"):
            router.route_pairs(
                np.array([[0, 1]]), dead_edges=[(0, 1)]
            )
