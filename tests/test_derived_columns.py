"""A scheme container stores each fact once: every column it drops is
derived, bit for bit.

A scheme container stores neither the distances, the SPT parents, the
light-port offsets nor the label bits, and no scheme has a key or
center column (:data:`~repro.core.build.arrays.DERIVED_COLUMNS` and
:data:`~repro.sim.engine.compile.COMPILED_DERIVED`, whose int64 keys
the numpy router alone reads).  Over the
reference families × k ∈ 1..4 × {sorted, random} ports, on a fresh build
and along a 10-epoch patch chain, each published version is loaded back
and must give, on both kernels:

* every derived array column equal to the build's in-memory column,
  dtype included, and the same label bits, table bits and label sizes;
* the built or patched scheme's own label bits (no records: its
  light-port CSR) the same on both kernels;
* the compiled form's derived columns equal to a fresh compile's;
* route columns, ``max_header_bits`` included, equal to the fresh
  compile's, on both routers.

The derive pass refuses records it cannot read through, on both kernels,
and a loaded compile refuses to form the key of a member outside
``[0, n)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import pool
from repro.analysis.experiments import reference_graph
from repro.core.build import SchemeArrays, build_arrays, patch_arrays
from repro.core.build.arrays import DERIVED_COLUMNS, derive_entries, derive_entries_numpy
from repro.errors import EncodingError
from repro.graphs.ports import assign_ports
from repro.kernels import available, native_error
from repro.kernels.records import derive_entries_native, label_bits_native
from repro.rng import derive, make_rng, sample_pairs
from repro.scenarios import random_delta
from repro.sim.engine.batch import BatchRouter
from repro.sim.engine.compile import COMPILED_DERIVED, compile_from_arrays
from repro.store import SchemeStore

from strategies import hub_graph

needs_native = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

REFERENCE_FAMILIES = ("gnp", "ba", "as-like", "grid", "geometric")
ROUTE_FIELDS = ("delivered", "weight", "hops", "tree", "max_header_bits", "failure_code")
EPOCHS = 10
ARRAY_COLUMNS = tuple(
    f.name for f in dataclasses.fields(SchemeArrays) if f.name not in ("n", "k", "hierarchy")
)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _check_version(stored, arrays, ported, pairs, on_kernels, context):
    """Everything a loaded version derives equals the in-memory scheme's."""
    fresh = compile_from_arrays(arrays, ported)
    max_port = int(np.diff(ported.graph.indptr).max(initial=0))
    want = {
        "table_bits": arrays.table_bits(max_port),
        "label_bits": arrays.label_bits(),
        "entry_label_bits": arrays.entry_label_bits(),
    }
    routes = {
        kernel: BatchRouter.from_compiled(fresh, ported, kernel=kernel).route_pairs(pairs)
        for kernel in ("numpy", "native")
    }
    for run in on_kernels:  # the in-memory scheme's own label bits, uncached
        got = run(lambda: SchemeArrays.entry_label_bits(dataclasses.replace(arrays)))
        assert _same(got, want["entry_label_bits"]), f"in-memory label bits {context}"
    for run in on_kernels:
        loaded = run(lambda: stored.store.load(stored.path))
        for name in DERIVED_COLUMNS:
            got = run(lambda: getattr(loaded.arrays, name))
            assert _same(got, getattr(arrays, name)), f"{name} {context}"
        for name in ARRAY_COLUMNS:  # the stored and record-held ones too
            assert _same(getattr(loaded.arrays, name), getattr(arrays, name)), name
        for name, value in want.items():
            args = (max_port,) if name == "table_bits" else ()
            got = run(lambda: getattr(loaded.arrays, name)(*args))
            assert _same(got, value), f"{name} {context}"
        for name in COMPILED_DERIVED:
            got = run(lambda: getattr(loaded.compiled, name))
            assert _same(got, getattr(fresh, name)), f"compiled {name} {context}"
        for kernel, want_route in routes.items():
            router = BatchRouter.from_compiled(loaded.compiled, ported, kernel=kernel)
            got = router.route_pairs(pairs)
            for field in ROUTE_FIELDS:
                assert _same(getattr(got, field), getattr(want_route, field)), (
                    f"{field} on {kernel} {context}"
                )
        del loaded


class _Stored:
    def __init__(self, store, path):
        self.store, self.path = store, path


@needs_native
@pytest.mark.parametrize("ports", ["sorted", "random"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("family", REFERENCE_FAMILIES)
def test_loaded_versions_derive_the_build_columns(tmp_path, veto_native, family, k, ports):
    graph = reference_graph(family, 60, k).largest_component()
    ported = assign_ports(graph, ports, rng=derive(k, "derived", ports))
    arrays = build_arrays(graph, k, ported=ported, rng=k)
    store = SchemeStore(tmp_path)
    key = store.publish(graph, ported, arrays, seed=k)
    pairs = sample_pairs(make_rng(k), graph.n, 400)
    on_kernels = (lambda fn: fn(), veto_native)
    _check_version(
        _Stored(store, store.path_for(key)), arrays, ported, pairs, on_kernels,
        f"({family} k={k} {ports} fresh)",
    )
    for epoch in range(EPOCHS):
        delta = random_delta(
            graph, derive(k, "derived", "delta", epoch),
            weight_updates=1 + epoch % 3, edge_adds=0, edge_drops=0,
        )
        patched = patch_arrays(arrays, graph, delta, ported=ported)
        key = store.publish_patch(
            key, patched.graph, patched.ported, patched.arrays, delta=delta, seed=k,
            max_versions=2,
        )
        graph, ported, arrays = patched.graph, patched.ported, patched.arrays
        _check_version(
            _Stored(store, store.path_for(key)), arrays, ported, pairs, on_kernels,
            f"({family} k={k} {ports} epoch {epoch})",
        )


@needs_native
@pytest.mark.parametrize("hub_degree", [255, 256])
def test_label_bits_of_a_built_scheme_at_either_width(veto_native, hub_degree):
    """The native label-bit pass of a built scheme equals the numpy
    formula byte for byte, in 1–4 ranges, for one-byte and int32 light
    ports, and refuses a slice that leaves ``lp_data``."""
    graph = hub_graph(hub_degree)
    ported = assign_ports(graph, "random", rng=derive(3, "label-bits"))
    arrays = build_arrays(graph, 3, ported=ported, rng=3)
    assert arrays.lp_data.dtype == (np.uint8 if hub_degree == 255 else np.int32)
    assert int(arrays.lp_data.max()) == hub_degree  # the hub's last port is a light one
    want = veto_native(lambda: SchemeArrays.entry_label_bits(dataclasses.replace(arrays)))
    for parts in (1, 2, 3, 4):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pool, "size", lambda: parts)
            got = label_bits_native(arrays.cl_indptr, arrays.lp_indptr, arrays.lp_data)
        assert _same(got, want), parts
    past = arrays.lp_indptr.copy()
    past[-1] += 1
    with pytest.raises(ValueError, match="inside lp_data"):
        label_bits_native(arrays.cl_indptr, past, arrays.lp_data)


def _loaded(tmp_path):
    graph = reference_graph("gnp", 120, 3).largest_component()
    ported = assign_ports(graph, "random", rng=3)
    arrays = build_arrays(graph, 3, ported=ported, rng=3)
    store = SchemeStore(tmp_path)
    stored = store.load(store.save(graph, ported, arrays, seed=3))
    cs = stored.compiled
    return arrays, cs.tree_indptr, cs.ent_member, np.array(cs.ent), cs.lp_data


@needs_native
def test_both_derive_kernels_agree_and_refuse_alike(tmp_path):
    arrays, indptr, member, ent, lp_data = _loaded(tmp_path)
    every = ("ent_parent", "ent_dist", "lp_indptr", "label_bits")
    want = derive_entries_numpy(indptr, member, ent, lp_data, every)
    got = derive_entries_native(indptr, member, ent, lp_data, every)
    for name in every:
        assert _same(got[name], want[name]), name
    assert _same(want["ent_dist"], arrays.ent_dist)
    assert _same(want["label_bits"], arrays.entry_label_bits())

    E = ent.shape[0]
    e = E // 2
    faults = {
        "its member lies outside": ("ent_parent", lambda m, r: m.__setitem__(e, -3)),
        "its parent link lies outside its tree": (
            "ent_dist", lambda m, r: r["parent_epos"].__setitem__(e, E + 5)),
        "its DFS number": ("ent_dist", lambda m, r: r["f"].__setitem__(e, 10**6)),
        "its light-port slice": ("lp_indptr", lambda m, r: r["lp_off"].__setitem__(e, 10**7)),
    }
    for message, (name, damage) in faults.items():
        m, r = member.copy(), ent.copy()
        damage(m, r)
        for derive_on in (derive_entries_numpy, derive_entries_native):
            with pytest.raises(EncodingError, match=message):
                derive_on(indptr, m, r, lp_data, (name,))


@needs_native
def test_a_loaded_compile_refuses_the_key_of_a_member_out_of_range(tmp_path):
    """The numpy router's keys of a loaded compile whose member column
    is damaged: the keys helper refuses, as the derive pass does."""
    graph = reference_graph("gnp", 120, 3).largest_component()
    ported = assign_ports(graph, "random", rng=3)
    arrays = build_arrays(graph, 3, ported=ported, rng=3)
    store = SchemeStore(tmp_path)
    cs = store.load(store.save(graph, ported, arrays, seed=3)).compiled
    member = cs.ent_member.copy()
    member[member.shape[0] // 2] = graph.n
    damaged = dataclasses.replace(cs, ent_member=member)
    with pytest.raises(EncodingError, match="its member lies outside"):
        damaged.entry_keys


@needs_native
def test_derive_ranges_name_the_one_range_fault(tmp_path, monkeypatch):
    from repro import pool

    _, indptr, member, ent, lp_data = _loaded(tmp_path)
    r = ent.copy()
    e = 3 * ent.shape[0] // 4
    r["light_depth"][e] += 1  # every later slice now starts one port early
    errors = set()
    for parts in (1, 2, 3, 4):
        monkeypatch.setattr(pool, "size", lambda parts=parts: parts)
        with pytest.raises(EncodingError) as info:
            derive_entries_native(indptr, member, r, lp_data, ("lp_indptr",))
        errors.add(str(info.value))
    with pytest.raises(EncodingError) as info:
        derive_entries_numpy(indptr, member, r, lp_data, ("lp_indptr",))
    assert errors == {str(info.value)} and f"entry {e + 1}:" in str(info.value)


def test_platform_derive_matches_the_build(tmp_path):
    arrays, indptr, member, ent, lp_data = _loaded(tmp_path)
    got = derive_entries(indptr, member, ent, lp_data, ("ent_parent", "ent_dist"))
    assert _same(got["ent_parent"], arrays.ent_parent)
    assert _same(got["ent_dist"], arrays.ent_dist)


def test_a_patch_of_loaded_arrays_is_the_patch_of_the_build(tmp_path):
    """The patch reads the derived columns of a loaded scheme (keys,
    centers, distances, SPT parents, light-port offsets) and splices
    exactly what it splices from the build's own."""
    graph = reference_graph("gnp", 300, 5).largest_component()
    ported = assign_ports(graph, "random", rng=5)
    arrays = build_arrays(graph, 3, ported=ported, rng=5)
    store = SchemeStore(tmp_path)
    loaded = store.load(store.save(graph, ported, arrays, seed=5)).arrays
    delta = random_delta(graph, derive(5, "loaded patch"), weight_updates=2)
    want = patch_arrays(arrays, graph, delta, ported=ported).arrays
    got = patch_arrays(loaded, graph, delta, ported=ported).arrays
    for name in ARRAY_COLUMNS:
        assert _same(getattr(got, name), getattr(want, name)), name
