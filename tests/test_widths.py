"""The width rule where it bites: keys past 2^31, the size guards, and
the light ports' two widths.

Every per-entry integer column is int32 and every key ``tree * n +
member`` int64 (:data:`repro.core.build.arrays.COLUMN_DTYPES`).  On more
than 46,341 vertices some keys pass 2^31, so a key formed in int32 (an
int32 column times a Python ``int`` stays int32 under NumPy 2) would
wrap: the first test builds, patches and compiles such a scheme on both
kernels, holds every column equal dtype for dtype, and routes a sample.
k = 16 keeps it to ~0.65 M entries, about 10 s.  The guards refuse a
graph or scheme the int32 columns cannot hold; they are checked on
stand-ins that report sizes past 2^31 without allocating them.  And the
record dtypes are held to the C structs the kernels read, field by
field, as the compiler lays them out.

The light ports ``lp_data`` are uint8 while every degree is at most 255
and int32 past that (:func:`~repro.core.build.arrays.light_port_dtype`):
a patch chain moves a hub's degree 255 → 256 → 255 and must match a
fresh build at every version, and a graph with a vertex of degree 257
routes through ports past 255 as the hop-by-hop simulator does.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.experiments import reference_graph
from repro.core.build import build_arrays, patch_arrays, vectorized_arrays
from repro.core.build.arrays import (
    COLUMN_DTYPES,
    INDEX_LIMIT,
    assemble_arrays,
    check_index_sizes,
    entry_keys,
    fit_light_ports,
    light_port_dtype,
    scheme_from_arrays,
)
from repro.core.build.vectorized import _cluster_trees
from repro.core.landmarks import build_hierarchy
from repro.errors import EncodingError, PreprocessingError
from repro.graphs.delta import GraphDelta
from repro.graphs.ports import assign_ports
from repro.kernels import available, native_error
from repro.rng import derive, make_rng, sample_pairs
from repro.scenarios import random_delta
from repro.sim.engine.batch import BatchRouter
from repro.kernels.records import record_layout
from repro.sim.engine.compile import COLUMNS, ENT_DTYPE, STEP_DTYPE, compile_from_arrays
from repro.sim.network import Network
from repro.sim.runner import pair_true_distances

from strategies import hub_graph
from test_update import assert_matches_fresh

needs_native = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

#: gnp on 47,000 vertices: its largest component keeps 46,985 > 46,341.
WIDE_N = 47_000
WIDE_K = 16


@pytest.fixture(scope="module")
def wide():
    graph = reference_graph("gnp", WIDE_N, 1).largest_component()
    ported = assign_ports(graph, "random", rng=derive(1, "wide", "ports"))
    hierarchy = build_hierarchy(graph, WIDE_K, make_rng(1))
    delta = random_delta(
        graph, derive(1, "wide", "delta"), weight_updates=2, edge_adds=0, edge_drops=0
    )
    return graph, ported, hierarchy, delta


def _pipeline(graph, ported, hierarchy, delta):
    """Build, patch and compile on the platform's kernel."""
    built = vectorized_arrays(graph, ported, hierarchy)
    patched = patch_arrays(built, graph, delta, ported=ported)
    return built, patched, compile_from_arrays(patched.arrays, patched.ported)


def _assert_arrays_equal(got, want, what, graph):
    for name, dtype in dict(COLUMN_DTYPES, lp_data=light_port_dtype(graph.indptr)).items():
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype == dtype, f"{what}: {name}"
        assert np.array_equal(mine, theirs), f"{what}: {name}"


@needs_native
def test_keys_past_2_31_build_patch_and_compile_alike_on_both_kernels(wide, veto_native):
    graph, ported, hierarchy, delta = wide
    assert graph.n > 46_341
    native = _pipeline(graph, ported, hierarchy, delta)
    numpy = veto_native(lambda: _pipeline(graph, ported, hierarchy, delta))
    keys = entry_keys(native[0].cl_indptr, native[0].ent_member)
    assert int(keys[-1]) >= 2**31  # the keys need 64 bits
    _assert_arrays_equal(native[0], numpy[0], "build", graph)
    _assert_arrays_equal(native[1].arrays, numpy[1].arrays, "patch", native[1].graph)
    for name in COLUMNS:
        mine, theirs = getattr(native[2], name), getattr(numpy[2], name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name

    pairs = sample_pairs(make_rng(2), graph.n, 4_000)
    pairs[:, 0] = pairs[::200, 0].repeat(200)  # 20 sources keep the true distances cheap
    routes = {
        kernel: BatchRouter.from_compiled(compiled, kernel=kernel).route_pairs(pairs)
        for kernel, compiled in (("native", native[2]), ("numpy", numpy[2]))
    }
    for field in ("delivered", "weight", "hops", "max_header_bits", "failure_code"):
        assert np.array_equal(
            getattr(routes["native"], field), getattr(routes["numpy"], field)
        ), field
    assert routes["native"].delivered.all()
    dist = pair_true_distances(native[1].graph, pairs)
    assert np.all(routes["native"].weight <= (4 * WIDE_K - 5) * dist)


@pytest.mark.parametrize(
    "sizes", [(INDEX_LIMIT, 0, 0), (0, INDEX_LIMIT, 0), (0, 0, INDEX_LIMIT)]
)
def test_sizes_past_int32_are_refused(sizes):
    with pytest.raises(PreprocessingError, match="2\\^31"):
        check_index_sizes(*sizes)
    with pytest.raises(EncodingError, match="2\\^31"):
        check_index_sizes(*sizes, EncodingError)
    check_index_sizes(*(min(size, INDEX_LIMIT - 1) for size in (sizes)))


def _unallocated(count, dtype):
    """A ``(count,)`` column that allocates nothing: one broadcast zero."""
    return np.broadcast_to(np.zeros(1, dtype=dtype), (count,))


def test_assemble_refuses_before_narrowing():
    hierarchy = SimpleNamespace(k=2)
    big = _unallocated(INDEX_LIMIT, np.int64)
    small = np.zeros(3, dtype=np.int64)
    cases = {
        "vertices": (SimpleNamespace(n=INDEX_LIMIT, adj=small), small),
        "arcs": (SimpleNamespace(n=3, adj=big), small),
        "entries": (SimpleNamespace(n=3, adj=small), big),
    }
    for what, (graph, member) in cases.items():
        columns = dict.fromkeys(
            ("cl_indptr", "ent_dist", "ent_parent", "ent_parent_epos", "ent_heavy_epos",
             "tr_f", "tr_finish", "tr_heavy_finish", "tr_light_depth", "tr_parent_port",
             "tr_heavy_port", "lp_indptr", "lp_data"),
            member,
        )
        with pytest.raises(PreprocessingError, match=what):
            assemble_arrays(graph, None, hierarchy, ent_member=member, **columns)


def test_the_tree_pass_and_the_compile_refuse_before_narrowing():
    big = _unallocated(INDEX_LIMIT, np.int64)
    graph = SimpleNamespace(n=10, adj=np.zeros(4, dtype=np.int64))
    with pytest.raises(PreprocessingError, match="entries"):
        _cluster_trees(
            graph, None, np.zeros(11, dtype=np.int64), _unallocated(INDEX_LIMIT, np.int32),
            _unallocated(INDEX_LIMIT, np.float64), "numpy",
        )
    arrays = SimpleNamespace(
        k=2,
        entry_count=INDEX_LIMIT,
        lab_epos=np.zeros((2, 10), dtype=np.int64),
        hierarchy=SimpleNamespace(pivot=np.zeros((2, 10), dtype=np.int64)),
        **dict.fromkeys(
            ("cl_indptr", "lp_indptr", "lp_data", "ent_member", "tr_f",
             "tr_finish", "tr_heavy_finish", "tr_light_depth", "ent_parent",
             "ent_parent_epos", "ent_heavy_epos", "tr_parent_port", "tr_heavy_port"),
            big,
        ),
    )
    ported = SimpleNamespace(n=10, graph=graph)
    with pytest.raises(EncodingError, match="entries"):
        compile_from_arrays(arrays, ported)
    with pytest.raises(EncodingError, match="vertices"):
        compile_from_arrays(arrays, SimpleNamespace(n=INDEX_LIMIT, graph=graph))


def test_arrays_refuse_a_column_off_the_width_rule():
    graph = reference_graph("gnp", 80, 3).largest_component()
    ported = assign_ports(graph, "sorted")
    arrays = vectorized_arrays(graph, ported, build_hierarchy(graph, 2, make_rng(3)))
    for name in ("ent_member", "lp_data"):
        with pytest.raises(PreprocessingError, match=name):
            dataclasses.replace(arrays, **{name: getattr(arrays, name).astype(np.int64)})


@needs_native
def test_record_layouts_match_the_c_structs():
    layout = record_layout()
    for record, dtype in (("ent", ENT_DTYPE), ("step", STEP_DTYPE)):
        fields, size = layout[record]
        assert size == dtype.itemsize, record
        assert list(fields) == list(dtype.names), record
        for name, (offset, width) in fields.items():
            field_dtype, field_offset = dtype.fields[name][:2]
            assert (offset, width) == (field_offset, field_dtype.itemsize), (record, name)
    assert ENT_DTYPE.itemsize == 64 and STEP_DTYPE.itemsize == 16


# ----------------------------------------------------------------------
# The light ports' width: uint8 while every degree is <= 255
# ----------------------------------------------------------------------
def test_the_rule_picks_one_byte_up_to_degree_255():
    assert light_port_dtype(hub_graph(255).indptr) == np.uint8
    assert light_port_dtype(hub_graph(256).indptr) == np.int32
    assert light_port_dtype(np.zeros(1, dtype=np.int64)) == np.uint8  # no vertex
    ports = np.array([1, 255], dtype=np.int32)
    assert fit_light_ports(ports, np.dtype(np.uint8)).dtype == np.uint8
    for bad in ([1, 256], [0, -1]):
        with pytest.raises(PreprocessingError, match="does not fit"):
            fit_light_ports(np.array(bad, dtype=np.int32), np.dtype(np.uint8))


def test_assemble_refuses_a_port_past_the_width_the_graph_calls_for():
    graph = hub_graph(255)
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, 2, ported=ported, rng=0)
    assert arrays.lp_data.dtype == np.uint8
    columns = {
        f.name: getattr(arrays, f.name)
        for f in dataclasses.fields(arrays)
        if f.name not in ("n", "k", "hierarchy", "lab_epos", "entry_keys", "ent_center")
    }
    lp_data = columns["lp_data"].astype(np.int32)
    lp_data[0] = 256  # no vertex of this graph has a port 256
    columns["lp_data"] = lp_data
    with pytest.raises(PreprocessingError, match="does not fit"):
        assemble_arrays(graph, ported, arrays.hierarchy, **columns)


@pytest.mark.parametrize("k", [2, 3])
def test_a_hub_crossing_degree_255_patches_like_a_fresh_build(k, veto_native):
    """Add an edge at a hub of degree 255 (the new port 256 is a light
    port in its tree), then drop another: ``lp_data`` goes uint8 → int32
    → uint8 through the patch, clean clusters spliced across each
    change, and every version equals a fresh build on both kernels."""
    graph = hub_graph(255)
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, k, ported=ported, rng=0)
    deltas = (
        GraphDelta(add_edges=((0, 299, 1.0),)),  # the hub's port 256 leads to 299
        GraphDelta(drop_edges=((0, 5),)),
    )
    widths = []
    for delta in deltas:
        def patch():
            return patch_arrays(arrays, graph, delta, ported=ported)

        patched = patch()
        lp_data = patched.arrays.lp_data
        assert lp_data.dtype == light_port_dtype(patched.graph.indptr)
        assert patched.stats["entries_reused"] > 0  # the splice carried some rows across
        assert_matches_fresh(patched)
        if available():
            numpy = veto_native(patch).arrays
            assert numpy.lp_data.dtype == lp_data.dtype
            assert np.array_equal(numpy.lp_data, lp_data)
        widths.append((int(np.diff(patched.graph.indptr).max()), lp_data.dtype, int(lp_data.max())))
        graph, ported, arrays = patched.graph, patched.ported, patched.arrays
    assert widths == [(256, np.int32, 256), (255, np.uint8, 255)]


@pytest.fixture(scope="module")
def wide_ports():
    """ba on 4,000 vertices, seed 8: one vertex has degree 257, and 97
    light ports of the k = 4 scheme are past 255."""
    graph = reference_graph("ba", 4000, 8).largest_component()
    ported = assign_ports(graph, "random", rng=derive(8, "wide-ports"))
    arrays = build_arrays(graph, 4, ported=ported, rng=8)
    return graph, ported, arrays


def test_ports_past_255_route_as_the_hop_by_hop_simulator_does(wide_ports):
    graph, ported, arrays = wide_ports
    assert int(np.diff(graph.indptr).max()) == 257
    assert arrays.lp_data.dtype == np.int32 and int(arrays.lp_data.max()) > 255
    # destinations whose light ports include one past 255
    wide = np.flatnonzero(arrays.lp_data > 255)
    dests = np.unique(arrays.ent_member[np.searchsorted(arrays.lp_indptr, wide, "right") - 1])
    rng = make_rng(8)
    pairs = np.stack([rng.integers(0, graph.n, 30 * dests.size), np.repeat(dests, 30)], axis=1)
    scheme = scheme_from_arrays(graph, ported, arrays)
    net = Network(ported, scheme)
    refs = [net.route(int(s), int(t)) for s, t in pairs]
    hub = int(np.argmax(np.diff(graph.indptr)))
    crossed = sum(
        x == hub and ported.port(x, y) > 255
        for ref in refs
        for x, y in zip(ref.path[:-1], ref.path[1:])
    )
    assert crossed > 0  # some routes leave the hub through a port past 255
    kernels = ("native", "numpy") if available() else ("numpy",)
    for kernel in kernels:
        batch = BatchRouter(ported, scheme, kernel=kernel).route_pairs(pairs)
        for i, ref in enumerate(refs):
            assert bool(batch.delivered[i]) == ref.delivered, (kernel, i)
            assert float(batch.weight[i]) == ref.weight, (kernel, i)
            assert int(batch.hops[i]) == ref.hops, (kernel, i)
            assert int(batch.max_header_bits[i]) == ref.max_header_bits, (kernel, i)
