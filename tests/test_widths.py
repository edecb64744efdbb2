"""The width rule where it bites: keys past 2^31, and the size guards.

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
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.experiments import reference_graph
from repro.core.build import patch_arrays, vectorized_arrays
from repro.core.build.arrays import (
    COLUMN_DTYPES,
    INDEX_LIMIT,
    assemble_arrays,
    check_index_sizes,
)
from repro.core.build.vectorized import _cluster_trees
from repro.core.landmarks import build_hierarchy
from repro.errors import EncodingError, PreprocessingError
from repro.graphs.ports import assign_ports
from repro.kernels import available, native_error
from repro.rng import derive, make_rng, sample_pairs
from repro.scenarios import random_delta
from repro.sim.engine.batch import BatchRouter
from repro.kernels.records import record_layout
from repro.sim.engine.compile import COLUMNS, ENT_DTYPE, STEP_DTYPE, compile_from_arrays
from repro.sim.runner import pair_true_distances

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


def _assert_arrays_equal(got, want, what):
    for name, dtype in COLUMN_DTYPES.items():
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype == dtype, f"{what}: {name}"
        assert np.array_equal(mine, theirs), f"{what}: {name}"


@needs_native
def test_keys_past_2_31_build_patch_and_compile_alike_on_both_kernels(wide, veto_native):
    graph, ported, hierarchy, delta = wide
    assert graph.n > 46_341
    native = _pipeline(graph, ported, hierarchy, delta)
    numpy = veto_native(lambda: _pipeline(graph, ported, hierarchy, delta))
    assert int(native[0].entry_keys[-1]) >= 2**31  # the keys need 64 bits
    _assert_arrays_equal(native[0], numpy[0], "build")
    _assert_arrays_equal(native[1].arrays, numpy[1].arrays, "patch")
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
            ("cl_indptr", "ent_dist", "ent_parent", "tr_f", "tr_finish",
             "tr_heavy_finish", "tr_light_depth", "tr_parent_port",
             "tr_heavy_port", "lp_indptr", "lp_data"),
            member,
        )
        with pytest.raises(PreprocessingError, match=what):
            assemble_arrays(graph, None, hierarchy, ent_member=member, **columns)


def test_the_tree_pass_and_the_compile_refuse_before_narrowing():
    keys = _unallocated(INDEX_LIMIT, np.int64)
    graph = SimpleNamespace(n=10, adj=np.zeros(4, dtype=np.int64))
    with pytest.raises(PreprocessingError, match="entries"):
        _cluster_trees(graph, None, keys, _unallocated(INDEX_LIMIT, np.float64), "numpy")
    arrays = SimpleNamespace(
        k=2,
        entry_keys=keys,
        lab_epos=np.zeros((2, 10), dtype=np.int64),
        hierarchy=SimpleNamespace(pivot=np.zeros((2, 10), dtype=np.int64)),
        **dict.fromkeys(
            ("cl_indptr", "lp_indptr", "lp_data", "ent_member", "tr_f",
             "tr_finish", "tr_heavy_finish", "tr_light_depth", "ent_parent",
             "ent_parent_epos", "ent_heavy_epos", "tr_parent_port", "tr_heavy_port"),
            keys,
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
    with pytest.raises(PreprocessingError, match="entry_keys"):
        dataclasses.replace(arrays, entry_keys=arrays.entry_keys.astype(np.int32))


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
