"""The passes a churn epoch makes over every entry: native ≡ numpy.

Native passes run on every patch, compile and save: the patch's splice
(``tz_splice``, wrapped in :mod:`repro.kernels.splice`), the label
positions of :func:`~repro.core.build.arrays.assemble_arrays`
(``tz_label_positions``, a search of a tree's slice of the members) and
the label bits a compile derives on first read, from its records, with
the derive pass ``tz_derive_entries``.  Each must equal its numpy
reference byte for byte:

1. **splice primitives** on random runs of every column kind, cut into
   1–4 pool ranges;
2. **assemble** on the reference families × k = 1..4 × {own random,
   sorted} ports, and a compile's **label bits** on the same grid,
   against the uncached :meth:`SchemeArrays.entry_label_bits`; and one
   refusal of a member outside ``[0, n)`` on both kernels;
3. **patches** on the same grid and over chained weight-only epochs
   under random ports, with the numpy half run under ``veto_native`` —
   moved and kept epochs both required;
4. **the hierarchy** of every patch equals
   ``hierarchy_from_levels(new graph, levels)``: the patch reuses the
   stored one when no updated edge can move a landmark field;
5. **the save check**: a save of the arrays a compile was written from
   compares no entry-length column, and any other compile still is;
6. **no keys are carried**: a churn epoch from build to route, a load
   of the published patch and the table bits included, never forms an
   int64 entry key, leaves no scheme with a key or center attribute,
   and no compile holding the keys.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest
from strategies import delta_from_seed, family_from_seed

from repro import pool
from repro.analysis.experiments import reference_graph
from repro.core.build import SchemeArrays, build_arrays, patch_arrays
from repro.core.build import patch as patch_mod
from repro.core.build import arrays as arrays_mod
from repro.core.build.arrays import assemble_arrays, entry_keys
from repro.core.landmarks import hierarchy_from_levels
from repro.errors import EncodingError, GraphError, PreprocessingError
from repro.graphs.delta import GraphDelta
from repro.graphs.ports import assign_ports
from repro.kernels import available, native_error, splice
from repro.obs import TELEMETRY
from repro.rng import derive
from repro.scenarios import random_delta
from repro.sim.engine.compile import compile_from_arrays
from repro.store import RouteService, SchemeStore

needs_native = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

REFERENCE_FAMILIES = ("gnp", "ba", "as-like", "grid", "geometric")
ARRAY_FIELDS = [
    f.name for f in dataclasses.fields(SchemeArrays) if f.name not in ("n", "k", "hierarchy")
]
#: The core columns a builder hands ``assemble_arrays``.
CORE = (
    "cl_indptr", "ent_member", "ent_dist", "ent_parent", "tr_f", "tr_finish",
    "tr_heavy_finish", "tr_light_depth", "tr_parent_port", "tr_heavy_port",
    "lp_indptr", "lp_data", "ent_parent_epos", "ent_heavy_epos",
)


def assert_bytes_equal(a: SchemeArrays, b: SchemeArrays, context="") -> None:
    """Every column of two schemes equal byte for byte, dtypes included."""
    assert (a.n, a.k) == (b.n, b.k)
    for name in ARRAY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, f"{name} {context}"
        assert x.tobytes() == y.tobytes(), f"{name} differs {context}"


def assert_hierarchy_fresh(patched) -> None:
    """The patch's hierarchy ≡ one resolved from scratch on the new graph."""
    fresh = hierarchy_from_levels(patched.graph, patched.hierarchy.levels)
    for name in ("dist", "pivot", "level_of"):
        got, want = getattr(patched.hierarchy, name), getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def grid_instances():
    """The reference families × k = 1..4 × {own random, sorted} ports."""
    return [
        (family, k, ports)
        for family in REFERENCE_FAMILIES
        for k in (1, 2, 3, 4)
        for ports in ("random", "sorted")
    ]


def instance(family, k, ports):
    graph = reference_graph(family, 64, k).largest_component()
    ported = assign_ports(graph, ports, rng=derive(k, "own"))
    return graph, ported, build_arrays(graph, k, ported=ported, rng=k)


# ----------------------------------------------------------------------
# 1. Splice primitives
# ----------------------------------------------------------------------
def random_splice(seed, still=False):
    """Random runs over a parent and a rebuild, with one column of every
    kind and width, as a patch lays them out: dirty runs read the
    rebuild in order, clean runs the parent, anywhere — or, when
    ``still``, at their own rows."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 40))
    lens = rng.integers(0, 30, size=count)
    dirty = rng.integers(0, 2, size=count)
    at = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lens, out=at[1:])
    old_rows = int(at[-1]) if still else 700
    new_rows = int(lens[dirty == 1].sum())
    src = np.where(dirty == 1, np.cumsum(lens * dirty) - lens * dirty, 0)
    clean = dirty == 0
    src[clean] = at[:-1][clean] if still else rng.integers(0, 670, size=int(clean.sum()))

    def both(make):
        return make(old_rows), make(new_rows)

    links = both(lambda m: rng.integers(-1, 500, size=m).astype(np.int32))
    columns = {
        "copy": both(lambda m: rng.integers(-9, 9, size=m)) + (splice.COPY,),
        "copy32": both(lambda m: rng.integers(-9, 9, size=m).astype(np.int32))
        + (splice.COPY,),
        "real": both(lambda m: rng.random(m)) + (splice.REAL,),
        "link": links + (splice.LINK,),
        "offset": both(lambda m: rng.integers(0, 1000, size=m)) + (splice.OFFSET,),
    }
    shift = rng.integers(-50, 50, size=count)
    return (dirty.astype(np.int64), src.astype(np.int64), at), columns, shift


@needs_native
@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_splice_primitive_every_kind(seed, parts, monkeypatch):
    runs, columns, shift = random_splice(seed)
    want = patch_mod._splice([(runs, columns, shift)])
    monkeypatch.setattr(pool, "size", lambda: parts)
    got = splice.splice_native([(runs, columns, shift)])
    for name in columns:
        assert got[name].dtype == want[name].dtype
        assert got[name].tobytes() == want[name].tobytes(), name



@needs_native
@pytest.mark.parametrize("seed", range(6))
def test_still_runs_compare_as_numpy(seed):
    """Clean runs at their own rows: a column is kept when its dirty
    runs already hold the parent's rows, compared as numpy compares."""
    runs, columns, shift = random_splice(seed, still=True)
    columns.pop("offset")  # offsets move with the blocks: never still
    assert splice.splice_same_native(runs, columns) == patch_mod._splice_same(runs, columns)
    written = patch_mod._splice([(runs, columns, shift)])
    kept = {name: (written[name], col[1], col[2]) for name, col in columns.items()}
    assert splice.splice_same_native(runs, kept) == dict.fromkeys(columns, True)
    assert patch_mod._splice_same(runs, kept) == dict.fromkeys(columns, True)


@needs_native
def test_splice_refuses_runs_past_their_source():
    runs, columns, shift = random_splice(0)
    dirty, src, at = runs
    bad = src.copy()
    bad[np.argmax(np.diff(at))] = 10**6
    with pytest.raises(ValueError, match="past its source"):
        splice.splice_native([((dirty, bad, at), columns, shift)])


# ----------------------------------------------------------------------
# 2. Assemble and label bits on the reference grid
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("family,k,ports", grid_instances())
def test_assemble_and_label_bits(family, k, ports, veto_native):
    graph, ported, arrays = instance(family, k, ports)
    core = {name: getattr(arrays, name) for name in CORE}

    def assemble():
        return assemble_arrays(graph, ported, arrays.hierarchy, **core)

    want = veto_native(assemble)
    assert_bytes_equal(want, arrays, "(numpy assemble vs the build)")
    for parts in (1, 2, 3, 4):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pool, "size", lambda: parts)
            got = assemble()
        assert_bytes_equal(want, got, f"({family} k={k} {ports} parts={parts})")

    # label bits: the compile's derive pass on each kernel, never a cache
    reference = veto_native(lambda: SchemeArrays.entry_label_bits(dataclasses.replace(arrays)))
    for run in (veto_native, lambda fn: fn()):
        fresh = dataclasses.replace(arrays)
        compiled = run(lambda: compile_from_arrays(fresh, ported))
        assert run(lambda: compiled.ent_label_bits).tobytes() == reference.tobytes()


@needs_native
@pytest.mark.parametrize("member", ["-1", "n"])
def test_assemble_refuses_a_member_outside_the_vertices(member, veto_native):
    """Deriving the keys, both kernels refuse an entry whose member is
    -1 or n with the same error."""
    graph, ported, arrays = instance("gnp", 2, "sorted")
    core = {name: getattr(arrays, name) for name in CORE}
    core["ent_member"] = core["ent_member"].copy()
    core["ent_member"][arrays.entry_count // 2] = -1 if member == "-1" else graph.n

    def assemble():
        return assemble_arrays(graph, ported, arrays.hierarchy, **core)

    for run in (veto_native, lambda fn: fn()):
        with pytest.raises(PreprocessingError, match=r"an entry's member lies outside \[0, n\)"):
            run(assemble)


@needs_native
def test_missing_label_entry_names_its_level(veto_native):
    graph, ported, arrays = instance("gnp", 3, "sorted")
    core = {name: getattr(arrays, name) for name in CORE}
    h = arrays.hierarchy
    pivot = h.pivot.copy()
    v = int(np.flatnonzero(h.level_of == 0)[0])
    keys = set(entry_keys(arrays.cl_indptr, arrays.ent_member).tolist())
    pivot[2, v] = next(w for w in range(graph.n) if w * graph.n + v not in keys)
    bad = dataclasses.replace(h, pivot=pivot)
    for run in (veto_native, lambda fn: fn()):
        with pytest.raises(PreprocessingError, match="level-2 pivot"):
            run(lambda: assemble_arrays(graph, ported, bad, **core))


@needs_native
def test_compile_refuses_a_light_slice_outside_the_payload(veto_native):
    graph, ported, arrays = instance("gnp", 3, "sorted")
    lp_indptr = arrays.lp_indptr.copy()
    lp_indptr[7] = -1
    bad = dataclasses.replace(arrays, lp_indptr=lp_indptr)
    for run in (veto_native, lambda fn: fn()):
        with pytest.raises(EncodingError, match="entry 6: its light-port slice"):
            run(lambda: compile_from_arrays(bad, ported))


# ----------------------------------------------------------------------
# 3. Patches: native ≡ numpy
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("family,k,ports", grid_instances())
def test_patch_on_the_reference_grid(family, k, ports, veto_native):
    graph, ported, arrays = instance(family, k, ports)
    patched = 0
    for classes in (("weight",), ("node-drop", "node-add"), ("edge-add", "edge-drop")):
        for seed in range(6):
            delta = delta_from_seed(graph, seed, classes=classes)

            def patch():
                return patch_arrays(arrays, graph, delta, ported=ported)

            try:
                got = patch()
            except (PreprocessingError, GraphError):
                continue
            want = veto_native(patch)
            assert_bytes_equal(want.arrays, got.arrays, f"({classes} seed={seed})")
            assert_hierarchy_fresh(got)
            patched += 1
            break
    assert patched >= 2


@needs_native
@pytest.mark.parametrize("family", ["gnp", "ba", "grid"])
def test_chained_random_port_epochs(family, veto_native):
    """TestPatchSplice's chain, with every epoch patched on both kernels
    and held to a build from scratch."""
    graph = family_from_seed(0, family)
    ported = assign_ports(graph, "random", rng=0)
    arrays = build_arrays(graph, 3, ported=ported, rng=0)
    moved = kept = reused = 0
    for epoch in range(24):
        delta = random_delta(
            graph, derive(0, "random-ports", epoch),
            weight_updates=1 + epoch % 2, edge_adds=0, edge_drops=0,
        )

        def patch():
            return patch_arrays(arrays, graph, delta, ported=ported)

        got = patch()
        want = veto_native(patch)
        assert_bytes_equal(want.arrays, got.arrays, f"(epoch {epoch})")
        assert_hierarchy_fresh(got)
        # every shared structure too: ≡ a build from scratch, hierarchy included
        fresh = build_arrays(
            got.graph, 3, ported=got.ported,
            hierarchy=hierarchy_from_levels(got.graph, got.hierarchy.levels),
        )
        assert_bytes_equal(fresh, got.arrays, f"(epoch {epoch}, fresh build)")
        reused += got.hierarchy is arrays.hierarchy
        if np.array_equal(got.arrays.cl_indptr, arrays.cl_indptr):
            kept += 1
        else:
            moved += 1
        graph, ported, arrays = got.graph, got.ported, got.arrays
    assert moved and kept, (moved, kept)
    assert 0 < reused < 24


@needs_native
def test_kept_blocks_share_what_did_not_change():
    """A weight bump that re-shapes dirty trees but keeps every member
    set: the splice shares the unchanged columns and assemble every
    structure derived from them."""
    graph = family_from_seed(0, "gnp")
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, 3, ported=ported, rng=0)
    u, v = (int(x) for x in graph.edges[6])
    delta = GraphDelta(weight_updates=((u, v, float(graph.edge_weights[6] + 1)),))
    got = patch_arrays(arrays, graph, delta, ported=ported).arrays
    for name in ("cl_indptr", "ent_member", "lab_epos"):
        assert getattr(got, name) is getattr(arrays, name), name
    for scheme in (arrays, got):  # neither carries the keys or centers
        assert not {"entry_keys", "ent_center"} & set(vars(scheme))
    assert got.tr_light_depth is not arrays.tr_light_depth
    assert got.lp_indptr is not arrays.lp_indptr


# ----------------------------------------------------------------------
# 4. The hierarchy
# ----------------------------------------------------------------------
def multi_source_sweeps(fn):
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        out = fn()
        sweeps = [sp for sp, _ in TELEMETRY.spans() if sp.name == "csr.multi_source"]
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return out, len(sweeps)


@pytest.mark.parametrize("k", [2, 3])
def test_weight_delta_that_cannot_move_a_landmark_field(k):
    graph = family_from_seed(3, "gnp")
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, k, ported=ported, rng=3)
    h = arrays.hierarchy
    eid = next(
        e
        for e in np.argsort(-graph.edge_weights, kind="stable")
        if all(
            abs(h.dist[i][graph.edges[e, 0]] - h.dist[i][graph.edges[e, 1]])
            < graph.edge_weights[e]
            for i in range(1, k)
        )
    )
    u, v = (int(x) for x in graph.edges[eid])
    delta = GraphDelta(weight_updates=((u, v, float(graph.edge_weights[eid] + 2)),))
    patched, sweeps = multi_source_sweeps(
        lambda: patch_arrays(arrays, graph, delta, ported=ported)
    )
    assert patched.hierarchy is h and sweeps == 0
    assert_hierarchy_fresh(patched)


def test_weight_delta_on_a_tight_edge_recomputes():
    graph = family_from_seed(3, "gnp")
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, 2, ported=ported, rng=3)
    d1 = arrays.hierarchy.dist[1]
    eid = next(
        e
        for e in range(graph.m)
        if abs(d1[graph.edges[e, 0]] - d1[graph.edges[e, 1]]) == graph.edge_weights[e]
    )
    u, v = (int(x) for x in graph.edges[eid])
    delta = GraphDelta(weight_updates=((u, v, float(graph.edge_weights[eid] + 5)),))
    patched, sweeps = multi_source_sweeps(
        lambda: patch_arrays(arrays, graph, delta, ported=ported)
    )
    assert patched.hierarchy is not arrays.hierarchy and sweeps >= 1
    assert_hierarchy_fresh(patched)


def test_inconsistent_stored_pivots_are_recomputed():
    graph = family_from_seed(5, "gnp")
    ported = assign_ports(graph, "sorted")
    arrays = build_arrays(graph, 3, ported=ported, rng=5)
    h = arrays.hierarchy
    tie = np.flatnonzero((h.dist[1] == h.dist[2]) & (h.pivot[1] == h.pivot[2]))
    if tie.shape[0] == 0:
        pytest.skip("no tie between levels 1 and 2 on this instance")
    pivot = h.pivot.copy()
    pivot[1, tie[0]] = -1  # a pivot the consistent rule would not pick
    stored = dataclasses.replace(arrays, hierarchy=dataclasses.replace(h, pivot=pivot))
    patched = patch_arrays(stored, graph, GraphDelta(), ported=ported)
    assert patched.hierarchy is not stored.hierarchy
    assert_hierarchy_fresh(patched)


# ----------------------------------------------------------------------
# 5. The save check
# ----------------------------------------------------------------------
@pytest.fixture
def stored(tmp_path):
    graph = family_from_seed(8, "gnp", n=80)
    ported = assign_ports(graph, "random", rng=8)
    arrays = build_arrays(graph, 3, ported=ported, rng=8)
    return graph, ported, arrays, SchemeStore(tmp_path)


def test_save_of_the_compiled_arrays_compares_no_entry_column(stored, monkeypatch):
    graph, ported, arrays, store = stored
    compiled = compile_from_arrays(arrays, ported)
    sizes = []
    real = np.array_equal

    def spy(a, b, *args, **kwargs):
        sizes.append(max(np.size(a), np.size(b)))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", spy)
    store.save(graph, ported, arrays, seed=8, compiled=compiled)
    assert all(size < arrays.entry_count for size in sizes), sizes


def test_save_compares_a_compile_of_other_column_objects(stored):
    graph, ported, arrays, store = stored
    tr_f = arrays.tr_f.copy()
    equal = dataclasses.replace(arrays, tr_f=tr_f)
    store.save(graph, ported, arrays, seed=8, compiled=compile_from_arrays(equal, ported))
    tr_f[3] += 1  # a mutated copy: compared, and refused
    with pytest.raises(EncodingError, match="'tr_f' is not the given arrays"):
        store.save(graph, ported, arrays, seed=8, compiled=compile_from_arrays(equal, ported))


# ----------------------------------------------------------------------
# 6. No keys are carried
# ----------------------------------------------------------------------
@needs_native
def test_a_churn_epoch_carries_no_entry_keys(tmp_path, monkeypatch):
    """Build, count the table bits, compile, publish, patch, compile,
    publish the patch, load it and route through the lineage's pointer:
    every pass names an entry by its tree slice and member, so the keys
    helper is never called, no scheme has a key or center attribute at
    all, and no compile comes to hold the keys."""

    def no_keys(*_args):
        raise AssertionError("an int64 entry key was formed on the native path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "entry_keys", None) is (
            arrays_mod.entry_keys
        ):
            monkeypatch.setattr(module, "entry_keys", no_keys)
    graph = family_from_seed(8, "gnp", n=80)
    ported = assign_ports(graph, "random", rng=8)
    arrays = build_arrays(graph, 3, ported=ported, rng=8)
    assert arrays.table_bits(int(graph.degrees().max())).shape == (graph.n,)
    compiled = compile_from_arrays(arrays, ported)
    store = SchemeStore(tmp_path)
    lineage = store.publish(graph, ported, arrays, seed=8, compiled=compiled)
    delta = random_delta(
        graph, derive(8, "carried"), weight_updates=2, edge_adds=0, edge_drops=0
    )
    patched = patch_arrays(arrays, graph, delta, ported=ported)
    recompiled = compile_from_arrays(patched.arrays, patched.ported)
    key = store.publish_patch(
        lineage, patched.graph, patched.ported, patched.arrays, delta=delta, seed=8,
        compiled=recompiled,
    )
    loaded = store.load(key)
    max_port = int(patched.graph.degrees().max())
    assert np.array_equal(loaded.arrays.table_bits(max_port), patched.arrays.table_bits(max_port))
    service = RouteService(store.pointer_path(lineage))
    ids = np.arange(0, patched.graph.n, 3)
    assert service.route(np.stack([ids, ids[::-1]], axis=1)).delivered.all()
    for scheme in (arrays, patched.arrays, loaded.arrays):
        assert not hasattr(scheme, "entry_keys") and not hasattr(scheme, "ent_center")
    for each in (compiled, recompiled, service.compiled, loaded.compiled):
        assert "entry_keys" not in vars(each)


def test_table_bits_leaves_no_keys_or_centers(veto_native):
    """The table-bit count reads each entry's center from a column made
    for the call: neither the keys nor the centers stay on the scheme,
    built or loaded, on either kernel, and a second count gives the
    same bits."""
    graph = family_from_seed(9, "gnp", n=80)
    ported = assign_ports(graph, "random", rng=9)
    for run in (lambda f: f(), veto_native):
        arrays = run(lambda: build_arrays(graph, 3, ported=ported, rng=9))
        max_port = int(graph.degrees().max())
        bits = run(lambda: arrays.table_bits(max_port))
        mask = arrays.level0_entries()
        assert not {"entry_keys", "ent_center"} & set(vars(arrays))
        assert np.array_equal(mask, arrays.level0_entries(arrays.entry_centers()))
        assert np.array_equal(bits, arrays.table_bits(max_port))
