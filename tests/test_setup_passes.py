"""The setup path's native draw passes and array validators, held to
their references.

* ``tz_gnp_edges`` against ``generators._gnp_loop`` and
  ``tz_permute_rows`` against per-vertex ``Generator.permutation``
  (``ports._permute_rows_loop``): the same output, and the generator in
  the same state afterwards, compared by its state and its next draw.
* ``Graph.__init__`` and ``PortedGraph.__init__`` against per-edge and
  per-vertex scans: over random corruptions they refuse exactly the
  inputs the scans refuse, with the same message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, PortError
from repro.graphs import generators as gen
from repro.graphs.generators import _gnp_loop
from repro.graphs.graph import Graph
from repro.graphs.ports import PortedGraph, _permute_rows_loop, assign_ports
from repro.kernels import available, native_error
from repro.kernels.draws import gnp_edges_native, permute_rows_native
from repro.rng import make_rng
from repro.store.store import graph_content_hash, port_hash

needs_native = pytest.mark.skipif(
    not available(), reason=f"native kernels unavailable: {native_error()}"
)

#: Bit generators whose draw functions the passes must call as numpy does
#: (PCG64, Philox and SFC64 buffer half of a 64-bit draw for the next
#: 32-bit one; MT19937 draws 32 bits natively).
BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


def _pair(seed, bits=np.random.PCG64):
    return (
        np.random.Generator(bits(seed)),
        np.random.Generator(bits(seed)),
    )


def _same_state(x, y) -> bool:
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_state(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    return x == y


def assert_same_stream(a: np.random.Generator, b: np.random.Generator) -> None:
    """Both generators in the same state: equal state and next draw."""
    assert _same_state(a.bit_generator.state, b.bit_generator.state)
    assert a.random() == b.random()
    assert a.integers(0, 2**32) == b.integers(0, 2**32)


def _p(kind, n):
    return {
        "zero": 0.0,
        "sparse": min(1.0, 8.0 / max(1, n - 1)),
        "dense": 0.2,
        "full": 1.0,
    }[kind]


# ----------------------------------------------------------------------
# gnp
# ----------------------------------------------------------------------
def _assert_gnp_on_either_kernel(veto_native, n, p, *, connected):
    """``gnp`` with weights on the platform's kernel and on numpy: every
    column, dtypes included, and the generator's state afterwards."""
    a, b = _pair(n + 3)
    native = gen.gnp(n, p, rng=a, connected=connected, weights=(1, 16))
    loop = veto_native(lambda: gen.gnp(n, p, rng=b, connected=connected, weights=(1, 16)))
    assert graph_content_hash(native) == graph_content_hash(loop)
    for name in ("indptr", "adj", "adj_weights", "arc_edge", "edges", "edge_weights"):
        x, y = getattr(native, name), getattr(loop, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert_same_stream(a, b)


@needs_native
class TestGnpPass:
    @pytest.mark.parametrize(
        "n,p",
        [(n, p) for n in (0, 1, 2, 40, 2000) for p in ("sparse", 0.2, 1e-9)]
        + [(2, 0.999), (40, 0.999)],
    )
    def test_pass_is_the_loop(self, n, p):
        if p == "sparse":
            p = 8.0 / max(1, n - 1) if n > 9 else 0.5
        a, b = _pair(n + 11)
        got = gnp_edges_native(n, p, a)
        want = _gnp_loop(n, p, b)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert_same_stream(a, b)

    @pytest.mark.parametrize("bits", BIT_GENERATORS)
    def test_every_bit_generator(self, bits):
        a, b = _pair(5, bits)
        assert np.array_equal(gnp_edges_native(500, 0.03, a), _gnp_loop(500, 0.03, b))
        assert_same_stream(a, b)

    def test_infinite_skip_raises_like_the_loop(self):
        a, b = _pair(3)
        with pytest.raises(OverflowError) as native:
            gnp_edges_native(100, 1e-310, a)
        with pytest.raises(OverflowError) as loop:
            _gnp_loop(100, 1e-310, b)
        assert str(native.value) == str(loop.value)
        assert_same_stream(a, b)

    @pytest.mark.parametrize("n", [0, 1, 2, 40, 2000])
    @pytest.mark.parametrize("kind", ["zero", "sparse", "dense", "full"])
    def test_gnp_on_either_kernel(self, veto_native, n, kind):
        _assert_gnp_on_either_kernel(veto_native, n, _p(kind, n), connected=True)

    def test_unconnected_gnp_on_either_kernel(self, veto_native):
        _assert_gnp_on_either_kernel(veto_native, 40, 0.03, connected=False)

    def test_refuses_what_it_cannot_draw(self):
        with pytest.raises(ValueError, match="2\\^31"):
            gnp_edges_native(2**31, 0.5, make_rng(0))
        for p in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="0 < p < 1"):
                gnp_edges_native(10, p, make_rng(0))


# ----------------------------------------------------------------------
# random ports
# ----------------------------------------------------------------------
def _indptr(degrees):
    indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr


@needs_native
class TestPermutationPass:
    @pytest.mark.parametrize(
        "degrees",
        [
            [],
            [0],
            [0, 0, 0],
            [1],
            [2, 0, 1, 0, 5, 3, 0, 37],
            [70_000],  # masks wider than 16 bits
            list(np.random.default_rng(4).integers(0, 40, size=2000)),
        ],
    )
    def test_pass_is_the_loop(self, degrees):
        indptr = _indptr(degrees)
        a, b = _pair(len(degrees) + 1)
        got = permute_rows_native(indptr, a)
        want = _permute_rows_loop(indptr, b)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert_same_stream(a, b)

    @pytest.mark.parametrize("bits", BIT_GENERATORS)
    def test_every_bit_generator(self, bits):
        indptr = _indptr(np.random.default_rng(9).integers(0, 300, size=200))
        a, b = _pair(6, bits)
        assert np.array_equal(permute_rows_native(indptr, a), _permute_rows_loop(indptr, b))
        assert_same_stream(a, b)

    def test_interleaves_with_the_callers_draws(self):
        # A half-used 64-bit draw the caller left buffered is the pass's
        # first 32 bits, as it is for numpy's own shuffle.
        indptr = _indptr([3, 9, 0, 4])
        a, b = _pair(8)
        a.integers(0, 7, dtype=np.uint32)
        b.integers(0, 7, dtype=np.uint32)
        assert np.array_equal(permute_rows_native(indptr, a), _permute_rows_loop(indptr, b))
        assert_same_stream(a, b)

    def test_assign_ports_on_either_kernel(self, veto_native):
        g = gen.gnp(300, 0.01, rng=2, connected=False)  # isolated vertices
        assert np.any(g.degrees() == 0)
        a, b = _pair(12)
        native = assign_ports(g, "random", rng=a)
        loop = veto_native(lambda: assign_ports(g, "random", rng=b))
        assert port_hash(native) == port_hash(loop)
        assert np.array_equal(native.arc_of_port, loop.arc_of_port)
        assert_same_stream(a, b)

    def test_refuses_an_indptr_it_would_write_past(self):
        with pytest.raises(ValueError, match="int64"):
            permute_rows_native(np.array([0, 2], dtype=np.int32), make_rng(0))
        for bad in ([], [1, 3], [0, 4, 2]):
            with pytest.raises(ValueError, match="never decrease"):
                permute_rows_native(np.array(bad, dtype=np.int64), make_rng(0))


# ----------------------------------------------------------------------
# validators
# ----------------------------------------------------------------------
def _scan_graph(n, edges):
    """The message of the first check a per-edge scan fails, checks in
    ``Graph.__init__``'s order (None when the edges form a simple graph)."""
    if any(not 0 <= x < n for e in edges for x in e):
        return "edge endpoint out of range"
    if any(u == v for u, v in edges):
        return "self loops are not allowed"
    seen = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            return "parallel edges are not allowed"
        seen.add(key)
    return None


def _corrupt_edges(rng, n, edges):
    edges = [list(e) for e in edges]
    for _ in range(int(rng.integers(1, 4))):
        what = rng.integers(0, 4)
        i = int(rng.integers(0, len(edges)))
        if what == 0:  # self loop
            edges[i][1] = edges[i][0]
        elif what == 1:  # parallel edge, either orientation
            u, v = edges[i]
            edges.insert(int(rng.integers(0, len(edges) + 1)), [v, u] if rng.random() < 0.5 else [u, v])
        elif what == 2:  # endpoint out of range
            edges[i][int(rng.integers(0, 2))] = int(rng.choice([-1, n, n + 7]))
        # what == 3: leave this round's pick alone
    return edges


def test_graph_refuses_what_the_scan_refuses():
    rng = np.random.default_rng(2024)
    base = gen.gnp(30, 0.15, rng=1, connected=False)
    simple = [[int(u), int(v)] for u, v in base.edges]
    refused = 0
    for _ in range(400):
        edges = _corrupt_edges(rng, base.n, simple)
        want = _scan_graph(base.n, edges)
        if want is None:
            Graph(base.n, edges)
            continue
        refused += 1
        with pytest.raises(GraphError) as err:
            Graph(base.n, edges)
        assert str(err.value) == want
    assert refused > 300


def _scan_ports(graph, port_of_arc):
    """The per-vertex scan ``PortedGraph.__init__`` made: ``arc_of_port``,
    or the (type, message) of the first refusal."""
    if port_of_arc.shape != (2 * graph.m,):
        return GraphError, "port_of_arc must have one entry per directed arc"
    ports = port_of_arc.astype(np.int64)
    arc_of_port = np.full(2 * graph.m, -1, dtype=np.int64)
    for u in range(graph.n):
        lo, hi = int(graph.indptr[u]), int(graph.indptr[u + 1])
        seen = np.zeros(hi - lo, dtype=bool)
        for arc in range(lo, hi):
            p = int(ports[arc])
            if not 1 <= p <= hi - lo:
                return PortError, f"port {p} at vertex {u} outside 1..deg={hi - lo}"
            if seen[p - 1]:
                return PortError, f"duplicate port {p} at vertex {u}"
            seen[p - 1] = True
            arc_of_port[lo + p - 1] = arc
    return arc_of_port


def _corrupt_ports(rng, graph, ports):
    ports = ports.copy()
    deg = np.diff(graph.indptr)
    for _ in range(int(rng.integers(1, 4))):
        arc = int(rng.integers(0, ports.size))
        u = int(np.searchsorted(graph.indptr, arc, side="right")) - 1
        what = rng.integers(0, 6)
        if what == 0:
            ports[arc] = 0
        elif what == 1:
            ports[arc] = deg[u] + int(rng.integers(1, 4))
        elif what == 2:
            ports[arc] = -int(rng.integers(1, 5))
        elif what == 3:  # duplicate a port of the same row
            ports[arc] = ports[int(rng.integers(graph.indptr[u], graph.indptr[u + 1]))]
        elif what == 4:  # wrong shape
            ports = ports[:-1] if rng.random() < 0.5 else np.append(ports, 1)
            break
    return ports


def test_ported_graph_refuses_what_the_scan_refuses():
    rng = np.random.default_rng(7)
    g = gen.gnp(60, 0.08, rng=3, connected=False)  # isolated vertices too
    valid = assign_ports(g, "random", rng=4).port_of_arc
    refused = 0
    for _ in range(400):
        ports = _corrupt_ports(rng, g, valid)
        want = _scan_ports(g, ports)
        if isinstance(want, np.ndarray):
            assert np.array_equal(PortedGraph(g, ports).arc_of_port, want)
            continue
        refused += 1
        with pytest.raises(want[0]) as err:
            PortedGraph(g, ports)
        assert type(err.value) is want[0]
        assert str(err.value) == want[1]
    assert refused > 300


@pytest.mark.parametrize("kind", ["sorted", "reversed", "random"])
def test_valid_assignments_invert_as_the_scan_does(kind):
    g = gen.gnp(80, 0.06, rng=5, connected=False)
    ported = assign_ports(g, kind, rng=1)
    assert np.array_equal(ported.arc_of_port, _scan_ports(g, ported.port_of_arc))


def test_subgraph_is_the_per_edge_loop():
    g = gen.gnp(120, 0.05, rng=8, weights=(1, 9), connected=False)
    rng = np.random.default_rng(1)
    for verts in (
        rng.permutation(g.n)[:70],
        np.sort(rng.permutation(g.n)[:70]),  # ascending, as largest_component's
        list(range(0, g.n, 3)),
        np.array([5, g.n + 3, -1, 17]),  # ids outside 0..n-1 become isolated
        [],
    ):
        index = {int(v): i for i, v in enumerate(verts)}
        edges, weights = [], []
        for (u, v), w in zip(g.edges.tolist(), g.edge_weights.tolist()):
            if u in index and v in index:
                edges.append((index[u], index[v]))
                weights.append(w)
        sub = g.subgraph(verts)
        want = Graph(len(index), edges, weights)
        for name in ("indptr", "adj", "adj_weights", "arc_edge", "edges", "edge_weights"):
            x, y = getattr(sub, name), getattr(want, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    with pytest.raises(GraphError, match="duplicate"):
        g.subgraph([1, 2, 1])
