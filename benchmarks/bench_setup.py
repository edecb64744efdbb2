"""Setup path: gnp generation plus random ports, native vs the loops.

The seed → ``Graph`` → ``PortedGraph`` path every pipeline run starts
with: ``reference_graph("gnp", n, seed)`` (average degree 8, weights
1..16, largest component) and ``assign_ports(graph, "random")``.  Its
two draw loops — gnp's geometric skips and one ``Generator.permutation``
per vertex — run as native passes on the generator's own stream
(:mod:`repro.kernels.draws`); ``generators._gnp_loop`` and
``ports._permute_rows_loop`` are the references.  At n = 10⁵ the native
path must be **≥ 5×** faster than the same path on the two reference
loops, timed in one process as interleaved best-of-3.  Both sides share
the array passes (CSR construction, the component gather, the port
checks), which the ratio therefore charges to neither.

Before any clock is trusted, both sides' graphs and ports are compared
by content hash.  The test prints both sides' absolute seconds beside
the ratio, so a move on one side shows, and writes ``BENCH_setup.json``.

``REPRO_BENCH_N`` overrides the vertex count for local iteration.
"""

from __future__ import annotations

import os

import pytest
import scipy.sparse.csgraph  # noqa: F401 - imported before any clock starts
from _emit import emit
from conftest import best_of_interleaved

from repro.analysis.experiments import reference_graph
from repro.graphs import generators, ports
from repro.kernels import available, native_error
from repro.rng import derive
from repro.store.store import graph_content_hash, port_hash

#: Read 6.2×, 6.5× and 7.0× (native 0.284–0.296 s, loops 1.79–2.08 s) at
#: n = 10⁵ on a 2-CPU x86-64 container.
SPEEDUP_FLOOR = 5.0
N_DEFAULT = 100_000
SEED = 7


def _setup(n: int):
    graph = reference_graph("gnp", n, SEED).largest_component()
    ported = ports.assign_ports(graph, "random", rng=derive(SEED, "perfbench", "ports"))
    return graph, ported


@pytest.mark.skipif(not available(), reason=f"native kernels unavailable: {native_error()}")
def test_setup_speedup(monkeypatch):
    n = int(os.environ.get("REPRO_BENCH_N", N_DEFAULT))

    def on_loops():
        with monkeypatch.context() as mp:
            for module in (generators, ports):
                mp.setattr(module, "resolve_kernel", lambda kernel: "numpy")
            return _setup(n)

    graph, ported = _setup(n)
    ref_graph, ref_ported = on_loops()
    assert graph_content_hash(graph) == graph_content_hash(ref_graph)
    assert port_hash(ported) == port_hash(ref_ported)

    t_native, t_loops = best_of_interleaved(lambda: _setup(n), on_loops, repeats=3)
    speedup = t_loops / t_native
    print(
        f"\nsetup (gnp n={n} -> {graph.n} vertices, m={graph.m}, random ports): "
        f"native {t_native:.3f}s, reference loops {t_loops:.3f}s; "
        f"speedup {speedup:.1f}x (floor {SPEEDUP_FLOOR}x)"
    )
    out = emit(
        "setup",
        params={"n": n, "seed": SEED, "vertices": graph.n, "m": graph.m},
        metrics={
            "native_seconds": round(t_native, 4),
            "loops_seconds": round(t_loops, 4),
            "speedup": round(speedup, 2),
        },
        floors={"speedup": SPEEDUP_FLOOR},
    )
    print(f"wrote {out}")
    assert speedup >= SPEEDUP_FLOOR, (
        f"setup speedup {speedup:.1f}x below the {SPEEDUP_FLOOR}x floor "
        f"(native {t_native:.3f}s, reference loops {t_loops:.3f}s)"
    )
