"""The pipeline every workload shares: set-up, the daemon child, checks.

Set-up drives the layers in order through their public functions —
``graphs`` (generate, ports) → ``core.build`` → ``sim.engine`` compile →
``store`` (publish) — and then makes the scheme answerable: a
``repro serve --daemon`` child for the serve workloads, a follow-mode
:class:`~repro.store.RouteService` for churn.  Each call is timed and
wrapped in a benchmark span; nothing here touches ``repro.obs``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from repro.analysis.experiments import reference_graph
from repro.core.build import build_arrays
from repro.graphs.ports import assign_ports
from repro.rng import derive, make_rng
from repro.serve import DaemonClient, zipf_traffic
from repro.sim.engine.batch import BatchResult
from repro.sim.engine.compile import compile_from_arrays
from repro.sim.runner import pair_true_distances
from repro.store import SchemeStore

#: The one scheme every workload serves: gnp(N) largest component, k=K.
N = 10_000
K = 3
#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Zipf traffic model shared by all workloads: requests are dealt round
#: robin from POPULATIONS independent populations of USERS users, so a
#: run's cost does not hinge on where one population's top user sits.
USERS = 2_000
ZIPF_S = 1.2
POPULATIONS = 16
#: Uniform pairs whose exact distance gives ``stretch_mean``:
#: STRETCH_SOURCES sources × STRETCH_DESTS destinations each.
STRETCH_SOURCES = 128
STRETCH_DESTS = 16
#: A steady-state timing reads the median of its quietest block: the
#: samples, in time order, are cut into QUIET_BLOCKS consecutive blocks
#: and the lowest block median wins.  Other tenants of a shared host
#: slow it in episodes of up to several seconds that move a whole-run
#: median by up to 30%; the quietest block barely moves.
QUIET_BLOCKS = 8
#: Seconds to wait for the daemon's port file / drain before giving up.
SPAWN_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0


class CheckFailed(Exception):
    """An output-correctness check failed; the run must fail."""


def check(ok: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``ok``."""
    if not ok:
        raise CheckFailed(message)


class Context:
    """State of one benchmark run: tracer, timings, scratch directory."""

    def __init__(self, root: Path, work_dir: Path, tracer) -> None:
        self.root = root
        self.work_dir = work_dir
        self.tracer = tracer
        self.samples = defaultdict(list)
        self.layer = {}  # per-layer values that are not timing samples
        self.report = {"env": {}}  # everything printed besides the metrics
        self.cleanups = []  # run in reverse on exit, whatever happened
        self._dirs = 0

    @contextlib.contextmanager
    def timed(self, name: str, rid=None):
        """Span plus wall-clock sample of one call into a layer."""
        with self.tracer.span(name, rid):
            t0 = perf_counter()
            yield
            self.samples[name].append(perf_counter() - t0)

    def median(self, name: str, scale: float = 1.0) -> float:
        """Median of a timing sample (0 when the layer was not exercised)."""
        values = self.samples.get(name)
        return float(np.median(values)) * scale if values else 0.0

    def new_dir(self, prefix: str) -> Path:
        """A fresh directory under the run's scratch directory."""
        self._dirs += 1
        return Path(tempfile.mkdtemp(prefix=f"{prefix}{self._dirs}-", dir=self.work_dir))


@dataclasses.dataclass
class Scheme:
    """A built, compiled and published scheme."""

    graph: object
    ported: object
    arrays: object
    compiled: object
    store: SchemeStore
    lineage: str

    @property
    def pointer(self) -> Path:
        return self.store.pointer_path(self.lineage)

    @property
    def container_bytes(self) -> int:
        return self.store.path_for(self.store.current(self.lineage)).stat().st_size


def build_scheme(ctx: Context, seed: int, store_dir: Path) -> Scheme:
    """graphs → core.build → engine compile → store publish, each timed."""
    with ctx.timed("graphs.generate"):
        graph = reference_graph("gnp", N, seed).largest_component()
    with ctx.timed("graphs.ports"):
        ported = assign_ports(graph, "random", rng=derive(seed, "perfbench", "ports"))
    with ctx.timed("build.arrays"):
        arrays = build_arrays(
            graph, K, ported=ported, rng=derive(seed, "perfbench", "hierarchy")
        )
    with ctx.timed("engine.compile"):
        compiled = compile_from_arrays(arrays, ported)
    store = SchemeStore(store_dir)
    with ctx.timed("store.save"):
        lineage = store.publish(graph, ported, arrays, seed=seed, compiled=compiled)
    return Scheme(graph, ported, arrays, compiled, store, lineage)


def traffic(n: int, seed: int, tag: str, *, requests: int, batch: int):
    """Seeded Zipf traffic matrices (generated before any clock starts)."""
    per = -(-requests // POPULATIONS)
    pops = [
        zipf_traffic(
            n, users=USERS, requests=per, batch=batch, s=ZIPF_S,
            rng=derive(seed, "perfbench", tag, p),
        )
        for p in range(min(POPULATIONS, requests))
    ]
    return [pops[i % len(pops)][i // len(pops)] for i in range(requests)]


def uniform_sample(n: int, seed: int, tag, sources: int = STRETCH_SOURCES) -> np.ndarray:
    """``sources`` uniform sources × STRETCH_DESTS uniform destinations each."""
    gen = make_rng(derive(seed, "perfbench", "stretch", tag))
    src = np.repeat(gen.choice(n, size=sources, replace=False), STRETCH_DESTS)
    dst = gen.integers(0, n - 1, size=src.shape[0])
    dst += dst >= src  # never a self-pair
    return np.stack([src, dst], axis=1).astype(np.int64)


class Daemon:
    """A ``repro serve --daemon`` child serving one lineage of a store."""

    def __init__(self, ctx: Context, scheme: Scheme) -> None:
        store_dir = scheme.store.root
        self.port_file = store_dir / "daemon.port"
        self.log_path = store_dir / "daemon.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ctx.root / "src"), env.get("PYTHONPATH")) if p
        )
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--daemon",
                    "--store", str(store_dir), "--scheme", scheme.lineage,
                    "--port", "0", "--port-file", str(self.port_file),
                    # Deep enough that the rate ladder never sheds: a rate
                    # past the knee shows up as latency, not as failures.
                    "--queue-limit", "100000",
                ],
                cwd=ctx.root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.port = None

    def wait_ready(self) -> int:
        """Block until the child has written its port; returns it."""
        deadline = perf_counter() + SPAWN_TIMEOUT
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise CheckFailed(
                    f"daemon exited with {self.proc.returncode} before listening: "
                    f"{self.log_path.read_text(errors='replace')[-2000:]}"
                )
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
                return self.port
            sleep(0.002)
        raise CheckFailed("daemon never wrote its port file")

    def client(self) -> DaemonClient:
        return DaemonClient("127.0.0.1", self.port, timeout=DRAIN_TIMEOUT)

    def stop(self) -> int:
        """SIGTERM, wait for the drain, reap; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode

    def kill(self) -> None:
        """Last-resort cleanup: make sure the child is gone and reaped."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def discard(path: Path) -> None:
    """Delete a scratch store (each published version is ~0.2 GB)."""
    shutil.rmtree(path, ignore_errors=True)


def result_digest(result: BatchResult) -> str:
    """SHA-256 over every result column (dtype and bytes)."""
    h = hashlib.sha256()
    for f in dataclasses.fields(BatchResult):
        column = getattr(result, f.name)
        h.update(column.dtype.str.encode())
        h.update(column.tobytes())
    return h.hexdigest()


def check_stretch(ctx: Context, graph, pairs: np.ndarray, result: BatchResult) -> np.ndarray:
    """Every pair delivered within 4k−5 of its exact distance; returns stretches."""
    with ctx.timed("check.true_distances"):
        true_d = pair_true_distances(graph, pairs)
    check(bool(result.delivered.all()), "a sampled pair was not delivered")
    check(bool(np.all(true_d > 0)), "sampled pair with zero true distance")
    stretch = result.weight / true_d
    bound = 4 * K - 5
    check(
        float(stretch.max()) <= bound * (1 + 1e-12),
        f"stretch {float(stretch.max()):.4f} exceeds the 4k-5 = {bound} bound",
    )
    return stretch


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def quiet_median(values) -> float:
    """Lowest median over QUIET_BLOCKS consecutive blocks of ``values``."""
    blocks = np.array_split(np.asarray(values, dtype=np.float64), QUIET_BLOCKS)
    return float(min(np.median(b) for b in blocks if b.size))


def percentiles(values, qs=(50, 99)) -> dict:
    """Named percentiles of a latency sample plus its count."""
    arr = np.asarray(values, dtype=np.float64)
    out = {f"p{q:g}": float(np.percentile(arr, q)) for q in qs}
    out["count"] = int(arr.size)
    return out
