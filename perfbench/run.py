"""Run one workload of the pipeline benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-bulk --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout: the benchmark imports the
package from ``src/`` and keeps everything it writes (scratch stores,
the native kernel cache, span files) under ``.perfbench/``.  The metric
names and units come from ``BENCHMARK.json``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a run with
benchmark spans on, and writes the spans to
``.perfbench/trace-<workload>-<seed>.jsonl``.  The last line of stdout
is one JSON object; the lines above it are the full report.  Exits 1
when an output-correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: Per-layer metrics read off a timing sample: name → (sample, scale).
#: A layer a workload does not exercise reports 0.
TIMED = {
    "graphs.generate_s": ("graphs.generate", 1.0),
    "graphs.ports_s": ("graphs.ports", 1.0),
    "build.arrays_s": ("build.arrays", 1.0),
    "engine.compile_s": ("engine.compile", 1.0),
    "store.save_s": ("store.save", 1.0),
    "store.open_s": ("store.open", 1.0),
    "store.publish_patch_s": ("store.publish_patch", 1.0),
    "route.first_batch_s": ("route.first_batch", 1.0),
    "route.batch_p50_ms": ("route.batch", 1e3),
    "route.first_batch_after_swap_s": ("route.first_batch_after_swap", 1.0),
    "serve.request_encode_ms": ("serve.encode_request", 1e3),
    "serve.request_decode_ms": ("serve.decode_request", 1e3),
    "serve.result_encode_ms": ("serve.encode_result", 1e3),
    "serve.result_decode_ms": ("serve.decode_result", 1e3),
    "serve.spawn_ready_s": ("serve.spawn_ready", 1.0),
    "serve.reload_s": ("serve.reload", 1.0),
    "patch.patch_p50_s": ("patch.patch", 1.0),
}
#: Per-layer values the workloads set directly (0 where not exercised).
VALUES = (
    "build.entries", "build.table_bits_mean", "store.container_bytes",
    "route.hops_mean", "serve.wire_bytes_per_pair", "serve.server_p50_ms",
    "serve.client_gap_p50_ms", "serve.shed",
    "serve.timeouts", "patch.dirty_clusters", "patch.entries_rebuilt",
    "patch.entries_reused", "trace.overhead_ms",
)
#: Layers whose summed span self time is reported as ``<layer>.self_s``.
LAYERS = ("graphs", "build", "engine", "store", "route", "serve", "patch")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _layer_metrics(ctx) -> dict:
    values = {name: ctx.median(sample, scale) for name, (sample, scale) in TIMED.items()}
    values.update({name: float(ctx.layer.get(name, 0.0)) for name in VALUES})
    self_s = ctx.tracer.layer_self_seconds()
    values.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS})
    values["trace.spans"] = float(len(ctx.tracer.spans))
    return values


def main(argv=None) -> int:
    args = _args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"perfbench: {ROOT} holds no src/repro package or no BENCHMARK.json; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Everything the run and its daemon child write stays in the checkout.
    WORK.mkdir(exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    os.environ["TMPDIR"] = str(WORK)
    sys.path.insert(1, str(ROOT / "src"))

    import numpy as np

    from pipeline import CheckFailed, Context
    from repro.kernels import resolve_kernel
    from spans import Tracer
    from workloads import WORKLOADS

    ctx = Context(ROOT, Path(tempfile.mkdtemp(prefix="run-", dir=WORK)), Tracer(args.trace))
    # Build the native kernels before any clock: a one-off per machine.
    ctx.report["env"].update(
        kernel=resolve_kernel("auto"),
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
    )
    correct = True
    try:
        with ctx.tracer.span("bench.run"):
            e2e, attempted, failed = WORKLOADS[args.workload](ctx, args.seed, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}")
        correct = False
    finally:
        for cleanup in reversed(ctx.cleanups):
            cleanup()
        shutil.rmtree(ctx.work_dir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in ctx.report.items():
        print(f"  {key}: {json.dumps(value, default=float)}")
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    if args.trace:
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        ctx.tracer.write_jsonl(trace_path)
        print(f"  spans: {len(ctx.tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        values = _layer_metrics(ctx)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            value, unit = e2e[m["name"]]
            metrics[m["name"]] = {"value": float(value), "unit": unit}
    for name, metric in metrics.items():
        print(f"  metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {"correct": True, "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
