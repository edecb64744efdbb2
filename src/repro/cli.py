"""Command-line entry point: ``python -m repro`` / ``repro``.

Regenerates any experiment of DESIGN.md §4 from the terminal::

    repro list
    repro run f4 --scale small --seed 0
    repro all --scale full --markdown

``all --markdown`` emits the exact tables recorded in EXPERIMENTS.md.

``repro route`` batch-routes a whole traffic matrix through a compiled
scheme (``--engine batch`` by default; ``--engine reference`` drives the
hop-by-hop ground-truth simulator) and prints stretch and hop-count
percentiles plus throughput::

    repro route --graph gnp --n 1024 --pairs 100000 --scheme k2

``repro scenarios`` expands a declarative grid of resilience scenarios
(graph family × k × workload × failure model) and sweeps each one's
failure trials simultaneously through the vectorized engine::

    repro scenarios --graphs gnp grid --k 2 3 --failures iid-edges churn

The full flag-by-flag reference of every subcommand lives in
``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.experiments import EXPERIMENTS, run_experiment
from .analysis.reporting import (
    render_markdown_table,
    render_stretch_summary,
    render_table,
)
from .kernels import resolve_kernel
from .obs import TELEMETRY, timed, write_metrics, write_trace
from .sim.workloads import WORKLOADS

#: Graph families accepted by ``repro route`` (see ``reference_graph``).
ROUTE_GRAPHS = ("gnp", "ba", "as-like", "grid", "geometric")


def _cmd_list(_args) -> int:
    print("experiment ids (DESIGN.md §4):")
    for exp_id in EXPERIMENTS:
        doc = (EXPERIMENTS[exp_id].__doc__ or "").strip().splitlines()[0]
        print(f"  {exp_id:4s} {doc}")
    return 0


def _print_result(result, markdown: bool) -> None:
    print()
    if markdown:
        print(f"### {result.title}\n")
        print(render_markdown_table(result.rows))
        if result.notes:
            print(f"\n*{result.notes}*")
    else:
        print(render_table(result.rows, title=result.title))
        if result.notes:
            print(f"note: {result.notes}")


def _cmd_run(args) -> int:
    with timed("cli.run", exp=args.exp_id) as tsp:
        result = run_experiment(args.exp_id, scale=args.scale, seed=args.seed)
        _print_result(result, args.markdown)
    print(f"\n[{args.exp_id} finished in {tsp.seconds:.1f}s]")
    return 0


def _cmd_all(args) -> int:
    for exp_id in EXPERIMENTS:
        with timed("cli.run", exp=exp_id) as tsp:
            result = run_experiment(exp_id, scale=args.scale, seed=args.seed)
            _print_result(result, args.markdown)
        print(f"\n[{exp_id} finished in {tsp.seconds:.1f}s]", file=sys.stderr)
    return 0


def _cmd_route(args) -> int:
    import numpy as np

    from .analysis.experiments import reference_graph
    from .core.handshake import HandshakeRoutingScheme
    from .core.scheme_k import build_tz_scheme
    from .core.scheme_k2 import build_stretch3_scheme
    from .graphs.ports import assign_ports
    from .rng import derive
    from .sim.runner import measure_scheme
    from .sim.workloads import make_workload

    graph = reference_graph(args.graph, args.n, args.seed).largest_component()
    ported = assign_ports(graph, "random", rng=derive(args.seed, "route-ports"))

    with timed("cli.build_scheme", scheme=args.scheme) as t_build:
        if args.scheme == "k2":
            scheme = build_stretch3_scheme(
                graph, ported, rng=derive(args.seed, "route-scheme")
            )
        else:
            scheme = build_tz_scheme(
                graph,
                ported,
                k=args.k,
                rng=derive(args.seed, "route-scheme"),
            )
        if args.handshake:
            scheme = HandshakeRoutingScheme(scheme)

    pairs = make_workload(
        graph, args.workload, args.pairs, derive(args.seed, "route-pairs")
    )

    with timed("cli.compile") as t_compile:
        if args.engine != "reference":
            scheme.compile_batch(ported)  # count compile separately from routing
    with timed("cli.route", engine=args.engine) as t_route:
        stats = measure_scheme(
            ported,
            scheme,
            pairs=pairs,
            strict=False,
            engine=args.engine,
        )

    print(
        render_stretch_summary(
            stats,
            title=f"{scheme.name} on {args.graph} "
            f"(n={graph.n}, m={graph.m}, workload={args.workload})",
        )
    )
    rate = len(np.asarray(pairs)) / max(t_route.seconds, 1e-9)
    print(
        f"\npreprocess {t_build.seconds:.2f}s | "
        f"engine compile {t_compile.seconds:.2f}s | "
        f"route {t_route.seconds:.2f}s ({rate:,.0f} pairs/s, "
        f"engine={args.engine}, kernel={resolve_kernel('auto')})"
    )
    return 0


def _cmd_serve_daemon(args) -> int:
    """The ``serve --daemon`` path: run the persistent route server."""
    from pathlib import Path

    from .analysis.experiments import reference_graph
    from .core.build import build_arrays
    from .graphs.ports import assign_ports
    from .rng import derive
    from .serve import run_daemon
    from .store import FORMAT_VERSION, SchemeStore
    from .store.format import container_version

    store = SchemeStore(args.store)
    scheme = args.scheme
    if scheme is None:
        # No tenant named: make sure the (graph, k, seed) scheme exists
        # as a published lineage, then serve that lineage by default.
        graph = reference_graph(args.graph, args.n, args.seed).largest_component()
        ported = assign_ports(graph, "random", rng=derive(args.seed, "serve-ports"))
        key = store.key_for(graph, args.k, args.seed, ported)
        if store.current(key) is None:
            with timed("cli.store_open") as t_open:
                # One container write: a miss builds and publishes; an
                # unversioned container is rewritten once, to stamp the
                # lineage header, after its data checksum is verified.
                compiled = None
                if container_version(store.path_for(key)) == FORMAT_VERSION:
                    prior = store.load(key, verify_data=True)
                    arrays, compiled = prior.arrays, prior.compiled
                else:
                    arrays = build_arrays(graph, args.k, ported=ported, rng=args.seed)
                store.publish(
                    graph,
                    ported,
                    arrays,
                    seed=args.seed,
                    compiled=compiled,
                    strict=args.strict_verify,
                )
                if args.strict_verify:
                    store.load(key, strict=True, graph=graph, ported=ported)
            print(
                f"published lineage {key} "
                f"(n={graph.n}, k={args.k}, {t_open.seconds:.2f}s)",
                flush=True,
            )
        scheme = key

    def on_ready(daemon) -> None:
        host, port = daemon.address
        print(f"serving {scheme} on {host}:{port}", flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{port}\n")

    stats = run_daemon(
        args.store,
        host=args.host,
        port=args.port,
        default_scheme=scheme,
        lru_capacity=args.lru_capacity,
        queue_limit=args.queue_limit,
        timeout=args.timeout,
        workers=args.workers,
        on_ready=on_ready,
    )
    print(
        f"daemon drained: {stats['requests']} requests, "
        f"{stats['routed_pairs']:,} pairs, {stats['shed']} shed, "
        f"{stats['timeouts']} timed out, {stats['errors']} errors"
    )
    return 0


def _cmd_serve(args) -> int:
    import numpy as np

    from .analysis.experiments import reference_graph
    from .graphs.ports import assign_ports
    from .rng import derive
    from .sim.runner import pair_true_distances, _stretch_values
    from .sim.stats import stretch_stats
    from .sim.workloads import make_workload
    from .store import RouteService, SchemeStore

    if args.daemon:
        return _cmd_serve_daemon(args)

    graph = reference_graph(args.graph, args.n, args.seed).largest_component()
    ported = assign_ports(graph, "random", rng=derive(args.seed, "serve-ports"))

    store = SchemeStore(args.store)
    key = store.key_for(graph, args.k, args.seed, ported)
    hit = key in store
    with timed("cli.store_open", hit=hit) as t_open:
        stored = store.get_or_build(
            graph,
            args.k,
            args.seed,
            ported=ported,
            strict=args.strict_verify,
        )
    print(
        f"store {'hit' if hit else 'miss (built and saved)'}: "
        f"{stored.path.name} ({stored.path.stat().st_size / 1e6:.1f} MB, "
        f"{stored.meta['entries']:,} entries) opened in {t_open.seconds:.3f}s"
        + (" [strict-verified]" if args.strict_verify else "")
    )

    pairs = make_workload(
        graph, args.workload, args.pairs, derive(args.seed, "serve-pairs")
    )

    service = RouteService(stored.path)
    with timed("cli.route") as t_route:
        result = service.route(pairs)

    true_d = pair_true_distances(graph, pairs)
    stats = stretch_stats(
        _stretch_values(result.weight, true_d)[result.delivered],
        delivered=result.delivered_count,
        attempted=result.attempted,
        bound=float(4 * args.k - 5) if args.k > 1 else 1.0,
        hops=result.hops[result.delivered],
    )
    print(
        render_stretch_summary(
            stats,
            title=f"stored tz-k{args.k} on {args.graph} "
            f"(n={graph.n}, m={graph.m}, workload={args.workload})",
        )
    )
    rate = len(np.asarray(pairs)) / max(t_route.seconds, 1e-9)
    print(
        f"\nserve: route {t_route.seconds:.2f}s ({rate:,.0f} pairs/s, "
        f"kernel={resolve_kernel('auto')})"
    )
    return 0


def _cmd_loadgen(args) -> int:
    import json
    from pathlib import Path

    from .serve import run_loadgen

    with timed("cli.loadgen", connections=args.connections) as tsp:
        report = run_loadgen(
            args.host,
            args.port,
            scheme=args.scheme,
            users=args.users,
            connections=args.connections,
            requests=args.requests,
            batch=args.batch,
            zipf_s=args.zipf_s,
            seed=args.seed,
            ttl=args.ttl,
            timeout=args.timeout,
        )

    doc = report.to_dict()
    print(
        f"loadgen: {report.requests} requests x {report.batch} pairs from "
        f"{report.users} users over {report.connections} connections "
        f"(zipf s={report.zipf_s})"
    )
    delivery = doc["delivery_rate"]
    print(
        f"  {report.pairs_per_second:,.0f} pairs/s | latency "
        f"p50 {report.p50 * 1e3:.2f} ms, p99 {report.p99 * 1e3:.2f} ms | "
        f"delivery {'n/a' if delivery is None else f'{delivery:.1%}'}"
    )
    if report.errors:
        codes = ", ".join(
            f"{code}={count}" for code, count in sorted(report.error_codes.items())
        )
        print(f"  {report.errors} failed requests ({codes})")
    print(f"  [{tsp.seconds:.1f}s wall]")
    if args.json:
        out = Path(args.json)
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


def _cmd_update(args) -> int:
    import json

    from .analysis.experiments import reference_graph
    from .analysis.reporting import render_table
    from .scenarios import run_churn

    graph = reference_graph(args.graph, args.n, args.seed).largest_component()
    print(f"[{args.graph}: n={graph.n} m={graph.m}]", file=sys.stderr)

    store = None
    if args.store is not None:
        from .store import SchemeStore

        store = SchemeStore(args.store)

    with timed("cli.update", epochs=args.epochs, policy=args.policy) as tsp:
        result = run_churn(
            graph,
            k=args.k,
            seed=args.seed,
            epochs=args.epochs,
            pairs=args.pairs,
            policy=args.policy,
            store=store,
            workload=args.workload,
            graph_label=args.graph,
            max_versions=args.max_versions,
        )

    print(
        render_table(
            result.rows(),
            title=(
                f"churn sweep: {args.graph} n={graph.n} k={args.k} "
                f"policy={args.policy}"
            ),
        )
    )
    print(
        f"\n[{len(result.epochs)} epochs, {result.patched_epochs} patched, "
        f"mean update {result.mean_update_seconds * 1e3:.1f} ms, "
        f"initial build {result.build_seconds:.2f}s, in {tsp.seconds:.1f}s]"
        + (f" lineage={result.lineage[:16]}…" if result.lineage else "")
    )
    if args.json:
        from pathlib import Path

        out = Path(args.json)
        out.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        print(f"wrote {out}")
    return 0


def _cmd_store(args) -> int:
    import json

    from .analysis.reporting import render_table
    from .store import SchemeStore

    store = SchemeStore(args.dir)
    if args.action == "ls":
        rows = []
        for lineage in store.lineages():
            current = store.current(lineage)
            for meta in store.versions(lineage):
                key = meta.get("key", "")
                rows.append(
                    {
                        "lineage": lineage[:12],
                        "v": meta.get("version", 0),
                        "key": key[:12],
                        "n": meta.get("n"),
                        "m": meta.get("m"),
                        "k": meta.get("k"),
                        "builder": meta.get("builder"),
                        "current": "*" if key == current else "",
                    }
                )
        versioned = {m.get("key") for lg in store.lineages() for m in store.versions(lg)}
        legacy = [k for k in store.keys() if k not in versioned]
        print(render_table(rows, title=f"store {store.root} ({len(rows)} versions)"))
        if legacy:
            print(f"\n[{len(legacy)} unversioned container(s) not shown: "
                  + ", ".join(k[:12] for k in legacy) + "]")
        return 0
    if args.action == "info":
        if not args.key:
            print("store info requires a key argument", file=sys.stderr)
            return 2
        if args.key not in store:
            print(f"no stored scheme {args.key!r} in {store.root}", file=sys.stderr)
            return 1
        print(json.dumps(store.info(args.key), indent=2, sort_keys=True))
        return 0
    if args.action == "gc":
        removed = []
        lineages = [args.key] if args.key else store.lineages()
        for lineage in lineages:
            removed.extend(store.gc(lineage, args.max_versions))
        print(
            f"gc: removed {len(removed)} version(s) across "
            f"{len(lineages)} lineage(s), keeping {args.max_versions} each"
        )
        for key in removed:
            print(f"  - {key}")
        return 0
    print(f"unknown store action {args.action!r}", file=sys.stderr)
    return 2


def _cmd_scenarios(args) -> int:
    from .analysis.scenario_report import (
        render_scenario_table,
        write_scenario_json,
        write_scenario_markdown,
    )
    from .scenarios import expand_grid, run_scenarios

    failure_params = {}
    if args.rate is not None:
        failure_params["iid-edges"] = {"rate": args.rate}
    if args.radius is not None:
        failure_params["geo-ball"] = {"radius": args.radius}
    specs = expand_grid(
        graphs=args.graphs,
        ks=args.k,
        workloads=args.workloads,
        failure_models=args.failures,
        n=args.n,
        pairs=args.pairs,
        trials=args.trials,
        seed=args.seed,
        handshake=args.handshake,
        engine=args.engine,
        failure_params=failure_params,
    )

    store = None
    if args.store is not None:
        from .store import SchemeStore

        store = SchemeStore(args.store)

    with timed("cli.scenarios", scenarios=len(specs)) as tsp:
        results = run_scenarios(
            specs,
            store=store,
            progress=lambda s: print(f"[{s.name}]", file=sys.stderr),
        )

    print(render_scenario_table(results, title=f"scenario sweep ({len(results)} scenarios)"))
    print(f"\n[{len(results)} scenarios, {sum(r.spec.trials for r in results)} "
          f"trials total in {tsp.seconds:.1f}s]")
    if args.json:
        print(f"wrote {write_scenario_json(results, args.json)}")
    if args.markdown:
        print(f"wrote {write_scenario_markdown(results, args.markdown)}")
    return 0


def _cmd_frontier(args) -> int:
    from .analysis.experiments import reference_graph
    from .analysis.frontier_report import (
        render_frontier_table,
        write_frontier_json,
        write_frontier_markdown,
    )
    from .backends.frontier import run_frontier

    graphs = []
    for family in args.graphs:
        graph = reference_graph(family, args.n, args.seed).largest_component()
        graphs.append((family, graph))
        print(f"[{family}: n={graph.n} m={graph.m}]", file=sys.stderr)
    with timed("cli.frontier", graphs=len(graphs)) as tsp:
        points = run_frontier(
            graphs,
            ks=args.k,
            backends=args.backends,
            seed=args.seed,
            n_pairs=args.pairs,
        )

    print(render_frontier_table(points, title=f"backend frontier ({len(points)} points)"))
    front = sum(1 for p in points if p.pareto)
    print(f"\n[{len(points)} points, {front} on the Pareto frontier, in {tsp.seconds:.1f}s]")
    if args.json:
        print(f"wrote {write_frontier_json(points, args.json)}")
    if args.markdown:
        print(f"wrote {write_frontier_markdown(points, args.markdown)}")
    return 0


def _cmd_build(args) -> int:
    import json

    from .analysis.experiments import reference_graph
    from .core.build import build_arrays
    from .core.build.arrays import scheme_from_arrays
    from .core.landmarks import build_hierarchy
    from .graphs.ports import assign_ports
    from .rng import derive

    graph = reference_graph(args.graph, args.n, args.seed).largest_component()
    ported = assign_ports(graph, "random", rng=derive(args.seed, "build-ports"))
    hierarchy = build_hierarchy(graph, args.k, derive(args.seed, "build-hierarchy"))

    builders = ["vectorized", "reference"] if args.builder == "both" else [args.builder]
    stats = {"graph": args.graph, "n": graph.n, "m": graph.m, "k": args.k}
    arrays = None
    for builder in builders:
        with timed("cli.build", builder=builder) as tsp:
            arrays = build_arrays(
                graph, ported=ported, hierarchy=hierarchy, builder=builder
            )
        stats[f"{builder}_build_seconds"] = round(tsp.seconds, 3)
    bunch = arrays.bunch_sizes()
    label_bits = arrays.label_bits()
    stats.update(
        entries=arrays.entry_count,
        bunch_mean=round(float(bunch.mean()), 2),
        bunch_max=int(bunch.max()),
        label_bits_mean=round(float(label_bits.mean()), 1),
        label_bits_max=int(label_bits.max()),
        landmarks=int(hierarchy.top_level().size),
    )
    if len(builders) == 2:
        stats["speedup"] = round(
            stats["reference_build_seconds"] / max(stats["vectorized_build_seconds"], 1e-9), 1
        )
    if args.materialize:
        with timed("cli.materialize") as tsp:
            scheme_from_arrays(graph, ported, arrays)
        stats["materialize_seconds"] = round(tsp.seconds, 3)

    width = max(len(k) for k in stats)
    for key, value in stats.items():
        print(f"{key:<{width}}  {value}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(stats, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_profile(args) -> int:
    import tempfile

    from .analysis.experiments import reference_graph
    from .analysis.obs_report import render_metrics, render_span_tree, span_coverage
    from .graphs.ports import assign_ports
    from .rng import derive
    from .sim.workloads import make_workload
    from .store import RouteService, SchemeStore

    tmp = None
    store_dir = args.store
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="tzprofile-")
        store_dir = tmp.name
    try:
        with timed("profile", graph=args.graph, k=args.k) as tsp:
            TELEMETRY.stamp_child_rss()
            with TELEMETRY.span("graphs.generate", family=args.graph, n=args.n):
                graph = reference_graph(
                    args.graph, args.n, args.seed
                ).largest_component()
            with TELEMETRY.span("graphs.ports", kind="random"):
                ported = assign_ports(
                    graph, "random", rng=derive(args.seed, "profile-ports")
                )
            stored = SchemeStore(store_dir).get_or_build(
                graph, args.k, args.seed, ported=ported
            )
            with TELEMETRY.span("sim.workload", workload=args.workload):
                pairs = make_workload(
                    graph, args.workload, args.pairs, derive(args.seed, "profile-pairs")
                )
            service = RouteService(stored.path)
            result = service.route(pairs)
    finally:
        if tmp is not None:
            tmp.cleanup()

    wall = tsp.seconds
    print(
        render_span_tree(
            title=f"profile: {args.graph} n={graph.n} m={graph.m} "
            f"k={args.k} pairs={pairs.shape[0]}"
        )
    )
    print()
    print(render_metrics())
    root = next(sp for sp in TELEMETRY.roots if sp.name == "profile")
    coverage = 100.0 * span_coverage(root)
    print(
        f"\n[wall {wall:.3f}s, unspanned {root.self_ns / 1e9:.3f}s "
        f"({coverage:.1f}% coverage), kernel={resolve_kernel('auto')}, "
        f"delivered {int(result.delivered.sum())}/{pairs.shape[0]}]"
    )
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared telemetry-export flags to one subparser."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record telemetry and write the JSON-lines span trace here",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="record telemetry and write the metrics JSON document here",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thorup-Zwick 'Compact routing schemes' reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("exp_id", choices=sorted(EXPERIMENTS))
    p_run.add_argument("--scale", default="small", choices=["small", "full"])
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--markdown", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--scale", default="small", choices=["small", "full"])
    p_all.add_argument("--seed", type=int, default=0)
    p_all.add_argument("--markdown", action="store_true")
    p_all.set_defaults(func=_cmd_all)

    p_route = sub.add_parser(
        "route",
        help="batch-route a traffic matrix through a compiled scheme",
        description=(
            "Compile a TZ routing scheme on a generated graph, route a "
            "whole traffic matrix through it, and print stretch/hop "
            "percentiles plus pairs/sec throughput."
        ),
        epilog=(
            "Engines: 'batch' compiles the scheme into dense arrays and "
            "advances all pairs one synchronized hop per numpy step "
            "(default; handles 10^5-10^6 pairs); 'reference' drives the "
            "hop-by-hop Network simulator — the adversarial ground "
            "truth, bit-for-bit identical but orders of magnitude "
            "slower, for validating schemes or debugging the engine; "
            "'auto' picks batch whenever the scheme supports it."
        ),
    )
    p_route.add_argument("--graph", default="gnp", choices=ROUTE_GRAPHS)
    p_route.add_argument("--n", type=int, default=1024, help="vertex count")
    p_route.add_argument(
        "--scheme",
        default="k2",
        choices=["k2", "k"],
        help="k2 = §3 stretch-3 scheme; k = general scheme (see --k)",
    )
    p_route.add_argument(
        "--k", type=int, default=3, help="hierarchy levels for --scheme k"
    )
    p_route.add_argument(
        "--handshake",
        action="store_true",
        help="wrap the scheme with the §4 handshake (stretch 2k-1)",
    )
    p_route.add_argument(
        "--pairs", type=int, default=100_000, help="traffic matrix size"
    )
    p_route.add_argument(
        "--workload",
        default="uniform",
        choices=list(WORKLOADS),
        help="traffic model (see repro.sim.workloads)",
    )
    p_route.add_argument(
        "--engine",
        default="batch",
        choices=["auto", "batch", "reference"],
        help="execution engine (see epilog)",
    )
    p_route.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p_route)
    p_route.set_defaults(func=_cmd_route)

    p_serve = sub.add_parser(
        "serve",
        help="serve traffic from the persistent scheme store (one batch or --daemon)",
        description=(
            "Answer a traffic matrix from a persisted scheme: the store "
            "is checked first (content-addressed by graph, k, seed and "
            "port assignment) and only a miss pays the build; hits "
            "memory-map the saved arrays and route immediately. "
            "--daemon instead starts the persistent asyncio TCP server "
            "over the store directory and serves until SIGTERM (or a "
            "protocol 'shutdown' request), draining in-flight batches."
        ),
        epilog=(
            "The store keeps one .tzs container per scheme, holding "
            "both the canonical array form and the compiled batch-"
            "engine form; the native kernel routes a large matrix as "
            "one row chunk per usable CPU, on threads sharing the map. "
            "--strict-verify replays the bit-exact core.serialize "
            "codec over the loaded arrays and compares the recorded "
            "digest before serving. In --daemon mode requests name any "
            "lineage/key in the store (multi-tenant, LRU-bounded by "
            "--lru-capacity); lineage tenants hot-reload when their "
            ".current pointer repoints, the --queue-limit bounded "
            "request queue sheds overload with an explicit "
            "backpressure error, and --timeout caps each request's "
            "enqueue-to-response budget. Drive it with repro loadgen."
        ),
    )
    p_serve.add_argument("--graph", default="gnp", choices=ROUTE_GRAPHS)
    p_serve.add_argument("--n", type=int, default=1024, help="vertex count")
    p_serve.add_argument("--k", type=int, default=2, help="hierarchy levels")
    p_serve.add_argument(
        "--store", default=".tzstore", help="scheme store directory"
    )
    p_serve.add_argument(
        "--pairs", type=int, default=100_000, help="traffic matrix size"
    )
    p_serve.add_argument(
        "--workload",
        default="uniform",
        choices=list(WORKLOADS),
        help="traffic model (see repro.sim.workloads)",
    )
    p_serve.add_argument(
        "--strict-verify",
        action="store_true",
        help="replay the bit-exact serialization codec before serving",
    )
    p_serve.add_argument(
        "--daemon",
        action="store_true",
        help="run the persistent TCP serving daemon instead of one batch",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="daemon bind address"
    )
    p_serve.add_argument(
        "--port", type=int, default=0, help="daemon port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="write the bound port here once listening (for scripts/tests)",
    )
    p_serve.add_argument(
        "--scheme",
        default=None,
        help=(
            "default tenant to serve (lineage id, container key, or "
            "path); default: build/publish from the graph flags"
        ),
    )
    p_serve.add_argument(
        "--lru-capacity",
        type=int,
        default=4,
        help="max open tenants; least-recently-used is evicted (re-mmapped on next hit)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="bounded request queue; excess requests get a backpressure error",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request budget in seconds, from enqueue to response",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent route executors in the daemon",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="replay Zipf-skewed traffic against a running serve daemon",
        description=(
            "Connect to a repro serve --daemon instance and replay "
            "Zipf-skewed source/destination traffic from N simulated "
            "users over M concurrent connections, recording every "
            "request's client-observed latency. Prints pairs/s "
            "throughput plus p50/p99 latency; --json writes the full "
            "tz-loadgen-report document."
        ),
        epilog=(
            "Traffic is pre-generated from --seed before the clock "
            "starts: sources are drawn Zipf(s)-ranked from --users "
            "vertices, destinations from an independent Zipf ranking "
            "over the whole graph (the daemon's describe op supplies "
            "the vertex count). Failed requests (backpressure, "
            "timeout) are counted per error code, not raised."
        ),
    )
    p_load.add_argument("--host", default="127.0.0.1", help="daemon address")
    p_load.add_argument("--port", type=int, required=True, help="daemon port")
    p_load.add_argument(
        "--scheme",
        default=None,
        help="tenant to route on (default: the daemon's default scheme)",
    )
    p_load.add_argument(
        "--users", type=int, default=100, help="simulated users (Zipf sources)"
    )
    p_load.add_argument(
        "--connections", type=int, default=4, help="concurrent client connections"
    )
    p_load.add_argument(
        "--requests", type=int, default=64, help="total route requests"
    )
    p_load.add_argument(
        "--batch", type=int, default=256, help="pairs per route request"
    )
    p_load.add_argument(
        "--zipf-s", type=float, default=1.2, help="Zipf skew exponent"
    )
    p_load.add_argument(
        "--ttl", type=int, default=None, help="per-pair routing TTL"
    )
    p_load.add_argument(
        "--timeout", type=float, default=60.0, help="client socket timeout (s)"
    )
    p_load.add_argument("--json", default=None, help="write the report here")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.set_defaults(func=_cmd_loadgen)

    p_upd = sub.add_parser(
        "update",
        help="churn sweep: mutate the graph each epoch, patch or rebuild the scheme",
        description=(
            "Run the incremental-maintenance loop: build a scheme, then "
            "for each epoch draw a random connectivity-preserving graph "
            "delta (weight changes, edge adds/drops), refresh the scheme "
            "by patching only the dirty clusters (or a full rebuild, per "
            "--policy), and route a traffic matrix on the mutated graph. "
            "Each epoch reports update cost (wall time, dirty clusters, "
            "reused-entry fraction) and routing quality (delivery, "
            "stretch against exact distances)."
        ),
        epilog=(
            "With --store DIR every version is published into one "
            "versioned lineage (atomic .current pointer, parent links, "
            "delta digests) and traffic is answered by a hot-swapping "
            "RouteService following the pointer — the serving path a "
            "long-running server would use. --max-versions N garbage-"
            "collects older versions as the lineage grows."
        ),
    )
    p_upd.add_argument("--graph", default="gnp", choices=ROUTE_GRAPHS)
    p_upd.add_argument("--n", type=int, default=512, help="vertex count")
    p_upd.add_argument("--k", type=int, default=2, help="hierarchy levels")
    p_upd.add_argument(
        "--epochs", type=int, default=4, help="number of mutation rounds"
    )
    p_upd.add_argument(
        "--pairs", type=int, default=1024, help="traffic matrix size per epoch"
    )
    p_upd.add_argument(
        "--policy",
        default="auto",
        choices=["auto", "patch", "rebuild"],
        help=(
            "maintenance strategy: patch dirty clusters, full rebuild, "
            "or auto (patch with rebuild fallback)"
        ),
    )
    p_upd.add_argument(
        "--workload",
        default="uniform",
        choices=list(WORKLOADS),
        help="traffic model (see repro.sim.workloads)",
    )
    p_upd.add_argument(
        "--store",
        default=None,
        help="publish versions into this store directory and serve via its pointer",
    )
    p_upd.add_argument(
        "--max-versions",
        type=int,
        default=None,
        help="garbage-collect the lineage down to this many versions",
    )
    p_upd.add_argument("--json", default=None, help="write the churn report here")
    p_upd.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p_upd)
    p_upd.set_defaults(func=_cmd_update)

    p_store = sub.add_parser(
        "store",
        help="inspect and garbage-collect a versioned scheme store",
        description=(
            "Operate on a scheme store directory: 'ls' tables every "
            "version of every lineage (current versions starred), "
            "'info KEY' prints one container's header metadata plus "
            "file facts, 'gc' deletes old versions beyond "
            "--max-versions (the pointer target is never deleted)."
        ),
    )
    p_store.add_argument("action", choices=["ls", "info", "gc"])
    p_store.add_argument(
        "key",
        nargs="?",
        default=None,
        help="container key (info) or lineage id (gc; default: all lineages)",
    )
    p_store.add_argument(
        "--dir", default=".tzstore", help="scheme store directory"
    )
    p_store.add_argument(
        "--max-versions",
        type=int,
        default=4,
        help="versions to keep per lineage when gc-ing",
    )
    p_store.set_defaults(func=_cmd_store)

    p_scen = sub.add_parser(
        "scenarios",
        help="run declarative failure/churn scenario sweeps",
        description=(
            "Expand a scenario grid (graph families x k x workloads x "
            "failure models), run every scenario's multi-trial failure "
            "sweep through the vectorized resilience engine (all trials "
            "advance simultaneously; schemes come from --store when "
            "given), and report per-scenario delivery statistics."
        ),
        epilog=(
            "Failure models: 'iid-edges' kills each edge independently "
            "(--rate); 'geo-ball' kills one distance ball around a "
            "random epicenter per trial (--radius); 'node-down' crashes "
            "random vertices; 'churn' traces a progressive degradation "
            "curve over nested failure sets. Delivery rates count only "
            "pairs still connected in the surviving graph."
        ),
    )
    p_scen.add_argument(
        "--graphs", nargs="+", default=["gnp"], choices=ROUTE_GRAPHS,
        help="graph families to sweep",
    )
    p_scen.add_argument("--n", type=int, default=512, help="vertex count")
    p_scen.add_argument(
        "--k", nargs="+", type=int, default=[2], help="hierarchy levels to sweep"
    )
    p_scen.add_argument(
        "--handshake", action="store_true",
        help="use the §4 handshake variant of each scheme",
    )
    p_scen.add_argument(
        "--workloads", nargs="+", default=["uniform"],
        choices=list(WORKLOADS),
        help="traffic models to sweep (see repro.sim.workloads)",
    )
    p_scen.add_argument(
        "--pairs", type=int, default=2000, help="traffic matrix size per scenario"
    )
    p_scen.add_argument(
        "--failures", nargs="+", default=["iid-edges"],
        choices=["iid-edges", "geo-ball", "node-down", "churn"],
        help="failure models to sweep (see epilog)",
    )
    p_scen.add_argument(
        "--trials", type=int, default=32, help="failure trials per scenario"
    )
    p_scen.add_argument(
        "--rate", type=float, default=None,
        help="iid-edges death probability (default 0.02)",
    )
    p_scen.add_argument(
        "--radius", type=float, default=None,
        help="geo-ball outage radius (default: the median edge weight)",
    )
    p_scen.add_argument(
        "--store", default=None,
        help="scheme store directory (schemes are fetched/saved there)",
    )
    p_scen.add_argument(
        "--engine", default="auto", choices=["auto", "batch", "reference"],
        help="sweep engine (reference = per-trial hop-by-hop ground truth)",
    )
    p_scen.add_argument("--json", default=None, help="write the JSON report here")
    p_scen.add_argument(
        "--markdown", default=None, help="write the markdown report here"
    )
    p_scen.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p_scen)
    p_scen.set_defaults(func=_cmd_scenarios)

    p_front = sub.add_parser(
        "frontier",
        help="sweep registered backends into a space/stretch/time Pareto report",
        description=(
            "Build every registered backend (TZ scheme, Cowen, single "
            "tree, shortest-path tables, distance oracle, distance "
            "labels, spanner) on a grid of graph families, answer one "
            "shared sampled pair set per graph, and report measured "
            "size, observed stretch and query throughput with Pareto-"
            "frontier points starred."
        ),
        epilog=(
            "Backends whose construction ignores k (cowen, tree, "
            "shortest-path) are built once per graph; the others are "
            "built once per k. The Pareto pass runs per graph over "
            "(size_bits, observed max stretch, query seconds): a point "
            "is starred iff nothing on the same graph is at least as "
            "good on all three axes and strictly better on one. "
            "--json/--markdown write the full report documents."
        ),
    )
    p_front.add_argument(
        "--graphs", nargs="+", default=["gnp", "ba", "grid"], choices=ROUTE_GRAPHS,
        help="graph families to sweep",
    )
    p_front.add_argument("--n", type=int, default=400, help="vertex count")
    p_front.add_argument(
        "--k", nargs="+", type=int, default=[2, 3],
        help="hierarchy levels to sweep (k-using backends only)",
    )
    p_front.add_argument(
        "--backends", nargs="+", default=None,
        help="backend names to include (default: all registered)",
    )
    p_front.add_argument(
        "--pairs", type=int, default=400, help="sampled query pairs per graph"
    )
    p_front.add_argument("--json", default=None, help="write the JSON report here")
    p_front.add_argument(
        "--markdown", default=None, help="write the markdown report here"
    )
    p_front.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p_front)
    p_front.set_defaults(func=_cmd_frontier)

    p_build = sub.add_parser(
        "build",
        help="construct a TZ scheme and report builder timings",
        description=(
            "Construct a Thorup-Zwick scheme on a generated graph with "
            "the selected builder and print structure statistics "
            "(entries, bunch sizes, label bits) plus construction time."
        ),
        epilog=(
            "Builders: 'vectorized' constructs the whole scheme as "
            "array programs (batched cluster sweeps, all heavy-light "
            "trees at once); 'reference' is the per-node ground truth "
            "(one truncated Dijkstra + tree compile per vertex) — "
            "bit-identical output, orders of magnitude slower at scale; "
            "'both' runs the two and reports the speedup."
        ),
    )
    p_build.add_argument("--graph", default="gnp", choices=ROUTE_GRAPHS)
    p_build.add_argument("--n", type=int, default=4096, help="vertex count")
    p_build.add_argument("--k", type=int, default=2, help="hierarchy levels")
    p_build.add_argument(
        "--builder",
        default="vectorized",
        choices=["vectorized", "reference", "both"],
        help="construction pipeline (default vectorized; see epilog)",
    )
    p_build.add_argument(
        "--materialize",
        action="store_true",
        help="also time materializing the dict-based routing tables",
    )
    p_build.add_argument("--json", default=None, help="write stats to this file")
    p_build.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_prof = sub.add_parser(
        "profile",
        help="run an instrumented build/store/route pipeline and print the span tree",
        description=(
            "Run the whole pipeline — generate a graph, build the "
            "scheme, persist it through the store, open it back and "
            "route a traffic matrix — with telemetry enabled, then "
            "print the span tree (cumulative/self wall time per phase), "
            "the collected counters and histograms, and the share of "
            "wall time the root's sub-phase spans account for."
        ),
        epilog=(
            "The store defaults to a temporary directory so every "
            "profile pays the full build; point --store at a persistent "
            "directory to profile the hit path instead. --trace/"
            "--metrics additionally export the machine-readable forms."
        ),
    )
    p_prof.add_argument("--graph", default="gnp", choices=ROUTE_GRAPHS)
    p_prof.add_argument("--n", type=int, default=2000, help="vertex count")
    p_prof.add_argument("--k", type=int, default=3, help="hierarchy levels")
    p_prof.add_argument(
        "--pairs", type=int, default=20_000, help="traffic matrix size"
    )
    p_prof.add_argument(
        "--workload",
        default="uniform",
        choices=list(WORKLOADS),
        help="traffic model (see repro.sim.workloads)",
    )
    p_prof.add_argument(
        "--store",
        default=None,
        help="scheme store directory (default: a throwaway temp dir)",
    )
    p_prof.add_argument("--seed", type=int, default=0)
    _add_obs_flags(p_prof)
    p_prof.set_defaults(func=_cmd_profile)

    args = parser.parse_args(argv)
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    observing = bool(trace or metrics) or args.command == "profile"
    if observing:
        # One registry per CLI invocation: drop anything a prior in-
        # process main() call recorded, then record this command.
        TELEMETRY.reset()
        TELEMETRY.enable()
    try:
        rc = args.func(args)
    finally:
        TELEMETRY.disable()
    if observing:
        if trace:
            print(f"wrote {write_trace(trace)}")
        if metrics:
            print(f"wrote {write_metrics(metrics)}")
        TELEMETRY.reset()
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
