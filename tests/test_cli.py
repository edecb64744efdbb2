"""CLI smoke tests: list, run, markdown output, docs/CLI sync."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import main

DOCS_CLI = Path(__file__).resolve().parent.parent / "docs" / "cli.md"

#: Share of ``repro profile``'s wall time its phase spans must account for.
PROFILE_COVERAGE_FLOOR = 90.0


def _synthetic_profile(phase_ns, wall_ns=1_000_000):
    """A ``profile`` root span of ``wall_ns`` with back-to-back phases."""
    from repro.obs import Telemetry
    from repro.obs.telemetry import Span

    tm = Telemetry()
    root = Span(tm, "profile", {})
    root.end_ns = wall_ns
    start = 0
    for i, duration in enumerate(phase_ns):
        phase = Span(tm, f"phase{i}", {})
        phase.start_ns, phase.end_ns = start, start + duration
        root.children.append(phase)
        start += duration
    return root


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("t1", "f4", "a2"):
            assert exp_id in out

    def test_run_small_experiment(self, capsys):
        assert main(["run", "f3", "--scale", "small", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "F3" in out and "cap_ok" in out

    def test_run_markdown(self, capsys):
        assert main(["run", "f3", "--scale", "small", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| graph |" in out

    def test_all_runs_every_experiment(self, capsys, monkeypatch):
        """`repro all` iterates the registry; pin it to one cheap
        experiment so the loop itself is what's under test."""
        import repro.cli as cli

        monkeypatch.setattr(cli, "EXPERIMENTS", {"f3": cli.EXPERIMENTS["f3"]})
        assert main(["all", "--scale", "small", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "F3" in out

    def test_route_prints_stretch_and_throughput(self, capsys):
        assert (
            main(
                [
                    "route",
                    "--graph", "gnp",
                    "--n", "96",
                    "--k", "2",
                    "--pairs", "300",
                    "--workload", "zipf",
                    "--seed", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pairs/s" in out and "workload=zipf" in out

    def test_route_reference_engine_k2_handshake(self, capsys):
        assert (
            main(
                [
                    "route",
                    "--graph", "grid",
                    "--n", "49",
                    "--scheme", "k2",
                    "--handshake",
                    "--engine", "reference",
                    "--pairs", "50",
                    "--seed", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine=reference" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_build_both_methods(self, capsys, tmp_path):
        out_json = tmp_path / "builder.json"
        assert (
            main(
                [
                    "build",
                    "--graph",
                    "gnp",
                    "--n",
                    "256",
                    "--k",
                    "2",
                    "--builder",
                    "both",
                    "--materialize",
                    "--json",
                    str(out_json),
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup" in out and "entries" in out
        import json

        stats = json.loads(out_json.read_text())
        assert stats["n"] <= 256 and stats["entries"] > 0
        assert "vectorized_build_seconds" in stats
        assert "reference_build_seconds" in stats
        assert "materialize_seconds" in stats

    def test_build_unknown_graph_rejected(self):
        with pytest.raises(SystemExit):
            main(["build", "--graph", "nope"])

    def test_help_mentions_every_documented_subcommand(self, capsys):
        """docs/cli.md documents the CLI; --help must know every
        subcommand the doc claims exists (the doc-drift tripwire)."""
        documented = re.findall(r"^## `repro (\w[\w-]*)`", DOCS_CLI.read_text(), re.M)
        assert sorted(documented) == sorted(
            [
                "list", "run", "all", "build", "route", "serve",
                "scenarios", "frontier", "profile", "update", "store",
                "loadgen",
            ]
        )
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        for cmd in documented:
            assert cmd in help_text, f"subcommand {cmd!r} documented but not in --help"

    @pytest.mark.parametrize(
        "cmd",
        [
            "list", "run", "all", "build", "route", "serve",
            "scenarios", "frontier", "profile", "update", "store",
            "loadgen",
        ],
    )
    def test_subcommand_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_scenarios_sweep_writes_reports(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "report.json"
        out_md = tmp_path / "report.md"
        assert (
            main(
                [
                    "scenarios",
                    "--graphs", "gnp",
                    "--n", "96",
                    "--k", "2",
                    "--failures", "iid-edges", "churn",
                    "--trials", "3",
                    "--pairs", "200",
                    "--store", str(tmp_path / "store"),
                    "--json", str(out_json),
                    "--markdown", str(out_md),
                    "--seed", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "delivery_mean" in out and "scenario sweep" in out
        doc = json.loads(out_json.read_text())
        assert doc["kind"] == "tz-scenario-report"
        assert len(doc["scenarios"]) == 2
        assert all(len(s["delivery_rates"]) == 3 for s in doc["scenarios"])
        assert "| scenario |" in out_md.read_text()

    def test_update_churn_sweep_with_store(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "churn.json"
        store_dir = tmp_path / "store"
        assert (
            main(
                [
                    "update",
                    "--graph", "gnp",
                    "--n", "128",
                    "--k", "2",
                    "--epochs", "2",
                    "--pairs", "100",
                    "--policy", "auto",
                    "--store", str(store_dir),
                    "--json", str(out_json),
                    "--seed", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "churn sweep" in out and "update_s" in out
        doc = json.loads(out_json.read_text())
        assert doc["kind"] == "tz-churn-report"
        assert len(doc["epochs"]) == 2
        assert doc["lineage"] is not None
        # versions climbed: root is 0, each epoch publishes one more
        assert [e["version"] for e in doc["epochs"]] == [1, 2]

        # store ls sees the lineage; the newest version is current
        assert main(["store", "ls", "--dir", str(store_dir)]) == 0
        ls_out = capsys.readouterr().out
        assert doc["lineage"][:12] in ls_out and "*" in ls_out

        # info on the current key round-trips the header meta
        last_key = doc["epochs"][-1]["key"]
        assert main(["store", "info", last_key, "--dir", str(store_dir)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["version"] == 2 and info["lineage"] == doc["lineage"]

        # gc to one version; ls shows exactly the current one
        assert main(
            ["store", "gc", "--dir", str(store_dir), "--max-versions", "1"]
        ) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--dir", str(store_dir)]) == 0
        assert "(1 versions)" in capsys.readouterr().out

    def test_store_info_unknown_key_fails_cleanly(self, capsys, tmp_path):
        assert main(["store", "info", "deadbeef", "--dir", str(tmp_path)]) == 1
        assert "no stored scheme" in capsys.readouterr().err

    def test_frontier_sweep_writes_reports(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "frontier.json"
        out_md = tmp_path / "frontier.md"
        assert (
            main(
                [
                    "frontier",
                    "--graphs", "gnp",
                    "--n", "80",
                    "--k", "2",
                    "--pairs", "60",
                    "--json", str(out_json),
                    "--markdown", str(out_md),
                    "--seed", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "backend frontier" in out and "Pareto" in out
        doc = json.loads(out_json.read_text())
        assert doc["kind"] == "tz-frontier-report"
        # 4 k-using backends at one k + 3 k-free backends.
        assert len(doc["points"]) == 7
        assert any(p["pareto"] for p in doc["points"])
        assert "## Pareto frontier" in out_md.read_text()

    def test_frontier_backend_subset(self, capsys, tmp_path):
        assert (
            main(
                [
                    "frontier",
                    "--graphs", "gnp",
                    "--n", "60",
                    "--k", "2",
                    "--pairs", "40",
                    "--backends", "tz", "tree",
                    "--seed", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tz" in out and "tree" in out and "oracle" not in out

    def test_build_method_flag_deprecated(self, capsys):
        assert main(["build", "--n", "64", "--method", "vectorized"]) == 0
        err = capsys.readouterr().err
        assert "--method is deprecated" in err

    def test_profile_prints_span_tree(self, capsys, tmp_path):
        assert (
            main(
                [
                    "profile",
                    "--n", "256",
                    "--k", "2",
                    "--pairs", "2000",
                    "--store", str(tmp_path / "store"),
                    "--seed", "6",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # The span tree covers build, compile, store save/load and route.
        for name in (
            "profile", "build.arrays", "engine.compile", "store.save",
            "store.load", "serve.route", "route.hop_loop",
        ):
            assert name in out, f"span {name!r} missing from profile output"
        assert "route.pairs_routed" in out  # and the counters table
        coverage = float(
            re.search(r"\((\d+(?:\.\d+)?)% coverage\)", out).group(1)
        )
        assert coverage >= PROFILE_COVERAGE_FLOOR
        # The CLI left the global registry disabled for the next command.
        from repro.obs import TELEMETRY

        assert not TELEMETRY.enabled

    def test_profile_coverage_gate_can_fail(self):
        from repro.analysis.obs_report import span_coverage

        # 30% of the run sits in no phase span.
        gappy = _synthetic_profile([400_000, 300_000])
        # Summing self time over every span, root included, cannot see
        # the gap: it is the whole wall time by construction.
        assert sum(sp.self_ns for sp, _ in gappy.walk()) == gappy.duration_ns
        assert 100.0 * span_coverage(gappy) == pytest.approx(70.0)
        assert 100.0 * span_coverage(gappy) < PROFILE_COVERAGE_FLOOR
        covered = _synthetic_profile([600_000, 395_000])
        assert 100.0 * span_coverage(covered) >= PROFILE_COVERAGE_FLOOR

    def test_trace_and_metrics_flags_write_files(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "build",
                    "--n", "128",
                    "--k", "2",
                    "--seed", "2",
                    "--trace", str(trace),
                    "--metrics", str(metrics),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out and f"wrote {metrics}" in out
        header = json.loads(trace.read_text().splitlines()[0])
        assert header["schema"] == "tz-trace/v1" and header["spans"] > 0
        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "tz-metrics/v1"
        assert doc["counters"]["build.cluster_entries"] > 0

    def test_serve_miss_then_hit(self, capsys, tmp_path):
        args = [
            "serve",
            "--graph",
            "gnp",
            "--n",
            "128",
            "--k",
            "2",
            "--pairs",
            "2000",
            "--seed",
            "4",
            "--store",
            str(tmp_path / "tzstore"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "store miss" in out and "pairs/s" in out
        assert main(args + ["--strict-verify"]) == 0
        out = capsys.readouterr().out
        assert "store hit" in out and "strict-verified" in out

    def test_serve_daemon_and_loadgen_cli(self, capsys, tmp_path):
        """``serve --daemon`` publishes + serves, ``loadgen`` drives it.

        The daemon's ``main()`` runs in a thread (so coverage sees the
        CLI path); the loadgen CLI runs in-process against it, then a
        ``shutdown`` op drains the daemon to a zero exit."""
        import json
        import threading
        import time

        from repro.serve import DaemonClient

        port_file = tmp_path / "port"
        report_json = tmp_path / "loadgen.json"
        rc = {}

        def daemon_main():
            rc["daemon"] = main(
                [
                    "serve", "--daemon",
                    "--graph", "gnp",
                    "--n", "96",
                    "--k", "2",
                    "--seed", "3",
                    "--store", str(tmp_path / "store"),
                    "--port", "0",
                    "--port-file", str(port_file),
                    "--queue-limit", "8",
                    "--timeout", "20",
                ]
            )

        thread = threading.Thread(target=daemon_main, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60
        while not port_file.exists():
            assert time.monotonic() < deadline
            assert thread.is_alive(), "daemon exited before binding"
            time.sleep(0.05)
        port = port_file.read_text().strip()

        assert (
            main(
                [
                    "loadgen",
                    "--port", port,
                    "--users", "10",
                    "--connections", "2",
                    "--requests", "6",
                    "--batch", "32",
                    "--seed", "1",
                    "--json", str(report_json),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "serving" in out  # the daemon's ready line
        assert "pairs/s" in out and "p50" in out
        doc = json.loads(report_json.read_text())
        assert doc["kind"] == "tz-loadgen-report"
        assert doc["errors"] == 0 and doc["total_pairs"] == 6 * 32

        with DaemonClient("127.0.0.1", int(port)) as c:
            assert c.request({"op": "shutdown"})["ok"]
        thread.join(30)
        assert not thread.is_alive() and rc["daemon"] == 0
        assert "daemon drained" in capsys.readouterr().out

    def test_loadgen_unreachable_daemon_fails_cleanly(self, tmp_path):
        with pytest.raises(OSError):
            main(["loadgen", "--port", "1", "--requests", "1"])
