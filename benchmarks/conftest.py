"""Benchmark harness configuration.

Each ``bench_*`` file regenerates one artifact of DESIGN.md §4 (tables
T1, figures F2–F9, ablations A1–A2) through pytest-benchmark, printing
the same rows EXPERIMENTS.md records and asserting the acceptance
criteria.  Scale defaults to ``small`` so the suite stays minutes-scale;
set ``REPRO_BENCH_SCALE=full`` to regenerate the EXPERIMENTS.md numbers.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.reporting import render_table


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))


@pytest.fixture
def show(capsys):
    """Print an experiment result table past pytest's capture."""

    def _show(result) -> None:
        with capsys.disabled():
            print()
            print(render_table(result.rows, title=result.title))
            if result.notes:
                print(f"note: {result.notes}")

    return _show


def best_of(fn, repeats: int = 1) -> float:
    """Best-of-N wall time of ``fn()``, in seconds.

    The shootout benchmarks (CSR kernel, batch router) gate on speedup
    *ratios*; taking the minimum over a few runs keeps one stalled run
    on a noisy shared CI runner from deciding the ratio.
    """
    import time

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def best_of_interleaved(fn_a, fn_b, repeats=5):
    """Best-of-N wall times of two callables, alternated A/B/A/B.

    The gate is a *ratio*, and single-core CI runners drift ±15% on
    second-scale timescales — long enough to skew one side if the two
    contenders run back-to-back in separate blocks.  Alternating the
    repeats exposes both sides to the same drift.
    """
    import time

    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer.

    The experiments are seconds-scale preprocessing+measurement pipelines;
    one timed round is the meaningful unit (pytest-benchmark still
    records the wall time for regression tracking).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
