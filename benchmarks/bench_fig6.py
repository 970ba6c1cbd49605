"""Benchmark regenerating **Fig. 6** of the paper.

Speedup vs. thread count for the Case 5 model, averaged over randomized
repetitions (random Arnoldi start vectors — the statistical variation the
paper plots as error bars).  Individual thread counts are benchmarked, and
the report benchmark runs the full driver and writes
``benchmarks/results/fig6.txt``.
"""

from __future__ import annotations

import pytest

from _config import BENCH_REPEATS, BENCH_SCALE, BENCH_THREADS, write_artifact
from repro import RunConfig, solve
from repro.core.options import SolverOptions
from repro.reporting.fig6 import run_fig6
from repro.reporting.tables import format_fig6
from repro.synth.workloads import fig6_case

OPTIONS = SolverOptions()

THREAD_POINTS = sorted({1, 2, 4, max(1, BENCH_THREADS // 2), BENCH_THREADS})

_model = None


def get_model():
    global _model
    if _model is None:
        _model = fig6_case(scale=BENCH_SCALE)
    return _model


@pytest.mark.parametrize("threads", THREAD_POINTS)
def test_case5_sweep(benchmark, threads):
    """One Fig. 6 sample point: Case 5 swept with ``threads`` workers."""
    model = get_model()
    config = RunConfig(strategy="queue", num_threads=threads, options=OPTIONS)
    result = benchmark.pedantic(lambda: solve(model, config), rounds=1, iterations=1)
    benchmark.extra_info["crossings"] = result.num_crossings
    benchmark.extra_info["operator_applies"] = result.work["operator_applies"]
    benchmark.extra_info["eliminated"] = result.work["shifts_eliminated"]


def test_fig6_report(benchmark):
    """Full Fig. 6 series with mean +/- std over randomized repeats."""

    def run():
        points = run_fig6(
            scale=BENCH_SCALE,
            threads=tuple(range(1, BENCH_THREADS + 1)),
            repeats=BENCH_REPEATS,
            options=OPTIONS,
        )
        return format_fig6(points)

    figure = benchmark.pedantic(run, rounds=1, iterations=1)
    path = write_artifact("fig6.txt", figure)
    print(f"\n[Fig. 6 reproduction, scale={BENCH_SCALE}, {BENCH_REPEATS} repeats]")
    print(figure)
    print(f"(written to {path})")
