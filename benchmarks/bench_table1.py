"""Benchmark regenerating **Table I** of the paper.

Per case: one serial (bisection) solve and one parallel (dynamic queue)
solve are benchmarked individually, and a final report benchmark runs the
full Table I driver, prints the measured table in the paper's layout, and
writes it to ``benchmarks/results/table1.txt``.

Scale/threads are controlled by ``REPRO_BENCH_SCALE`` /
``REPRO_BENCH_THREADS`` (see ``_config.py``); at scale 1.0 the model sizes
are exactly the paper's (n up to 4150, p up to 83).
"""

from __future__ import annotations

import pytest

from _config import BENCH_REPEATS, BENCH_SCALE, BENCH_THREADS, write_artifact
from repro import RunConfig, solve
from repro.core.options import SolverOptions
from repro.reporting.table1 import run_table1
from repro.reporting.tables import format_table1
from repro.synth.workloads import TABLE1_CASES, build_case

OPTIONS = SolverOptions()

_model_cache = {}


def get_model(spec):
    if spec.case_id not in _model_cache:
        _model_cache[spec.case_id] = build_case(spec, scale=BENCH_SCALE)
    return _model_cache[spec.case_id]


@pytest.mark.parametrize("spec", TABLE1_CASES, ids=lambda s: s.name.replace(" ", ""))
def test_serial_bisection(benchmark, spec):
    """tau_1 column: single-thread classical bisection sweep."""
    model = get_model(spec)
    result = benchmark.pedantic(
        lambda: solve(model, RunConfig(strategy="bisection", options=OPTIONS)),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["crossings"] = result.num_crossings
    benchmark.extra_info["shifts"] = result.shifts_processed
    benchmark.extra_info["operator_applies"] = result.work["operator_applies"]


@pytest.mark.parametrize("spec", TABLE1_CASES, ids=lambda s: s.name.replace(" ", ""))
def test_parallel_queue(benchmark, spec):
    """tau_T column: dynamic work-queue sweep with T threads."""
    model = get_model(spec)
    result = benchmark.pedantic(
        lambda: solve(
            model,
            RunConfig(strategy="queue", num_threads=BENCH_THREADS, options=OPTIONS),
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["crossings"] = result.num_crossings
    benchmark.extra_info["shifts"] = result.shifts_processed
    benchmark.extra_info["eliminated"] = result.work["shifts_eliminated"]
    benchmark.extra_info["operator_applies"] = result.work["operator_applies"]


def test_table1_report(benchmark):
    """Full Table I: all 12 cases, serial vs parallel, paper layout."""

    def run():
        rows = run_table1(
            cases=TABLE1_CASES,
            scale=BENCH_SCALE,
            num_threads=BENCH_THREADS,
            repeats=BENCH_REPEATS,
            options=OPTIONS,
        )
        return format_table1(rows, BENCH_THREADS)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    path = write_artifact("table1.txt", table)
    print(f"\n[Table I reproduction, scale={BENCH_SCALE}, T={BENCH_THREADS}]")
    print(table)
    print(f"(written to {path})")
