"""Ablation A: dynamic scheduling vs. the static pre-distributed grid.

Sec. IV of the paper rejects pre-distributing shifts on a regular grid
because "it is very likely that the work performed on some preallocated
shifts will be useless, since they could be included in the convergence
disks associated to nearby disks... This poor scalability was indeed
verified experimentally."

This benchmark verifies the same claim on the synthetic Table I cases:
the static grid must process at least as many shifts (and spend at least
as much operator work) as the dynamic queue, with the gap reported per
case.
"""

from __future__ import annotations

import pytest

from _config import BENCH_SCALE, BENCH_THREADS, write_artifact
from repro import RunConfig, solve
from repro.core.options import SolverOptions
from repro.synth.workloads import TABLE1_CASES, build_case

OPTIONS = SolverOptions()
DYNAMIC = RunConfig(strategy="queue", num_threads=BENCH_THREADS, options=OPTIONS)
STATIC = DYNAMIC.merged(strategy="static")

CASES = TABLE1_CASES[:6]

_model_cache = {}


def get_model(spec):
    if spec.case_id not in _model_cache:
        _model_cache[spec.case_id] = build_case(spec, scale=BENCH_SCALE)
    return _model_cache[spec.case_id]


@pytest.mark.parametrize("spec", CASES, ids=lambda s: s.name.replace(" ", ""))
def test_dynamic_queue(benchmark, spec):
    model = get_model(spec)
    result = benchmark.pedantic(
        lambda: solve(model, DYNAMIC),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["shifts"] = result.shifts_processed
    benchmark.extra_info["eliminated"] = result.work["shifts_eliminated"]


@pytest.mark.parametrize("spec", CASES, ids=lambda s: s.name.replace(" ", ""))
def test_static_grid(benchmark, spec):
    model = get_model(spec)
    result = benchmark.pedantic(
        lambda: solve(model, STATIC),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["shifts"] = result.shifts_processed


def test_ablation_report(benchmark):
    """Dynamic never does more shift work than static; report the ratios."""

    def run():
        lines = [
            f"{'case':<8}{'dyn shifts':>11}{'stat shifts':>12}"
            f"{'dyn applies':>12}{'stat applies':>13}{'work ratio':>12}"
        ]
        lines.append("-" * len(lines[0]))
        for spec in CASES:
            model = get_model(spec)
            dyn = solve(model, DYNAMIC)
            stat = solve(model, STATIC)
            assert stat.shifts_processed >= dyn.shifts_processed, spec.name
            assert stat.num_crossings == dyn.num_crossings, spec.name
            ratio = stat.work["operator_applies"] / max(
                dyn.work["operator_applies"], 1
            )
            lines.append(
                f"{spec.name:<8}{dyn.shifts_processed:>11}"
                f"{stat.shifts_processed:>12}"
                f"{dyn.work['operator_applies']:>12}"
                f"{stat.work['operator_applies']:>13}{ratio:>12.3f}"
            )
        return "\n".join(lines)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    path = write_artifact("scheduler_ablation.txt", table)
    print("\n[Scheduler ablation: dynamic vs static grid]")
    print(table)
    print(f"(written to {path})")
