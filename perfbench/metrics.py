"""The benchmark's metric catalogue.

``BENCHMARK.json`` declares the same names; ``tests/test_perfbench_stats``
checks that the two agree.  Every per-layer metric names the end-to-end
metric(s) it should move, as ``<metric>@<workload>``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

WORKLOADS = ("sweep", "service_enforce", "service_cached")

#: Sweep configurations: the three drivers ROADMAP item 2 collapses.
CONFIGS = ("serial", "thread", "process")

#: (name, unit, better, bound) of every end-to-end metric.
#: Timing bounds are wide because the timings of one run swing by up to
#: a fifth with the load other tenants put on a shared 2-core host.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("ops_ok_share", "share", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_SWEEP_WALL = ("wall_s@sweep", "latency_p50_s@sweep")
_ENFORCE = ("latency_p50_s@service_enforce",)
_CACHED = ("latency_p50_s@service_cached", "throughput_ops_s@service_cached")


def _per_config(stem: str, unit: str, better: str) -> List[tuple]:
    return [(f"{stem}.{cfg}", unit, better, _SWEEP_WALL) for cfg in CONFIGS]


#: (name, unit, better, targets) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str, Optional[Tuple[str, ...]]]] = [
    *_per_config("core.solve_s", "s", "lower"),
    *_per_config("core.arnoldi_steps", "count", "lower"),
    *_per_config("core.operator_applies", "count", "lower"),
    *_per_config("core.shifts_processed", "count", "lower"),
    *_per_config("core.shifts_eliminated", "count", "higher"),
    *_per_config("core.steps_per_shift", "steps/shift", "lower"),
    ("core.dispatch_self_s.process", "s", "lower", _SWEEP_WALL),
    ("core.sweep_self_s", "s", "lower", _ENFORCE),
    ("core.arnoldi_steps.check", "count", "lower", _ENFORCE),
    ("core.arnoldi_steps.enforce", "count", "lower", _ENFORCE),
    ("hamiltonian.apply_s.serial", "s", "lower", _SWEEP_WALL),
    ("hamiltonian.apply_share.serial", "share", "lower", _SWEEP_WALL),
    # A work-count projection of 16 cores: it moves no wall clock here.
    ("reporting.projected_speedup_16", "x", "higher", None),
    ("api.stage_self_s", "s", "lower", _ENFORCE),
    ("vectfit.self_s", "s", "lower", _ENFORCE),
    ("vectfit.iterations", "count", "lower", _ENFORCE),
    ("passivity.enforce_self_s", "s", "lower", _ENFORCE),
    ("passivity.enforce_iterations", "count", "lower", _ENFORCE),
    ("batch.spawn_s", "s", "lower", _ENFORCE),
    ("queue.wait_s", "s", "lower", _ENFORCE),
    ("queue.claim_s", "s", "lower", _ENFORCE),
    ("queue.ack_s", "s", "lower", _ENFORCE),
    (
        "queue.attempts_per_job",
        "count",
        "lower",
        _ENFORCE + ("ops_ok_share@service_enforce",),
    ),
    ("queue.enqueue_s", "s", "lower", _CACHED),
    ("store.put_s", "s", "lower", _ENFORCE),
    ("store.get_s", "s", "lower", _CACHED),
    ("store.hit_ratio", "share", "higher", _CACHED),
    ("service.submit_s", "s", "lower", _CACHED),
    ("service.spec_parse_s", "s", "lower", _CACHED),
    ("service.notify_lag_s", "s", "lower", _ENFORCE),
    ("service.overhead_s", "s", "lower", _ENFORCE),
    ("obs.spans_per_job", "count", "lower", _ENFORCE),
    ("obs.trace_incomplete_at_done", "count", "lower", _ENFORCE),
    ("obs.trace_record_s", "s", "lower", _CACHED),
    (
        "obs.bench_trace_overhead",
        "share",
        "lower",
        tuple(f"wall_s@{name}" for name in WORKLOADS),
    ),
]


def units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``"end_to_end"`` or ``"per_layer"``."""
    table = END_TO_END if kind == "end_to_end" else PER_LAYER
    return {name: unit for name, unit, *_ in table}


def targets() -> Dict[str, Optional[List[str]]]:
    """Per-layer metric name -> the end-to-end metrics it should move."""
    return {
        name: (list(goal) if goal is not None else None)
        for name, _, _, goal in PER_LAYER
    }


def emit(kind: str, values: Dict[str, float]) -> Dict[str, dict]:
    """The result object's ``metrics``: every declared metric, in order.

    A per-layer metric the workload did not exercise reads 0 (its layer
    did no work); a missing end-to-end metric is a benchmark bug.
    """
    out = {}
    for name, unit in units(kind).items():
        if name not in values and kind == "end_to_end":
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    return out
