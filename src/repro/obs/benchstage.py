"""The bench stage table behind ``repro bench`` and ``benchmarks/run.py``.

Each stage is a function of ``(scale, threads)``.  It builds its seeded
inputs (models, samples, fleets, stores) first, then times one region
and returns a :class:`StageResult`: the region's wall time, the solver
work counters where they exist, and the stage-shaped results.  A stage
that reproduces a claim checks it and raises :class:`StageCheckError`
when the check fails.

Two tiers name the stages run together:

* ``serial`` — the tracked ``BENCH_pipeline.json`` baseline, which
  ``benchmarks/compare.py`` gates on timing;
* ``multicore`` — the parallel-scaling stages.  Each carries its
  measured ``extra.speedup`` and an ``extra.min_speedup`` floor, which
  ``compare.py`` enforces on hosts with two or more cores (``None``
  records the speedup without a floor).

The four paper ablations (Sec. III/IV and the transmission-line combs)
belong to neither tier: ``repro bench STAGE...`` runs them by name.
``benchmarks/run.py`` runs a tier with BLAS pinned to one thread;
``repro bench`` runs unpinned.  Both write the payload of
:func:`run_bench_stages`.
"""

from __future__ import annotations

import os
import platform
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from repro import RunConfig, solve
from repro.api import Macromodel
from repro.batch import BatchRunner, synth_fleet
from repro.core.options import SolverOptions
from repro.hamiltonian.operator import HamiltonianOperator
from repro.macromodel.realization import pole_residue_to_simo
from repro.obs.metrics import get_registry
from repro.obs.profiler import profile_call
from repro.passivity.characterization import characterize_passivity
from repro.passivity.enforcement import enforce_passivity
from repro.passivity.sampling import sampled_violations
from repro.queue import TERMINAL_STATES, JobQueue, QueueConfig, QueueWorker, parse_spec
from repro.synth.generator import random_macromodel, random_simo_macromodel
from repro.synth.transmission_line import transmission_line_model
from repro.synth.workloads import TABLE1_CASES, build_case
from repro.timedomain import (
    Stimulus,
    default_timestep,
    recursive_convolution,
    recursive_convolution_reference,
)
from repro.vectfit.vector_fitting import vector_fit

__all__ = [
    "BENCH_STAGES",
    "StageCheckError",
    "StageResult",
    "TIERS",
    "run_bench_stages",
]

#: Best-of repeats of the stages that time a sub-second region.
REPEATS = 3
#: Ports of the reference model and of the dense-sweep model.
PORTS = 4
#: The dense-sweep micro-benchmark: 1000 points on a 100-pole model.
SWEEP_POINTS = 1000
SWEEP_POLES = 100
#: Timesteps of the recursive-convolution transient.
TIMEDOMAIN_STEPS = 100_000
#: The batch fleet: 8 models of 12 poles per column.
FLEET_MODELS = 8
FLEET_ORDER = 12


class StageResult(NamedTuple):
    """One stage run: its timed region, work counters and results."""

    seconds: float
    work: Optional[Dict[str, int]]
    extra: Dict[str, Any]


class StageCheckError(RuntimeError):
    """A bench stage's result failed the check the stage makes."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise StageCheckError(message)


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``fn()`` and its wall time in seconds."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _best_of(repeats: int, fn: Callable[[], Any]) -> float:
    """Best-of-N wall time of ``fn`` in seconds."""
    return min(_timed(fn)[1] for _ in range(repeats))


def _reference_model(scale: float):
    """The seeded, mildly non-passive p = 4 model of the pipeline stages."""
    num_poles = max(8, int(40 * scale * 10))
    return random_macromodel(num_poles, PORTS, seed=777, sigma_target=1.05)


def _summed_work(reports) -> Optional[Dict[str, int]]:
    work: Dict[str, int] = {}
    for report in reports:
        if report.solve is not None:
            for key, value in report.solve.work.items():
                work[key] = work.get(key, 0) + int(value)
    return work or None


def _max_crossing_diff(expected, got) -> float:
    """Largest crossing deviation; ``inf`` when the sets differ in size."""
    if got is None or len(got) != len(expected):
        return float("inf")
    if not len(expected):
        return 0.0
    return float(np.max(np.abs(np.asarray(got) - np.asarray(expected))))


# -- the serial tier ---------------------------------------------------------


def _sweep_batched(scale: float, threads: int) -> StageResult:
    """Dense sigma sweep: one ``transfer`` plus one SVD per point in a
    Python loop, against one ``transfer_many`` plus one stacked SVD.
    ``seconds`` is the batched path, best of three."""
    model = random_macromodel(SWEEP_POLES, PORTS, seed=777, sigma_target=1.05)
    simo = pole_residue_to_simo(model)
    s_points = 1j * np.linspace(0.01, 16.0, SWEEP_POINTS)

    def looped() -> np.ndarray:
        sigma = np.empty(s_points.size)
        for index, s in enumerate(s_points):
            sigma[index] = np.linalg.svd(simo.transfer(s), compute_uv=False)[0]
        return sigma

    def batched() -> np.ndarray:
        return np.linalg.svd(simo.transfer_many(s_points), compute_uv=False)[:, 0]

    max_diff = float(np.max(np.abs(looped() - batched())))
    _check(max_diff <= 1e-12, f"batched sigma is {max_diff:.2e} off the loop")
    looped_s = _best_of(REPEATS, looped)
    batched_s = _best_of(REPEATS, batched)
    return StageResult(
        seconds=batched_s,
        work=None,
        extra={
            "points": SWEEP_POINTS,
            "ports": PORTS,
            "order": int(simo.order),
            "repeats": REPEATS,
            "looped_seconds": looped_s,
            "speedup": looped_s / batched_s,
            "max_abs_diff": max_diff,
        },
    )


def _frequency_response(scale: float, threads: int) -> StageResult:
    """The reference model's response at 300 points."""
    model = _reference_model(scale)
    freqs = np.linspace(0.01, 16.0, 300)
    _, seconds = _timed(lambda: model.frequency_response(freqs))
    return StageResult(seconds, None, {"points": int(freqs.size), "ports": PORTS})


def _vector_fit(scale: float, threads: int) -> StageResult:
    """Vector fitting of the reference model's sampled response."""
    model = _reference_model(scale)
    freqs = np.linspace(0.01, 16.0, 300)
    samples = model.frequency_response(freqs)
    fit, seconds = _timed(lambda: vector_fit(freqs, samples, num_poles=model.num_poles))
    _check(fit.rms_error < 1e-6, f"fit rms error {fit.rms_error:.2e} >= 1e-6")
    return StageResult(
        seconds=seconds,
        work=None,
        extra={
            "num_poles": int(model.num_poles),
            "rms_error": float(fit.rms_error),
            "iterations": int(fit.iterations),
        },
    )


def _characterization(scale: float, threads: int) -> StageResult:
    """Hamiltonian passivity characterization of the reference model."""
    model = _reference_model(scale)
    report, seconds = _timed(
        lambda: characterize_passivity(
            model, num_threads=threads, options=SolverOptions()
        )
    )
    _check(not report.passive, "the reference model was found passive")
    return StageResult(
        seconds=seconds,
        work=_summed_work([report]),
        extra={"passive": bool(report.passive), "bands": len(report.bands)},
    )


def _enforcement(scale: float, threads: int) -> StageResult:
    """Iterative passivity enforcement of the reference model."""
    model = _reference_model(scale)
    result, seconds = _timed(
        lambda: enforce_passivity(model, num_threads=threads, options=SolverOptions())
    )
    _check(result.passive, "enforcement left the reference model non-passive")
    return StageResult(
        seconds=seconds,
        work=_summed_work(result.reports),
        extra={"passive": bool(result.passive), "iterations": int(result.iterations)},
    )


def _sampling_baseline(scale: float, threads: int) -> StageResult:
    """Adaptive-sampling passivity scan of the reference model (ref. [17])."""
    model = _reference_model(scale)
    report, seconds = _timed(lambda: sampled_violations(model, 16.0))
    return StageResult(
        seconds=seconds,
        work={"transfer_evaluations": int(report.evaluations)},
        extra={"passive": bool(report.passive), "violations": len(report.violations)},
    )


def _timedomain(scale: float, threads: int) -> StageResult:
    """Recursive-convolution transient of a p = 4, 30-pole model: the
    chunked path against the per-step loop.  ``seconds`` is the chunked
    path, best of three after one untimed run."""
    model = random_macromodel(30, PORTS, seed=777, sigma_target=0.95)
    dt = default_timestep(model)
    inputs = Stimulus.prbs(seed=777).waveforms(TIMEDOMAIN_STEPS, dt, PORTS)
    chunked_out = recursive_convolution(model, inputs, dt)
    # The ~1 s naive pass runs once: its timing and its output come from
    # the same call.
    naive_out, naive_s = _timed(
        lambda: recursive_convolution_reference(model, inputs, dt)
    )
    chunked_s = _best_of(REPEATS, lambda: recursive_convolution(model, inputs, dt))
    return StageResult(
        seconds=chunked_s,
        work={"timesteps": TIMEDOMAIN_STEPS},
        extra={
            "poles": 30,
            "ports": PORTS,
            "dt": float(dt),
            "naive_seconds": naive_s,
            "speedup": naive_s / chunked_s,
            "max_abs_diff": float(np.max(np.abs(chunked_out - naive_out))),
        },
    )


def _cache_hit(scale: float, threads: int) -> StageResult:
    """A cold check of the reference model (store miss, the solve runs),
    then warm checks answered from the content-addressed store.
    ``seconds`` is the warm latency, best of three."""
    model = _reference_model(scale)
    with tempfile.TemporaryDirectory() as tmp:
        config = RunConfig(num_threads=threads, cache="readwrite", cache_dir=tmp)

        def check() -> Dict[str, int]:
            session = Macromodel.from_pole_residue(model, config=config)
            session.check_passivity()
            return session.cache_stats

        cold, cold_s = _timed(check)
        warm: List[Dict[str, int]] = []
        warm_s = _best_of(REPEATS, lambda: warm.append(check()))
    _check(cold["writes"] == 1, f"the cold pass wrote no entry: {cold}")
    _check(all(w["hits"] == 1 for w in warm), f"a warm pass missed: {warm}")
    return StageResult(
        seconds=warm_s,
        work=None,
        extra={
            "order": int(model.order),
            "cold_seconds": cold_s,
            "speedup": cold_s / warm_s,
        },
    )


# -- the multicore tier ------------------------------------------------------


def _batch_fleet(scale: float, threads: int) -> StageResult:
    """One seeded fleet through ``BatchRunner`` serially, then on the
    process pool (one worker per core, at most 4)."""
    workers = min(os.cpu_count() or 1, 4)
    fleet = synth_fleet(FLEET_MODELS, order_per_column=FLEET_ORDER, base_seed=777)
    serial, serial_s = _timed(lambda: BatchRunner(backend="serial").run(fleet))
    pooled, process_s = _timed(
        lambda: BatchRunner(backend="process", workers=workers).run(fleet)
    )
    _check(serial.all_ok and pooled.all_ok, "a fleet job failed")
    got = pooled.crossings_by_name()
    max_diff = max(
        _max_crossing_diff(crossings, got.get(name))
        for name, crossings in serial.crossings_by_name().items()
    )
    _check(max_diff <= 1e-12, f"process crossings are {max_diff:.2e} off serial")
    return StageResult(
        seconds=process_s,
        work=None,
        extra={
            "models": FLEET_MODELS,
            "workers": workers,
            "serial_seconds": serial_s,
            "speedup": serial_s / process_s,
            "min_speedup": 1.0,
        },
    )


def _eigensweep_process(scale: float, threads: int) -> StageResult:
    """The reference model characterized on the serial backend, then on
    a ``threads``-worker process backend.  No floor: at bench scale the
    pool's spawn cost can dominate the per-segment solves."""
    model = _reference_model(scale)
    serial, serial_s = _timed(
        lambda: characterize_passivity(
            model, config=RunConfig(num_threads=1, backend="serial")
        )
    )
    pooled, process_s = _timed(
        lambda: characterize_passivity(
            model, config=RunConfig(num_threads=threads, backend="process")
        )
    )
    return StageResult(
        seconds=process_s,
        work=None,
        extra={
            "workers": threads,
            "serial_seconds": serial_s,
            "speedup": serial_s / process_s,
            "max_crossing_diff": _max_crossing_diff(serial.crossings, pooled.crossings),
            "min_speedup": None,
        },
    )


def _drain(workers: int, jobs: int, order: int) -> float:
    """Enqueue a fresh fleet of check jobs and drain it with ``workers``
    queue workers; returns the drain seconds.  Each call uses its own
    queue with the cache off, so every drain runs real solves, never
    store hits of an earlier drain."""
    with tempfile.TemporaryDirectory(prefix="bench-queue-") as tmp:
        path = Path(tmp) / "queue.sqlite3"
        queue = JobQueue(path)
        try:
            base = RunConfig(cache="off")
            for index in range(jobs):
                spec = {
                    "kind": "synth",
                    "order": order,
                    "ports": 2,
                    "seed": index,
                    "task": "check",
                }
                parsed = parse_spec(spec, base_config=base, job_id=f"b{index}")
                queue.enqueue(
                    job_id=f"b{index}",
                    task=parsed.task,
                    name=parsed.name,
                    kind=parsed.kind,
                    spec=parsed.resolved_spec(),
                    key=parsed.key,
                )
            config = QueueConfig(
                poll_seconds=0.01, lease_seconds=600.0, heartbeat_seconds=5.0
            )
            fleet = [
                QueueWorker(
                    path, worker_id=f"bench-{i}", backend="serial", queue_config=config
                )
                for i in range(workers)
            ]
            runners = [threading.Thread(target=w.run, name=w.worker_id) for w in fleet]
            started = time.perf_counter()
            for runner in runners:
                runner.start()
            # Wait for every job to end in any state, so that a failed
            # job fails the check below instead of hanging the drain.
            while sum(queue.depth()[s] for s in TERMINAL_STATES) < jobs:
                time.sleep(0.005)
            elapsed = time.perf_counter() - started
            for worker in fleet:
                worker.request_stop()
            for runner in runners:
                runner.join(timeout=60.0)
            rows = queue.list(limit=jobs)
        finally:
            queue.close()
    # Exactly once under concurrency: every job done, none ever re-run.
    _check(
        len(rows) == jobs and all(row.state == "done" for row in rows),
        f"not every job of the {workers}-worker drain is done",
    )
    _check(
        all(row.attempts == 1 for row in rows),
        f"a job of the {workers}-worker drain ran more than once",
    )
    return elapsed


def _queue_drain(scale: float, threads: int) -> StageResult:
    """One seeded fleet of check jobs drained by one worker, then by
    ``threads`` workers sharing the durable queue."""
    jobs = max(4, int(16 * scale * 20))
    order = max(6, int(10 * scale * 20))
    one_s = _drain(1, jobs, order)
    multi_s = _drain(threads, jobs, order)
    return StageResult(
        seconds=multi_s,
        work={"jobs": jobs},
        extra={
            "order": order,
            "workers": threads,
            "one_worker_seconds": one_s,
            "speedup": one_s / multi_s,
            "min_speedup": 1.0,
        },
    )


# -- the paper ablations -----------------------------------------------------


def _scheduler_ablation(scale: float, threads: int) -> StageResult:
    """Ablation A (Sec. IV): the static pre-distributed grid against the
    dynamic queue on Cases 1-6.  The paper rejects the grid because the
    work on preallocated shifts inside nearby convergence disks is
    wasted: the grid processes at least as many shifts as the queue,
    and both find the same crossings."""
    dynamic = RunConfig(strategy="queue", num_threads=threads, options=SolverOptions())
    static = dynamic.merged(strategy="static")
    models = [(spec.name, build_case(spec, scale=scale)) for spec in TABLE1_CASES[:6]]
    results, seconds = _timed(
        lambda: [(name, solve(m, dynamic), solve(m, static)) for name, m in models]
    )
    rows = []
    for name, dyn, stat in results:
        _check(
            stat.shifts_processed >= dyn.shifts_processed,
            f"{name}: the static grid processed fewer shifts than the queue",
        )
        _check(
            stat.num_crossings == dyn.num_crossings,
            f"{name}: the static grid and the queue found different crossings",
        )
        rows.append(
            {
                "case": name,
                "dynamic_shifts": dyn.shifts_processed,
                "static_shifts": stat.shifts_processed,
                "dynamic_applies": dyn.work["operator_applies"],
                "static_applies": stat.work["operator_applies"],
                "work_ratio": (
                    stat.work["operator_applies"]
                    / max(dyn.work["operator_applies"], 1)
                ),
            }
        )
    return StageResult(seconds, None, {"rows": rows})


def _shift_invert_scaling(scale: float, threads: int) -> StageResult:
    """Ablation B (Sec. III): one SMW shift-invert apply, O(n p), against
    a dense LU factorization and the full dense eigensolution, O(n^3),
    over a 4x order sweep at p = 8.  The eigensolution's time grows more
    than the apply's.  ``seconds`` sums the timed calls."""
    base = max(64, int(1000 * scale))
    rows = []
    for order in (base, 2 * base, 4 * base):
        op = HamiltonianOperator(
            random_simo_macromodel(order, 8, seed=order, sigma_target=None)
        )
        rng = np.random.default_rng(order)
        x = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
        smw = op.shift_invert(1.0j)
        dense = op.dense().astype(complex)
        shifted = dense - 1.0j * np.eye(dense.shape[0])
        rows.append(
            {
                "order": order,
                "smw_apply_s": _best_of(REPEATS, lambda: smw.matvec(x)),
                "dense_lu_s": _best_of(1, lambda: scipy.linalg.lu_factor(shifted)),
                "dense_eig_s": _best_of(1, lambda: scipy.linalg.eigvals(dense)),
            }
        )
    smw_growth = rows[-1]["smw_apply_s"] / max(rows[0]["smw_apply_s"], 1e-12)
    eig_growth = rows[-1]["dense_eig_s"] / max(rows[0]["dense_eig_s"], 1e-12)
    _check(
        eig_growth > smw_growth,
        f"the dense eigensolution grew {eig_growth:.1f}x, one SMW apply"
        f" {smw_growth:.1f}x",
    )
    seconds = sum(
        row["smw_apply_s"] + row["dense_lu_s"] + row["dense_eig_s"] for row in rows
    )
    return StageResult(
        seconds=seconds,
        work=None,
        extra={
            "ports": 8,
            "rows": rows,
            "smw_growth": smw_growth,
            "eig_growth": eig_growth,
        },
    )


def _sampling_ablation(scale: float, threads: int) -> StageResult:
    """Ablation C (Sec. I): the Hamiltonian test against resonance-seeded
    and blind adaptive sampling on three high-Q models.  The Hamiltonian
    test finds a violation on every model, and the blind scan misses a
    violation that it finds."""
    num_poles = max(10, int(200 * scale))
    models = [
        (
            seed,
            random_macromodel(
                num_poles, 3, seed=seed, sigma_target=1.05, q_range=(40.0, 120.0)
            ),
        )
        for seed in (5, 15, 25)
    ]
    options = SolverOptions()
    results, seconds = _timed(
        lambda: [
            (
                seed,
                characterize_passivity(m, num_threads=threads, options=options),
                sampled_violations(m, 15.0, seed_resonances=True),
                sampled_violations(m, 15.0, seed_resonances=False),
            )
            for seed, m in models
        ]
    )
    rows = []
    for seed, exact, seeded, blind in results:
        _check(
            not exact.passive, f"seed {seed}: the Hamiltonian test found no violation"
        )
        rows.append(
            {
                "seed": seed,
                "exact_bands": len(exact.bands),
                "seeded_found": len(seeded.violations),
                "blind_found": len(blind.violations),
                "seeded_evaluations": seeded.evaluations,
                "blind_evaluations": blind.evaluations,
            }
        )
    _check(
        any(row["blind_found"] < row["exact_bands"] for row in rows),
        "the blind scan found every violation the Hamiltonian test found",
    )
    return StageResult(seconds, None, {"num_poles": num_poles, "rows": rows})


def _comb_scaling(scale: float, threads: int) -> StageResult:
    """Transmission-line resonance combs of growing length under the
    serial bisection sweep: the crossings grow with the comb, and the
    operator applies per crossing grow by less than 10x."""
    base = max(4, int(80 * scale))
    resonances = (base, 2 * base, 4 * base)
    models = [
        transmission_line_model(n, 4, seed=n, sigma_target=1.12, delay=n / 4.0)
        for n in resonances
    ]
    config = RunConfig(strategy="bisection", options=SolverOptions())
    results, seconds = _timed(lambda: [solve(m, config) for m in models])
    rows = [
        {
            "resonances": n,
            "order": int(model.order),
            "crossings": result.num_crossings,
            "shifts": result.shifts_processed,
            "applies": result.work["operator_applies"],
            "applies_per_crossing": (
                result.work["operator_applies"] / max(result.num_crossings, 1)
            ),
        }
        for n, model, result in zip(resonances, models, results)
    ]
    first, last = rows[0], rows[-1]
    _check(
        last["crossings"] > first["crossings"],
        "the crossings did not grow with the comb",
    )
    _check(
        last["applies_per_crossing"] < 10.0 * first["applies_per_crossing"],
        "the applies per crossing grew by 10x or more",
    )
    return StageResult(seconds, None, {"rows": rows})


#: Stage name -> stage function of ``(scale, threads)``.
BENCH_STAGES: Dict[str, Callable[[float, int], StageResult]] = {
    "sweep.batched": _sweep_batched,
    "frequency_response": _frequency_response,
    "vector_fit": _vector_fit,
    "characterization": _characterization,
    "enforcement": _enforcement,
    "sampling_baseline": _sampling_baseline,
    "timedomain": _timedomain,
    "cache_hit": _cache_hit,
    "batch_fleet": _batch_fleet,
    "eigensweep_process": _eigensweep_process,
    "queue_drain": _queue_drain,
    "scheduler_ablation": _scheduler_ablation,
    "shift_invert_scaling": _shift_invert_scaling,
    "sampling_ablation": _sampling_ablation,
    "comb_scaling": _comb_scaling,
}

#: Tier name -> the stages it runs, in order.
TIERS: Dict[str, Tuple[str, ...]] = {
    "serial": (
        "sweep.batched",
        "frequency_response",
        "vector_fit",
        "characterization",
        "enforcement",
        "sampling_baseline",
        "timedomain",
        "cache_hit",
    ),
    "multicore": ("batch_fleet", "eigensweep_process", "queue_drain"),
}


def run_bench_stages(
    stages: Optional[Sequence[str]] = None,
    *,
    scale: float = 0.05,
    threads: int = 2,
    profile: bool = False,
    profile_sort: str = "cumtime",
    profile_top: int = 20,
) -> dict:
    """Run the named stages (default: the ``serial`` tier) in order and
    return the payload that ``benchmarks/compare.py`` reads.

    Each record under ``stages`` carries ``name``, ``seconds``, ``work``,
    ``extra``, the process registry's counter deltas for the stage under
    ``metrics``, and, when ``profile`` is set, a top-N hot-function
    ``profile`` of the whole stage.  The payload's ``tier`` names the
    tier that holds every stage run (``None`` for a mix or the
    ablations); its ``cpu_count`` lets ``compare.py`` skip the speedup
    floors on a one-core host.

    An unknown stage, a ``scale`` outside (0, 1] or ``threads`` below 1
    raises :class:`ValueError` before any stage runs; a failed check
    raises :class:`StageCheckError`.
    """
    names = list(stages) if stages else list(TIERS["serial"])
    unknown = [name for name in names if name not in BENCH_STAGES]
    if unknown:
        raise ValueError(
            f"unknown bench stage(s) {unknown}; expected some of"
            f" {sorted(BENCH_STAGES)}"
        )
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"--scale must be in (0, 1], got {scale}")
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")

    records: List[dict] = []
    for name in names:
        # Snapshot-by-difference: the process registry keeps running,
        # the record reports only what this stage added.
        before = get_registry().snapshot()["counters"]
        report = None
        try:
            if profile:
                result, report = profile_call(
                    BENCH_STAGES[name],
                    scale,
                    threads,
                    top_n=profile_top,
                    sort=profile_sort,
                )
            else:
                result = BENCH_STAGES[name](scale, threads)
        except StageCheckError as exc:
            message = f"bench stage {name!r} failed its check: {exc}"
            raise StageCheckError(message) from None
        after = get_registry().snapshot()["counters"]
        record = {"name": name, **result._asdict()}
        record["metrics"] = {
            "counters": {
                key: value - before.get(key, 0)
                for key, value in after.items()
                if value != before.get(key, 0)
            }
        }
        if report is not None:
            record["profile"] = report
        records.append(record)
    tier = next((t for t, run in TIERS.items() if set(names) <= set(run)), None)
    return {
        "schema": "repro-bench-pipeline/3",
        "created_unix": time.time(),
        "tier": tier,
        "cpu_count": os.cpu_count() or 1,
        "bench_scale": scale,
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stages": records,
    }
