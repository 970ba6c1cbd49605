#!/usr/bin/env python
"""Benchmark runner: tracked perf baseline for the characterization flow.

Produces ``BENCH_pipeline.json`` (repo root by default) holding

* the **sweep** micro-benchmark — a dense frequency sweep (default 1000
  points, p = 4, n ~ 400) timed twice: once through the historical
  per-point scalar path (``transfer`` + one SVD per point in a Python
  loop) and once through the batched multi-shift path (``transfer_many``
  + one stacked SVD), with the measured speedup and the max elementwise
  deviation between the two;
* per-stage **pipeline** timings (vector fitting, Hamiltonian
  characterization, enforcement, adaptive-sampling baseline) with the
  stages' abstract :class:`~repro.utils.timing.WorkCounter` units;
* the **batch fleet** stage — the same seeded synthetic fleet run
  through ``repro.batch.BatchRunner`` once serially and once on the
  process pool, with the measured wall-clock speedup and a check that
  the per-model crossing sets agree exactly;
* the **cache hit** stage — the reference model characterized cold
  (store miss, eigensweep runs) and warm (content-addressed store hit)
  through ``RunConfig(cache="readwrite")``, recording the warm latency
  and the warm-vs-cold speedup (the serving story of the result store);
* the **timedomain** stage — recursive-convolution transient of a
  p = 4, 30-pole model over 1e5 steps, timed through the chunked path
  (vectorized forcing + per-chunk GEMM contraction) and the naive
  per-step loop, with the measured speedup and the max elementwise
  deviation;
* optionally the pytest-benchmark suites of this directory, executed at
  the same ``BENCH_SCALE`` with their JSON report folded in.

The runner is **tiered** (``--tier``, default ``serial``) because half
of the interesting numbers only mean anything on a multi-core host:

* ``serial`` — the single-core-safe stages above (sweep, pipeline,
  cache, timedomain).  This is the tier of the tracked baseline and the
  every-commit ``bench-smoke`` CI job.
* ``multicore`` — the parallel-scaling stages: the batch fleet run
  serial-vs-process-pool, the eigensweep run serial-vs-process backend,
  and the durable queue drained by one vs two workers.  Each stage
  records its measured ``speedup`` and (where gated) a ``min_speedup``
  floor that ``compare.py`` enforces on >= 2-core hosts — so the tier
  is self-gating and never needs a multicore timing baseline.

Both tiers stamp the detected ``cpu_count``, the ``tier`` itself, and
the installed pytest version into the payload (schema
``repro-bench-pipeline/2``).

Examples::

    python benchmarks/run.py                      # serial tier
    python benchmarks/run.py --tier multicore --output fresh.json
    python benchmarks/run.py --scale 0.02 --sweep-points 100 --sweep-poles 16
    python benchmarks/run.py --suites bench_pipeline.py bench_shift_invert.py
    python benchmarks/run.py --suites all         # every bench_*.py file

The scale knob mirrors ``REPRO_BENCH_SCALE`` (see ``_config.py``); the
flag wins when both are given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
for entry in (str(ROOT / "src"), str(BENCH_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

# One BLAS/OpenMP thread per process, set before numpy loads, as the
# repository benchmark (perfbench/run.py) does; worker processes and the
# pytest suites inherit it.  Unpinned, the first BLAS-heavy stage on a
# multi-core host pays OpenBLAS thread start-up: on a 2-core host
# vector_fit read 0.74 s cold against 0.08 s warm.
os.environ.update(
    {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "BLIS_NUM_THREADS": "1",
    }
)

import numpy as np  # noqa: E402

from repro.api import Macromodel  # noqa: E402
from repro.batch import BatchRunner, synth_fleet  # noqa: E402
from repro.core.config import RunConfig  # noqa: E402
from repro.core.options import SolverOptions  # noqa: E402
from repro.macromodel.realization import pole_residue_to_simo  # noqa: E402
from repro.passivity.characterization import characterize_passivity  # noqa: E402
from repro.passivity.enforcement import enforce_passivity  # noqa: E402
from repro.passivity.sampling import sampled_violations  # noqa: E402
from repro.synth.generator import random_macromodel  # noqa: E402
from repro.vectfit.vector_fitting import vector_fit  # noqa: E402


def _best_of(repeats: int, fn) -> float:
    """Best-of-N wall time of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_sweep_benchmark(
    *, points: int = 1000, num_poles: int = 100, ports: int = 4, repeats: int = 3
) -> Dict:
    """Dense-sweep micro-benchmark: looped scalar path vs batched path.

    The looped reference reproduces the pre-batching implementation
    exactly — one O(n p) structured ``transfer`` plus one small SVD per
    frequency point, all driven from Python — so the recorded speedup is
    an honest before/after of this PR's kernel layer.
    """
    model = random_macromodel(num_poles, ports, seed=777, sigma_target=1.05)
    simo = pole_residue_to_simo(model)
    omegas = np.linspace(0.01, 16.0, points)
    s_pts = 1j * omegas

    def looped() -> np.ndarray:
        sig = np.empty(points)
        for i, s in enumerate(s_pts):
            h = simo.transfer(s)
            sig[i] = np.linalg.svd(h, compute_uv=False)[0]
        return sig

    def batched() -> np.ndarray:
        h = simo.transfer_many(s_pts)
        return np.linalg.svd(h, compute_uv=False)[:, 0]

    sig_loop = looped()
    sig_batch = batched()
    max_diff = float(np.max(np.abs(sig_loop - sig_batch))) if points else 0.0

    looped_s = _best_of(repeats, looped)
    batched_s = _best_of(repeats, batched)
    return {
        "points": int(points),
        "ports": int(ports),
        "order": int(simo.order),
        "repeats": int(repeats),
        "looped_seconds": looped_s,
        "batched_seconds": batched_s,
        "speedup": looped_s / batched_s if batched_s > 0 else float("inf"),
        "max_abs_diff": max_diff,
    }


def run_pipeline_stages(*, scale: float, threads: int = 2) -> List[Dict]:
    """Time each pipeline stage once, harvesting its work counters."""
    num_poles = max(8, int(40 * scale * 10))
    source = random_macromodel(num_poles, 4, seed=777, sigma_target=1.05)
    freqs = np.linspace(0.01, 16.0, 300)
    options = SolverOptions()
    stages: List[Dict] = []

    t0 = time.perf_counter()
    samples = source.frequency_response(freqs)
    stages.append(
        {
            "name": "frequency_response",
            "seconds": time.perf_counter() - t0,
            "work": None,
            "extra": {"points": int(freqs.size), "ports": 4},
        }
    )

    t0 = time.perf_counter()
    fit = vector_fit(freqs, samples, num_poles=source.num_poles)
    stages.append(
        {
            "name": "vector_fit",
            "seconds": time.perf_counter() - t0,
            "work": None,
            "extra": {
                "num_poles": int(source.num_poles),
                "rms_error": float(fit.rms_error),
                "iterations": int(fit.iterations),
            },
        }
    )

    t0 = time.perf_counter()
    report = characterize_passivity(source, num_threads=threads, options=options)
    stages.append(
        {
            "name": "characterization",
            "seconds": time.perf_counter() - t0,
            "work": dict(report.solve.work) if report.solve is not None else None,
            "extra": {"passive": bool(report.passive), "bands": len(report.bands)},
        }
    )

    t0 = time.perf_counter()
    enforcement = enforce_passivity(source, num_threads=threads, options=options)
    enforcement_work: Dict[str, int] = {}
    for rep in enforcement.reports:
        if rep.solve is not None:
            for key, value in rep.solve.work.items():
                enforcement_work[key] = enforcement_work.get(key, 0) + int(value)
    stages.append(
        {
            "name": "enforcement",
            "seconds": time.perf_counter() - t0,
            "work": enforcement_work or None,
            "extra": {
                "passive": bool(enforcement.passive),
                "iterations": int(enforcement.iterations),
            },
        }
    )

    t0 = time.perf_counter()
    sampling = sampled_violations(source, 16.0)
    stages.append(
        {
            "name": "sampling_baseline",
            "seconds": time.perf_counter() - t0,
            "work": {"transfer_evaluations": int(sampling.evaluations)},
            "extra": {
                "passive": bool(sampling.passive),
                "violations": len(sampling.violations),
            },
        }
    )
    return stages


def run_batch_benchmark(
    *, models: int = 8, workers: Optional[int] = None, order: int = 12
) -> Dict:
    """Batch-fleet stage: serial vs process-pool execution of one fleet.

    Both runs share the same seeded synthetic fleet (so results are
    comparable bit-for-bit); the recorded ``speedup`` is the wall-clock
    ratio, which approaches the worker count on a multi-core host and
    ~1.0 on a single core.
    """
    if workers is None:
        workers = min(os.cpu_count() or 1, 4)
    fleet = synth_fleet(models, order_per_column=order, base_seed=777)

    t0 = time.perf_counter()
    serial_report = BatchRunner(backend="serial").run(fleet)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    process_report = BatchRunner(backend="process", workers=workers).run(fleet)
    process_s = time.perf_counter() - t0

    serial_crossings = serial_report.crossings_by_name()
    process_crossings = process_report.crossings_by_name()
    max_diff = 0.0
    for name, expected in serial_crossings.items():
        got = process_crossings.get(name)
        if got is None or len(got) != len(expected):
            max_diff = float("inf")
            break
        if expected:
            max_diff = max(
                max_diff,
                float(np.max(np.abs(np.asarray(got) - np.asarray(expected)))),
            )
    return {
        "models": int(models),
        "order_per_column": int(order),
        "workers": int(workers),
        "serial_seconds": serial_s,
        "process_seconds": process_s,
        "speedup": serial_s / process_s if process_s > 0 else float("inf"),
        "serial_ok": int(serial_report.num_ok),
        "process_ok": int(process_report.num_ok),
        "process_backend": process_report.backend,
        "max_crossing_diff": max_diff,
    }


def run_eigensweep_backend_benchmark(*, scale: float, workers: int = 2) -> Dict:
    """Eigensweep stage, serial vs process backend, on one seeded model.

    Both runs characterize the same model; the check that their crossing
    sets agree exactly doubles as a cross-backend determinism probe.
    The recorded speedup is informational (``min_speedup`` is left
    unset): at bench scale the process pool's spawn cost can dominate
    the per-segment solves, so a floor here would gate infrastructure
    noise, not code.
    """
    num_poles = max(8, int(40 * scale * 10))
    model = random_macromodel(num_poles, 4, seed=777, sigma_target=1.05)

    t0 = time.perf_counter()
    serial_report = characterize_passivity(
        model, config=RunConfig(num_threads=1, backend="serial")
    )
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    process_report = characterize_passivity(
        model, config=RunConfig(num_threads=workers, backend="process")
    )
    process_s = time.perf_counter() - t0

    serial_x = np.asarray(serial_report.crossings, dtype=float)
    process_x = np.asarray(process_report.crossings, dtype=float)
    if serial_x.shape != process_x.shape:
        max_diff = float("inf")
    elif serial_x.size:
        max_diff = float(np.max(np.abs(serial_x - process_x)))
    else:
        max_diff = 0.0
    return {
        "order": int(num_poles * 4),
        "workers": int(workers),
        "serial_seconds": serial_s,
        "process_seconds": process_s,
        "speedup": serial_s / process_s if process_s > 0 else float("inf"),
        "serial_passive": bool(serial_report.passive),
        "process_passive": bool(process_report.passive),
        "max_crossing_diff": max_diff,
    }


def run_queue_drain_benchmark(*, scale: float, workers: int = 2) -> Dict:
    """Queue stage: one worker vs an N-worker fleet draining one fleet.

    Reuses :func:`bench_queue.drain` (the pytest-benchmark suite's
    helper) so both entry points measure exactly the same enqueue +
    claim + execute + ack path.  On a multi-core host the N-worker
    drain should beat the single worker (workers rendezvous only at the
    cheap SQLite claim); on one core it cannot, which is why
    ``compare.py`` only enforces the floor on >= 2-core hosts.
    """
    from bench_queue import drain

    jobs = max(4, int(16 * scale * 20))
    one_s = drain(1, jobs=jobs)
    multi_s = drain(workers, jobs=jobs)
    return {
        "jobs": int(jobs),
        "workers": int(workers),
        "one_worker_seconds": one_s,
        "multi_worker_seconds": multi_s,
        "speedup": one_s / multi_s if multi_s > 0 else float("inf"),
    }


def run_cache_benchmark(*, scale: float, threads: int = 2, repeats: int = 3) -> Dict:
    """Cache-hit stage: warm vs cold ``check`` latency on the reference model.

    The cold pass runs the full Hamiltonian characterization and writes
    the result into a throwaway content-addressed store; the warm passes
    answer from the store without touching the eigensolver (asserted via
    the session's hit counters).  The recorded ``seconds`` is the *warm*
    latency — the number the serving layer quotes — and ``speedup`` the
    cold/warm ratio the acceptance gate watches (>= 100x expected).
    """
    num_poles = max(8, int(40 * scale * 10))
    model = random_macromodel(num_poles, 4, seed=777, sigma_target=1.05)
    with tempfile.TemporaryDirectory() as tmp:
        config = RunConfig(num_threads=threads, cache="readwrite", cache_dir=tmp)

        t0 = time.perf_counter()
        cold = Macromodel.from_pole_residue(model, config=config)
        cold.check_passivity()
        cold_s = time.perf_counter() - t0
        if cold.cache_stats["writes"] != 1:
            raise RuntimeError(
                f"cold pass did not populate the store: {cold.cache_stats}"
            )

        def warm() -> None:
            session = Macromodel.from_pole_residue(model, config=config)
            session.check_passivity()
            if session.cache_stats["hits"] != 1:
                raise RuntimeError(
                    f"warm pass missed the store: {session.cache_stats}"
                )

        warm_s = _best_of(repeats, warm)
    return {
        "order": int(model.order),
        "threads": int(threads),
        "repeats": int(repeats),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
    }


def run_timedomain_benchmark(
    *, poles: int = 30, ports: int = 4, steps: int = 100_000, repeats: int = 3
) -> Dict:
    """Time-domain stage: chunked recursive convolution vs per-step loop.

    Both paths integrate the same seeded PRBS excitation through the
    same exact-exponential recurrence; the chunked path batches the
    state scan (FFT over pole lanes) and the residue contraction (one
    einsum per chunk) where the naive reference pays ~6 numpy calls per
    timestep.  The recorded ``seconds`` is the *chunked* wall time (the
    number the gate watches); ``speedup`` is the naive/chunked ratio.
    """
    from repro.timedomain import (
        Stimulus,
        default_timestep,
        recursive_convolution,
        recursive_convolution_reference,
    )

    model = random_macromodel(poles, ports, seed=777, sigma_target=0.95)
    dt = default_timestep(model)
    inputs = Stimulus.prbs(seed=777).waveforms(steps, dt, ports)

    chunked_out = recursive_convolution(model, inputs, dt)

    # The ~1s naive pass runs exactly once: its timing and its output
    # (for the equivalence check) come from the same call.
    t0 = time.perf_counter()
    naive_out = recursive_convolution_reference(model, inputs, dt)
    naive_s = time.perf_counter() - t0
    max_diff = float(np.max(np.abs(chunked_out - naive_out)))

    chunked_s = _best_of(repeats, lambda: recursive_convolution(model, inputs, dt))
    return {
        "poles": int(poles),
        "ports": int(ports),
        "steps": int(steps),
        "dt": float(dt),
        "chunked_repeats": int(repeats),
        "chunked_seconds": chunked_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / chunked_s if chunked_s > 0 else float("inf"),
        "max_abs_diff": max_diff,
    }


def _pytest_version() -> Optional[str]:
    """Installed pytest version, or None when pytest is absent.

    Stamped into the payload unconditionally — the pre-v2 schema only
    carried pytest metadata when the ``--suites`` were actually run,
    which left a misleading ``"pytest": null`` in the tracked baseline.
    """
    try:
        import pytest
    except ImportError:
        return None
    return str(pytest.__version__)


def _resolve_suites(tokens: Sequence[str]) -> List[str]:
    if not tokens or list(tokens) == ["none"]:
        return []
    if list(tokens) == ["all"]:
        return sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))
    return list(tokens)


def run_pytest_suites(suites: Sequence[str], *, scale: float) -> Optional[Dict]:
    """Execute the named pytest-benchmark suites; return their JSON report."""
    if not suites:
        return None
    try:
        import pytest_benchmark  # noqa: F401
    except ImportError:
        print("pytest-benchmark not installed; skipping suites", file=sys.stderr)
        return {"skipped": "pytest-benchmark not installed", "suites": list(suites)}
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "pytest_bench.json"
        env = dict(os.environ)
        env["REPRO_BENCH_SCALE"] = str(scale)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            *[str(BENCH_DIR / name) for name in suites],
            "-q",
            f"--benchmark-json={json_path}",
        ]
        proc = subprocess.run(cmd, cwd=str(ROOT), env=env)
        payload: Dict = {"suites": list(suites), "exit_code": proc.returncode}
        if json_path.exists():
            report = json.loads(json_path.read_text())
            payload["benchmarks"] = [
                {
                    "name": entry.get("name"),
                    "mean_seconds": entry.get("stats", {}).get("mean"),
                    "stddev_seconds": entry.get("stats", {}).get("stddev"),
                    "rounds": entry.get("stats", {}).get("rounds"),
                    "extra_info": entry.get("extra_info", {}),
                }
                for entry in report.get("benchmarks", [])
            ]
        return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--scale",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "0.05")),
        help="model-order scale factor (default: REPRO_BENCH_SCALE or 0.05)",
    )
    parser.add_argument(
        "--tier",
        choices=("serial", "multicore"),
        default=os.environ.get("REPRO_BENCH_TIER", "serial"),
        help="stage tier: 'serial' (sweep/pipeline/cache/timedomain;"
        " the tracked-baseline tier) or 'multicore' (batch fleet,"
        " process eigensweep, queue drain — self-gated by min_speedup"
        " floors on >= 2-core hosts)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_pipeline.json",
        help="output JSON path (default: repo-root BENCH_pipeline.json)",
    )
    parser.add_argument("--sweep-points", type=int, default=1000)
    parser.add_argument("--sweep-poles", type=int, default=100)
    parser.add_argument("--sweep-ports", type=int, default=4)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument(
        "--batch-models",
        type=int,
        default=None,
        help="fleet size of the batch stage (default: 8 on the multicore"
        " tier, disabled on the serial tier; 0 disables it)",
    )
    parser.add_argument(
        "--batch-workers",
        type=int,
        default=None,
        help="process-pool size of the batch stage (default: cpus, max 4)",
    )
    parser.add_argument(
        "--timedomain-steps",
        type=int,
        default=100_000,
        help="timestep count of the timedomain stage (0 disables it)",
    )
    parser.add_argument(
        "--suites",
        nargs="*",
        default=["none"],
        help="pytest-benchmark suites to run ('all', 'none', or file names;"
        " default none — the sweep and pipeline stages always run)",
    )
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    print(
        f"tier: {args.tier} ({cpu_count} CPU core(s) detected)",
        file=sys.stderr,
    )
    batch_models = args.batch_models
    if batch_models is None:
        # The fleet stage measures process-pool scaling, so it lives on
        # the multicore tier; `--batch-models N` still opts it into a
        # serial-tier run explicitly.
        batch_models = 8 if args.tier == "multicore" else 0

    stages: List[Dict] = []
    sweep = batch = timedomain = cache = multicore = None

    def _run_batch_stage(*, gated: bool) -> Dict:
        print(f"batch fleet ({batch_models} models)...", file=sys.stderr)
        result = run_batch_benchmark(
            models=batch_models, workers=args.batch_workers
        )
        print(
            f"  serial {result['serial_seconds']:.4f}s  process"
            f" {result['process_seconds']:.4f}s  speedup"
            f" {result['speedup']:.2f}x  ({result['workers']} workers,"
            f" max |crossing diff| {result['max_crossing_diff']:.2e})",
            file=sys.stderr,
        )
        # Gate the fleet wall-clock like any other pipeline stage; on
        # the multicore tier the stage additionally carries the
        # min_speedup floor compare.py enforces on >= 2-core hosts.
        extra = {
            "models": result["models"],
            "workers": result["workers"],
            "speedup": result["speedup"],
        }
        if gated:
            extra["min_speedup"] = 1.0
        stages.append(
            {
                "name": "batch_fleet",
                "seconds": result["process_seconds"],
                "work": None,
                "extra": extra,
            }
        )
        return result

    if args.tier == "serial":
        print(
            f"sweep benchmark: {args.sweep_points} points,"
            f" p={args.sweep_ports},"
            f" n={args.sweep_poles * args.sweep_ports}...",
            file=sys.stderr,
        )
        sweep = run_sweep_benchmark(
            points=args.sweep_points,
            num_poles=args.sweep_poles,
            ports=args.sweep_ports,
        )
        print(
            f"  looped {sweep['looped_seconds']:.4f}s  batched"
            f" {sweep['batched_seconds']:.4f}s  speedup"
            f" {sweep['speedup']:.1f}x"
            f"  (max |diff| {sweep['max_abs_diff']:.2e})",
            file=sys.stderr,
        )

        print(f"pipeline stages (scale={args.scale})...", file=sys.stderr)
        stages.extend(run_pipeline_stages(scale=args.scale, threads=args.threads))
        for stage in stages:
            print(
                f"  {stage['name']:<20} {stage['seconds']:.4f}s", file=sys.stderr
            )

        if batch_models > 0:
            batch = _run_batch_stage(gated=False)

        if args.timedomain_steps > 0:
            print(
                f"timedomain stage ({args.timedomain_steps} steps)...",
                file=sys.stderr,
            )
            timedomain = run_timedomain_benchmark(steps=args.timedomain_steps)
            print(
                f"  chunked {timedomain['chunked_seconds']:.4f}s  naive"
                f" {timedomain['naive_seconds']:.4f}s  speedup"
                f" {timedomain['speedup']:.1f}x  (max |diff|"
                f" {timedomain['max_abs_diff']:.2e})",
                file=sys.stderr,
            )
            stages.append(
                {
                    "name": "timedomain",
                    "seconds": timedomain["chunked_seconds"],
                    "work": {"timesteps": timedomain["steps"]},
                    "extra": {
                        "poles": timedomain["poles"],
                        "ports": timedomain["ports"],
                        "speedup": timedomain["speedup"],
                    },
                }
            )

        print("cache-hit stage...", file=sys.stderr)
        cache = run_cache_benchmark(scale=args.scale, threads=args.threads)
        print(
            f"  cold {cache['cold_seconds']:.4f}s  warm"
            f" {cache['warm_seconds']:.6f}s  speedup {cache['speedup']:.0f}x",
            file=sys.stderr,
        )
        stages.append(
            {
                "name": "cache_hit",
                "seconds": cache["warm_seconds"],
                "work": None,
                "extra": {
                    "cold_seconds": cache["cold_seconds"],
                    "speedup": cache["speedup"],
                    "order": cache["order"],
                },
            }
        )
    else:
        if batch_models > 0:
            batch = _run_batch_stage(gated=True)

        print(f"process-eigensweep stage (scale={args.scale})...", file=sys.stderr)
        eigensweep = run_eigensweep_backend_benchmark(scale=args.scale)
        print(
            f"  serial {eigensweep['serial_seconds']:.4f}s  process"
            f" {eigensweep['process_seconds']:.4f}s  speedup"
            f" {eigensweep['speedup']:.2f}x  (max |crossing diff|"
            f" {eigensweep['max_crossing_diff']:.2e})",
            file=sys.stderr,
        )
        stages.append(
            {
                "name": "eigensweep_process",
                "seconds": eigensweep["process_seconds"],
                "work": None,
                "extra": {
                    "workers": eigensweep["workers"],
                    "speedup": eigensweep["speedup"],
                    # Informational: spawn cost can dominate at bench
                    # scale, so no floor is enforced on this stage.
                    "min_speedup": None,
                },
            }
        )

        print("queue-drain stage (1 vs 2 workers)...", file=sys.stderr)
        queue = run_queue_drain_benchmark(scale=args.scale)
        print(
            f"  one worker {queue['one_worker_seconds']:.4f}s "
            f" {queue['workers']} workers"
            f" {queue['multi_worker_seconds']:.4f}s  speedup"
            f" {queue['speedup']:.2f}x  ({queue['jobs']} jobs)",
            file=sys.stderr,
        )
        stages.append(
            {
                "name": "queue_drain",
                "seconds": queue["multi_worker_seconds"],
                "work": {"jobs": queue["jobs"]},
                "extra": {
                    "workers": queue["workers"],
                    "speedup": queue["speedup"],
                    "min_speedup": 1.0,
                },
            }
        )
        multicore = {"eigensweep": eigensweep, "queue": queue}

    pytest_payload = run_pytest_suites(_resolve_suites(args.suites), scale=args.scale)

    payload = {
        "schema": "repro-bench-pipeline/2",
        "created_unix": time.time(),
        "tier": args.tier,
        "cpu_count": cpu_count,
        "bench_scale": args.scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pytest": {
            "version": _pytest_version(),
            "suites": pytest_payload,
        },
        "sweep": sweep,
        "stages": stages,
        "batch": batch,
        "multicore": multicore,
        "timedomain": timedomain,
        "cache": cache,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
