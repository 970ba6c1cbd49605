#!/usr/bin/env python3
"""Run one workload of the repro benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Workloads: ``sweep`` (library solves of Table I substitutes under three
sweep drivers), ``service_enforce`` (fit/check/enforce jobs through the
HTTP service) and ``service_cached`` (resubmissions answered from the
result store).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` spends half the time untraced and half traced, and prints
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON report with the environment, sample counts and
percentiles, and (traced) the end-to-end metric each per-layer metric
should move.

The program is imported from ``src/`` of the same checkout.  A directory
without it is refused with exit code 2.
"""

import os
import sys

# One BLAS/OpenMP thread per process, set before numpy loads so that this
# process and every worker it forks inherit it.  Unpinned, the 2-thread
# and 2-process sweeps oversubscribe a 2-core host: a pass over three
# n = 300 Table I models swung 74-99 s between runs (31-33 s pinned), and
# one process-backend solve 2.7-11.5 s.
BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run unless a workload sets ``setup_repeats``; ``setup_s``
#: is their median, and the last set-up is the one measured.
SETUP_REPEATS = 3

WORKLOAD_NAMES = ("sweep", "service_enforce", "service_cached")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, scratch: Path):
    from perfbench.service import CachedWorkload, EnforceWorkload
    from perfbench.sweep import SweepWorkload

    if name == "sweep":
        return SweepWorkload(seed)
    if name == "service_enforce":
        return EnforceWorkload(seed, scratch)
    return CachedWorkload(seed, scratch)


def environment(seed: int) -> dict:
    import numpy

    from repro.obs.trace import tracing_enabled

    return {
        "blas_pin": {name: os.environ.get(name) for name in BLAS_PIN},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_TRACE": os.environ.get("REPRO_TRACE", "(unset: default on)"),
        "tracing_enabled": tracing_enabled(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(measured, setup_times) -> dict:
    from perfbench.stats import hd_median, median

    return {
        "setup_s": median(setup_times),
        "wall_s": hd_median(measured.pass_walls),
        "throughput_ops_s": measured.attempted / measured.busy_s,
        "latency_p50_s": hd_median(measured.latencies),
        "ops_ok_share": 1.0 - measured.failed / measured.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def measure(args, scratch: Path):
    """Set up, measure, tear down; returns (kind, values, parts, setups)."""
    from perfbench.stats import hd_median

    workload = make_workload(args.workload, args.seed, scratch)
    setup_times = []
    try:
        for _ in range(getattr(workload, "setup_repeats", SETUP_REPEATS)):
            workload.close()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
        if not args.trace:
            measured = workload.run(args.seconds, traced=False)
            values = end_to_end(measured, setup_times)
            return "end_to_end", values, [measured], setup_times
        base = workload.run(args.seconds / 2.0, traced=False)
        traced = workload.run(args.seconds / 2.0, traced=True)
    finally:
        workload.close()
    values = dict(traced.layers)
    values["obs.bench_trace_overhead"] = (
        hd_median(traced.pass_walls) / hd_median(base.pass_walls) - 1.0
    )
    return "per_layer", values, [base, traced], setup_times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be > 0, --seed >= 0", file=sys.stderr)
        return 2
    # Import the program from this checkout, and this package by its
    # qualified name (not through the script's own directory).
    sys.path[:] = [str(SRC), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE
    ]
    from perfbench import metrics
    from perfbench.stats import summarize

    scratch = ROOT / ".perfbench_tmp" / uuid.uuid4().hex[:8]
    scratch.mkdir(parents=True)
    try:
        kind, values, parts, setup_times = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(part.attempted for part in parts)
    failed = sum(part.failed for part in parts)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "timings": {
            "setup_s": summarize(setup_times),
            "latency_s": [summarize(part.latencies) for part in parts],
            "wall_s": [summarize(part.pass_walls) for part in parts],
        },
        "notes": [part.notes for part in parts],
    }
    if args.trace:
        report["targets"] = metrics.targets()
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics.emit(kind, values),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
