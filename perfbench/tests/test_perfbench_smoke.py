"""Reduced-size runs of every workload: no op may fail."""

import shutil
import subprocess
import sys
from pathlib import Path

from perfbench.service import CachedWorkload, EnforceWorkload
from perfbench.sweep import SweepWorkload

ROOT = Path(__file__).resolve().parents[2]


def _run_both(workload):
    workload.setup()
    try:
        plain = workload.run(0.01, traced=False)
        traced = workload.run(0.01, traced=True)
    finally:
        workload.close()
    return plain, traced


def test_sweep_smoke():
    plain, traced = _run_both(SweepWorkload(seed=3, scale=0.1))
    assert plain.failed == 0 and traced.failed == 0
    assert plain.attempted == traced.attempted == 9
    assert traced.layers["core.arnoldi_steps.serial"] > 0
    assert 0.0 < traced.layers["hamiltonian.apply_share.serial"] < 1.0


def test_service_enforce_smoke(scratch):
    plain, traced = _run_both(EnforceWorkload(seed=3, scratch=scratch))
    assert plain.failed == 0 and traced.failed == 0
    layers = traced.layers
    assert layers["store.hit_ratio"] == 0.0
    assert layers["core.arnoldi_steps.check"] > 0
    assert layers["vectfit.iterations"] > 0
    assert layers["obs.spans_per_job"] > 0
    assert layers["queue.attempts_per_job"] == 1


def test_service_cached_smoke(scratch):
    plain, traced = _run_both(CachedWorkload(seed=3, scratch=scratch))
    assert plain.failed == 0 and traced.failed == 0
    assert traced.layers["store.hit_ratio"] == 1.0
    assert traced.notes["operator_applies"] == 0


def test_refuses_a_directory_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        scratch / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
