"""Unit tests for the process-pool sweep (``backend="process"``)."""

import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro.core import sweep
from repro.core.options import SolverOptions
from repro.core.solver import solve
from repro.core.sweep import (
    ENV_MIN_ORDER,
    PROCESS_MIN_ORDER,
    select_process_execution,
)
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.macromodel.realization import pole_residue_to_simo
from repro.obs import trace
from repro.synth import random_macromodel

#: Failure injection patches the parent's module before the pool forks;
#: only forked workers inherit the patch.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="failure injection relies on fork-inherited patches",
)


def solve_process(model, **overrides):
    return solve(model, backend="process", **overrides)


@pytest.fixture(scope="module")
def violating_simo():
    return pole_residue_to_simo(random_macromodel(12, 3, seed=31, sigma_target=1.1))


@pytest.fixture
def force_pool(monkeypatch):
    """Force the real process pool even for tiny test models."""
    monkeypatch.setenv(ENV_MIN_ORDER, "1")


class TestSelectExecution:
    def test_single_worker_runs_inline(self):
        assert select_process_execution(10_000, 1) == "inline"

    def test_small_model_falls_back_to_threads(self):
        assert select_process_execution(PROCESS_MIN_ORDER - 1, 4) == "thread"

    def test_large_model_uses_the_pool(self):
        assert select_process_execution(PROCESS_MIN_ORDER, 4) == "process"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_MIN_ORDER, "5")
        assert select_process_execution(5, 4) == "process"

    def test_malformed_env_raises_config_error(self, monkeypatch):
        from repro.core.config import ConfigError

        monkeypatch.setenv(ENV_MIN_ORDER, "bogus")
        with pytest.raises(ConfigError, match=ENV_MIN_ORDER):
            select_process_execution(5, 4)


class TestCorrectness:
    @pytest.mark.parametrize("num_threads", [2, 3])
    def test_matches_dense(self, violating_simo, num_threads, force_pool):
        truth = imaginary_eigenvalues_dense(violating_simo)
        result = solve_process(violating_simo, num_threads=num_threads)
        assert result.strategy == "process"
        assert result.num_crossings == truth.size
        np.testing.assert_allclose(np.sort(result.omegas), truth, atol=1e-5)

    def test_matches_serial(self, violating_simo, force_pool):
        serial = solve(violating_simo, strategy="bisection")
        process = solve_process(violating_simo, num_threads=3)
        np.testing.assert_allclose(
            np.sort(process.omegas), np.sort(serial.omegas), atol=1e-6
        )

    def test_band_covered(self, violating_simo, force_pool):
        result = solve_process(violating_simo, num_threads=3)
        assert result.coverage_gaps() == []

    def test_work_counters_aggregate_across_shards(self, violating_simo, force_pool):
        """Every remote shift's work reaches the caller exactly once, even
        with more slots than cores and a tiny switch interval."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = solve_process(violating_simo, num_threads=4)
        finally:
            sys.setswitchinterval(interval)
        serial = solve(violating_simo, strategy="bisection")

        def outside_shifts(res):  # the band estimate's operator applies
            return res.work["operator_applies"] - sum(
                record.result.applies for record in res.shifts
            )

        assert result.work["shifts_processed"] == len(result.shifts)
        assert outside_shifts(result) == outside_shifts(serial) > 0

    def test_record_indices_unique_and_sorted(self, violating_simo, force_pool):
        # Records stay in completion order, as on every executor.
        result = solve_process(violating_simo, num_threads=3)
        indices = [record.index for record in result.shifts]
        assert len(indices) == len(set(indices))
        # Every worker slot ran at least one shift.
        assert {record.worker for record in result.shifts} == {0, 1, 2}

    def test_passive_model(self, force_pool):
        simo = pole_residue_to_simo(
            random_macromodel(10, 2, seed=32, sigma_target=0.9)
        )
        result = solve_process(simo, num_threads=2)
        assert result.is_passive_candidate


class TestFallbacks:
    def test_single_worker_runs_without_pool(self, violating_simo):
        result = solve_process(violating_simo, num_threads=1)
        assert result.strategy == "process"
        assert result.num_threads == 1
        assert result.coverage_gaps() == []

    def test_small_model_delegates_to_thread_driver(self, violating_simo):
        # Default threshold far above this model's order.
        assert violating_simo.order < PROCESS_MIN_ORDER
        result = solve_process(violating_simo, num_threads=2)
        assert result.strategy == "queue"

    def test_fallback_matches_serial(self, violating_simo):
        serial = solve(violating_simo, strategy="bisection")
        fallback = solve_process(violating_simo, num_threads=2)
        np.testing.assert_allclose(
            np.sort(fallback.omegas), np.sort(serial.omegas), atol=1e-6
        )


@needs_fork
class TestFailures:
    def test_shift_error_in_worker_keeps_its_type(
        self, violating_simo, force_pool, monkeypatch
    ):
        """A shift that raises inside a pool worker surfaces unchanged and
        is not taken for a broken pool: the threads, where the injected
        failure does not fire, never run."""
        parent = os.getpid()
        real = sweep.run_segment

        def fail_in_worker(*args):
            if os.getpid() != parent:
                raise FloatingPointError("injected shift failure")
            return real(*args)

        monkeypatch.setattr(sweep, "run_segment", fail_in_worker)
        with pytest.raises(FloatingPointError, match="injected"):
            solve_process(violating_simo, num_threads=2)

    def test_broken_pool_mid_sweep_falls_back_to_threads(
        self, violating_simo, force_pool, monkeypatch
    ):
        """A worker dies on its second shift, after the first ones have
        completed: the sweep reruns on threads and still covers the band."""
        parent = os.getpid()
        real = sweep.run_segment
        shifts_run = []  # each forked worker appends to its own copy

        def die_on_second_shift(*args):
            if os.getpid() != parent:
                shifts_run.append(None)
                if len(shifts_run) > 1:
                    os._exit(1)
            return real(*args)

        monkeypatch.setattr(sweep, "run_segment", die_on_second_shift)
        result = solve_process(violating_simo, num_threads=2)
        assert result.shifts_processed > 2  # so a worker reached a 2nd shift
        assert result.strategy == "queue"
        assert result.coverage_gaps() == []


class TestDeterminism:
    def test_seeded_runs_identical(self, violating_simo, force_pool):
        """Same seed, same crossings; like the thread slots, the schedule
        follows completion order, so shift indices may differ."""
        options = SolverOptions(seed=42)
        a = solve_process(violating_simo, num_threads=2, options=options)
        b = solve_process(violating_simo, num_threads=2, options=options)
        np.testing.assert_allclose(np.sort(a.omegas), np.sort(b.omegas), atol=1e-8)


class TestTrace:
    def test_remote_shifts_recorded_under_dispatch(self, violating_simo, force_pool):
        root = trace.TraceContext(trace_id=trace.new_trace_id(), span_id="caller")
        with trace.activate(root) as spans:
            result = solve_process(violating_simo, num_threads=2)
        assert {span["trace_id"] for span in spans} == {root.trace_id}
        (solve_span,) = [s for s in spans if s["name"] == "solve.sweep"]
        (dispatch,) = [s for s in spans if s["name"] == "eigensweep.dispatch"]
        assert dispatch["parent_id"] == solve_span["span_id"]
        shards = [s for s in spans if s["name"] == "eigensweep.shard"]
        assert {s["parent_id"] for s in shards} == {dispatch["span_id"]}
        assert sorted(
            (s["attributes"]["segment"], s["attributes"]["worker"]) for s in shards
        ) == sorted((record.index, record.worker) for record in result.shifts)
