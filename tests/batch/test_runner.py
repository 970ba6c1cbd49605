"""Unit tests for the batch fleet runner."""

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api import Macromodel, RunConfig
from repro.batch import BatchRunner, FleetReport, SynthJob, synth_fleet
from repro.batch.jobs import BatchJob, TouchstoneJob
from repro.batch.runner import _execute_job, JobSettings


@dataclass(frozen=True)
class SleepJob(BatchJob):
    """Test-only job that hangs, to exercise the timeout kill path."""

    seconds: float = 60.0

    def open_session(self, config):
        time.sleep(self.seconds)
        raise AssertionError("the sleep should have been terminated")


@dataclass(frozen=True)
class ExitJob(BatchJob):
    """Test-only job whose worker process dies without sending a result."""

    code: int = 3

    def open_session(self, config):
        os._exit(self.code)


@pytest.fixture(scope="module")
def small_fleet():
    return synth_fleet(3, order_per_column=6, base_seed=50)


class TestSerialBackend:
    def test_all_ok_in_input_order(self, small_fleet):
        report = BatchRunner(backend="serial").run(small_fleet)
        assert isinstance(report, FleetReport)
        assert report.all_ok
        assert [r.name for r in report.results] == [j.name for j in small_fleet]
        assert report.backend == "serial"

    def test_results_carry_crossings_and_payload(self, small_fleet):
        report = BatchRunner(backend="serial").run(small_fleet)
        for result in report.results:
            assert result.is_passive is not None
            assert result.session is not None
            assert result.source["kind"] == "synth"
        json.dumps(report.to_dict())

    def test_error_capture_does_not_sink_fleet(self, small_fleet):
        sources = [TouchstoneJob(name="missing", path="no-such.s2p")]
        sources += list(small_fleet)
        report = BatchRunner(backend="serial").run(sources)
        assert report.num_failed == 1
        assert report.num_ok == len(small_fleet)
        bad = report.result("missing")
        assert bad.status == "error"
        assert "missing" not in report.crossings_by_name()

    def test_enforce_stage(self):
        report = BatchRunner(backend="serial", enforce=True).run(
            synth_fleet(1, order_per_column=6, base_seed=50)
        )
        (result,) = report.results
        assert result.ok
        assert result.is_passive  # violating model was repaired
        assert result.crossings  # pre-enforcement fingerprint retained

    def test_serial_budget_overrun_relabelled(self, small_fleet):
        # A microscopic budget: every job completes but is re-labelled.
        report = BatchRunner(backend="serial", timeout=1e-6).run(small_fleet)
        assert all(r.status == "timeout" for r in report.results)
        assert "cannot interrupt" in report.results[0].error
        assert all(r.elapsed > 0 for r in report.results)

    def test_summary_readable(self, small_fleet):
        text = BatchRunner(backend="serial").run(small_fleet).summary()
        assert "3 jobs" in text
        for job in small_fleet:
            assert job.name in text


class TestProcessBackend:
    def test_matches_serial_exactly(self, small_fleet):
        serial = BatchRunner(backend="serial").run(small_fleet)
        process = BatchRunner(backend="process", workers=2).run(small_fleet)
        assert process.all_ok
        assert process.backend == "process"
        a = serial.crossings_by_name()
        b = process.crossings_by_name()
        assert set(a) == set(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_timeout_terminates_worker(self, small_fleet):
        sources = [SleepJob(name="hang", seconds=120.0)] + list(small_fleet)
        started = time.perf_counter()
        report = BatchRunner(
            backend="process", workers=2, timeout=1.5
        ).run(sources)
        wall = time.perf_counter() - started
        assert wall < 60.0, "the hung worker was not terminated"
        hung = report.result("hang")
        assert hung.status == "timeout"
        assert "terminated" in hung.error
        assert report.num_ok == len(small_fleet)

    def test_worker_death_without_a_result_is_reaped(self, small_fleet):
        # No deadline: only the exit itself can end the reaper's wait.
        sources = [ExitJob(name="dies")] + list(small_fleet)
        report = BatchRunner(backend="process", workers=2).run(sources)
        dead = report.result("dies")
        assert dead.status == "error"
        assert "died without a result (exit code 3)" in dead.error
        assert report.num_ok == len(small_fleet)

    def test_worker_crash_reported(self, small_fleet):
        @dataclass(frozen=True)
        class _Local(BatchJob):
            pass

        # A job class defined inside the test function cannot be pickled
        # by reference: the runner must surface an error row, not hang
        # or raise.
        sources = [_Local(name="unpicklable")] + list(small_fleet)
        report = BatchRunner(backend="process", workers=2).run(sources)
        bad = report.result("unpicklable")
        assert bad.status == "error"
        assert "picklable" in bad.error
        assert report.num_ok == len(small_fleet)

    def test_nested_process_backend_downgraded(self):
        job = SynthJob(name="s", order_per_column=6, seed=50)
        settings = JobSettings(
            config=RunConfig(num_threads=2, backend="process"),
            in_process_pool=True,
        )
        result = _execute_job(job, settings)
        assert result.ok
        # The inner sweep ran on the auto backend (thread queue), not a
        # nested process pool.
        assert result.session["config"]["backend"] == "auto"


class TestThreadBackend:
    def test_runs_fleet(self, small_fleet):
        report = BatchRunner(backend="thread", workers=2).run(small_fleet)
        assert report.all_ok
        assert report.backend == "thread"


class TestValidation:
    def test_bad_backend(self):
        with pytest.raises(ValueError, match="batch backend"):
            BatchRunner(backend="gpu")

    def test_bad_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            BatchRunner(timeout=0.0)

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            BatchRunner(workers=0)


class TestFacadeMap:
    def test_map_runs_fleet(self, small_fleet):
        report = Macromodel.map(small_fleet, backend="serial")
        assert report.all_ok

    def test_map_accepts_models(self):
        from repro.synth import random_macromodel

        model = random_macromodel(6, 2, seed=9, sigma_target=0.9)
        report = Macromodel.map([model], backend="serial")
        assert report.all_ok
        assert report.results[0].is_passive
