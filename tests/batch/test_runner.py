"""Unit tests for the batch fleet runner."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from repro.api import Macromodel, RunConfig
from repro.batch import BatchRunner, FleetReport, SynthJob, synth_fleet
from repro.batch.jobs import BatchJob, TouchstoneJob
from repro.batch.runner import JobResult, JobSettings, _execute_job
from repro.core.sweep import preferred_mp_context
from repro.obs import trace
from repro.utils.serialization import to_jsonable


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


@dataclass(frozen=True)
class PidJob(SynthJob):
    """Test-only synth job whose source records the process that ran it."""

    def describe(self):
        return dict(super().describe(), pid=os.getpid())


def pid_fleet(count, **kwargs):
    return [
        PidJob(**{f.name: getattr(job, f.name) for f in fields(job)})
        for job in synth_fleet(count, **kwargs)
    ]


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

    def test_fleet_metrics_sum_the_job_snapshots(self):
        report = BatchRunner(backend="serial").run(
            synth_fleet(2, order_per_column=6, base_seed=50)
        )
        for result in report.results:
            assert result.metrics["timings"]["stage.check"]["count"] == 1
        assert report.metrics()["timings"]["stage.check"]["count"] == 2

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

    @pytest.mark.parametrize(
        "spelling", [{"backend": "process"}, {"strategy": "process"}]
    )
    def test_no_pool_inside_a_fleet_job(self, spelling):
        # Order 140, above PROCESS_MIN_ORDER: a nested sweep would fork.
        job = SynthJob(name="big", order_per_column=70, seed=50)
        context = trace.TraceContext(trace.new_trace_id(), trace.new_span_id())
        report = BatchRunner(
            backend="process",
            workers=1,
            config=RunConfig(num_threads=2, **spelling),
            trace=context.to_dict(),
        ).run([job])
        result = report.result("big")
        assert result.ok, result.error
        sweeps = [s for s in result.spans if s["name"] == "solve.sweep"]
        assert [s["attributes"]["strategy"] for s in sweeps] == ["queue"]
        assert not [s for s in result.spans if s["name"] == "eigensweep.dispatch"]


class TestReusedChildren:
    """Process-backend children live across jobs and end with the fleet."""

    def test_fleet_runs_in_at_most_workers_children(self):
        fleet = pid_fleet(8, order_per_column=6, base_seed=50)
        serial = BatchRunner(backend="serial", enforce=True).run(fleet)
        process = BatchRunner(backend="process", workers=2, enforce=True).run(fleet)
        assert multiprocessing.active_children() == []
        assert process.all_ok
        pids = {r.source["pid"] for r in process.results}
        assert len(pids) <= 2
        assert os.getpid() not in pids
        for a, b in zip(serial.results, process.results):
            assert a.session == b.session

    def test_timeout_replaces_the_child(self):
        first, after, later = pid_fleet(3, order_per_column=6, base_seed=50)
        sources = [first, SleepJob(name="hang", seconds=120.0), after, later]
        report = BatchRunner(backend="process", workers=1, timeout=1.5).run(sources)
        assert multiprocessing.active_children() == []
        assert report.result("hang").status == "timeout"
        pid = {r.name: r.source.get("pid") for r in report.results if r.ok}
        assert pid[first.name] != pid[after.name]
        assert pid[after.name] == pid[later.name]

    def test_death_replaces_the_child(self):
        first, after, later = pid_fleet(3, order_per_column=6, base_seed=50)
        sources = [first, ExitJob(name="dies"), after, later]
        report = BatchRunner(backend="process", workers=1).run(sources)
        assert multiprocessing.active_children() == []
        dead = report.result("dies")
        assert dead.status == "error"
        assert dead.error == "worker died without a result (exit code 3)"
        assert report.num_ok == 3
        pid = {r.name: r.source["pid"] for r in report.results if r.ok}
        assert pid[first.name] != pid[after.name]
        assert pid[after.name] == pid[later.name]


_ORPHAN_SCRIPT = """
import time
from dataclasses import dataclass
import pickle

from repro.batch.jobs import BatchJob
from repro.batch.runner import JobSettings, _JobChildren


@dataclass(frozen=True)
class Hang(BatchJob):
    def open_session(self, config):
        time.sleep(120.0)


children = _JobChildren()
idle = children.acquire()
busy = children.acquire()
busy.conn.send_bytes(pickle.dumps((Hang(name="hang"), JobSettings())))
print(idle.process.pid, busy.process.pid, flush=True)
time.sleep(120.0)
"""


def _running(pid):
    """True while ``pid`` is a live process (not gone, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists()
    or preferred_mp_context().get_start_method() != "fork",
    reason="needs /proc and the fork start method",
)
def test_idle_child_exits_when_its_parent_is_killed():
    # The busy child, forked later, inherits the idle child's pipe; the
    # idle child must see EOF anyway, and without waiting for it.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(_ORPHAN_SCRIPT)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    pids = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        idle, busy = pids
        assert _running(idle) and _running(busy)
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=30.0)
        deadline = time.monotonic() + 5.0
        while _running(idle) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(idle), "the idle child outlived its killed parent"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _reference_to_dict(result):
    """The walk over every field, session included, that ``to_dict``
    skips for the session: both must serialize to the same bytes."""
    return to_jsonable(
        {
            "name": result.name,
            "status": result.status,
            "elapsed": float(result.elapsed),
            "is_passive": result.is_passive,
            "crossings": [float(w) for w in result.crossings],
            "error": result.error,
            "session": result.session,
            "source": result.source,
            "cache_hits": int(result.cache_hits),
            "cache_misses": int(result.cache_misses),
            "energy_gain": result.energy_gain,
            "diagnostic": result.diagnostic,
            "metrics": result.metrics,
        }
    )


_JSON_NATIVE = (dict, list, str, int, float, bool, type(None))


def _json_native(node):
    if isinstance(node, dict):
        return all(isinstance(k, str) and _json_native(v) for k, v in node.items())
    if isinstance(node, list):
        return all(_json_native(item) for item in node)
    return type(node) in _JSON_NATIVE


class TestResultPayload:
    @pytest.mark.parametrize(
        "task",
        [{}, {"enforce": True}, {"hinf": True}, {"simulate": True}],
        ids=["check", "enforce", "hinf", "simulate"],
    )
    def test_session_payload_is_json_native(self, task):
        job = SynthJob(name="s", order_per_column=6, seed=50)
        settings = JobSettings(
            simulate_params={"num_steps": 512} if task.get("simulate") else None,
            **task,
        )
        result = _execute_job(job, settings)
        assert result.ok, result.error
        assert _json_native(result.session)
        assert to_jsonable(result.session) == result.session

    def test_rows_serialize_as_the_full_walk_does(self):
        runner = BatchRunner(backend="process", workers=1, enforce=True, timeout=1.5)
        report = runner.run(
            [
                SynthJob(name="ok", order_per_column=6, seed=50),
                TouchstoneJob(name="error", path="no-such.s2p"),
                SleepJob(name="timeout", seconds=60.0),
            ]
        )
        assert [r.status for r in report.results] == ["ok", "error", "timeout"]
        nan_row = JobResult(name="nan", status="ok", elapsed=0.1, energy_gain=np.nan)
        for result in report.results + [nan_row]:
            payload = result.to_dict()
            reference = _reference_to_dict(result)
            assert json.dumps(payload) == json.dumps(reference)
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                reference, sort_keys=True
            )


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
