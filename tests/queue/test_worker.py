"""QueueWorker: execution, caching, drains, and lost-lease handling."""

import threading
import time

import pytest

from repro.core.config import RunConfig
from repro.queue import JobQueue, QueueConfig, QueueWorker, parse_spec
from repro.store import ResultStore

SPEC = {"kind": "synth", "order": 6, "ports": 2, "seed": 3, "task": "check"}


@pytest.fixture()
def queue_path(tmp_path):
    return tmp_path / "queue.sqlite3"


@pytest.fixture()
def config(tmp_path):
    return RunConfig(cache="readwrite", cache_dir=str(tmp_path / "store"))


def _enqueue(queue, spec, config, job_id="job1"):
    """Enqueue exactly as the HTTP front-end does: resolved spec + key."""
    parsed = parse_spec(spec, base_config=config, job_id=job_id)
    return queue.enqueue(
        job_id=job_id,
        task=parsed.task,
        name=parsed.name,
        kind=parsed.kind,
        spec=parsed.resolved_spec(),
        key=parsed.key,
    )


def _worker(queue_path, **kwargs):
    kwargs.setdefault("backend", "serial")
    kwargs.setdefault("queue_config", QueueConfig(poll_seconds=0.02))
    return QueueWorker(queue_path, **kwargs)


class TestExecution:
    def test_executes_a_job_and_stores_the_result(self, queue_path, config):
        with JobQueue(queue_path) as queue:
            row = _enqueue(queue, SPEC, config)
            worker = _worker(queue_path, max_jobs=1)
            assert worker.run() == 1
            done = queue.get(row.id)
            assert done.state == "done"
            assert done.cached is False
            assert done.result["status"] == "ok"
            assert done.attempts == 1
            # The result went to the content-addressed store BEFORE the
            # ack — a resubmission can short-circuit immediately.
            store = ResultStore.from_config(config)
            assert store.get(row.key) is not None

    def test_unparseable_spec_is_an_error_not_a_retry_loop(self, queue_path):
        with JobQueue(queue_path) as queue:
            queue.enqueue(
                job_id="bad",
                task="check",
                name="bad",
                kind="synth",
                spec={"kind": "no-such-kind"},
            )
            worker = _worker(queue_path, max_jobs=1)
            assert worker.run() == 1
            row = queue.get("bad")
            assert row.state == "error"
            assert "unparseable spec" in row.error
            assert row.attempts == 1  # terminal on the first attempt

    def test_prewarmed_store_short_circuits(self, queue_path, config):
        parsed = parse_spec(SPEC, base_config=config, job_id="warm")
        store = ResultStore.from_config(config)
        store.put(parsed.key, {"status": "ok", "warmed": True}, stage="service-job")
        with JobQueue(queue_path) as queue:
            _enqueue(queue, SPEC, config, job_id="warm")
            worker = _worker(queue_path, max_jobs=1)
            started = time.time()
            assert worker.run() == 1
            assert time.time() - started < 5.0
            row = queue.get("warm")
            assert row.state == "done"
            assert row.cached is True
            assert row.result["warmed"] is True

    def test_cache_off_jobs_skip_the_store(self, queue_path, tmp_path):
        config = RunConfig(cache="off", cache_dir=str(tmp_path / "store"))
        with JobQueue(queue_path) as queue:
            row = _enqueue(queue, SPEC, config)
            worker = _worker(queue_path, max_jobs=1)
            assert worker.run() == 1
            assert queue.get(row.id).state == "done"
        assert not (tmp_path / "store").exists()


class TestDrain:
    def test_stop_before_run_exits_immediately(self, queue_path, config):
        with JobQueue(queue_path) as queue:
            _enqueue(queue, SPEC, config)
            worker = _worker(queue_path)
            worker.request_stop()
            assert worker.stopping is True
            assert worker.run() == 0
            assert queue.get("job1").state == "queued"  # untouched

    def test_drain_finishes_the_leased_job(self, queue_path, config):
        """SIGTERM semantics: stop mid-run, the in-flight job still acks."""
        with JobQueue(queue_path) as queue:
            row = _enqueue(queue, SPEC, config)
            worker = _worker(queue_path)
            thread = threading.Thread(target=worker.run)
            thread.start()
            # Wait for the claim, then request the drain while the job runs.
            deadline = time.time() + 30.0
            while queue.get(row.id).state == "queued":
                assert time.time() < deadline, "worker never claimed"
                time.sleep(0.01)
            worker.request_stop()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            assert queue.get(row.id).state == "done"
            assert worker.jobs_done == 1

    def test_idle_exit_disbands_an_empty_fleet(self, queue_path):
        worker = _worker(queue_path, idle_seconds=0.1)
        started = time.time()
        assert worker.run() == 0
        assert time.time() - started < 30.0

    def test_worker_registry_reflects_the_lifecycle(self, queue_path, config):
        with JobQueue(queue_path) as queue:
            _enqueue(queue, SPEC, config)
            worker = _worker(queue_path, worker_id="w-test", max_jobs=1)
            worker.run()
            (registered,) = [
                w for w in queue.workers() if w["id"] == "w-test"
            ]
            assert registered["state"] == "stopped"
            assert registered["jobs_done"] == 1


class TestWakeUps:
    """An idle worker waits on the queue's change notifier, not a timer.

    Every worker here polls only every 5 s, so each bound below holds
    only if a wake-up ends the wait.
    """

    def _idle_worker(self, queue_path):
        worker = _worker(queue_path, queue_config=QueueConfig(poll_seconds=5.0))
        claims = []
        claim = worker.queue.claim

        def counted_claim(*args, **kwargs):
            row = claim(*args, **kwargs)
            claims.append(row)
            return row

        worker.queue.claim = counted_claim
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while not claims:
            assert time.monotonic() < deadline, "worker never polled"
            time.sleep(0.005)
        return worker, thread, claims

    @staticmethod
    def _stop(worker, thread):
        worker.request_stop()
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_claims_work_enqueued_through_another_handle(
        self, queue_path, config
    ):
        worker, thread, claims = self._idle_worker(queue_path)
        try:
            with JobQueue(queue_path) as queue:
                enqueued_at = time.monotonic()
                _enqueue(queue, SPEC, config)
                while not any(row is not None for row in claims):
                    assert time.monotonic() - enqueued_at < 30.0
                    time.sleep(0.005)
                assert time.monotonic() - enqueued_at < 0.5
        finally:
            self._stop(worker, thread)

    def test_stop_ends_an_idle_worker(self, queue_path):
        worker, thread, _ = self._idle_worker(queue_path)
        started = time.monotonic()
        self._stop(worker, thread)
        assert time.monotonic() - started < 0.5

    def test_cached_enqueue_does_not_wake_an_idle_worker(
        self, queue_path, config
    ):
        worker, thread, claims = self._idle_worker(queue_path)
        try:
            with JobQueue(queue_path) as queue:
                parsed = parse_spec(SPEC, base_config=config, job_id="hit")
                queue.enqueue(
                    job_id="hit",
                    task=parsed.task,
                    name=parsed.name,
                    kind=parsed.kind,
                    spec=parsed.resolved_spec(),
                    key=parsed.key,
                    cached_result={"status": "ok"},
                )
                time.sleep(0.5)
            assert claims == [None]
        finally:
            self._stop(worker, thread)


class TestValidation:
    def test_rejects_unknown_backend(self, queue_path):
        with pytest.raises(ValueError, match="backend"):
            QueueWorker(queue_path, backend="quantum")

    def test_rejects_nonpositive_timeout(self, queue_path):
        with pytest.raises(ValueError, match="timeout"):
            QueueWorker(queue_path, timeout=0.0)
