"""JobQueue: atomic claims, leases, guarded acks, admin operations."""

import sqlite3
import threading
import time

import pytest

from repro.queue import JOB_STATES, TERMINAL_STATES, JobQueue


@pytest.fixture()
def queue(tmp_path):
    q = JobQueue(tmp_path / "queue.sqlite3")
    yield q
    q.close()


def _enqueue(queue, job_id, **overrides):
    fields = dict(
        job_id=job_id,
        task="check",
        name=f"check-{job_id}",
        kind="synth",
        spec={"kind": "synth", "order": 6, "seed": int(job_id[-1], 36)},
        key=f"key-{job_id}",
    )
    fields.update(overrides)
    return queue.enqueue(**fields)


class TestEnqueueAndClaim:
    def test_enqueue_returns_the_stored_row(self, queue):
        row = _enqueue(queue, "a1")
        assert row.id == "a1"
        assert row.state == "queued"
        assert row.attempts == 0
        assert row.spec["order"] == 6
        assert not row.terminal
        assert row.status == row.state

    def test_claim_is_fifo_and_stamps_the_lease(self, queue):
        _enqueue(queue, "a1")
        _enqueue(queue, "a2")
        first = queue.claim("w1", lease_seconds=60.0)
        assert first.id == "a1"
        assert first.state == "running"
        assert first.worker == "w1"
        assert first.attempts == 1
        assert first.lease_expires is not None
        second = queue.claim("w1")
        assert second.id == "a2"
        assert queue.claim("w1") is None

    def test_two_connections_never_claim_the_same_job(self, queue, tmp_path):
        # Two JobQueue handles over the same file (as two worker
        # processes would hold), racing claims from threads.
        for i in range(20):
            _enqueue(queue, f"j{i:02d}")
        other = JobQueue(tmp_path / "queue.sqlite3")
        claimed, start = [], threading.Barrier(2)

        def drain(q, worker):
            start.wait()
            while True:
                row = q.claim(worker, lease_seconds=60.0)
                if row is None:
                    return
                claimed.append(row.id)

        threads = [
            threading.Thread(target=drain, args=(queue, "w1")),
            threading.Thread(target=drain, args=(other, "w2")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        other.close()
        assert sorted(claimed) == [f"j{i:02d}" for i in range(20)]
        assert len(set(claimed)) == 20  # no double-claims

    def test_begin_immediate_fallback_claims_identically(self, queue):
        # Force the pre-3.35 path: same guarded flip, no RETURNING.
        queue._returning = False
        _enqueue(queue, "a1")
        _enqueue(queue, "a2")
        row = queue.claim("w1")
        assert row.id == "a1" and row.state == "running"
        assert row.worker == "w1" and row.attempts == 1
        assert queue.claim("w1").id == "a2"
        assert queue.claim("w1") is None

    def test_cached_result_rows_are_born_done(self, queue):
        row = _enqueue(queue, "a1", cached_result={"status": "ok"})
        assert row.state == "done"
        assert row.cached is True
        assert row.result == {"status": "ok"}
        assert queue.claim("w1") is None  # nothing runnable


class TestLeases:
    def test_heartbeat_extends_only_while_owned(self, queue):
        _enqueue(queue, "a1")
        row = queue.claim("w1", lease_seconds=30.0)
        assert queue.heartbeat(row.id, "w1", lease_seconds=30.0) is True
        assert queue.heartbeat(row.id, "imposter") is False
        assert queue.owns(row.id, "w1") is True
        assert queue.owns(row.id, "imposter") is False

    def test_expired_lease_requeues_then_fails(self, queue):
        _enqueue(queue, "a1", max_attempts=2)
        first = queue.claim("w1", lease_seconds=0.0)
        assert first.attempts == 1
        # The lease is already expired; the next claim reclaims and
        # immediately re-claims the job for the new worker.
        second = queue.claim("w2", lease_seconds=0.0)
        assert second.id == "a1"
        assert second.worker == "w2"
        assert second.attempts == 2
        # Attempts are exhausted: the next reclaim fails it terminally,
        # recording who was last seen holding it.
        assert queue.claim("w3") is None
        row = queue.get("a1")
        assert row.state == "failed"
        assert row.worker is None
        assert "lease expired after 2 attempt(s)" in row.error
        assert "w2" in row.error

    def test_live_leases_are_not_reclaimed(self, queue):
        _enqueue(queue, "a1")
        queue.claim("w1", lease_seconds=3600.0)
        assert queue.reclaim_expired() == 0
        assert queue.get("a1").state == "running"


class TestAck:
    def test_ack_records_the_outcome(self, queue):
        _enqueue(queue, "a1")
        row = queue.claim("w1")
        before = row.version
        assert queue.ack(row.id, "w1", state="done", result={"x": 1}) is True
        row = queue.get("a1")
        assert row.state == "done"
        assert row.result == {"x": 1}
        assert row.worker is None
        assert row.finished is not None
        assert row.version > before

    def test_zombie_worker_cannot_overwrite(self, queue):
        """The exactly-once guarantee: a reclaimed worker's ack bounces."""
        _enqueue(queue, "a1", max_attempts=5)
        queue.claim("w1", lease_seconds=0.0)  # w1's lease dies instantly
        queue.claim("w2", lease_seconds=3600.0)  # reclaim hands it to w2
        assert queue.ack("a1", "w1", state="done", result={"from": "w1"}) is False
        assert queue.ack("a1", "w2", state="done", result={"from": "w2"}) is True
        assert queue.get("a1").result == {"from": "w2"}
        # ... and a second ack from anyone is too late.
        assert queue.ack("a1", "w2", state="error", error="again") is False

    def test_ack_rejects_non_terminal_states(self, queue):
        _enqueue(queue, "a1")
        queue.claim("w1")
        with pytest.raises(ValueError, match="ack state"):
            queue.ack("a1", "w1", state="queued")

    def test_release_requeues_without_an_outcome(self, queue):
        _enqueue(queue, "a1")
        row = queue.claim("w1")
        assert queue.release(row.id, "w1") is True
        fresh = queue.get("a1")
        assert fresh.state == "queued"
        assert fresh.attempts == 1  # the attempt stays counted
        assert queue.release("a1", "w1") is False  # no longer owned


class TestAdmin:
    def test_retry_requeues_only_terminal_jobs(self, queue):
        _enqueue(queue, "a1")
        queue.claim("w1")
        assert queue.retry("a1") is False  # running → untouchable
        queue.ack("a1", "w1", state="error", error="boom")
        assert queue.retry("a1") is True
        row = queue.get("a1")
        assert row.state == "queued"
        assert row.attempts == 0 and row.error is None and row.result is None
        assert queue.retry("missing") is False

    def test_purge_deletes_one_terminal_state(self, queue):
        for i, state in enumerate(("error", "error", "done")):
            _enqueue(queue, f"a{i}")
            queue.claim("w1")
            queue.ack(f"a{i}", "w1", state=state)
        _enqueue(queue, "live")
        assert queue.purge("error") == 2
        assert queue.get("a2").state == "done"
        assert queue.get("live").state == "queued"
        with pytest.raises(ValueError, match="terminal"):
            queue.purge("queued")

    def test_list_filters_and_orders_newest_first(self, queue):
        _enqueue(queue, "a1")
        _enqueue(queue, "a2", task="simulate")
        _enqueue(queue, "a3")
        assert [r.id for r in queue.list()] == ["a3", "a2", "a1"]
        assert [r.id for r in queue.list(task="simulate")] == ["a2"]
        assert [r.id for r in queue.list(state="queued", limit=1)] == ["a3"]
        with pytest.raises(ValueError, match="unknown state"):
            queue.list(state="pending")


class TestEvents:
    def test_wait_for_version_returns_on_transition(self, queue):
        _enqueue(queue, "a1")
        row = queue.get("a1")

        def finish():
            claimed = queue.claim("w1")
            queue.ack(claimed.id, "w1", state="done", result={})

        timer = threading.Timer(0.1, finish)
        timer.start()
        try:
            fresh = queue.wait_for_version(
                "a1", since=row.version, timeout=30.0, poll=0.01
            )
        finally:
            timer.join()
        assert fresh.version > row.version

    def test_wait_for_version_times_out_with_current_row(self, queue):
        _enqueue(queue, "a1")
        row = queue.get("a1")
        same = queue.wait_for_version(
            "a1", since=row.version, timeout=0.05, poll=0.01
        )
        assert same.version == row.version

    def test_terminal_rows_return_immediately(self, queue):
        _enqueue(queue, "a1", cached_result={"status": "ok"})
        row = queue.get("a1")
        # since == current version would normally block, but a terminal
        # row will never change again — no point waiting.
        assert (
            queue.wait_for_version("a1", since=row.version, timeout=30.0).id
            == "a1"
        )

    def test_unknown_id_is_none(self, queue):
        assert queue.wait_for_version("nope", timeout=0.0) is None

    def test_claim_through_another_handle_ends_the_wait(self, queue, tmp_path):
        # Same file, same process: the shared notifier wakes the waiter
        # long before its 5 s poll would.
        _enqueue(queue, "a1")
        row = queue.get("a1")
        other = JobQueue(tmp_path / "queue.sqlite3")
        claimed_at = []

        def claim():
            other.claim("w2")
            claimed_at.append(time.monotonic())

        timer = threading.Timer(0.1, claim)
        timer.start()
        try:
            fresh = queue.wait_for_version(
                "a1", since=row.version, timeout=30.0, poll=5.0
            )
            returned_at = time.monotonic()
        finally:
            timer.join()
            other.close()
        assert fresh.state == "running"
        assert returned_at - claimed_at[0] < 0.5

    def test_write_without_a_notifier_is_seen_within_the_poll(
        self, queue, tmp_path
    ):
        # A bare sqlite3 connection wakes nobody, like a worker in
        # another process: the waiter finds its write by re-reading.
        _enqueue(queue, "a1")
        row = queue.get("a1")
        generation = queue.generation
        written_at = []

        def bump_version():
            conn = sqlite3.connect(str(tmp_path / "queue.sqlite3"))
            try:
                with conn:
                    conn.execute(
                        "UPDATE jobs SET version = version + 1 WHERE id = 'a1'"
                    )
            finally:
                conn.close()
            written_at.append(time.monotonic())

        poll = 0.25
        timer = threading.Timer(0.1, bump_version)
        timer.start()
        try:
            fresh = queue.wait_for_version(
                "a1", since=row.version, timeout=30.0, poll=poll
            )
            returned_at = time.monotonic()
        finally:
            timer.join()
        assert fresh.version == row.version + 1
        assert queue.generation == generation
        assert returned_at - written_at[0] < poll + 0.25


class TestWakeUps:
    def test_which_writes_wake_waiters(self, queue, tmp_path):
        other = JobQueue(tmp_path / "queue.sqlite3")
        try:

            def wakes(action) -> bool:
                before = other.generation
                action()
                return other.generation != before

            # A cached row is born done: no worker must claim it.
            assert not wakes(
                lambda: _enqueue(queue, "c1", cached_result={"status": "ok"})
            )
            assert wakes(lambda: _enqueue(queue, "a1"))
            assert wakes(lambda: queue.claim("w1"))
            assert wakes(lambda: queue.release("a1", "w1"))
            queue.claim("w1")
            # The ack commits the job's trace with its state, so it
            # wakes waiters; a bare span write wakes nobody.
            assert wakes(
                lambda: queue.ack("a1", "w1", state="done", result={})
            )
            assert not wakes(
                lambda: queue.record_spans(
                    [
                        {
                            "trace_id": "t1",
                            "span_id": "s1",
                            "name": "job",
                            "start": 0.0,
                            "duration": 1.0,
                        }
                    ],
                    job_id="a1",
                )
            )
            assert wakes(queue.notify_change)
            assert wakes(lambda: queue.retry("a1"))
            queue.claim("w1", lease_seconds=0.0)
            assert wakes(queue.reclaim_expired)
            # Operations that change no row wake nobody.
            queue.claim("w1")
            assert not wakes(lambda: queue.claim("w2"))
            assert not wakes(lambda: queue.release("a1", "w2"))
            assert not wakes(lambda: queue.ack("a1", "w2", state="done"))
            assert not wakes(lambda: queue.retry("a1"))
        finally:
            other.close()


def _span(name, *, start, parent_id="a1", span_id=None, **attributes):
    return {
        "trace_id": "t" * 32,
        "span_id": span_id or f"s-{name}",
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "duration": 0.001,
        "attributes": attributes,
    }


class TestTraceCommit:
    def test_ack_commits_the_spans_under_a_job_root(self, queue):
        _enqueue(queue, "a1", trace_id="t" * 32)
        queue.claim("w1")
        attempt = _span("worker.attempt", start=time.time())
        assert queue.ack("a1", "w1", state="done", result={}, spans=[attempt])
        row = queue.get("a1")
        document = queue.trace("a1")
        assert document["status"] == "done"
        (root,) = document["tree"]
        assert (root["name"], root["span_id"]) == ("job", "a1")
        assert root["attributes"] == {
            "job_id": "a1",
            "task": "check",
            "state": "done",
            "cached": False,
            "attempts": 1,
        }
        # The root runs from submission to the ack's commit.
        assert root["start"] == row.submitted
        assert 0.0 <= root["start"] + root["duration"] - row.finished < 1.0
        children = {child["name"]: child for child in root["children"]}
        assert set(children) == {"queue.wait", "queue.ack", "worker.attempt"}
        assert children["queue.wait"]["duration"] == (
            row.started - row.submitted
        )
        assert children["queue.ack"]["attributes"] == {"state": "done"}

    def test_no_spans_and_lost_acks_write_no_trace(self, queue):
        _enqueue(queue, "a1")
        _enqueue(queue, "a2")
        queue.claim("w1")
        queue.claim("w1")
        # spans=None is tracing off; an ack by a non-owner is refused.
        assert queue.ack("a1", "w1", state="done", result={})
        assert not queue.ack(
            "a2", "w2", state="done", spans=[_span("x", start=1.0)]
        )
        assert queue.trace_spans(job_id="a1") == []
        assert queue.trace_spans(job_id="a2") == []

    def test_a_failed_trace_write_rolls_the_ack_back(self, queue, monkeypatch):
        _enqueue(queue, "a1")
        queue.claim("w1")

        def broken(*args, **kwargs):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(queue, "_write_trace", broken)
        with pytest.raises(sqlite3.OperationalError):
            queue.ack("a1", "w1", state="done", result={}, spans=[])
        assert queue.get("a1").state == "running"

    def test_unencodable_spans_are_dropped_not_raised(self, queue, caplog):
        _enqueue(queue, "a1")
        queue.claim("w1")
        spans = [
            _span("worker.attempt", start=time.time()),
            {"name": "no-ids"},
            _span("bad.attrs", start=1.0, span_id="s2", blob=object()),
            _span("bad.time", start="never", span_id="s3"),
        ]
        assert queue.ack("a1", "w1", state="done", result={}, spans=spans)
        names = sorted(s["name"] for s in queue.trace_spans(job_id="a1"))
        assert names == ["job", "queue.ack", "queue.wait", "worker.attempt"]
        assert sum("dropping a span" in r.message for r in caplog.records) == 3

    def test_cached_enqueue_roots_the_lookup_made_before_it(self, queue):
        lookup = _span("store.get", start=time.time() - 0.5, hit=True)
        row = _enqueue(
            queue,
            "a1",
            cached_result={"status": "ok"},
            trace_id="t" * 32,
            spans=[lookup],
        )
        (root,) = queue.trace("a1")["tree"]
        assert root["name"] == "job"
        assert root["attributes"]["cached"] is True
        assert root["start"] == lookup["start"]
        assert 0.0 <= root["start"] + root["duration"] - row.finished < 1.0
        assert [child["name"] for child in root["children"]] == ["store.get"]

    def test_only_a_cached_row_is_enqueued_with_spans(self, queue):
        with pytest.raises(ValueError, match="cached"):
            _enqueue(queue, "a1", spans=[])
        assert queue.get("a1") is None


class TestStats:
    def test_depth_covers_every_state(self, queue):
        assert queue.depth() == {state: 0 for state in JOB_STATES}
        _enqueue(queue, "a1")
        _enqueue(queue, "a2")
        queue.claim("w1")
        depth = queue.depth()
        assert depth["queued"] == 1 and depth["running"] == 1

    def test_stats_aggregates(self, queue):
        _enqueue(queue, "a1", cached_result={"status": "ok"})
        _enqueue(queue, "a2", task="simulate")
        queue.claim("w1")
        queue.ack("a2", "w1", state="done", result={})
        stats = queue.stats()
        assert stats["total"] == 2
        assert stats["cached"] == 1
        assert stats["completed"] == 2
        assert stats["tasks_completed"] == {"check": 1, "simulate": 1}
        assert stats["depth"]["done"] == 2

    def test_worker_registry(self, queue):
        queue.register_worker("w1", pid=4242)
        queue.worker_update("w1", state="running", job_id="a1")
        (worker,) = queue.workers()
        assert worker["id"] == "w1" and worker["pid"] == 4242
        assert worker["state"] == "running" and worker["job_id"] == "a1"
        assert worker["heartbeat_age"] >= 0.0
        queue.worker_update("w1", state="idle", bump_done=True)
        queue.worker_update("w1", state="idle", bump_done=True)
        (worker,) = queue.workers()
        assert worker["jobs_done"] == 2

    def test_terminal_states_are_a_subset_of_states(self):
        assert set(TERMINAL_STATES) < set(JOB_STATES)


class TestSchemaMigration:
    def test_pre_trace_database_is_migrated_in_place(self, tmp_path):
        """Opening a queue file created before the tracing release adds
        the ``trace_id`` column (and traces table) without losing rows."""
        import sqlite3
        import time as _time

        path = tmp_path / "old.sqlite3"
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE jobs (
                id           TEXT PRIMARY KEY,
                task         TEXT NOT NULL,
                name         TEXT NOT NULL,
                kind         TEXT NOT NULL,
                spec         TEXT NOT NULL,
                key          TEXT,
                state        TEXT NOT NULL DEFAULT 'queued',
                cached       INTEGER NOT NULL DEFAULT 0,
                attempts     INTEGER NOT NULL DEFAULT 0,
                max_attempts INTEGER NOT NULL DEFAULT 3,
                worker       TEXT,
                lease_expires REAL,
                submitted    REAL NOT NULL,
                started      REAL,
                finished     REAL,
                error        TEXT,
                result       TEXT,
                version      INTEGER NOT NULL DEFAULT 1
            );
            """
        )
        conn.execute(
            "INSERT INTO jobs (id, task, name, kind, spec, submitted)"
            " VALUES ('legacy1', 'check', 'old', 'synth', '{}', ?)",
            (_time.time(),),
        )
        conn.commit()
        conn.close()

        queue = JobQueue(path)
        try:
            legacy = queue.get("legacy1")
            assert legacy is not None
            assert legacy.trace_id is None
            fresh = _enqueue(queue, "new1", trace_id="migrated-trace-01")
            assert fresh.trace_id == "migrated-trace-01"
            assert queue.get("new1").trace_id == "migrated-trace-01"
            # The traces table exists and serves the new row.
            assert queue.trace_spans(job_id="new1") == []
        finally:
            queue.close()

    def test_enqueue_without_trace_id_stays_null(self, queue):
        row = _enqueue(queue, "a1")
        assert row.trace_id is None
        assert queue.get("a1").to_dict()["trace_id"] is None
