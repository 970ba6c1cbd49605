"""The durable job queue: one SQLite file, many processes.

Design
------
* **One WAL-mode SQLite file** next to the result store is the only
  coordination point: the HTTP front-end enqueues, N independent worker
  processes (or machines sharing a filesystem) claim and execute, admin
  tools inspect — no broker, no sockets between tiers, and a restart of
  any process loses nothing.
* **Atomic claim**: a single guarded ``UPDATE ... RETURNING`` flips the
  oldest ``queued`` row to ``running`` under the writer lock, so two
  workers can never claim the same job (a pre-3.35 SQLite falls back to
  an equivalent ``BEGIN IMMEDIATE`` transaction).
* **Leases + heartbeats**: a claimed job carries a lease deadline the
  executing worker keeps extending; when a worker dies (``kill -9``,
  OOM, power loss) its lease expires and the job is requeued — at most
  ``max_attempts`` times, after which it is marked ``failed`` with the
  reason recorded.
* **Guarded acks**: completion updates are conditioned on *both* the
  job still being ``running`` and still being owned by the acking
  worker, so a zombie worker whose lease was reclaimed cannot overwrite
  the rightful owner's result — every job completes exactly once.
* **Versioned rows**: every state transition bumps ``version``;
  :meth:`JobQueue.wait_for_version` turns that into the long-poll
  primitive behind ``GET /v1/jobs/<id>/events``.  Waiters do not sleep
  on a timer: every :class:`JobQueue` open on one file in one process
  shares a change notifier, bumped after each committed enqueue of a
  ``queued`` row, claim, ack, release, retry and lease reclaim.  A
  long-poll or an idle worker waits on it and wakes the moment another
  thread of the process writes.  Writes from other processes (external
  ``repro worker`` fleets) and leases that merely expire notify nobody,
  so each wait is bounded by the poll interval, after which the waiter
  re-reads the database exactly as a plain poll would.
* **Traces commit with their job**: an ack, and the enqueue of a
  ``cached`` row, insert the job's spans in the transaction that writes
  its final state, so whoever reads ``done`` can read the whole trace.
  A trace lives exactly as long as its row: ``purge`` deletes both.

States: ``queued`` → ``running`` → one of the terminal states ``done``
(pipeline completed), ``error`` (pipeline raised), ``timeout`` (per-job
budget expired), or ``failed`` (queue-level: lease attempts exhausted).
``retry`` moves a terminal row back to ``queued``.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.faults import init_from_env as _faults_init_from_env
from repro.faults import inject as _inject
from repro.obs.metrics import get_registry as _obs_metrics
from repro.obs.trace import (
    build_tree,
    new_span_id,
    new_trace_id,
    synthetic_span,
)
from repro.utils.logging import get_logger
from repro.utils.retry import RetryPolicy, retry_call

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRow",
    "JobQueue",
]

_LOG = get_logger("queue")

#: Backoff absorbing SQLITE_BUSY / SQLITE_LOCKED storms on the write
#: operations.  Bounded: a genuinely wedged database surfaces as the
#: original OperationalError after well under two seconds, and the
#: service's degraded-mode path takes over from there.
_DB_RETRY = RetryPolicy(max_attempts=6, base_seconds=0.01, cap_seconds=0.25)


def _retriable_sqlite(exc: BaseException) -> bool:
    """True for the transient lock-contention flavors of OperationalError."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc).lower()
    return "locked" in message or "busy" in message

#: Every state a job row can be in.
JOB_STATES = ("queued", "running", "done", "error", "timeout", "failed")

#: States a job never leaves on its own (``retry`` can requeue them).
TERMINAL_STATES = ("done", "error", "timeout", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
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
    version      INTEGER NOT NULL DEFAULT 1,
    trace_id     TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, submitted, id);
CREATE TABLE IF NOT EXISTS traces (
    trace_id   TEXT NOT NULL,
    span_id    TEXT NOT NULL,
    parent_id  TEXT,
    job_id     TEXT,
    name       TEXT NOT NULL,
    start      REAL NOT NULL,
    duration   REAL NOT NULL,
    status     TEXT NOT NULL DEFAULT 'ok',
    attributes TEXT,
    PRIMARY KEY (trace_id, span_id)
);
CREATE INDEX IF NOT EXISTS traces_by_job ON traces (job_id);
CREATE TABLE IF NOT EXISTS workers (
    id        TEXT PRIMARY KEY,
    pid       INTEGER,
    host      TEXT,
    started   REAL NOT NULL,
    heartbeat REAL NOT NULL,
    state     TEXT NOT NULL DEFAULT 'idle',
    job_id    TEXT,
    jobs_done INTEGER NOT NULL DEFAULT 0
);
"""

_CLAIM_RETURNING = """
UPDATE jobs
SET state = 'running',
    worker = :worker,
    lease_expires = :lease,
    started = COALESCE(started, :now),
    attempts = attempts + 1,
    version = version + 1
WHERE id = (
    SELECT id FROM jobs WHERE state = 'queued'
    ORDER BY submitted, id LIMIT 1
) AND state = 'queued'
RETURNING *
"""

_INSERT_SPAN = """
INSERT OR REPLACE INTO traces
    (trace_id, span_id, parent_id, job_id, name, start, duration, status,
     attributes)
VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
"""


def _span_row(span: dict, job_id: Optional[str]) -> tuple:
    parent = span.get("parent_id")
    return (
        str(span["trace_id"]),
        str(span["span_id"]),
        None if parent is None else str(parent),
        job_id,
        str(span["name"]),
        float(span["start"]),
        float(span["duration"]),
        str(span.get("status", "ok")),
        json.dumps(span.get("attributes") or {}, sort_keys=True),
    )


def _encode_spans(spans: List[dict], job_id: Optional[str]) -> List[tuple]:
    """The table rows of ``spans``, encoded before any transaction opens.

    A span that cannot be encoded is dropped with a warning: tracing
    must never fail a job.
    """
    rows = []
    for span in spans:
        try:
            rows.append(_span_row(span, job_id))
        except (KeyError, TypeError, ValueError) as exc:
            _LOG.warning(
                "dropping a span of job %s that cannot be stored: %r",
                job_id,
                exc,
            )
    return rows


@dataclass(frozen=True)
class JobRow:
    """One queue row, decoded (a snapshot — rows change underneath)."""

    id: str
    task: str
    name: str
    kind: str
    spec: dict
    key: Optional[str]
    state: str
    cached: bool
    attempts: int
    max_attempts: int
    worker: Optional[str]
    lease_expires: Optional[float]
    submitted: float
    started: Optional[float]
    finished: Optional[float]
    error: Optional[str]
    result: Optional[dict]
    version: int
    trace_id: Optional[str] = None

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change on its own."""
        return self.state in TERMINAL_STATES

    @property
    def status(self) -> str:
        """Alias of :attr:`state` (the HTTP API's field name)."""
        return self.state

    def to_dict(self) -> dict:
        """JSON payload of this row (what ``GET /v1/jobs/<id>`` serves).

        The full spec — which may embed a multi-MB inline model — stays
        in the database; responses carry only the source ``kind``.
        """
        return {
            "id": self.id,
            "task": self.task,
            "name": self.name,
            "kind": self.kind,
            "key": self.key,
            "status": self.state,
            "cached": bool(self.cached),
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "worker": self.worker,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "result": self.result,
            "error": self.error,
            "version": self.version,
            "trace_id": self.trace_id,
        }


def _decode(row: sqlite3.Row) -> JobRow:
    def loads(text: Optional[str]) -> Optional[dict]:
        if text is None:
            return None
        try:
            doc = json.loads(text)
        except ValueError:
            return None
        return doc if isinstance(doc, dict) else None

    return JobRow(
        id=row["id"],
        task=row["task"],
        name=row["name"],
        kind=row["kind"],
        spec=loads(row["spec"]) or {},
        key=row["key"],
        state=row["state"],
        cached=bool(row["cached"]),
        attempts=int(row["attempts"]),
        max_attempts=int(row["max_attempts"]),
        worker=row["worker"],
        lease_expires=row["lease_expires"],
        submitted=float(row["submitted"]),
        started=row["started"],
        finished=row["finished"],
        error=row["error"],
        result=loads(row["result"]),
        version=int(row["version"]),
        trace_id=row["trace_id"] if "trace_id" in row.keys() else None,
    )


class _ChangeNotifier:
    """Wakes this process's waiters on one queue file (see module docs).

    A generation counter under a condition variable.  The condition
    keeps its default reentrant lock: ``QueueWorker.request_stop`` bumps
    it from signal handlers, which may interrupt the very thread that
    holds it.
    """

    def __init__(self) -> None:
        self._changed = threading.Condition()
        self._generation = 0

    @property
    def generation(self) -> int:
        with self._changed:
            return self._generation

    def bump(self) -> None:
        with self._changed:
            self._generation += 1
            self._changed.notify_all()

    def wait(self, generation: int, timeout: float) -> bool:
        with self._changed:
            return self._changed.wait_for(
                lambda: self._generation != generation, timeout
            )


#: The notifier of each database file open in this process, shared by
#: every :class:`JobQueue` on it; an entry dies with its last queue.
_NOTIFIERS: "weakref.WeakValueDictionary[str, _ChangeNotifier]" = (
    weakref.WeakValueDictionary()
)
_NOTIFIERS_LOCK = threading.Lock()


def _notifier_for(path: Path) -> _ChangeNotifier:
    key = os.path.realpath(path)
    with _NOTIFIERS_LOCK:
        notifier = _NOTIFIERS.get(key)
        if notifier is None:
            notifier = _NOTIFIERS[key] = _ChangeNotifier()
        return notifier


class JobQueue:
    """Persistent, crash-safe job queue over one SQLite file.

    Instances are cheap and thread-safe (one connection guarded by a
    lock); open as many as you like — in threads, in processes, on other
    machines sharing the filesystem — against the same ``path``.  WAL
    mode keeps readers (pollers, stats) unblocked by the writers.

    Parameters
    ----------
    path:
        Database file (parent directories are created).
    max_attempts:
        Default claim-attempt bound for newly enqueued jobs.
    """

    def __init__(
        self, path: Union[str, Path], *, max_attempts: int = 3
    ) -> None:
        self.path = Path(path)
        self.max_attempts = int(max_attempts)
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Surface a malformed REPRO_FAULTS plan at construction time.
        _faults_init_from_env()
        #: Reliability traffic of this connection: how many write
        #: operations needed a backoff retry, and how many busy/locked
        #: errors were seen at all (absorbed or not).
        self.counters: Dict[str, int] = {"retries": 0, "busy_errors": 0}
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path),
            timeout=30.0,
            isolation_level=None,  # autocommit; explicit BEGIN where needed
            check_same_thread=False,
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)
        # Databases created before the tracing PR lack the trace_id
        # column; CREATE TABLE IF NOT EXISTS won't add it, so migrate
        # in place (idempotent — guarded by the live column list).
        columns = {
            r["name"]
            for r in self._conn.execute("PRAGMA table_info(jobs)")
        }
        if "trace_id" not in columns:
            self._conn.execute("ALTER TABLE jobs ADD COLUMN trace_id TEXT")
        self._returning = sqlite3.sqlite_version_info >= (3, 35, 0)
        self._notifier = _notifier_for(self.path)

    def close(self) -> None:
        """Close the underlying connection."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- reliability plumbing -----------------------------------------------

    def _count_retry(self, attempt: int, exc: BaseException) -> None:
        self.counters["retries"] += 1
        self.counters["busy_errors"] += 1

    @contextmanager
    def _transaction(self):
        """One ``BEGIN IMMEDIATE`` transaction; the caller holds the lock.

        Commits when the block ends, rolls back when it raises.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise

    def _retrying(self, point: str, fn):
        """Run one write operation under the shared backoff policy.

        The fault-injection roll happens *inside* the retried callable,
        before any SQL: an injected (or real) busy/locked error is
        absorbed by the backoff exactly like production contention, and
        a retried attempt never re-runs partially applied SQL.
        """

        def _op():
            _inject(point)
            return fn()

        started = time.perf_counter()
        try:
            result = retry_call(
                _op,
                policy=_DB_RETRY,
                retry_on=_retriable_sqlite,
                on_retry=self._count_retry,
            )
        except sqlite3.OperationalError as exc:
            if _retriable_sqlite(exc):
                self.counters["busy_errors"] += 1
            _obs_metrics().count(f"{point}.errors")
            raise
        # Latency per operation (queue.claim, queue.ack, ...), recorded
        # only on success so error storms do not skew the quantiles.
        _obs_metrics().observe(point, time.perf_counter() - started)
        return result

    def probe(self) -> None:
        """One trivial read proving the connection works (health checks).

        Raises the underlying :class:`sqlite3.Error` when it does not —
        a closed connection, a deleted/corrupted database file, a dead
        filesystem — which the service maps to ``degraded``.
        """
        with self._lock:
            self._conn.execute("SELECT 1").fetchone()

    # -- submission ---------------------------------------------------------

    def enqueue(
        self,
        *,
        job_id: str,
        task: str,
        name: str,
        kind: str,
        spec: dict,
        key: Optional[str] = None,
        max_attempts: Optional[int] = None,
        cached_result: Optional[dict] = None,
        trace_id: Optional[str] = None,
        spans: Optional[List[dict]] = None,
    ) -> JobRow:
        """Insert one job; returns the stored row.

        ``cached_result`` short-circuits the job: the row is inserted
        already ``done`` with ``cached`` set (the store answered at
        submission time and no worker ever needs to run).  ``trace_id``
        is the distributed-tracing correlation ID the service stamped at
        submission; workers restore it as their root context.

        ``spans`` are the spans a cached row recorded so far (``None``:
        tracing is off).  They are committed with the row, under the
        ``job`` root this adds.  A queued row takes none: its ack writes
        its trace.
        """
        cached = cached_result is not None
        if spans is not None and not cached:
            raise ValueError("only a cached row is enqueued with spans")
        rows = None if spans is None else _encode_spans(spans, job_id)

        def _insert() -> None:
            now = time.time()
            with self._lock, self._transaction():
                self._conn.execute(
                    """
                    INSERT INTO jobs (id, task, name, kind, spec, key, state,
                                      cached, max_attempts, submitted, started,
                                      finished, result, trace_id)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        job_id,
                        task,
                        name,
                        kind,
                        json.dumps(spec, sort_keys=True),
                        key,
                        "done" if cached else "queued",
                        1 if cached else 0,
                        max_attempts
                        if max_attempts is not None
                        else self.max_attempts,
                        now,
                        now if cached else None,
                        now if cached else None,
                        json.dumps(cached_result, sort_keys=True)
                        if cached
                        else None,
                        trace_id,
                    ),
                )
                if rows is not None:
                    self._write_trace(job_id, rows)

        self._retrying("queue.enqueue", _insert)
        if not cached:
            # A cached row is born done: no worker or waiter needs it.
            self._notifier.bump()
        row = self.get(job_id)
        assert row is not None
        return row

    # -- claim / lease ------------------------------------------------------

    def reclaim_expired(self, *, now: Optional[float] = None) -> int:
        """Requeue (or fail) every running job whose lease expired.

        A job that exhausted its attempt bound is marked ``failed`` with
        the reason recorded; otherwise it goes back to ``queued`` for the
        next healthy worker.  Returns the number of rows touched.
        """
        now = time.time() if now is None else now
        with self._lock:
            failed = self._conn.execute(
                """
                UPDATE jobs
                SET state = 'failed',
                    error = 'lease expired after ' || attempts ||
                            ' attempt(s); last worker ' ||
                            COALESCE(worker, '?') || ' presumed dead',
                    worker = NULL,
                    lease_expires = NULL,
                    finished = ?,
                    version = version + 1
                WHERE state = 'running' AND lease_expires < ?
                      AND attempts >= max_attempts
                """,
                (now, now),
            ).rowcount
            requeued = self._conn.execute(
                """
                UPDATE jobs
                SET state = 'queued',
                    worker = NULL,
                    lease_expires = NULL,
                    version = version + 1
                WHERE state = 'running' AND lease_expires < ?
                """,
                (now,),
            ).rowcount
        if failed or requeued:
            self._notifier.bump()
            _LOG.debug(
                "reclaimed %d expired lease(s) (%d failed terminally)",
                failed + requeued,
                failed,
            )
        return failed + requeued

    def claim(
        self, worker_id: str, *, lease_seconds: float = 60.0
    ) -> Optional[JobRow]:
        """Atomically claim the oldest queued job for ``worker_id``.

        Expired leases are reclaimed first, so a fleet of claiming
        workers is also the recovery mechanism.  Busy/locked contention
        (real or injected) is absorbed by bounded backoff — the claim
        itself stays atomic either way.  Returns ``None`` when the
        queue has no runnable work.
        """

        def _claim() -> Optional[JobRow]:
            now = time.time()
            self.reclaim_expired(now=now)
            params = {
                "worker": worker_id,
                "lease": now + float(lease_seconds),
                "now": now,
            }
            with self._lock:
                if self._returning:
                    cursor = self._conn.execute(_CLAIM_RETURNING, params)
                    row = cursor.fetchone()
                    return _decode(row) if row is not None else None
                # Pre-3.35 SQLite: the same guarded flip inside one
                # immediate (write-locked) transaction.
                with self._transaction():
                    picked = self._conn.execute(
                        "SELECT id FROM jobs WHERE state = 'queued'"
                        " ORDER BY submitted, id LIMIT 1"
                    ).fetchone()
                    if picked is None:
                        return None
                    self._conn.execute(
                        """
                        UPDATE jobs
                        SET state = 'running', worker = :worker,
                            lease_expires = :lease,
                            started = COALESCE(started, :now),
                            attempts = attempts + 1, version = version + 1
                        WHERE id = :id AND state = 'queued'
                        """,
                        dict(params, id=picked["id"]),
                    )
            return self.get(picked["id"])

        row = self._retrying("queue.claim", _claim)
        if row is not None:
            self._notifier.bump()
            _obs_metrics().count("queue.jobs_claimed")
        return row

    def heartbeat(
        self, job_id: str, worker_id: str, *, lease_seconds: float = 60.0
    ) -> bool:
        """Extend the lease of a job this worker still owns.

        Returns ``False`` when ownership was lost (the lease expired and
        the job was reclaimed) — the caller's result will be discarded.
        Raises only when contention outlasts the bounded backoff; the
        worker's heartbeat loop treats that as a restorable failure.
        """

        def _beat() -> bool:
            now = time.time()
            with self._lock:
                owned = self._conn.execute(
                    """
                    UPDATE jobs SET lease_expires = ?
                    WHERE id = ? AND worker = ? AND state = 'running'
                    """,
                    (now + float(lease_seconds), job_id, worker_id),
                ).rowcount
                self._conn.execute(
                    "UPDATE workers SET heartbeat = ?, job_id = ?"
                    " WHERE id = ?",
                    (now, job_id if owned else None, worker_id),
                )
            return bool(owned)

        return self._retrying("queue.heartbeat", _beat)

    def owns(self, job_id: str, worker_id: str) -> bool:
        """True while ``worker_id`` still holds the running lease."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM jobs WHERE id = ? AND worker = ?"
                " AND state = 'running'",
                (job_id, worker_id),
            ).fetchone()
        return row is not None

    # -- completion ---------------------------------------------------------

    def ack(
        self,
        job_id: str,
        worker_id: str,
        *,
        state: str,
        result: Optional[dict] = None,
        error: Optional[str] = None,
        cached: bool = False,
        spans: Optional[List[dict]] = None,
    ) -> bool:
        """Record a terminal outcome and its trace — guarded by ownership.

        Returns ``False`` when this worker no longer owned the job (its
        lease expired and the job was requeued or re-acked elsewhere);
        the caller must discard its result, preserving exactly-once
        completion, and nothing is written.

        ``spans`` are the attempt's finished spans (``None``: tracing is
        off).  They are committed in the transaction that writes the
        terminal state, with the ``job`` root, ``queue.wait`` and this
        ack's own ``queue.ack`` span, so a client that reads the
        terminal state reads the whole trace.  The ack then wakes this
        process's waiters.
        """
        if state not in TERMINAL_STATES:
            raise ValueError(
                f"ack state must be one of {TERMINAL_STATES}, got {state!r}"
            )
        ack_start = time.time()
        rows = None if spans is None else _encode_spans(spans, job_id)

        def _ack() -> bool:
            now = time.time()
            with self._lock, self._transaction():
                owned = self._conn.execute(
                    """
                    UPDATE jobs
                    SET state = ?, result = ?, error = ?, finished = ?,
                        cached = ?, worker = NULL, lease_expires = NULL,
                        version = version + 1
                    WHERE id = ? AND worker = ? AND state = 'running'
                    """,
                    (
                        state,
                        json.dumps(result, sort_keys=True)
                        if result is not None
                        else None,
                        error,
                        now,
                        1 if cached else 0,
                        job_id,
                        worker_id,
                    ),
                ).rowcount
                if owned and rows is not None:
                    self._write_trace(job_id, rows, ack_start=ack_start)
            return bool(owned)

        acked = self._retrying("queue.ack", _ack)
        if acked:
            self._notifier.bump()
            _obs_metrics().count("queue.jobs_acked")
        return acked

    def release(self, job_id: str, worker_id: str) -> bool:
        """Put a claimed-but-unfinished job back without an outcome.

        The graceful-drain path for work a stopping worker never
        started; the attempt already counted stays counted.
        """
        with self._lock:
            released = self._conn.execute(
                """
                UPDATE jobs
                SET state = 'queued', worker = NULL, lease_expires = NULL,
                    version = version + 1
                WHERE id = ? AND worker = ? AND state = 'running'
                """,
                (job_id, worker_id),
            ).rowcount
        if released:
            self._notifier.bump()
        return bool(released)

    # -- admin --------------------------------------------------------------

    def retry(self, job_id: str) -> bool:
        """Requeue a terminal job (resets attempts/outcome); False if not terminal."""
        with self._lock:
            touched = self._conn.execute(
                """
                UPDATE jobs
                SET state = 'queued', attempts = 0, worker = NULL,
                    lease_expires = NULL, finished = NULL, error = NULL,
                    result = NULL, cached = 0, version = version + 1
                WHERE id = ? AND state IN ('done', 'error', 'timeout', 'failed')
                """,
                (job_id,),
            ).rowcount
        if touched:
            self._notifier.bump()
        return bool(touched)

    def purge(self, state: str) -> int:
        """Delete every row in one terminal state, with its trace.

        Returns the count.  Only terminal states may be purged — queued
        and running rows are live work.
        """
        if state not in TERMINAL_STATES:
            raise ValueError(
                f"only terminal states {TERMINAL_STATES} can be purged,"
                f" got {state!r}"
            )
        with self._lock:
            self._conn.execute(
                "DELETE FROM traces WHERE job_id IN"
                " (SELECT id FROM jobs WHERE state = ?)",
                (state,),
            )
            return self._conn.execute(
                "DELETE FROM jobs WHERE state = ?", (state,)
            ).rowcount

    # -- traces -------------------------------------------------------------

    def record_spans(
        self, spans: List[dict], *, job_id: Optional[str] = None
    ) -> int:
        """Persist finished spans as they are; returns the count stored.

        Span IDs are upsert keys: a span written again replaces its row.
        This adds no root and wakes nobody; :meth:`ack` and the enqueue
        of a cached row write a job's whole trace with its state.
        """
        rows = _encode_spans(spans, job_id)
        with self._lock:
            self._conn.executemany(_INSERT_SPAN, rows)
        return len(rows)

    def _write_trace(
        self,
        job_id: str,
        rows: List[tuple],
        *,
        ack_start: Optional[float] = None,
    ) -> None:
        """Insert a finished job's span rows under its ``job`` root.

        Runs in the transaction that wrote the row's final state, and
        reads the row back.  The root runs from submission (or from its
        earliest span, such as a lookup made before the insert) to this
        write, the last moment before the commit.  After an ack
        (``ack_start`` given), ``queue.wait`` (submission to first
        claim) and ``queue.ack`` (``ack_start`` to this write) hang off
        the root too.
        """
        job = self._conn.execute(
            "SELECT task, state, cached, attempts, submitted, started,"
            " trace_id FROM jobs WHERE id = ?",
            (job_id,),
        ).fetchone()
        now = time.time()
        # Row fields follow _INSERT_SPAN: 0 is the trace ID, 5 the start.
        trace_id = job["trace_id"] or (
            rows[0][0] if rows else new_trace_id()
        )
        start = min([job["submitted"], *(row[5] for row in rows)])
        spans = [
            synthetic_span(
                trace_id=trace_id,
                span_id=job_id,
                parent_id=None,
                name="job",
                start=start,
                duration=now - start,
                status="ok" if job["state"] == "done" else "error",
                attributes={
                    "job_id": job_id,
                    "task": job["task"],
                    "state": job["state"],
                    "cached": bool(job["cached"]),
                    "attempts": job["attempts"],
                },
            )
        ]
        if ack_start is not None:
            submitted = job["submitted"]
            spans += [
                synthetic_span(
                    trace_id=trace_id,
                    span_id=f"{job_id}-wait",
                    parent_id=job_id,
                    name="queue.wait",
                    start=submitted,
                    duration=(job["started"] or now) - submitted,
                ),
                synthetic_span(
                    trace_id=trace_id,
                    span_id=new_span_id(),
                    parent_id=job_id,
                    name="queue.ack",
                    start=ack_start,
                    duration=now - ack_start,
                    attributes={"state": job["state"]},
                ),
            ]
        self._conn.executemany(
            _INSERT_SPAN, rows + [_span_row(span, job_id) for span in spans]
        )

    def trace_spans(
        self,
        *,
        job_id: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> List[dict]:
        """Flat span dicts of one job and/or trace, ordered by start.

        A trace spanning several jobs (a client reusing one
        ``X-Repro-Trace-Id``) is fetched whole via ``trace_id``; the
        per-job view filters on the job column.  Both filters combine
        with OR so a job's spans are found through either key.
        """
        clauses, params = [], []
        if job_id is not None:
            clauses.append("job_id = ?")
            params.append(job_id)
        if trace_id is not None:
            clauses.append("trace_id = ?")
            params.append(trace_id)
        if not clauses:
            raise ValueError("trace_spans needs a job_id or a trace_id")
        with self._lock:
            rows = self._conn.execute(
                "SELECT trace_id, span_id, parent_id, job_id, name, start,"
                f" duration, status, attributes FROM traces"
                f" WHERE {' OR '.join(clauses)} ORDER BY start, span_id",
                params,
            ).fetchall()
        spans = []
        for row in rows:
            try:
                attributes = json.loads(row["attributes"] or "{}")
            except ValueError:
                attributes = {}
            spans.append(
                {
                    "trace_id": row["trace_id"],
                    "span_id": row["span_id"],
                    "parent_id": row["parent_id"],
                    "job_id": row["job_id"],
                    "name": row["name"],
                    "start": row["start"],
                    "duration": row["duration"],
                    "status": row["status"],
                    "attributes": attributes
                    if isinstance(attributes, dict)
                    else {},
                }
            )
        return spans

    def trace(self, job_id: str) -> Optional[dict]:
        """One job's trace document; ``None`` for an unknown job.

        What ``GET /v1/jobs/<id>/trace`` and ``repro trace --json``
        serve.  Scoped to the job, not the trace ID: a client may reuse
        one ``X-Repro-Trace-Id`` across submissions, and this promises
        a single tree for *this* job.  A job that has not finished (or
        ran with tracing off) yields an empty tree.
        """
        row = self.get(job_id)
        if row is None:
            return None
        spans = self.trace_spans(job_id=job_id)
        return {
            "job_id": row.id,
            "trace_id": row.trace_id,
            "status": row.state,
            "span_count": len(spans),
            "spans": spans,
            "tree": build_tree(spans),
        }

    # -- inspection ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRow]:
        """Fetch one row by id."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return _decode(row) if row is not None else None

    def list(
        self,
        *,
        state: Optional[str] = None,
        task: Optional[str] = None,
        limit: int = 100,
    ) -> List[JobRow]:
        """Newest-first listing, optionally filtered by state/task."""
        clauses, params = [], []
        if state is not None:
            if state not in JOB_STATES:
                raise ValueError(
                    f"unknown state {state!r}; valid states:"
                    f" {', '.join(JOB_STATES)}"
                )
            clauses.append("state = ?")
            params.append(state)
        if task is not None:
            clauses.append("task = ?")
            params.append(task)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(
                f"SELECT * FROM jobs {where}"
                " ORDER BY submitted DESC, id DESC LIMIT ?",
                params,
            ).fetchall()
        return [_decode(row) for row in rows]

    def wait_for_version(
        self,
        job_id: str,
        *,
        since: int = 0,
        timeout: float = 30.0,
        poll: float = 0.1,
    ) -> Optional[JobRow]:
        """Block until the job's version exceeds ``since`` (long-poll).

        Returns the fresh row immediately on any recorded transition, a
        terminal row immediately (nothing further will change), or the
        current row at timeout.  ``None`` means the id is unknown.
        Between reads it waits for an in-process change (see
        :meth:`wait_for_change`) at most ``poll`` seconds, which bounds
        how late a transition written by another process is seen.
        """
        deadline = time.monotonic() + max(0.0, float(timeout))
        while True:
            generation = self.generation
            row = self.get(job_id)
            if row is None:
                return None
            if row.version > since or row.terminal:
                return row
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                return row
            self.wait_for_change(generation, min(poll, remaining))

    # -- change notification ------------------------------------------------

    @property
    def generation(self) -> int:
        """This process's count of wake-ups on this queue file.

        Read it *before* reading or claiming rows and hand it to
        :meth:`wait_for_change`, so that a write landing in between ends
        the wait at once instead of being missed.
        """
        return self._notifier.generation

    def wait_for_change(self, generation: int, timeout: float) -> bool:
        """Wait until :attr:`generation` moves past ``generation``.

        Returns ``True`` when an in-process write woke the caller,
        ``False`` after ``timeout`` seconds.  Other processes' writes
        wake nobody, so callers re-read the database after a timeout.
        """
        return self._notifier.wait(generation, timeout)

    def notify_change(self) -> None:
        """Wake every waiter of this process on this queue file."""
        self._notifier.bump()

    # -- worker registry ----------------------------------------------------

    def register_worker(
        self, worker_id: str, *, pid: Optional[int] = None
    ) -> None:
        """Insert (or refresh) one worker's liveness row."""
        now = time.time()
        with self._lock:
            self._conn.execute(
                """
                INSERT INTO workers (id, pid, host, started, heartbeat, state)
                VALUES (?, ?, ?, ?, ?, 'idle')
                ON CONFLICT(id) DO UPDATE SET
                    pid = excluded.pid, host = excluded.host,
                    heartbeat = excluded.heartbeat, state = 'idle'
                """,
                (
                    worker_id,
                    pid if pid is not None else os.getpid(),
                    socket.gethostname(),
                    now,
                    now,
                ),
            )

    def worker_update(
        self,
        worker_id: str,
        *,
        state: str,
        job_id: Optional[str] = None,
        bump_done: bool = False,
    ) -> None:
        """Refresh one worker's heartbeat/state/current-job row."""
        with self._lock:
            self._conn.execute(
                """
                UPDATE workers
                SET heartbeat = ?, state = ?, job_id = ?,
                    jobs_done = jobs_done + ?
                WHERE id = ?
                """,
                (time.time(), state, job_id, 1 if bump_done else 0, worker_id),
            )

    def workers(self) -> List[dict]:
        """Every known worker with its last-heartbeat age in seconds."""
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM workers ORDER BY started"
            ).fetchall()
        return [
            {
                "id": row["id"],
                "pid": row["pid"],
                "host": row["host"],
                "state": row["state"],
                "job_id": row["job_id"],
                "jobs_done": int(row["jobs_done"]),
                "started": float(row["started"]),
                "heartbeat_age": max(0.0, now - float(row["heartbeat"])),
            }
            for row in rows
        ]

    # -- statistics ---------------------------------------------------------

    def depth(self) -> Dict[str, int]:
        """Job count per state (every state present, zeros included)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        for row in rows:
            counts[row["state"]] = int(row["n"])
        return counts

    def latency_samples(self, *, limit: int = 1000) -> List[Dict[str, Any]]:
        """Per-job latency raw material of the most recent finished jobs.

        Each row carries ``task``, ``queue_wait`` (claim minus submit)
        and ``execution`` (finish minus claim) in seconds, plus the
        ``cached`` flag — cached submissions are inserted already done,
        so their zero-ish waits are reported separately, not mixed into
        the execution quantiles.  Computed from the durable timestamps,
        so jobs executed by *external* worker processes are covered.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT task, submitted, started, finished, cached"
                " FROM jobs WHERE finished IS NOT NULL"
                " ORDER BY finished DESC, id DESC LIMIT ?",
                (int(limit),),
            ).fetchall()
        samples: List[Dict[str, Any]] = []
        for row in rows:
            started = row["started"]
            finished = row["finished"]
            submitted = row["submitted"]
            samples.append(
                {
                    "task": row["task"],
                    "cached": bool(row["cached"]),
                    "queue_wait": (
                        max(0.0, float(started) - float(submitted))
                        if started is not None
                        else None
                    ),
                    "execution": (
                        max(0.0, float(finished) - float(started))
                        if started is not None
                        else None
                    ),
                }
            )
        return samples

    def stats(self) -> dict:
        """Aggregate queue statistics (feeds ``GET /v1/stats``)."""
        depth = self.depth()
        with self._lock:
            total, cached = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(cached), 0) FROM jobs"
            ).fetchone()
            per_task = {
                row["task"]: int(row["n"])
                for row in self._conn.execute(
                    "SELECT task, COUNT(*) AS n FROM jobs"
                    " WHERE state = 'done' GROUP BY task"
                ).fetchall()
            }
        return {
            "path": str(self.path),
            "depth": depth,
            "total": int(total),
            "cached": int(cached),
            "completed": sum(depth[state] for state in TERMINAL_STATES),
            "tasks_completed": per_task,
            "workers": self.workers(),
            "counters": dict(self.counters),
        }
