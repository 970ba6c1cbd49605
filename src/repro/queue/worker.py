"""The queue worker: claim → execute → store → ack, forever.

:class:`QueueWorker` is the execution tier of the durable service.  Each
instance opens its own connection to the shared queue database and loops:
claim the oldest queued job under a lease, re-parse its resolved spec
(see :meth:`~repro.queue.spec.ParsedSpec.resolved_spec` — the stored
document carries the effective configuration, so every worker computes
exactly what the submitter keyed), execute it through the existing
:class:`~repro.batch.BatchRunner`, write the result to the
content-addressed store, and ack by job id guarded by ownership.

A background heartbeat keeps the lease alive while the job runs; if the
heartbeat discovers the lease was lost (this process stalled long enough
to be presumed dead and the job was reclaimed), the result is discarded
— the rightful owner's ack wins and every job completes exactly once.

Deployment shapes, same class either way:

* ``repro worker`` runs one instance as a whole process (N processes —
  or machines sharing the filesystem — drain one queue), stopping
  gracefully on SIGTERM: finish the leased job, ack it, exit 0.
* ``repro serve`` embeds instances on daemon threads, so the single-
  process developer experience still works out of the box.
"""

from __future__ import annotations

import os
import socket
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Optional, Union

from repro.batch.runner import BATCH_BACKENDS, BatchRunner, _JobChildren
from repro.faults import counters as _fault_counters
from repro.faults import init_from_env as _faults_init_from_env
from repro.faults import inject as _inject
from repro.obs import trace as _trace
from repro.obs.metrics import get_registry as _obs_metrics
from repro.queue.config import QueueConfig
from repro.queue.db import JobQueue, JobRow
from repro.queue.spec import JobError, parse_spec
from repro.store import ResultStore
from repro.utils.logging import get_logger
from repro.utils.validation import ensure_choice

__all__ = ["QueueWorker", "default_worker_id"]

_LOG = get_logger("queue.worker")


def default_worker_id() -> str:
    """A queue-unique worker identity: host, pid, and a random suffix.

    The random suffix keeps embedded workers (several per process)
    distinct; host and pid keep fleet logs attributable.
    """
    return (
        f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    )


class QueueWorker:
    """One queue-draining worker (run it on a thread or as a process).

    Parameters
    ----------
    queue_path:
        The shared queue database file.
    queue_config:
        Lease/heartbeat/poll knobs (:class:`QueueConfig`); defaults
        apply when omitted.  The worker opens its *own* connection —
        instances never share a :class:`JobQueue`.
    worker_id:
        Stable identity for leases and the liveness table; generated
        when omitted.
    backend:
        :class:`BatchRunner` backend executing each job.  ``"process"``
        gives real timeout kills and crash isolation: the worker forks
        one job child at its first job and sends it every later job,
        until :meth:`run` returns.  A child is replaced only after its
        job timed out (it is terminated) or after it died.
    timeout:
        Per-job wall-clock budget in seconds (``None`` — no limit).
    max_jobs:
        Exit after completing this many jobs (testing/bounded drains).
    idle_seconds:
        Exit after the queue has been empty this long (``None`` — wait
        forever).  Lets batch-style fleets drain and disband.
    """

    def __init__(
        self,
        queue_path: Union[str, Path],
        *,
        queue_config: Optional[QueueConfig] = None,
        worker_id: Optional[str] = None,
        backend: str = "process",
        timeout: Optional[float] = None,
        max_jobs: Optional[int] = None,
        idle_seconds: Optional[float] = None,
    ) -> None:
        ensure_choice(backend, "worker backend", BATCH_BACKENDS)
        if timeout is not None and timeout <= 0.0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        # A malformed REPRO_FAULTS plan must fail the worker boot, not
        # surface mid-job (no-op when the variable is unset).
        _faults_init_from_env()
        self.queue_config = (
            queue_config if queue_config is not None else QueueConfig()
        )
        self.worker_id = worker_id or default_worker_id()
        self.backend = backend
        self.timeout = timeout
        self.max_jobs = max_jobs
        self.idle_seconds = idle_seconds
        self.jobs_done = 0
        self.queue = JobQueue(
            queue_path, max_attempts=self.queue_config.max_attempts
        )
        self._stop = threading.Event()
        # One store per distinct cache directory: jobs may override
        # cache_dir per submission, but same-dir jobs share the handle.
        self._stores: Dict[Optional[str], ResultStore] = {}
        # The process backend's job child, kept from the first job until
        # run() returns.
        self._children = _JobChildren()

    # -- lifecycle ----------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the worker to drain: finish the current job, then exit.

        Safe from any thread and from signal handlers — this is what
        ``repro worker`` wires SIGTERM/SIGINT to.
        """
        self._stop.set()
        # Ends the idle wait now rather than at the next poll.
        self.queue.notify_change()

    @property
    def stopping(self) -> bool:
        """True once a stop has been requested."""
        return self._stop.is_set()

    def run(self) -> int:
        """Drain the queue until stopped; returns the jobs completed.

        The graceful-drain contract: after :meth:`request_stop` (or
        SIGTERM via the CLI) the job currently executing is finished and
        acked — never abandoned mid-lease — and the loop exits cleanly.
        """
        self.queue.register_worker(self.worker_id)
        _LOG.info(
            "worker %s draining %s (%s backend)",
            self.worker_id,
            self.queue.path,
            self.backend,
        )
        idle_since = time.monotonic()
        try:
            while True:
                # Read before the stop check and the claim: a stop
                # request or an enqueue landing after this read ends the
                # idle wait below at once.
                generation = self.queue.generation
                if self._stop.is_set():
                    break
                if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                    break
                claim_wall = time.time()
                claim_t0 = time.perf_counter()
                try:
                    row = self.queue.claim(
                        self.worker_id,
                        lease_seconds=self.queue_config.lease_seconds,
                    )
                except sqlite3.OperationalError as exc:
                    # Contention outlasted the DB layer's own bounded
                    # retries.  The worker must outlive the storm: treat
                    # it as an empty poll and try again next cycle.
                    _LOG.warning(
                        "worker %s: claim failed (%s); backing off",
                        self.worker_id,
                        exc,
                    )
                    self._stop.wait(self.queue_config.poll_seconds)
                    continue
                if row is None:
                    if (
                        self.idle_seconds is not None
                        and time.monotonic() - idle_since >= self.idle_seconds
                    ):
                        break
                    self.queue.worker_update(self.worker_id, state="idle")
                    # Work enqueued in this process wakes the wait; work
                    # from other processes and expired leases are found
                    # by the claim after the poll interval.
                    self.queue.wait_for_change(
                        generation, self.queue_config.poll_seconds
                    )
                    continue
                with _trace.timed("worker.job"):
                    self._execute_traced(
                        row,
                        claim_wall=claim_wall,
                        claim_elapsed=time.perf_counter() - claim_t0,
                    )
                idle_since = time.monotonic()
        finally:
            self._children.close()
            self.queue.worker_update(self.worker_id, state="stopped")
            self.queue.close()
        _LOG.info(
            "worker %s stopped after %d job(s)", self.worker_id, self.jobs_done
        )
        return self.jobs_done

    # -- execution ----------------------------------------------------------

    def _store_for(self, config) -> Optional[ResultStore]:
        if config.cache == "off":
            return None
        if config.cache_dir not in self._stores:
            self._stores[config.cache_dir] = ResultStore.from_config(config)
        return self._stores[config.cache_dir]

    def _execute_traced(
        self, row: JobRow, *, claim_wall: float, claim_elapsed: float
    ) -> None:
        """Run one claimed job under an attempt-scoped trace, then ack it.

        The job row's ``trace_id`` (stamped at submission) is restored
        as the root context; every attempt — including a retry after a
        crashed worker — opens its own ``worker.attempt`` span under the
        shared trace, so the per-job timeline survives failures.  The
        attempt span is backdated to the claim so the measured
        ``queue.claim`` child nests inside it.  Once it closes, one
        :meth:`~repro.queue.JobQueue.ack` commits the outcome with the
        attempt's spans, so a job reads ``done`` only with its whole
        trace; an attempt that lost its lease writes neither.
        """
        context = _trace.TraceContext(
            trace_id=row.trace_id or _trace.new_trace_id(),
            span_id=row.id,
            job_id=row.id,
        )
        with _trace.activate(context) as sink:
            with _trace.span(
                "worker.attempt",
                start=claim_wall,
                worker=self.worker_id,
                attempt=row.attempts,
            ):
                _trace.record_span(
                    "queue.claim", start=claim_wall, duration=claim_elapsed
                )
                outcome = self._execute(row, sink)
            if outcome is not None:
                spans = sink if _trace.tracing_enabled() else None
                self._finish(row, spans=spans, **outcome)

    def _execute(self, row: JobRow, sink: list) -> Optional[dict]:
        """Run one claimed job; returns the keyword arguments of its ack.

        ``None`` means the lease was lost and the job is someone else's.
        Spans the pipeline recorded in a child process join ``sink``.
        """
        self.queue.worker_update(
            self.worker_id, state="busy", job_id=row.id
        )
        try:
            parsed = parse_spec(row.spec, job_id=row.id)
        except (JobError, TypeError, ValueError) as exc:
            # The front-end validates at submission, so this only fires
            # on specs enqueued through other paths (or future-version
            # specs) — record it, don't retry what cannot parse.
            return {"state": "error", "error": f"unparseable spec: {exc}"}

        store = self._store_for(parsed.config)
        key = row.key
        warnings = []

        # Graceful degradation: a store that has been failing gets one
        # probe to prove it recovered; if it is still failing, the job
        # runs with the cache off — slower, never wrong, and recorded
        # as a warning on the result instead of failing the job.
        if store is not None and store.health()["status"] == "failing":
            probed = store.probe()
            if probed["status"] == "failing":
                warnings.append(
                    "result store is failing"
                    f" ({probed['last_error']}); job degraded to"
                    " cache='off'"
                )
                _LOG.warning(
                    "worker %s: store failing for job %s; degrading to"
                    " cache='off' (%s)",
                    self.worker_id,
                    row.id,
                    probed["last_error"],
                )
                store = None

        # Same short-circuit the front-end applies, re-checked here:
        # another worker may have stored this exact key since enqueue.
        if (
            key is not None
            and store is not None
            and parsed.config.cache in ("read", "readwrite")
        ):
            try:
                payload = store.get(key)
            except ValueError:
                payload = None
            if payload is not None:
                return {"state": "done", "result": payload, "cached": True}

        lost = threading.Event()
        hb_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(row.id, hb_stop, lost),
            name=f"hb-{row.id}",
            daemon=True,
        )
        heartbeat.start()
        fired_before = {
            point: c["fired"] for point, c in _fault_counters().items()
        }
        # The attempt span's context: (trace, span, job) IDs, or Nones.
        attempt_ids = _trace.current_ids()
        try:
            _inject("worker.run")
            runner = BatchRunner(
                workers=1,
                timeout=self.timeout,
                backend=self.backend,
                trace=(
                    _trace.TraceContext(*attempt_ids).to_dict()
                    if attempt_ids[0] is not None
                    else None
                ),
                **parsed.runner_kwargs(),
            )
            result = runner._run([parsed.job], self._children).results[0]
            sink.extend(result.spans or ())
            payload = result.to_dict()
            state = "done" if result.ok else result.status
            error = result.error
        except Exception as exc:  # a broken job must not kill the worker
            payload, state = None, "error"
            error = f"{type(exc).__name__}: {exc}"
        finally:
            hb_stop.set()
            heartbeat.join()
            attempt = _trace.current()
            if attempt is not None:
                # Chaos runs: which fault plans fired during this
                # attempt, attached to the attempt span.
                fired = {
                    point: c["fired"] - fired_before.get(point, 0)
                    for point, c in _fault_counters().items()
                    if c["fired"] - fired_before.get(point, 0) > 0
                }
                if fired:
                    attempt.annotate("faults_fired", fired)

        if lost.is_set() or not self.queue.owns(row.id, self.worker_id):
            # The lease was reclaimed while we ran (we were presumed
            # dead).  The job belongs to someone else now: no store
            # write, no ack — exactly-once means our late result loses.
            _LOG.warning(
                "worker %s lost the lease on job %s; discarding its result",
                self.worker_id,
                row.id,
            )
            return None

        if (
            state == "done"
            and key is not None
            and store is not None
            and parsed.config.cache == "readwrite"
        ):
            # Persist BEFORE the ack flips the job visible as done: a
            # client resubmitting the instant it polls "done" must find
            # the store entry already in place.
            if not store.put(key, payload, stage="service-job"):
                health = store.health()
                warnings.append(
                    "result could not be stored"
                    f" ({health['last_error']}); future identical"
                    " submissions will recompute"
                )
        if warnings and payload is not None:
            payload = dict(payload)
            payload["warnings"] = warnings
        return {"state": state, "result": payload, "error": error}

    def _finish(
        self,
        row: JobRow,
        *,
        state: str,
        result: Optional[dict] = None,
        error: Optional[str] = None,
        cached: bool = False,
        spans: Optional[list] = None,
    ) -> None:
        acked = self.queue.ack(
            row.id,
            self.worker_id,
            state=state,
            result=result,
            error=error,
            cached=cached,
            spans=spans,
        )
        if not acked:
            _LOG.warning(
                "worker %s could not ack job %s (lease reclaimed)",
                self.worker_id,
                row.id,
            )
            return
        self.jobs_done += 1
        _obs_metrics().count(f"worker.jobs.{state}")
        if cached:
            _obs_metrics().count("worker.jobs.cached")
        self.queue.worker_update(
            self.worker_id, state="idle", bump_done=True
        )
        _LOG.info(
            "worker %s finished job %s (%s%s)",
            self.worker_id,
            row.id,
            state,
            ", cached" if cached else "",
        )

    def _heartbeat_loop(
        self, job_id: str, stop: threading.Event, lost: threading.Event
    ) -> None:
        """Renew the lease until told to stop, surviving transient errors.

        :meth:`JobQueue.heartbeat` raises only after its own bounded
        retries are exhausted (sustained lock contention, injected
        faults).  A silently dying heartbeat thread would let the lease
        lapse mid-job and the job run twice — so failures here are
        caught and retried with backoff, and only when the lease budget
        itself is exhausted (we can no longer prove ownership) does the
        loop escalate by setting ``lost``, which makes the worker
        discard its result exactly as if the lease had been reclaimed.
        """
        beat = self.queue_config.heartbeat_seconds
        lease = self.queue_config.lease_seconds
        failures = 0
        last_ok = time.time()
        wait = beat
        while not stop.wait(wait):
            try:
                owned = self.queue.heartbeat(
                    job_id, self.worker_id, lease_seconds=lease
                )
            except Exception as exc:
                failures += 1
                if time.time() - last_ok >= lease:
                    _LOG.error(
                        "worker %s: heartbeat for job %s unrestorable"
                        " after %d failure(s) (%s); aborting the job"
                        " cleanly",
                        self.worker_id,
                        job_id,
                        failures,
                        exc,
                    )
                    lost.set()
                    return
                # Retry faster than the normal cadence at first, backing
                # off exponentially — the lease clock is ticking.
                wait = min(beat, 0.05 * (2 ** min(failures, 6)))
                continue
            if not owned:
                lost.set()
                return
            failures = 0
            last_ok = time.time()
            wait = beat
