"""Job manager of the macromodel service: the durable-queue front tier.

The manager validates JSON job specifications (via
:func:`repro.queue.parse_spec`) and **enqueues** them into the
persistent :class:`~repro.queue.JobQueue` — it no longer executes
anything on an in-process pool.  Execution belongs to
:class:`~repro.queue.QueueWorker` instances: external ``repro worker``
processes attached to the same queue file, and/or the embedded worker
threads this manager spawns (``workers`` > 0) so the single-process
developer experience keeps working out of the box.

Every job gets a content-addressed *job key* over (source, task,
parameters, config).  With caching enabled, a submission whose key is
already in the :class:`~repro.store.ResultStore` is inserted already
``done`` — the response carries ``"cached": true`` and the stored
result, and no worker ever runs.  Completed results are written back to
the store by the workers, so the cache warms itself under traffic.

Because the queue is one SQLite file, a service restart loses nothing:
queued jobs stay queued, running jobs are reclaimed when their lease
expires, finished jobs keep serving their results.
"""

from __future__ import annotations

import sqlite3
import threading
import uuid
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.batch.runner import BATCH_BACKENDS
from repro.core.config import RunConfig
from repro.faults import init_from_env as _faults_init_from_env
from repro.obs import trace as _trace
from repro.obs.metrics import Histogram
from repro.obs.metrics import get_registry as _obs_metrics
from repro.queue import (
    SIMULATE_SPEC_KEYS,
    VALID_KINDS,
    VALID_TASKS,
    JobError,
    JobQueue,
    JobRow,
    QueueConfig,
    QueueWorker,
    TokenBucketLimiter,
    parse_spec,
)
from repro.store import ResultStore
from repro.utils.logging import get_logger
from repro.utils.validation import ensure_choice, ensure_positive_int

__all__ = [
    "JobError",
    "JobManager",
    "ServiceUnavailable",
    "SIMULATE_SPEC_KEYS",
    "VALID_TASKS",
    "VALID_KINDS",
]


class ServiceUnavailable(RuntimeError):
    """The write path is down (queue unreachable); reads may still serve.

    The HTTP layer maps this to ``503`` with a ``Retry-After`` header —
    the client's cue to back off and retry rather than treat the outage
    as a permanent failure.
    """

_LOG = get_logger("service")


class JobManager:
    """Validation + durable queue + embedded worker fleet.

    Parameters
    ----------
    config:
        Base :class:`RunConfig` applied to every job (a submission's
        ``"config"`` object merges on top).  Its ``cache`` mode governs
        both the stage-level store use inside workers and the job-level
        short-circuit at submission time.
    file_representation:
        Let a Touchstone job's file pick the representation over
        ``config.representation`` (see :func:`parse_spec`); implied when
        ``config`` is ``None``.  ``repro serve`` sets it unless
        ``--representation`` or ``REPRO_REPRESENTATION`` names one.
    workers:
        Embedded worker threads draining the queue from inside this
        process.  ``0`` is valid and makes the service a pure front-end
        — submissions queue up for external ``repro worker`` processes.
    timeout:
        Per-job wall-clock budget in seconds for the embedded workers
        (process-backend jobs are killed on expiry).
    backend:
        Fleet backend the embedded workers execute on (``"process"``
        default).
    num_poles, margin:
        Defaults for specs that omit them.
    queue_config:
        :class:`~repro.queue.QueueConfig` — lease, heartbeat, poll,
        retry, and rate-limit knobs (``REPRO_QUEUE_*``).
    queue_path:
        Queue database file; overrides ``queue_config.path``.  Defaults
        to ``queue.sqlite3`` next to the result store.
    """

    def __init__(
        self,
        *,
        config: Optional[RunConfig] = None,
        file_representation: bool = False,
        workers: int = 2,
        timeout: Optional[float] = None,
        backend: str = "process",
        num_poles: int = 30,
        margin: float = 0.002,
        queue_config: Optional[QueueConfig] = None,
        queue_path: Optional[str] = None,
    ) -> None:
        ensure_choice(backend, "service backend", BATCH_BACKENDS)
        # Fail the service boot on a malformed REPRO_FAULTS plan rather
        # than discovering it deep inside a request handler.
        _faults_init_from_env()
        self.file_representation = bool(file_representation) or config is None
        self.config = config if config is not None else RunConfig()
        self.workers = int(workers)
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if timeout is not None and timeout <= 0.0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        self.backend = backend
        self.num_poles = ensure_positive_int(num_poles, "num_poles")
        self.margin = float(margin)
        self.queue_config = (
            queue_config if queue_config is not None else QueueConfig()
        )
        self.store: Optional[ResultStore] = (
            ResultStore.from_config(self.config)
            if self.config.cache != "off"
            else None
        )
        store_root = self.store.root if self.store is not None else None
        self.queue_path = (
            Path(queue_path)
            if queue_path is not None
            else self.queue_config.resolve_path(store_root)
        )
        self.queue = JobQueue(
            self.queue_path, max_attempts=self.queue_config.max_attempts
        )
        self.limiter = TokenBucketLimiter(
            self.queue_config.rate, self.queue_config.burst
        )
        self._shutdown = False
        self._unavailable = 0  # submissions refused because the queue was down
        self._embedded: List[Tuple[QueueWorker, threading.Thread]] = []
        for index in range(self.workers):
            worker = QueueWorker(
                self.queue_path,
                queue_config=self.queue_config,
                worker_id=f"embedded-{index + 1}-{uuid.uuid4().hex[:6]}",
                backend=self.backend,
                timeout=self.timeout,
            )
            thread = threading.Thread(
                target=worker.run,
                name=f"repro-worker-{index + 1}",
                daemon=True,
            )
            thread.start()
            self._embedded.append((worker, thread))

    # -- submission ---------------------------------------------------------

    def check_rate(self, client: str) -> Tuple[bool, float]:
        """Spend one submission token for ``client`` (HTTP 429 gate)."""
        return self.limiter.allow(client)

    def submit(
        self,
        spec: Mapping[str, Any],
        *,
        trace_id: Optional[str] = None,
    ) -> JobRow:
        """Validate and durably enqueue one job.

        Returns the stored row: status ``"queued"`` for fresh work, or
        ``"done"`` with ``cached=True`` when the job-level key was
        already in the store (the fast path the service exists for).

        ``trace_id`` is the client's ``X-Repro-Trace-Id``; it is
        sanitized (or generated when absent/invalid) and stamped on the
        job row so every layer downstream — queue, worker, pipeline
        stages — attaches its spans to one causal timeline.
        """
        if self._shutdown:
            raise RuntimeError("the job manager is shut down")
        job_id = uuid.uuid4().hex[:12]
        trace_id = _trace.ensure_trace_id(trace_id)
        parsed = parse_spec(
            spec,
            base_config=self.config,
            num_poles=self.num_poles,
            margin=self.margin,
            job_id=job_id,
            file_representation=self.file_representation,
        )

        # The short-circuit honors the *effective* config: a submission
        # that opts out (`"config": {"cache": "off"}`) must recompute,
        # mirroring the write path in the workers.
        cached_payload: Optional[dict] = None
        spans: Optional[list] = None
        if (
            parsed.key is not None
            and self.store is not None
            and parsed.config.cache in ("read", "readwrite")
        ):
            context = _trace.TraceContext(
                trace_id=trace_id, span_id=job_id, job_id=job_id
            )
            with _trace.activate(context) as sink:
                cached_payload = self.store.get(parsed.key)
            if cached_payload is not None and _trace.tracing_enabled():
                # A hit completes here: the lookup is the job's trace,
                # committed with its row.
                spans = sink

        try:
            return self.queue.enqueue(
                job_id=job_id,
                task=parsed.task,
                name=parsed.name,
                kind=parsed.kind,
                # The resolved spec bakes in the effective config and
                # parameters, so any worker reproduces this exact
                # computation no matter how it was booted.
                spec=parsed.resolved_spec(),
                key=parsed.key,
                cached_result=cached_payload,
                trace_id=trace_id,
                spans=spans,
            )
        except sqlite3.Error as exc:
            # Degraded mode: the durable queue is unreachable even after
            # the DB layer's bounded retries.  Writes fail fast with a
            # retryable signal; reads (job lookups, stored results)
            # keep serving from whatever still works.
            self._unavailable += 1
            _LOG.error("submit refused, queue unavailable: %s", exc)
            raise ServiceUnavailable(
                f"job queue unavailable: {exc}"
            ) from exc

    # -- inspection ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRow]:
        """Look up one job row by id."""
        return self.queue.get(job_id)

    def events(
        self, job_id: str, *, since: int = 0, timeout: float = 30.0
    ) -> Optional[JobRow]:
        """Long-poll one job for a state transition past ``since``.

        Returns the fresh row as soon as its version exceeds ``since``
        (or immediately when the job is already terminal), the unchanged
        row at timeout, or ``None`` for an unknown id.
        """
        return self.queue.wait_for_version(
            job_id,
            since=since,
            timeout=timeout,
            poll=min(0.1, self.queue_config.poll_seconds),
        )

    def trace(self, job_id: str) -> Optional[dict]:
        """The trace document of one job (``GET /v1/jobs/<id>/trace``).

        See :meth:`~repro.queue.JobQueue.trace`: ``None`` for an unknown
        job, an empty tree until the job finishes.
        """
        return self.queue.trace(job_id)

    def result_payload(self, key: str) -> Optional[dict]:
        """Fetch a raw store payload (``GET /v1/results/<key>``)."""
        if self.store is None:
            return None
        try:
            return self.store.get(key)
        except ValueError:
            return None

    def health(self) -> dict:
        """Live per-subsystem health (``GET /healthz``).

        ``"ok"`` when every subsystem answers its probe; ``"degraded"``
        when any does not.  Degraded is still HTTP 200 — the process is
        up and reads may serve — the *body* tells operators what broke.
        """
        subsystems: Dict[str, dict] = {}
        try:
            self.queue.probe()
            subsystems["queue"] = {"status": "ok"}
        except sqlite3.Error as exc:
            subsystems["queue"] = {
                "status": "failing",
                "error": f"{type(exc).__name__}: {exc}",
            }
        if self.store is not None:
            store_health = self.store.probe()
            subsystems["store"] = {
                "status": store_health["status"],
                "error": store_health["last_error"],
            }
        else:
            subsystems["store"] = {"status": "off"}
        degraded = any(
            detail["status"] == "failing" for detail in subsystems.values()
        )
        return {
            "status": "degraded" if degraded else "ok",
            "subsystems": subsystems,
        }

    def latency_stats(self) -> dict:
        """Latency histograms for ``GET /v1/stats``.

        ``endpoints`` — request-handling latency per HTTP endpoint,
        recorded live by the handler into the process registry.
        ``tasks`` — per-task ``queue_wait`` (submit → claim) and
        ``execution`` (claim → finish) histograms rebuilt from the
        durable queue timestamps, so externally executed jobs are
        included; cached submissions (inserted already done) are
        excluded from both and reported as a count instead.
        """
        endpoints: Dict[str, dict] = {}
        registry_state = _obs_metrics().to_dict()
        for name, payload in registry_state["timings"].items():
            if name.startswith("http."):
                endpoints[name[len("http."):]] = payload

        tasks: Dict[str, dict] = {}
        cached_excluded = 0
        try:
            samples = self.queue.latency_samples()
        except sqlite3.Error:
            samples = []  # latency is best-effort while the queue is down
        histograms: Dict[Tuple[str, str], Histogram] = {}
        for sample in samples:
            if sample["cached"]:
                cached_excluded += 1
                continue
            for phase in ("queue_wait", "execution"):
                value = sample[phase]
                if value is None:
                    continue
                slot = histograms.setdefault(
                    (sample["task"], phase), Histogram()
                )
                slot.observe(value)
        for (task, phase), hist in histograms.items():
            tasks.setdefault(task, {})[phase] = hist.to_dict()
        return {
            "endpoints": endpoints,
            "tasks": tasks,
            "cached_submissions_excluded": cached_excluded,
        }

    def stats(self) -> dict:
        """Aggregate service statistics (``GET /v1/stats``)."""
        queue_stats = self.queue.stats()
        depth: Dict[str, int] = queue_stats["depth"]
        store_stats = self.store.stats() if self.store is not None else None
        return {
            "workers": self.workers,
            "backend": self.backend,
            "timeout": self.timeout,
            "cache": self.config.cache,
            "jobs": {"total": queue_stats["total"], **depth},
            "cached_submissions": queue_stats["cached"],
            "completed": queue_stats["completed"],
            "queue": {
                "path": queue_stats["path"],
                "depth": depth,
                "max_attempts": self.queue_config.max_attempts,
                "lease_seconds": self.queue_config.lease_seconds,
                "rate": self.queue_config.rate,
            },
            "tasks_completed": queue_stats["tasks_completed"],
            "queue_workers": queue_stats["workers"],
            "latency": self.latency_stats(),
            "store": store_stats,
            "reliability": {
                "queue_retries": queue_stats["counters"],
                "store_retries": (
                    store_stats["counters"] if store_stats is not None else None
                ),
                "submissions_refused_unavailable": self._unavailable,
            },
        }

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop accepting jobs and drain the embedded workers."""
        self._shutdown = True
        for worker, _thread in self._embedded:
            worker.request_stop()
        if wait:
            for _worker, thread in self._embedded:
                thread.join(timeout=30.0)
        self.queue.close()
