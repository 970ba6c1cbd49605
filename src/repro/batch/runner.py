"""The batch fleet runner: many models through fit → check → enforce.

:class:`BatchRunner` drives a whole fleet of macromodels through the
paper's pipeline across a bounded pool of worker processes, with a hard
per-job timeout (a hung or runaway job is terminated, not waited on) and
structured per-job results collected into one :class:`FleetReport`.

Execution backends:

* ``"process"`` (default) — up to ``workers`` child processes, each
  forked at its first job and fed job after job over a pipe; the only
  backend whose timeout can actually *kill* a stuck job.  A child whose
  job overruns its budget is terminated, and one that dies without a
  result is reaped; the next job on that slot forks a fresh child.  The
  children are daemonic, exit when their pipe closes, and end before
  :meth:`BatchRunner.run` returns.  Like the other backends, a child
  carries process state (caches, the metrics registry, a fault plan's
  random streams) from one job to the next.  Inside a job the solver's
  own ``backend="process"`` is downgraded to ``"auto"`` so fleets do not
  fork pools inside pools.
* ``"thread"`` — a thread pool; timeouts are best-effort (the job is
  *marked* timed out and its late result discarded, but CPython cannot
  preempt the thread).
* ``"serial"`` — in-process, one job at a time; deterministic reference
  used by the backend-parity tests and the benchmark baseline.  The
  timeout is best-effort here too: an overrunning job is re-labelled
  ``"timeout"`` after it completes.

Usage::

    from repro.batch import BatchRunner, synth_fleet

    report = BatchRunner(workers=4, timeout=60.0).run(synth_fleet(10))
    print(report.summary())
    payload = report.to_dict()            # JSON-serializable

or, through the facade: ``Macromodel.map(synth_fleet(10), workers=4)``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as wait_ready
from typing import Dict, List, Optional, Sequence, Union

from repro.batch.jobs import BatchJob, JobSource, expand_jobs
from repro.core.config import RunConfig
from repro.core.sweep import preferred_mp_context
from repro.obs import trace as _trace
from repro.utils.guards import NumericalError
from repro.utils.logging import get_logger
from repro.utils.serialization import to_jsonable
from repro.utils.validation import ensure_choice, ensure_positive_int

__all__ = [
    "BATCH_BACKENDS",
    "JobSettings",
    "JobResult",
    "FleetReport",
    "BatchRunner",
]

_LOG = get_logger("batch")

#: Execution backends the runner supports.
BATCH_BACKENDS = ("process", "thread", "serial")


@dataclass(frozen=True)
class JobSettings:
    """Pipeline parameters shared by every job of a fleet run."""

    config: Optional[RunConfig] = None
    #: True when a job's source picks the representation over
    #: ``config.representation`` (a Touchstone file's parameter type).
    file_representation: bool = False
    num_poles: int = 30
    enforce: bool = False
    margin: float = 0.002
    in_process_pool: bool = False
    hinf: bool = False
    simulate: bool = False
    #: Keyword arguments of :meth:`Macromodel.simulate` (stimulus,
    #: num_steps, integrator, ...); ``None`` uses the engine defaults.
    simulate_params: Optional[dict] = None
    #: Serialized :class:`repro.obs.TraceContext` dict — the distributed
    #: tracing context the executing side (possibly a child process)
    #: restores, so pipeline-stage spans nest under the caller's span.
    #: ``None`` leaves tracing inactive.
    trace: Optional[dict] = None


@dataclass(frozen=True)
class JobResult:
    """Structured outcome of one fleet job.

    Attributes
    ----------
    name:
        The job's unique label.
    status:
        ``"ok"``, ``"error"`` (the job raised), or ``"timeout"`` (the
        per-job wall-clock budget expired and the worker was stopped).
    elapsed:
        Wall-clock seconds the job consumed (budget seconds for
        timeouts).
    is_passive:
        Final passivity verdict; ``None`` unless status is ``"ok"``.
    crossings:
        Sorted non-negative crossing frequencies of the *initial*
        characterization (before any enforcement) — the fleet-level
        passivity fingerprint compared across backends.
    error:
        Exception summary for ``"error"`` / ``"timeout"`` rows.
    session:
        The session's JSON payload (:meth:`Macromodel.to_dict`) for
        ``"ok"`` rows.
    source:
        JSON description of the job source.
    cache_hits, cache_misses:
        Result-store traffic of the job's session (all zero when the
        fleet config leaves ``cache="off"``).  A hit means the stage
        skipped its computation and served the stored payload.
    energy_gain:
        Port-energy gain of the transient stage (``None`` unless the
        fleet ran with ``simulate=True``) — the fleet-level passivity
        witness: greater than 1 means the model manufactured energy.
    diagnostic:
        Structured failure diagnostics for ``"error"`` rows whose cause
        was a detected numerical pathology
        (:class:`~repro.utils.guards.NumericalError` — NaN/Inf data,
        pathological conditioning): ``{"type", "stage", "kind",
        "message", "detail"}``.  ``None`` for every other outcome.
    metrics:
        The job session's metrics snapshot
        (:meth:`repro.obs.MetricsRegistry.snapshot` — counters plus
        per-stage latency summaries) for ``"ok"`` rows; ``None``
        otherwise.  Volatile by nature (timings differ run to run), so
        never part of any cross-backend equality comparison.
    """

    name: str
    status: str
    elapsed: float
    is_passive: Optional[bool] = None
    crossings: List[float] = field(default_factory=list)
    error: Optional[str] = None
    session: Optional[dict] = None
    source: Optional[dict] = None
    cache_hits: int = 0
    cache_misses: int = 0
    energy_gain: Optional[float] = None
    diagnostic: Optional[dict] = None
    metrics: Optional[dict] = None
    #: Finished trace spans recorded while the job executed (present
    #: only when :attr:`JobSettings.trace` propagated a context) — the
    #: transport that carries child-process spans back over the result
    #: pipe.  Deliberately excluded from :meth:`to_dict`: spans are
    #: persisted to the queue's trace table, not embedded in results.
    spans: Optional[list] = None

    @property
    def ok(self) -> bool:
        """True when the job completed its pipeline."""
        return self.status == "ok"

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of this job outcome.

        ``session`` is passed through as it is, not copied: it is the
        output of :meth:`Macromodel.to_dict`, JSON-native already.
        """
        payload = to_jsonable(
            {
                "name": self.name,
                "status": self.status,
                "elapsed": float(self.elapsed),
                "is_passive": self.is_passive,
                "crossings": [float(w) for w in self.crossings],
                "error": self.error,
                "session": None,
                "source": self.source,
                "cache_hits": int(self.cache_hits),
                "cache_misses": int(self.cache_misses),
                "energy_gain": self.energy_gain,
                "diagnostic": self.diagnostic,
                "metrics": self.metrics,
            }
        )
        payload["session"] = self.session
        return payload


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one :meth:`BatchRunner.run` call."""

    results: List[JobResult]
    elapsed: float
    workers: int
    backend: str

    @property
    def num_jobs(self) -> int:
        """Total number of jobs in the fleet."""
        return len(self.results)

    @property
    def num_ok(self) -> int:
        """Jobs that completed their pipeline."""
        return sum(1 for r in self.results if r.ok)

    @property
    def num_failed(self) -> int:
        """Jobs that raised or timed out."""
        return self.num_jobs - self.num_ok

    @property
    def num_passive(self) -> int:
        """Completed jobs whose final verdict was passive."""
        return sum(1 for r in self.results if r.ok and r.is_passive)

    @property
    def all_ok(self) -> bool:
        """True when every job completed."""
        return self.num_failed == 0

    @property
    def cache_hits(self) -> int:
        """Result-store hits across the whole fleet."""
        return sum(r.cache_hits for r in self.results)

    @property
    def cache_misses(self) -> int:
        """Result-store misses across the whole fleet."""
        return sum(r.cache_misses for r in self.results)

    def result(self, name: str) -> JobResult:
        """Look up one job outcome by name."""
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(f"no job named {name!r} in this report")

    def crossings_by_name(self) -> Dict[str, List[float]]:
        """Per-model crossing sets of the completed jobs."""
        return {r.name: list(r.crossings) for r in self.results if r.ok}

    def metrics(self) -> dict:
        """Fleet-aggregate metrics: summed counters plus per-stage
        timing count/total across every job that reported a snapshot.

        Histogram bucket detail does not survive the worker-process
        boundary (snapshots are JSON), so the aggregate carries each
        stage's observation count and total seconds — enough for
        throughput and mean-latency accounting at fleet level.
        """
        counters: Dict[str, int] = {}
        timings: Dict[str, Dict[str, float]] = {}
        for result in self.results:
            snapshot = result.metrics or {}
            for name, value in (snapshot.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + int(value)
            for name, summary in (snapshot.get("timings") or {}).items():
                slot = timings.setdefault(name, {"count": 0, "sum": 0.0})
                slot["count"] += int(summary.get("count") or 0)
                slot["sum"] += float(summary.get("sum") or 0.0)
        return {"counters": counters, "timings": timings}

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the whole fleet outcome."""
        payload = to_jsonable(
            {
                "elapsed": float(self.elapsed),
                "workers": int(self.workers),
                "backend": self.backend,
                "num_jobs": self.num_jobs,
                "num_ok": self.num_ok,
                "num_failed": self.num_failed,
                "num_passive": self.num_passive,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "metrics": self.metrics(),
            }
        )
        payload["results"] = [r.to_dict() for r in self.results]
        return payload

    def summary(self) -> str:
        """Multi-line human-readable fleet summary."""
        cache = ""
        if self.cache_hits or self.cache_misses:
            cache = f", cache {self.cache_hits} hit / {self.cache_misses} miss"
        lines = [
            f"fleet: {self.num_jobs} jobs, {self.num_ok} ok,"
            f" {self.num_failed} failed, {self.num_passive} passive,"
            f" {self.elapsed:.3f}s"
            f" ({self.backend} backend, {self.workers} workers{cache})"
        ]
        for r in self.results:
            if r.ok:
                verdict = "passive" if r.is_passive else "NOT passive"
                detail = f"{verdict}, {len(r.crossings)} crossing(s)"
            else:
                detail = f"{r.status}: {r.error}"
            lines.append(f"  {r.name:<20} [{r.status:>7}] {r.elapsed:8.3f}s  {detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Job execution (worker side)
# ---------------------------------------------------------------------------


def _execute_job(job: BatchJob, settings: JobSettings) -> JobResult:
    """Run one job's pipeline, restoring the propagated trace context.

    When :attr:`JobSettings.trace` carries a serialized context — e.g.
    the queue worker's attempt span — the whole pipeline runs inside it
    and the finished spans ride back on :attr:`JobResult.spans`, whether
    this executes in a child process, a pool thread, or inline.
    """
    if not settings.trace:
        return _run_pipeline(job, settings)
    try:
        context = _trace.TraceContext.from_dict(settings.trace)
    except (KeyError, TypeError):
        return _run_pipeline(job, settings)
    spans: list = []
    with _trace.activate(context, spans):
        with _trace.span("batch.pipeline", job=job.name):
            result = _run_pipeline(job, settings)
    return replace(result, spans=spans) if spans else result


def _run_pipeline(job: BatchJob, settings: JobSettings) -> JobResult:
    """Run one job's fit → check → enforce pipeline (any backend)."""
    started = time.perf_counter()
    config = settings.config
    if (
        settings.in_process_pool
        and config is not None
        and "process" in (config.strategy, config.backend)
    ):
        # No pools inside pools: the fleet already owns the cores.
        config = config.merged(strategy="auto", backend="auto")
    try:
        if config is not None and settings.file_representation:
            config = job.source_config(config)
        session = job.open_session(config)
        if job.needs_fit:
            session.fit(num_poles=settings.num_poles)
        session.check_passivity()
        report = session.passivity_report
        crossings = []
        if report is not None and report.solve is not None:
            crossings = [float(w) for w in report.solve.omegas]
        if settings.enforce and not session.is_passive:
            session.enforce(margin=settings.margin)
        if settings.hinf:
            session.hinf()
        energy_gain = None
        if settings.simulate:
            session.simulate(**(settings.simulate_params or {}))
            energy_gain = float(session.energy_report.energy_gain)
        cache_stats = session.cache_stats
        return JobResult(
            name=job.name,
            status="ok",
            elapsed=time.perf_counter() - started,
            is_passive=session.is_passive,
            crossings=crossings,
            session=session.to_dict(),
            source=job.describe(),
            cache_hits=int(cache_stats.get("hits", 0)),
            cache_misses=int(cache_stats.get("misses", 0)),
            energy_gain=energy_gain,
            metrics=session.metrics.snapshot(),
        )
    except NumericalError as exc:
        # A detected numerical pathology (NaN/Inf input, pathological
        # conditioning) carries a structured diagnostic so operators see
        # *what* went non-finite and *where*, not just a traceback line.
        return JobResult(
            name=job.name,
            status="error",
            elapsed=time.perf_counter() - started,
            error=f"NumericalError: {exc}",
            source=job.describe(),
            diagnostic=exc.to_dict(),
        )
    except Exception as exc:  # one bad model must not sink the fleet
        return JobResult(
            name=job.name,
            status="error",
            elapsed=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
            source=job.describe(),
        )


def _child_loop(conn) -> None:
    """Job-child entry point: receive a pickled ``(job, settings)``, run
    it, send the result back; return when the parent closes the pipe."""
    # Drop the inherited parent ends of every job child's pipe, this
    # one's included, so that each child sees EOF once its parent dies.
    for parent_end in list(_PARENT_ENDS):
        parent_end.close()
    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        try:
            job, settings = pickle.loads(payload)
            result = _execute_job(job, settings)
        except BaseException as exc:  # pickling/import failures included
            result = JobResult(
                name="<unknown>",
                status="error",
                elapsed=0.0,
                error=f"{type(exc).__name__}: {exc}",
            )
        conn.send(result)


#: The parent end of every live job child's pipe in this process.  A
#: child closes its inherited copies first thing, which is only safe
#: because every fork and every close of a listed end holds the lock.
_PARENT_ENDS: set = set()
_FORK_LOCK = threading.Lock()


class _JobChild:
    """One forked job child and the parent's end of its pipe."""

    def __init__(self, ctx) -> None:
        with _FORK_LOCK:
            self.conn, child_end = ctx.Pipe()
            _PARENT_ENDS.add(self.conn)
            try:
                self.process = ctx.Process(
                    target=_child_loop,
                    args=(child_end,),
                    name="repro-job-child",
                    daemon=True,
                )
                self.process.start()
            except BaseException:
                _PARENT_ENDS.discard(self.conn)
                self.conn.close()
                raise
            finally:
                child_end.close()

    def close(self, *, kill: bool) -> None:
        """Close the pipe and reap the child; ``kill`` terminates it
        first (an overrunning or abandoned job)."""
        with _FORK_LOCK:
            _PARENT_ENDS.discard(self.conn)
            self.conn.close()
        if kill:
            self.process.terminate()
        # An idle child exits on EOF; one that does not is terminated.
        self.process.join(timeout=None if kill else 10.0)
        if self.process.exitcode is None:
            self.process.terminate()
            self.process.join()


class _JobChildren:
    """The process backend's job children, forked on demand and reused
    job after job until :meth:`close` ends them.

    Whoever creates one owns the children: :meth:`BatchRunner.run` for
    one fleet, a :class:`~repro.queue.QueueWorker` for one ``run()``.
    At most as many children exist as jobs were in flight at once.
    """

    def __init__(self) -> None:
        self._idle: List[_JobChild] = []
        self._busy: List[_JobChild] = []

    def __enter__(self) -> "_JobChildren":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def acquire(self) -> _JobChild:
        """An idle live child, or a newly forked one."""
        while self._idle:
            child = self._idle.pop()
            if child.process.is_alive():
                break
            child.close(kill=False)  # died while idle
        else:
            child = _JobChild(preferred_mp_context())
        self._busy.append(child)
        return child

    def release(self, child: _JobChild) -> None:
        """Return a child whose job finished, ready for the next one."""
        self._busy.remove(child)
        self._idle.append(child)

    def discard(self, child: _JobChild, *, kill: bool) -> None:
        """End a child whose job timed out (``kill``) or that died."""
        self._busy.remove(child)
        child.close(kill=kill)

    def close(self) -> None:
        """End every child: idle ones on EOF, busy ones by terminating."""
        while self._busy:
            self.discard(self._busy[-1], kill=True)
        while self._idle:
            self._idle.pop().close(kill=False)


# ---------------------------------------------------------------------------
# The runner (parent side)
# ---------------------------------------------------------------------------


class BatchRunner:
    """Run a fleet of macromodel jobs across a bounded worker pool.

    Parameters
    ----------
    config:
        Solver :class:`~repro.core.config.RunConfig` applied to every
        job's session.  As in :meth:`Macromodel.from_touchstone`, its
        representation wins over a Touchstone file's parameter type,
        with a warning where they disagree; with no config, each file
        picks (S: scattering, Y/Z: immittance).
    file_representation:
        Let each Touchstone file pick the representation over
        ``config.representation`` (``repro batch`` sets it unless a flag
        or ``REPRO_REPRESENTATION`` names one).
    workers:
        Maximum concurrent jobs; defaults to ``os.cpu_count()`` capped
        at 8.
    timeout:
        Per-job wall-clock budget in seconds (``None`` — no limit).  On
        the ``"process"`` backend an expired job's worker is terminated.
    backend:
        ``"process"`` (default), ``"thread"``, or ``"serial"`` — see the
        module docstring.  When multiprocessing cannot start on the host
        platform the runner degrades to ``"thread"``.
    num_poles:
        Model order for jobs that need the fitting stage.
    enforce:
        Run the enforcement stage on models whose characterization found
        violations.
    margin:
        Enforcement margin below the unit threshold.
    hinf:
        Also compute the H-infinity norm after the characterization
        (scattering sessions only; used by the HTTP service's ``hinf``
        task).
    simulate:
        Also run the transient energy witness after the final
        characterization/enforcement stage (the HTTP service's
        ``simulate`` task); per-job gains surface as
        ``JobResult.energy_gain``.
    simulate_params:
        Keyword arguments forwarded to :meth:`Macromodel.simulate`
        (stimulus, num_steps, integrator, ...).
    trace:
        Serialized distributed-tracing context
        (:meth:`repro.obs.TraceContext.to_dict`) restored around every
        job so pipeline-stage spans reach the caller's trace; ``None``
        leaves tracing inactive.
    """

    def __init__(
        self,
        *,
        config: Optional[RunConfig] = None,
        file_representation: bool = False,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        backend: str = "process",
        num_poles: int = 30,
        enforce: bool = False,
        margin: float = 0.002,
        hinf: bool = False,
        simulate: bool = False,
        simulate_params: Optional[dict] = None,
        trace: Optional[dict] = None,
    ) -> None:
        ensure_choice(backend, "batch backend", BATCH_BACKENDS)
        if workers is None:
            workers = min(os.cpu_count() or 1, 8)
        self.workers = ensure_positive_int(workers, "workers")
        if timeout is not None and timeout <= 0.0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        self.backend = backend
        self.settings = JobSettings(
            config=config,
            file_representation=bool(file_representation),
            num_poles=ensure_positive_int(num_poles, "num_poles"),
            enforce=bool(enforce),
            margin=float(margin),
            in_process_pool=(backend == "process"),
            hinf=bool(hinf),
            simulate=bool(simulate),
            simulate_params=dict(simulate_params) if simulate_params else None,
            trace=dict(trace) if trace else None,
        )

    def run(self, sources: Union[JobSource, Sequence[JobSource]]) -> FleetReport:
        """Execute every job and return the aggregate report.

        Job results appear in input order regardless of completion
        order; individual failures and timeouts are recorded, never
        raised.  Every job child the fleet forked has exited by the time
        this returns.
        """
        with _JobChildren() as children:
            return self._run(sources, children)

    def _run(
        self,
        sources: Union[JobSource, Sequence[JobSource]],
        children: _JobChildren,
    ) -> FleetReport:
        """:meth:`run` on job children that the caller owns and closes."""
        jobs = expand_jobs(sources)
        started = time.perf_counter()
        backend = self.backend
        if backend == "process":
            try:
                results = self._run_processes(jobs, children)
            except (OSError, ImportError) as exc:
                _LOG.debug("process pool unavailable (%r); using threads", exc)
                backend = "thread"
                results = self._run_threads(jobs)
        elif backend == "thread":
            results = self._run_threads(jobs)
        else:
            results = [
                self._soft_budget(_execute_job(job, self.settings))
                for job in jobs
            ]
        elapsed = time.perf_counter() - started
        return FleetReport(
            results=results,
            elapsed=elapsed,
            workers=self.workers,
            backend=backend,
        )

    def _soft_budget(self, result: JobResult) -> JobResult:
        """Best-effort budget for the serial/thread backends: the running
        job cannot be interrupted, so an overrun is re-labelled after the
        fact and its result discarded."""
        if self.timeout is None or result.elapsed <= self.timeout:
            return result
        return JobResult(
            name=result.name,
            status="timeout",
            elapsed=result.elapsed,
            error=f"exceeded the {self.timeout:g}s budget (the job ran to"
            " completion; this backend cannot interrupt it)",
            source=result.source,
        )

    # -- process backend ----------------------------------------------------

    def _run_processes(
        self, jobs: List[BatchJob], children: _JobChildren
    ) -> List[JobResult]:
        pending = list(enumerate(jobs))
        results: List[Optional[JobResult]] = [None] * len(jobs)
        active: list = []  # (slot, job, child, deadline)

        def launch(slot: int, job: BatchJob) -> None:
            try:
                payload = pickle.dumps(
                    (job, self.settings), protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception as exc:
                # An unpicklable job must become an error row, not sink
                # the whole fleet before it starts.
                results[slot] = JobResult(
                    name=job.name,
                    status="error",
                    elapsed=0.0,
                    error=f"job is not picklable: {type(exc).__name__}: {exc}",
                    source=job.describe(),
                )
                return
            child = None
            try:
                child = children.acquire()
                child.conn.send_bytes(payload)
            except OSError as exc:
                # Fork/pipe failure mid-fleet (fd or process limits): run
                # this job inline instead of letting the exception orphan
                # the workers already in flight.
                _LOG.debug("cannot launch worker for %s (%r)", job.name, exc)
                if child is not None:
                    children.discard(child, kill=True)
                results[slot] = _execute_job(job, self.settings)
                return
            deadline = (
                time.perf_counter() + self.timeout
                if self.timeout is not None
                else None
            )
            active.append((slot, job, child, deadline))

        def reap() -> None:
            for entry in list(active):
                slot, job, child, deadline = entry
                if child.conn.poll():
                    try:
                        result = child.conn.recv()
                    except (EOFError, OSError):
                        result = None
                    active.remove(entry)
                    if result is None:
                        children.discard(child, kill=False)
                    else:
                        children.release(child)
                    results[slot] = self._normalize(job, child.process, result)
                elif not child.process.is_alive():
                    active.remove(entry)
                    children.discard(child, kill=False)
                    results[slot] = self._normalize(job, child.process, None)
                elif deadline is not None and time.perf_counter() > deadline:
                    active.remove(entry)
                    children.discard(child, kill=True)
                    results[slot] = JobResult(
                        name=job.name,
                        status="timeout",
                        elapsed=float(self.timeout),
                        error=f"exceeded the {self.timeout:g}s budget;"
                        " worker terminated",
                        source=job.describe(),
                    )

        try:
            while pending or active:
                while pending and len(active) < self.workers:
                    slot, job = pending.pop(0)
                    launch(slot, job)
                if active:
                    # Sleep until a result arrives, a worker exits, or the
                    # nearest deadline passes, whichever comes first.
                    ready = [child.conn for _, _, child, _ in active]
                    ready += [child.process.sentinel for _, _, child, _ in active]
                    deadlines = [e[3] for e in active if e[3] is not None]
                    timeout = (
                        max(0.0, min(deadlines) - time.perf_counter())
                        if deadlines
                        else None
                    )
                    wait_ready(ready, timeout=timeout)
                reap()
        finally:
            # Only when the loop raised: abandon the jobs still running.
            for _, _, child, _ in active:
                children.discard(child, kill=True)
        return [r for r in results if r is not None]

    @staticmethod
    def _normalize(
        job: BatchJob, proc, result: Optional[JobResult]
    ) -> JobResult:
        if result is None:
            return JobResult(
                name=job.name,
                status="error",
                elapsed=0.0,
                error=f"worker died without a result"
                f" (exit code {proc.exitcode})",
                source=job.describe(),
            )
        if result.name == "<unknown>":
            # The worker could not even unpickle its payload.
            return JobResult(
                name=job.name,
                status="error",
                elapsed=result.elapsed,
                error=result.error,
                source=job.describe(),
            )
        return result

    # -- thread backend -----------------------------------------------------

    def _run_threads(self, jobs: List[BatchJob]) -> List[JobResult]:
        results: List[Optional[JobResult]] = [None] * len(jobs)
        # No context manager: shutdown(wait=True) would block forever on
        # a hung job, defeating the (best-effort) thread timeout.
        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            futures = {
                pool.submit(_execute_job, job, self.settings): (slot, job)
                for slot, job in enumerate(jobs)
            }
            for future, (slot, job) in futures.items():
                try:
                    # The wait includes queue time; the job's *own*
                    # budget is judged on its measured elapsed below.
                    results[slot] = self._soft_budget(
                        future.result(timeout=self.timeout)
                    )
                except _FuturesTimeout:
                    if future.cancel():
                        # Never started — queued behind an overrunning
                        # job; report that distinctly from an overrun.
                        error = (
                            f"never started within the {self.timeout:g}s"
                            " wait (pool stalled by earlier jobs)"
                        )
                        elapsed = 0.0
                    else:
                        # Best effort only: the thread keeps running,
                        # but its late result is discarded.
                        error = (
                            f"exceeded the {self.timeout:g}s budget"
                            " (thread backend cannot terminate the job)"
                        )
                        elapsed = float(self.timeout)
                    results[slot] = JobResult(
                        name=job.name,
                        status="timeout",
                        elapsed=elapsed,
                        error=error,
                        source=job.describe(),
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return [r for r in results if r is not None]
