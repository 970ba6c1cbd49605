"""The band sweep of Sec. IV: one claim -> run -> complete loop.

``T`` slots share one lock around the scheduler.  Each slot claims a
tentative segment under the lock, runs the single-shift iteration of
Sec. III outside it, and completes the segment under the lock, where the
finished disk eliminates every tentative shift it covers (eq. 24).  No
slot runs a shift that is not strictly required, which is also why
measured speedups can exceed the slot count.

Only the run step depends on where the shift executes:

* **inline** -- one slot in the calling thread (``bisection``, and any
  strategy with one worker);
* **local** -- ``T`` threads (``queue``, ``static``); the Arnoldi kernels
  spend their time in numpy/BLAS, which release the GIL;
* **remote** -- ``T`` threads, each forwarding its shift to a process-pool
  worker that built the operator once in the pool initializer and
  returns the :class:`~repro.core.results.ShiftRecord` with that shift's
  work counts (``process``).  Every worker claims from the one
  scheduler, so eq. 24 eliminates shifts across processes too.

The scheduler is the dynamic queue of
:class:`~repro.core.scheduler.BandScheduler` (``static`` turns off its
cross-segment elimination) or the bisection policy of Fig. 2,
:class:`~repro.core.scheduler.BisectionPolicy`.  A shift's start vector
depends only on the root seed and its segment index, on every executor:
pool workers receive the caller's root stream.

``backend="process"`` runs on threads instead when the model is below
:data:`PROCESS_MIN_ORDER` dynamic order (override with
``REPRO_PROCESS_MIN_ORDER``), where forking the pool costs more than the
sweep, and when the pool cannot start or breaks mid-sweep (restricted
sandboxes, missing semaphores, a killed worker).  An exception raised by
a shift itself propagates unchanged.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.drivers import (
    ModelInput,
    collect_result,
    prepare_operator,
    resolve_band,
)
from repro.core.options import SolverOptions
from repro.core.results import ShiftRecord, SolveResult
from repro.core.scheduler import BandScheduler, BisectionPolicy, Segment
from repro.core.single_shift import SingleShiftSolver
from repro.obs import trace as _obs_trace
from repro.utils.logging import get_logger
from repro.utils.rng import RandomStream
from repro.utils.timing import WorkCounter

__all__ = [
    "sweep",
    "select_process_execution",
    "preferred_mp_context",
    "PROCESS_MIN_ORDER",
    "ENV_MIN_ORDER",
]

_LOG = get_logger("sweep")

#: Dynamic order below which forking worker processes costs more than the
#: whole sweep; smaller models run on threads instead.
PROCESS_MIN_ORDER = 128

#: Environment variable overriding :data:`PROCESS_MIN_ORDER` (useful to
#: force the real process path in tests: ``REPRO_PROCESS_MIN_ORDER=1``).
ENV_MIN_ORDER = "REPRO_PROCESS_MIN_ORDER"

#: A run step: ``(segment, rho0, worker slot) -> ShiftRecord``.
RunStep = Callable[[Segment, float, int], ShiftRecord]


def _min_order() -> int:
    raw = os.environ.get(ENV_MIN_ORDER)
    if raw is None or not raw.strip():
        return PROCESS_MIN_ORDER
    try:
        return int(raw)
    except ValueError as exc:
        # Imported lazily: config imports the registry, which registers
        # this module at import time — a top-level import would cycle.
        from repro.core.config import ConfigError

        raise ConfigError(f"invalid {ENV_MIN_ORDER}={raw!r}: {exc}") from exc


def select_process_execution(order: int, num_threads: int) -> str:
    """Decide how a ``backend="process"`` request is executed.

    Returns
    -------
    str
        ``"process"`` — run each slot's shifts on a worker pool;
        ``"inline"``  — one worker requested: one slot in the calling
        process (no pool, zero fork cost);
        ``"thread"``  — the model is too small to amortize fork+pickle
        cost, run the slots as threads.
    """
    if num_threads == 1:
        return "inline"
    if order < _min_order():
        return "thread"
    return "process"


def preferred_mp_context():
    """Prefer fork (cheap, parent state inherited) where available.

    Shared by the process executor and :class:`repro.batch.BatchRunner`.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_segment(
    solver: SingleShiftSolver,
    segment: Segment,
    rho0: float,
    root_stream: RandomStream,
    worker: int,
) -> ShiftRecord:
    """Run the single-shift iteration for one claimed segment.

    Pure compute: the start vectors come from the root stream keyed by
    the segment index, and the scheduler is not touched.
    """
    stream = root_stream.spawn(key=segment.index)
    started = time.perf_counter()
    result = solver.run(segment.center, rho0, stream)
    elapsed = time.perf_counter() - started
    return ShiftRecord(
        index=segment.index,
        center=segment.center,
        interval=(segment.lo, segment.hi),
        result=result,
        worker=worker,
        elapsed=elapsed,
    )


def drain(scheduler: BandScheduler, run: RunStep, num_slots: int) -> List[ShiftRecord]:
    """The claim -> run -> complete loop, to termination (eq. 29).

    ``num_slots`` slots share one lock around ``scheduler``; a single
    slot runs in the calling thread.  Idle slots wait until a completion
    may have produced new tentative segments or finished the sweep.
    Records come back in completion order, the order
    :mod:`repro.reporting.projection` replays.  The first exception a
    slot meets stops every slot at its next claim and is re-raised here.
    """
    records: List[ShiftRecord] = []
    errors: List[BaseException] = []
    condition = threading.Condition(threading.Lock())

    def slot(worker: int) -> None:
        while True:
            with condition:
                while True:
                    if errors:
                        return
                    segment = scheduler.next_task()
                    if segment is not None:
                        break
                    if scheduler.is_finished():
                        condition.notify_all()
                        return
                    condition.wait()
                rho0 = scheduler.initial_radius(segment)
            try:
                record = run(segment, rho0, worker)
                with condition:
                    scheduler.complete(
                        segment, record.result.shift.imag, record.result.radius
                    )
                    records.append(record)
                    condition.notify_all()
            except BaseException as exc:  # re-raised by the caller
                with condition:
                    errors.append(exc)
                    condition.notify_all()
                return

    if num_slots == 1:
        slot(0)
    else:
        threads = [
            threading.Thread(target=slot, args=(k,), name=f"hameig-{k}")
            for k in range(num_slots)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return records


#: Per-process state installed by the pool initializer.
_WORKER: Dict[str, object] = {}


def _init_worker(
    simo, representation: str, options: SolverOptions, root_stream: RandomStream
) -> None:
    """Build the operator once per pool worker."""
    _, op, _ = prepare_operator(simo, representation)
    _WORKER["solver"] = SingleShiftSolver(op, options)
    _WORKER["stream"] = root_stream


def _run_remote(
    segment: Segment, rho0: float, worker: int
) -> Tuple[ShiftRecord, Dict[str, int], float]:
    """Pool task: one shift, the work it cost, and its wall-clock start."""
    solver: SingleShiftSolver = _WORKER["solver"]  # type: ignore[assignment]
    work = solver.hamiltonian.work
    before = work.snapshot()
    started = time.time()
    record = run_segment(solver, segment, rho0, _WORKER["stream"], worker)
    after = work.snapshot()
    return record, {key: after[key] - before[key] for key in after}, started


def _drain_remote(
    scheduler: BandScheduler,
    simo,
    representation: str,
    options: SolverOptions,
    root_stream: RandomStream,
    num_workers: int,
    work: WorkCounter,
) -> List[ShiftRecord]:
    """:func:`drain` with every slot's shifts run on a pool worker."""
    shards: List[Tuple[float, ShiftRecord]] = []
    with _obs_trace.span("eigensweep.dispatch", workers=num_workers):
        with ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=preferred_mp_context(),
            initializer=_init_worker,
            initargs=(simo, representation, options, root_stream),
        ) as pool:
            # With fork, the first submission starts every worker (Python
            # >= 3.11).  Make it from this thread, before the slot threads
            # exist, so no fork copies a lock that a slot holds.
            pool.submit(int).result()

            def run(segment: Segment, rho0: float, worker: int) -> ShiftRecord:
                record, spent, started = pool.submit(
                    _run_remote, segment, rho0, worker
                ).result()
                work.add(**spent)
                shards.append((started, record))
                return record

            records = drain(scheduler, run, num_workers)
        # Slot threads run outside the caller's trace context: record
        # each remote shift from here, under the dispatch span.
        for started, record in shards:
            _obs_trace.record_span(
                "eigensweep.shard",
                start=started,
                duration=record.elapsed,
                attributes={"worker": record.worker, "segment": record.index},
            )
    return records


def sweep(
    model: ModelInput,
    *,
    strategy: str,
    num_threads: int,
    representation: str,
    omega_min: float,
    omega_max: Optional[float],
    options: SolverOptions,
) -> SolveResult:
    """Find all imaginary Hamiltonian eigenvalues with a built-in strategy.

    ``strategy`` is the registry's resolved name — ``"bisection"``,
    ``"queue"``, ``"static"`` or ``"process"``; the other arguments are
    the registry's uniform driver signature.  ``SolveResult.strategy``
    reports ``"queue"`` when a process sweep ran on threads.
    """
    simo, op, work = prepare_operator(model, representation)
    remote = False
    if strategy == "process":
        execution = select_process_execution(simo.order, num_threads)
        if execution == "thread":
            _LOG.debug(
                "process backend on threads: order %d < min order %d",
                simo.order,
                _min_order(),
            )
            strategy = "queue"
        remote = execution == "process"
    root_stream = RandomStream(options.seed)
    band = resolve_band(
        op, omega_min, omega_max, options, root_stream.spawn(key=0x5EED)
    )
    if strategy == "bisection":
        scheduler: BandScheduler = BisectionPolicy(
            *band,
            kappa=options.kappa,
            alpha=options.alpha,
            min_width_rel=options.min_interval_width,
        )
    else:
        scheduler = BandScheduler(
            *band,
            num_threads=num_threads,
            kappa=options.kappa,
            alpha=options.alpha,
            dynamic=strategy != "static",
            min_width_rel=options.min_interval_width,
        )

    started = time.perf_counter()
    if remote:
        try:
            records = _drain_remote(
                scheduler,
                simo,
                representation,
                options,
                root_stream,
                num_threads,
                work,
            )
        except (OSError, ImportError, BrokenProcessPool) as exc:
            _LOG.debug("process backend falling back to threads: %r", exc)
            return sweep(
                simo,
                strategy="queue",
                num_threads=num_threads,
                representation=representation,
                omega_min=omega_min,
                omega_max=omega_max,
                options=options,
            )
    else:
        solver = SingleShiftSolver(op, options)
        records = drain(
            scheduler,
            lambda segment, rho0, worker: run_segment(
                solver, segment, rho0, root_stream, worker
            ),
            num_threads,
        )
    elapsed = time.perf_counter() - started

    leftover = scheduler.uncovered(ignore_dust=True)
    if leftover:
        raise RuntimeError(
            f"sweep terminated with uncovered band portions: {leftover}"
        )
    _LOG.debug(
        "%s sweep done: %d shifts, %d eliminated, %.3fs",
        strategy,
        len(records),
        scheduler.eliminated,
        elapsed,
    )
    return collect_result(
        op,
        scheduler,
        records,
        options,
        elapsed,
        num_threads=num_threads,
        strategy=strategy,
    )
