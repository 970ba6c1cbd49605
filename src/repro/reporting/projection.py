"""Multicore speedup projection from work counters.

The reproduction substitutes the paper's 16-core C/OpenMP testbed with
CPython threads, whose wall-clock overlap is limited by the GIL (and by
the host's core count — the reference container has a single core).  The
scheduler's behaviour is nevertheless fully observable in the work
counters, so the speedup a T-core machine would achieve is *projected*:

* ``eta_ideal = T * W_1 / W_T`` — perfect overlap of the parallel run's
  total work across T cores.  Exceeds T exactly when the dynamic scheduler
  eliminated enough tentative shifts that ``W_T < W_1`` — the paper's
  superlinear effect.
* ``eta_makespan = W_1 / makespan_T`` — a greedy list-scheduling simulation
  that assigns the recorded per-shift work to T workers in completion
  order; this captures tail-idle effects (the paper's sub-ideal cases) and
  is the fairer of the two.

Both are dimensionless ratios of work units, so they are independent of
the host's absolute speed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.core.results import SolveResult
from repro.utils.validation import ensure_positive_int

__all__ = ["simulate_makespan", "SpeedupProjection", "project_speedup"]


def simulate_makespan(durations: Sequence[float], num_workers: int) -> float:
    """Greedy list-scheduling makespan of ``durations`` on ``num_workers``.

    Tasks are assigned in the given order, each to the earliest-available
    worker (the classical online list-scheduling model, which is how the
    work-queue driver actually behaves).

    Returns
    -------
    float
        The completion time of the last task (0.0 for no tasks).
    """
    num_workers = ensure_positive_int(num_workers, "num_workers")
    if not durations:
        return 0.0
    free_at = [0.0] * num_workers
    heapq.heapify(free_at)
    finish = 0.0
    for duration in durations:
        if duration < 0:
            raise ValueError(f"negative task duration {duration}")
        start = heapq.heappop(free_at)
        end = start + float(duration)
        finish = max(finish, end)
        heapq.heappush(free_at, end)
    return finish


@dataclass(frozen=True)
class SpeedupProjection:
    """Projected multicore speedups for one serial/parallel result pair.

    Attributes
    ----------
    work_serial, work_parallel:
        Total operator applications of the two runs.
    eta_ideal:
        ``T * W_1 / W_T`` (perfect overlap).
    eta_makespan:
        ``W_1 / makespan(per-shift work, T)`` (tail-idle aware).
    num_threads:
        The projection target T.
    """

    work_serial: int
    work_parallel: int
    eta_ideal: float
    eta_makespan: float
    num_threads: int


def project_speedup(
    serial: SolveResult, parallel: SolveResult, num_threads: int
) -> SpeedupProjection:
    """Project the T-core speedup of ``parallel`` relative to ``serial``.

    Parameters
    ----------
    serial:
        A single-thread reference result (its total work is ``W_1``).
    parallel:
        The result of the dynamic-scheduler run whose per-shift work is
        replayed onto T simulated cores.
    num_threads:
        The projection target (usually ``parallel.num_threads``).
    """
    w1 = serial.work.get("operator_applies", 0)
    wt = parallel.work.get("operator_applies", 0)
    durations = [rec.result.applies for rec in parallel.shifts]
    # Applies not attributable to a shift (band estimation, etc.) enter
    # the two ratios differently.  The makespan replays per-shift work
    # only, so it leaves out the parallel run's share of them, while its
    # numerator W_1 keeps the serial run's share.  eta_ideal takes the
    # full counters on both sides (W_1 and W_T).
    makespan = simulate_makespan(durations, num_threads)
    return SpeedupProjection(
        work_serial=int(w1),
        work_parallel=int(wt),
        eta_ideal=(num_threads * w1 / wt) if wt else float("inf"),
        eta_makespan=(w1 / makespan) if makespan > 0 else float("inf"),
        num_threads=int(num_threads),
    )
