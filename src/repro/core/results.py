"""Typed result containers with per-shift provenance.

The solvers return rich result objects so that benchmarks and tests can
inspect *how* the answer was produced: which shifts ran, what disk each
certified, how much work was spent, and how the dynamic scheduler pruned
the tentative queue (the source of the paper's superlinear speedups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.utils.serialization import (
    complex_array_from_jsonable,
    complex_from_jsonable,
    float_array_from_jsonable,
    to_jsonable,
)

__all__ = ["SingleShiftResult", "ShiftRecord", "SolveResult"]


@dataclass(frozen=True)
class SingleShiftResult:
    """Output of one single-shift iteration ``S(theta, rho0)`` (eq. 9).

    Attributes
    ----------
    shift:
        The complex shift ``theta`` (on the imaginary axis for band sweeps).
    radius:
        Certified disk radius ``rho``: all Hamiltonian eigenvalues with
        ``|lambda - theta| < rho`` are listed in ``eigenvalues``.
    eigenvalues:
        Complex eigenvalues inside the certified disk (may be empty).
    restarts:
        Number of Arnoldi restarts performed.
    converged:
        False when the restart budget ran out before the disk could be
        certified at the requested radius (the returned radius is then the
        largest radius that *could* be certified).
    applies:
        Operator applications consumed by this shift alone (shift-invert
        plus direct Hamiltonian matvecs) — the per-task work measure used
        by the multicore makespan projection in the benchmarks.
    """

    shift: complex
    radius: float
    eigenvalues: np.ndarray
    restarts: int
    converged: bool
    applies: int = 0

    def covers(self, point: complex, *, slack: float = 0.0) -> bool:
        """True when ``point`` lies inside the certified disk."""
        return abs(point - self.shift) <= self.radius + slack

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of this shift result."""
        return {
            "shift": to_jsonable(complex(self.shift)),
            "radius": float(self.radius),
            "eigenvalues": to_jsonable(self.eigenvalues),
            "restarts": int(self.restarts),
            "converged": bool(self.converged),
            "applies": int(self.applies),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SingleShiftResult":
        """Rebuild a shift result from a :meth:`to_dict` payload."""
        return cls(
            shift=complex_from_jsonable(payload["shift"]),
            radius=float(payload["radius"]),
            eigenvalues=complex_array_from_jsonable(payload["eigenvalues"]),
            restarts=int(payload["restarts"]),
            converged=bool(payload["converged"]),
            applies=int(payload.get("applies", 0)),
        )


@dataclass(frozen=True)
class ShiftRecord:
    """Scheduler-level record of one processed shift.

    Attributes
    ----------
    index:
        Global shift index (order of promotion to the processing state).
    center:
        Position ``omega`` on the imaginary axis (the shift is ``j*omega``).
    interval:
        The embedding interval ``[I_L, I_U]`` the shift was responsible for.
    result:
        The associated :class:`SingleShiftResult`.
    worker:
        Identifier of the thread that processed the shift.
    elapsed:
        Wall-clock seconds spent in the single-shift iteration.
    """

    index: int
    center: float
    interval: Tuple[float, float]
    result: SingleShiftResult
    worker: int
    elapsed: float

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of this scheduler record."""
        return {
            "index": int(self.index),
            "center": float(self.center),
            "interval": [float(self.interval[0]), float(self.interval[1])],
            "result": self.result.to_dict(),
            "worker": int(self.worker),
            "elapsed": float(self.elapsed),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShiftRecord":
        """Rebuild a scheduler record from a :meth:`to_dict` payload."""
        return cls(
            index=int(payload["index"]),
            center=float(payload["center"]),
            interval=(float(payload["interval"][0]), float(payload["interval"][1])),
            result=SingleShiftResult.from_dict(payload["result"]),
            worker=int(payload["worker"]),
            elapsed=float(payload["elapsed"]),
        )


@dataclass(frozen=True)
class SolveResult:
    """Complete output of a band sweep (serial or parallel) or dense solve.

    Attributes
    ----------
    omegas:
        Sorted non-negative crossing frequencies (imaginary parts of the
        purely imaginary Hamiltonian eigenvalues) — the set ``Omega`` of
        the paper restricted to the upper half axis.
    eigenvalues:
        All distinct eigenvalues discovered inside the certified disks
        (imaginary and otherwise) — useful for diagnostics.
    band:
        The swept interval ``[omega_min, omega_max]``.
    shifts:
        Per-shift provenance records, in completion order.
    work:
        Snapshot of the work counters (operator applies, Arnoldi steps,
        restarts, shifts processed/eliminated, small solves).
    elapsed:
        Wall-clock seconds for the whole sweep.
    num_threads:
        Number of worker threads used (1 for serial drivers).
    strategy:
        The strategy that ran: ``"dense"`` (one full eigensolution,
        recorded as one disk), ``"bisection"``, ``"queue"``,
        ``"static"`` or ``"process"``.
    """

    omegas: np.ndarray
    eigenvalues: np.ndarray
    band: Tuple[float, float]
    shifts: List[ShiftRecord]
    work: Dict[str, int]
    elapsed: float
    num_threads: int
    strategy: str

    @property
    def num_crossings(self) -> int:
        """Number of distinct non-negative crossing frequencies found."""
        return int(self.omegas.size)

    @property
    def is_passive_candidate(self) -> bool:
        """True when no imaginary eigenvalues were found (Omega empty).

        By the Hamiltonian test (Sec. II) an empty Omega certifies
        passivity given the strict asymptotic condition (eq. 4).
        """
        return self.omegas.size == 0

    @property
    def shifts_processed(self) -> int:
        """Number of completed single-shift iterations."""
        return len(self.shifts)

    def coverage_gaps(self, *, slack_rel: float = 1e-9) -> List[Tuple[float, float]]:
        """Sub-intervals of the band not covered by any certified disk.

        An empty list certifies that the union of disks covers the band —
        the invariant guaranteeing no imaginary eigenvalue was missed.
        """
        lo, hi = self.band
        slack = slack_rel * max(1.0, hi - lo, abs(hi))
        segments = sorted(
            (
                (rec.result.shift.imag - rec.result.radius,
                 rec.result.shift.imag + rec.result.radius)
                for rec in self.shifts
            ),
        )
        gaps: List[Tuple[float, float]] = []
        cursor = lo
        for seg_lo, seg_hi in segments:
            if seg_lo > cursor + slack:
                gaps.append((cursor, seg_lo))
            cursor = max(cursor, seg_hi)
            if cursor >= hi:
                break
        if cursor < hi - slack:
            gaps.append((cursor, hi))
        return gaps

    def to_dict(self, *, include_shifts: bool = True) -> dict:
        """JSON-serializable dictionary of the sweep outcome.

        Parameters
        ----------
        include_shifts:
            Include the per-shift provenance records (may be large);
            the aggregate fields are always present.
        """
        payload = {
            "omegas": to_jsonable(self.omegas),
            "eigenvalues": to_jsonable(self.eigenvalues),
            "band": [float(self.band[0]), float(self.band[1])],
            "work": {str(k): int(v) for k, v in self.work.items()},
            "elapsed": float(self.elapsed),
            "num_threads": int(self.num_threads),
            "strategy": self.strategy,
            "num_crossings": self.num_crossings,
            "is_passive_candidate": self.is_passive_candidate,
            "shifts_processed": self.shifts_processed,
        }
        if include_shifts:
            payload["shifts"] = [record.to_dict() for record in self.shifts]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SolveResult":
        """Rebuild a sweep result from a :meth:`to_dict` payload.

        Derived fields (``num_crossings``, ``is_passive_candidate``,
        ``shifts_processed``) are recomputed, not read back; a payload
        written without ``include_shifts`` rebuilds with an empty
        provenance list.
        """
        return cls(
            omegas=float_array_from_jsonable(payload["omegas"]),
            eigenvalues=complex_array_from_jsonable(payload["eigenvalues"]),
            band=(float(payload["band"][0]), float(payload["band"][1])),
            shifts=[
                ShiftRecord.from_dict(record)
                for record in payload.get("shifts", [])
            ],
            work={str(k): int(v) for k, v in payload.get("work", {}).items()},
            elapsed=float(payload["elapsed"]),
            num_threads=int(payload["num_threads"]),
            strategy=str(payload["strategy"]),
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"band=[{self.band[0]:.4g}, {self.band[1]:.4g}]"
            f" crossings={self.num_crossings}"
            f" shifts={self.shifts_processed}"
            f" eliminated={self.work.get('shifts_eliminated', 0)}"
            f" applies={self.work.get('operator_applies', 0)}"
            f" elapsed={self.elapsed:.3f}s threads={self.num_threads}"
        )
