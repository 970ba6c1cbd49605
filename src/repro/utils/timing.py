"""Work-unit instrumentation.

The paper evaluates its parallel solver by CPU time and speedup factors
(Table I, Fig. 6).  A CPython reproduction cannot rely on wall-clock alone
(the GIL serializes pure-Python bookkeeping), so every solver in this
library *also* counts abstract work units: operator applications, Arnoldi
steps, restarts, and shift iterations.  Work-based speedups expose the
scheduler's behaviour — including the superlinear effect of dynamic shift
elimination — independently of the host interpreter.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["WorkCounter"]


@dataclass
class WorkCounter:
    """Thread-safe accumulator of abstract solver work units.

    Attributes
    ----------
    operator_applies:
        Number of shift-inverted (or plain) Hamiltonian operator
        applications — the dominant O(n p) kernel.
    arnoldi_steps:
        Number of Krylov basis extensions (each includes one operator apply
        plus orthogonalization).
    restarts:
        Number of explicit Arnoldi restarts.
    shifts_processed:
        Number of completed single-shift iterations.
    shifts_eliminated:
        Number of tentative shifts removed from the queue *without* being
        processed, because a completed convergence disk covered them
        (eq. 24 of the paper).  This is the source of superlinear speedup.
    small_solves:
        Number of dense 2p x 2p core factorizations/solves.
    """

    operator_applies: int = 0
    arnoldi_steps: int = 0
    restarts: int = 0
    shifts_processed: int = 0
    shifts_eliminated: int = 0
    small_solves: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, **counts: int) -> None:
        """Atomically add increments, e.g. ``counter.add(arnoldi_steps=1)``."""
        with self._lock:
            for key, value in counts.items():
                if not hasattr(self, key) or key.startswith("_"):
                    raise AttributeError(f"unknown work counter field: {key}")
                setattr(self, key, getattr(self, key) + int(value))

    def merge(self, other: "WorkCounter") -> None:
        """Atomically accumulate the counts of another counter into this one."""
        with self._lock:
            self.operator_applies += other.operator_applies
            self.arnoldi_steps += other.arnoldi_steps
            self.restarts += other.restarts
            self.shifts_processed += other.shifts_processed
            self.shifts_eliminated += other.shifts_eliminated
            self.small_solves += other.small_solves

    def snapshot(self) -> Dict[str, int]:
        """Return a plain-dict copy of the counts."""
        with self._lock:
            return {
                "operator_applies": self.operator_applies,
                "arnoldi_steps": self.arnoldi_steps,
                "restarts": self.restarts,
                "shifts_processed": self.shifts_processed,
                "shifts_eliminated": self.shifts_eliminated,
                "small_solves": self.small_solves,
            }

    @property
    def total_work(self) -> int:
        """Scalar work metric: operator applies dominate the runtime."""
        with self._lock:
            return self.operator_applies + 4 * self.small_solves
