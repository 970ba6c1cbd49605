"""What one measured stretch of a workload produced."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Measured:
    """Ops of one measured stretch, plus per-layer values when traced.

    Attributes
    ----------
    latencies:
        Seconds per op, failed ops included.
    pass_walls:
        Seconds per pass over the workload's fixed unit of work.
    failed:
        Ops that errored, timed out, were refused or failed their check.
    busy_s:
        Wall seconds the ops occupied; the throughput denominator.
    layers:
        Per-layer metric values (traced stretches only).
    notes:
        Extra figures for the report line (not metrics).
    """

    latencies: List[float] = field(default_factory=list)
    pass_walls: List[float] = field(default_factory=list)
    failed: int = 0
    busy_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)
