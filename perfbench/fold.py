"""Fold a job's span tree into exclusive (self) time per layer.

The service persists every span of a job (``GET /v1/jobs/<id>/trace``):
a synthesized ``job`` root covering submission to ack, ``queue.wait``,
the worker's ``worker.attempt`` with its ``queue.claim``/``queue.ack``,
and the pipeline stages below it.  A span's *self* time is its duration
minus the part of it covered by its children.  Each child is first
clipped to its parent's (already clipped) interval, so clock skew
between processes can never make a child outlive its parent, and
overlapping children (concurrent shards) are counted once through the
union of their intervals.

Layers are the package's module names; a span is attributed to the
module that opens it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Layer of every span name the program emits outside a ``<layer>.*``
#: namespace (``stage.*`` spans are opened by the session in ``api``).
SPAN_LAYERS = {
    "job": "service",
    "worker.attempt": "batch",
    "batch.pipeline": "batch",
    "solve.sweep": "core",
    "eigensweep.dispatch": "core",
    "eigensweep.shard": "core",
    "enforce.iteration": "passivity",
}

#: The package's modules, used as layer names.
LAYERS = (
    "service",
    "queue",
    "batch",
    "api",
    "vectfit",
    "core",
    "hamiltonian",
    "passivity",
    "store",
    "obs",
    "reporting",
)

#: Name of the synthesized root span of a job's trace.
ROOT = "job"


def layer_of(name: str) -> str:
    """The layer (package module) a span name belongs to."""
    if name in SPAN_LAYERS:
        return SPAN_LAYERS[name]
    prefix = name.split(".", 1)[0]
    if prefix == "stage":
        return "api"
    return prefix if prefix in LAYERS else "other"


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= cursor:
            continue
        total += hi - max(lo, cursor)
        cursor = hi
    return total


@dataclass
class JobFold:
    """Per-job exclusive times, keyed by layer and by span name."""

    root: dict
    layer_self: Dict[str, float] = field(default_factory=dict)
    name_self: Dict[str, float] = field(default_factory=dict)
    name_total: Dict[str, float] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    orphans: int = 0

    @property
    def root_end(self) -> float:
        """Wall-clock end of the ``job`` root (the ack)."""
        return float(self.root["start"]) + float(self.root["duration"])


def find_root(spans: Sequence[dict]) -> Optional[dict]:
    """The ``job`` root span, or ``None`` when it was not persisted yet."""
    for span in spans:
        if span.get("name") == ROOT and not span.get("parent_id"):
            return span
    return None


def fold_spans(spans: Sequence[dict]) -> Optional[JobFold]:
    """Fold one job's flat span list; ``None`` when the root is missing.

    Spans not reachable from the root are counted in
    :attr:`JobFold.orphans` and left out of every sum.
    """
    root = find_root(spans)
    return None if root is None else fold_from(root, spans)


def fold_from(root: dict, spans: Sequence[dict]) -> JobFold:
    """Fold the subtree of ``spans`` under ``root``."""
    children: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        parent = span.get("parent_id")
        if parent and parent != span["span_id"]:
            children[parent].append(span)

    layer_self: Dict[str, float] = defaultdict(float)
    name_self: Dict[str, float] = defaultdict(float)
    name_total: Dict[str, float] = defaultdict(float)
    reached: List[dict] = []

    start = float(root["start"])
    stack = [(root, start, start + max(0.0, float(root["duration"])))]
    while stack:
        span, lo, hi = stack.pop()
        reached.append(span)
        clipped = []
        for child in children.get(span["span_id"], ()):
            c_lo = max(lo, float(child["start"]))
            c_hi = min(hi, float(child["start"]) + float(child["duration"]))
            c_hi = max(c_lo, c_hi)
            clipped.append((c_lo, c_hi))
            stack.append((child, c_lo, c_hi))
        own = max(0.0, (hi - lo) - _union_length(clipped))
        name = span["name"]
        layer_self[layer_of(name)] += own
        name_self[name] += own
        name_total[name] += hi - lo

    return JobFold(
        root=root,
        layer_self=dict(layer_self),
        name_self=dict(name_self),
        name_total=dict(name_total),
        spans=reached,
        orphans=len(spans) - len(reached),
    )


def exclusive_by_name(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time per span name over a forest with no ``job`` root.

    Used for spans collected in-process (one root per traced call),
    e.g. ``solve.sweep`` with its ``eigensweep.dispatch`` child.
    """
    ids = {span["span_id"] for span in spans}
    totals: Dict[str, float] = defaultdict(float)
    for top in spans:
        if top.get("parent_id") in ids:
            continue
        for name, seconds in fold_from(top, spans).name_self.items():
            totals[name] += seconds
    return dict(totals)
