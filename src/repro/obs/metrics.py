"""Process-local metrics: counters and latency histograms.

Design constraints, in order:

1. **No dependencies.**  Stdlib only — the registry must be importable
   from the innermost solver loop and from the HTTP handler alike.
2. **Zero overhead when unread.**  Recording is a dict lookup and a
   float add under one lock; quantiles, summaries, and text rendering
   are computed only when a reader asks (``snapshot()``, ``/v1/stats``).
3. **Thread-safe.**  The service handler threads, embedded queue
   workers, and the eigensweep scheduler's worker threads all record
   into one process registry concurrently.

Histograms are fixed-bucket (upper-bound edges, exponential by
default, spanning 100 µs to ~100 s for latencies).  Quantiles are
estimated by linear interpolation inside the owning bucket — the same
scheme Prometheus' ``histogram_quantile`` uses — which keeps the
memory footprint constant regardless of observation count.

A timed block goes through :func:`repro.obs.trace.timed`, which opens
the span and observes its elapsed seconds into the histogram of the
same name.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
]

#: Default latency bucket upper bounds in seconds: 100 µs .. ~100 s,
#: roughly half-decade spacing.  Fine enough to separate a cache hit
#: from a solve, coarse enough to stay 14 floats forever.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    100.0,
)

#: The quantiles every summary reports.
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class Histogram:
    """A fixed-bucket histogram with quantile estimation.

    Buckets are defined by their *upper bounds* (sorted, strictly
    increasing); an implicit overflow bucket catches everything above
    the last edge.  Observations accumulate count and sum exactly, so
    the mean is exact even though quantiles are bucket-interpolated.
    """

    __slots__ = ("_edges", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"bucket edges must be strictly increasing, got {edges}"
            )
        self._edges = edges
        self._counts = [0] * (len(edges) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (seconds, bytes, whatever is consistent)."""
        value = float(value)
        index = bisect_left(self._edges, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the q-quantile (0 < q <= 1) by bucket interpolation.

        Returns ``None`` when the histogram is empty.  The estimate is
        clamped by the exact observed min/max, so a histogram with one
        observation reports that observation at every quantile instead
        of a bucket edge.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return None
            counts = list(self._counts)
            total = self._count
            lo, hi = self._min, self._max
        rank = q * total
        cumulative = 0.0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = 0.0 if index == 0 else self._edges[index - 1]
                if index < len(self._edges):
                    upper = self._edges[index]
                else:
                    # Overflow bucket: the exact max is the only honest
                    # upper bound we have.
                    upper = hi if hi is not None else lower
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, lo), hi)
            cumulative += bucket_count
        return hi  # pragma: no cover — rank <= total always lands above

    def summary(self) -> dict:
        """Machine-readable state: count, sum, min/max, p50/p90/p99."""
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        doc = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else None,
            "min": lo,
            "max": hi,
        }
        for q in SUMMARY_QUANTILES:
            doc[f"p{int(q * 100)}"] = self.quantile(q)
        return doc

    def to_dict(self) -> dict:
        """Summary plus the raw cumulative buckets (Prometheus-shaped)."""
        doc = self.summary()
        with self._lock:
            counts = list(self._counts)
        cumulative, buckets = 0, []
        for edge, bucket_count in zip(self._edges, counts):
            cumulative += bucket_count
            buckets.append({"le": edge, "count": cumulative})
        buckets.append({"le": "+Inf", "count": cumulative + counts[-1]})
        doc["buckets"] = buckets
        return doc


class MetricsRegistry:
    """A named collection of counters and latency histograms.

    One registry per process (:func:`get_registry`) carries service and
    worker traffic; :class:`~repro.api.session.Macromodel` additionally
    owns a private registry so per-session stage timings survive into
    :class:`~repro.batch.runner.JobResult` without cross-job bleed.

    Metric names are dotted lowercase (``store.get``, ``queue.claim``).
    :func:`repro.obs.trace.timed` times a block into the histogram of
    its name; :meth:`observe` records a value measured elsewhere.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self._buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Increment a monotonically increasing counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(value)

    def histogram(self, name: str) -> Histogram:
        """Get (or lazily create) the named histogram."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(self._buckets)
            return hist

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        self.histogram(name).observe(value)

    # -- reading ------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """Plain-dict view: counters and histogram summaries."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": counters,
            "timings": {
                name: hist.summary() for name, hist in sorted(histograms.items())
            },
        }

    def to_dict(self) -> dict:
        """Snapshot with full bucket detail on every histogram."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": counters,
            "timings": {
                name: hist.to_dict() for name, hist in sorted(histograms.items())
            },
        }

    def render_text(self, prefix: str = "repro") -> str:
        """Prometheus-style text exposition (``GET /v1/metrics``).

        Names are sanitized to ``[a-z0-9_]``; histograms emit
        ``_bucket``/``_sum``/``_count`` series with ``le`` labels.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        lines: List[str] = []

        def _name(raw: str) -> str:
            cleaned = "".join(
                ch if ch.isalnum() else "_" for ch in raw.lower()
            )
            return f"{prefix}_{cleaned}"

        for name in sorted(counters):
            metric = _name(name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counters[name]}")
        for name in sorted(histograms):
            metric = _name(name) + "_seconds"
            doc = histograms[name].to_dict()
            lines.append(f"# TYPE {metric} histogram")
            for bucket in doc["buckets"]:
                le = bucket["le"]
                le_text = "+Inf" if le == "+Inf" else repr(float(le))
                lines.append(
                    f'{metric}_bucket{{le="{le_text}"}} {bucket["count"]}'
                )
            lines.append(f"{metric}_sum {doc['sum']}")
            lines.append(f"{metric}_count {doc['count']}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every metric (tests and bench isolation)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


# -- the process registry ---------------------------------------------------

_PROCESS_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem records into."""
    return _PROCESS_REGISTRY


def reset_registry() -> None:
    """Clear the process registry (tests, bench stage isolation)."""
    _PROCESS_REGISTRY.reset()
