"""Observability: stage metrics, latency histograms, and profiling.

The paper's headline claim is *speed* — parallel Hamiltonian-based
passivity verification — so this package is the layer that turns
"should be faster" into a measurement.  Four pieces:

* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry`
  of counters and fixed-bucket latency histograms with p50/p90/p99
  summaries.  Stdlib-only, thread-safe, and zero overhead when unread:
  instrumented code records a float under a lock; nothing is
  aggregated until someone asks.
* :mod:`repro.obs.profiler` — a thin :mod:`cProfile` harness emitting
  top-N hot-function reports as plain JSON-serializable dicts
  (``repro bench --profile``, ``repro profile <subcommand...>``).
* :mod:`repro.obs.benchstage` — the one table of bench stages, run by
  ``repro bench`` and ``benchmarks/run.py``.  This package does not
  import it, so the table adds nothing to the service's import path.
* :mod:`repro.obs.trace` — a zero-dependency span tracer with explicit
  cross-process context propagation: the per-job causal timeline behind
  ``GET /v1/jobs/<id>/trace`` and ``repro trace <job-id>``.

:func:`timed` is the one timing primitive: it opens the span of a block
and observes the block's seconds into the histogram of the same name.
Every subsystem that does interesting work records into the process
registry (:func:`get_registry`): the eigensweep scheduler, vector
fitting, enforcement iterations, store reads/writes, queue claim/ack,
worker job execution, and the HTTP service's request handling.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.obs.profiler import profile_call, profile_to_dict
from repro.obs.trace import (
    Span,
    TraceContext,
    build_tree,
    ensure_trace_id,
    render_waterfall,
    timed,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "build_tree",
    "ensure_trace_id",
    "get_registry",
    "profile_call",
    "profile_to_dict",
    "render_waterfall",
    "reset_registry",
    "timed",
]
