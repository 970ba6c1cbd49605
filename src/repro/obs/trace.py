"""Zero-dependency distributed tracing for the repro pipeline.

A *trace* is the causal timeline of one job: the HTTP submission, the
queue wait, the worker attempt(s), and every instrumented pipeline layer
underneath (``Macromodel`` stages, process-pool eigensweep shifts, store
get/put, vector-fitting LS stages, per-iteration passivity enforcement,
queue claim/ack).  Each step is a *span* — trace ID + span ID + parent
ID, a wall-clock start, a monotonic duration, free-form attributes, and
a status.

The design mirrors :mod:`repro.obs.metrics`: stdlib only, a process-local
context, and a near-zero-cost disabled path.  Spans are recorded **only**
while a trace context is active (:func:`activate`); plain library calls
pay a single :class:`contextvars.ContextVar` lookup and nothing else, so
instrumentation can default on in the service without regressing the
tracked eigensweep baseline.

Cross-process propagation is explicit and serializable: the service
stamps a ``trace_id`` on ``POST /v1/jobs`` (honoring an inbound
``X-Repro-Trace-Id`` header), the queue persists it on the job row,
``repro worker`` restores it as the root context of the attempt, and
:class:`~repro.batch.runner.BatchRunner` ships a :class:`TraceContext`
dict into the child process, whose finished spans ride back on
``JobResult.spans``.

Environment (strict ``REPRO_*`` parsing; malformed values raise
:class:`~repro.core.config.ConfigError` naming the variable):

``REPRO_TRACE``
    Master switch, ``on`` (default) or ``off``.  When off,
    :func:`activate` installs nothing and every span is a no-op, and
    the queue writes no job trace.

A job's trace is kept as long as its queue row: ``repro jobs purge``
deletes both.
"""

from __future__ import annotations

import os
import re
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "ENV_TRACE",
    "TRACE_ENV_VARS",
    "Span",
    "TraceContext",
    "activate",
    "build_tree",
    "current",
    "current_ids",
    "ensure_trace_id",
    "new_span_id",
    "new_trace_id",
    "record_fault",
    "record_span",
    "render_waterfall",
    "span",
    "synthetic_span",
    "timed",
    "tracing_enabled",
]

ENV_TRACE = "REPRO_TRACE"

#: Every ``REPRO_TRACE_*`` variable the tracer reads — the docs
#: anti-drift test walks this tuple.
TRACE_ENV_VARS = (ENV_TRACE,)

#: Inbound ``X-Repro-Trace-Id`` values must look like an ID, not a log
#: injection vector: hex/alnum plus dashes, 8–64 chars.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9-]{8,64}$")

_COUNTER_LOCK = threading.Lock()
_COUNTER = 0


def _config_error(message: str):
    from repro.core.config import ConfigError

    return ConfigError(message)


def tracing_enabled() -> bool:
    """``REPRO_TRACE`` master switch (default on); strict parse."""
    raw = os.environ.get(ENV_TRACE)
    if raw is None:
        return True
    value = raw.strip().lower()
    if value in ("on", "1", "true", "yes"):
        return True
    if value in ("off", "0", "false", "no"):
        return False
    raise _config_error(
        f"invalid {ENV_TRACE}={raw!r}: expected on/off"
    )


def new_trace_id() -> str:
    """A fresh 32-hex-char trace ID."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-char span ID, unique across processes."""
    global _COUNTER
    with _COUNTER_LOCK:
        _COUNTER += 1
        counter = _COUNTER
    return f"{os.urandom(6).hex()}{counter & 0xFFFF:04x}"


def ensure_trace_id(candidate: Optional[str]) -> str:
    """Sanitize a client-supplied trace ID, or mint one.

    Accepts 8–64 chars of ``[A-Za-z0-9-]``; anything else (including
    ``None``) yields a freshly generated ID so a hostile header can
    never poison logs or the trace store.
    """
    if candidate and _TRACE_ID_RE.match(candidate):
        return candidate
    return new_trace_id()


@dataclass(frozen=True)
class TraceContext:
    """The serializable link between processes: which trace, and which
    span new children should hang under."""

    trace_id: str
    span_id: str
    job_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "job_id": self.job_id,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            job_id=payload.get("job_id"),
        )


class Span:
    """An open span handle.  Closed spans serialize via :meth:`to_dict`."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "duration",
        "status",
        "attributes",
        "_perf0",
        "_backdated",
    )

    def __init__(
        self,
        *,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: Optional[float] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        now = time.time()
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = now if start is None else float(start)
        # Duration is monotonic-derived; a backdated start (e.g. the
        # worker attempt opening at claim time) extends it by the
        # wall-clock gap so children always fit inside the parent.
        self._backdated = max(0.0, now - self.start)
        self._perf0 = time.perf_counter()
        self.duration = 0.0
        self.status = "ok"
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def annotate(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_fault(self, point: str, kind: str) -> None:
        self.attributes.setdefault("faults", []).append(
            {"point": point, "kind": kind}
        )

    def finish(self, *, status: Optional[str] = None) -> None:
        self.duration = (
            time.perf_counter() - self._perf0
        ) + self._backdated
        if status is not None:
            self.status = status

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attributes": self.attributes,
        }


class _NullSpan:
    """Recorded nowhere; handed out when no trace is active."""

    __slots__ = ()
    context = None

    def annotate(self, key: str, value: Any) -> None:
        pass

    def add_fault(self, point: str, kind: str) -> None:
        pass


_NULL_SPAN = _NullSpan()


@dataclass
class _ActiveTrace:
    trace_id: str
    parent_id: str
    job_id: Optional[str]
    sink: List[Dict[str, Any]]
    current_span: Optional[Span] = None


_STATE: ContextVar[Optional[_ActiveTrace]] = ContextVar(
    "repro_trace_state", default=None
)


def current() -> Optional[Span]:
    """The innermost open span, or ``None`` outside any trace."""
    state = _STATE.get()
    return state.current_span if state is not None else None


def _parent_id(state: _ActiveTrace) -> str:
    """The innermost open span's ID, else the context's parent."""
    handle = state.current_span
    return handle.span_id if handle is not None else state.parent_id


def current_ids() -> Tuple[Optional[str], Optional[str], Optional[str]]:
    """``(trace_id, span_id, job_id)`` of the active context — the
    correlation fields stamped onto every log record."""
    state = _STATE.get()
    if state is None:
        return (None, None, None)
    return (state.trace_id, _parent_id(state), state.job_id)


@contextmanager
def activate(
    context: TraceContext,
    sink: Optional[List[Dict[str, Any]]] = None,
    *,
    job_id: Optional[str] = None,
) -> Iterator[List[Dict[str, Any]]]:
    """Install ``context`` as the root of this execution; finished spans
    accumulate in ``sink`` (created when omitted, yielded either way).

    Honors the ``REPRO_TRACE`` master switch: when off, nothing is
    installed and every nested :func:`span` is a no-op.
    """
    collected: List[Dict[str, Any]] = [] if sink is None else sink
    if not tracing_enabled():
        yield collected
        return
    state = _ActiveTrace(
        trace_id=context.trace_id,
        parent_id=context.span_id,
        job_id=job_id if job_id is not None else context.job_id,
        sink=collected,
    )
    token = _STATE.set(state)
    try:
        yield collected
    finally:
        _STATE.reset(token)


@contextmanager
def span(name: str, *, start: Optional[float] = None, **attributes: Any):
    """Open a child span of the current context; no-op when inactive.

    ``start`` backdates the wall-clock opening (the duration grows by the
    gap) so work that began before the handle could be created — e.g. a
    queue claim — still nests consistently.
    """
    state = _STATE.get()
    if state is None:
        yield _NULL_SPAN
        return
    handle = Span(
        trace_id=state.trace_id,
        span_id=new_span_id(),
        parent_id=_parent_id(state),
        name=name,
        start=start,
        attributes=attributes or None,
    )
    previous = state.current_span
    state.current_span = handle
    try:
        yield handle
        handle.finish()
    except BaseException as exc:
        handle.finish(status="error")
        handle.attributes.setdefault("error", repr(exc))
        raise
    finally:
        state.current_span = previous
        state.sink.append(handle.to_dict())


@contextmanager
def timed(
    name: str, *, registry: Optional[MetricsRegistry] = None, **attributes: Any
):
    """Open span ``name`` and time the block into histogram ``name``.

    The span is recorded only inside an active trace, as with
    :func:`span`.  The elapsed seconds are observed into the process
    registry, and into ``registry`` when one is passed, whether the
    block returns or raises.
    """
    started = time.perf_counter()
    try:
        with span(name, **attributes) as handle:
            yield handle
    finally:
        elapsed = time.perf_counter() - started
        get_registry().observe(name, elapsed)
        if registry is not None:
            registry.observe(name, elapsed)


def record_span(
    name: str,
    *,
    start: float,
    duration: float,
    attributes: Optional[Dict[str, Any]] = None,
    status: str = "ok",
) -> None:
    """Append an already-measured span under the current context.

    Used for work whose timing was captured elsewhere — eigensweep
    shifts timed in pool workers, the queue claim that preceded the
    attempt span.  No-op when no trace is active.
    """
    state = _STATE.get()
    if state is None:
        return
    state.sink.append(
        synthetic_span(
            trace_id=state.trace_id,
            span_id=new_span_id(),
            parent_id=_parent_id(state),
            name=name,
            start=start,
            duration=duration,
            status=status,
            attributes=attributes,
        )
    )


def record_fault(point: str, kind: str) -> None:
    """Attach a fault-injection event to the innermost open span.

    Called by :mod:`repro.faults` whenever a plan fires, so chaos-suite
    jobs carry their injected faults as span attributes.
    """
    handle = current()
    if handle is not None:
        handle.add_fault(point, kind)


def synthetic_span(
    *,
    trace_id: str,
    span_id: str,
    parent_id: Optional[str],
    name: str,
    start: float,
    duration: float,
    status: str = "ok",
    attributes: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A fully-specified span dict, for timeline entries reconstructed
    from persisted timestamps (the ``job`` root, ``queue.wait``)."""
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": float(start),
        "duration": max(0.0, float(duration)),
        "status": status,
        "attributes": dict(attributes) if attributes else {},
    }


# ---------------------------------------------------------------------------
# Tree assembly and rendering
# ---------------------------------------------------------------------------


def build_tree(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest flat span dicts into ``children`` lists.

    Returns the roots (spans whose parent is absent from the set),
    children sorted by start time.  Input dicts are not mutated.
    """
    nodes = {s["span_id"]: dict(s, children=[]) for s in spans}
    roots: List[Dict[str, Any]] = []
    for node in nodes.values():
        parent = node.get("parent_id")
        if parent and parent in nodes and parent != node["span_id"]:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    def _sort(items: List[Dict[str, Any]]) -> None:
        items.sort(key=lambda n: (n["start"], n["name"]))
        for item in items:
            _sort(item["children"])
    _sort(roots)
    return roots


def render_waterfall(
    spans: List[Dict[str, Any]], *, width: int = 40
) -> str:
    """ASCII waterfall of a span tree with per-span % of wall time.

    One line per span: indented name, a ``#`` bar positioned inside the
    trace window, the duration, and the share of the root wall time.
    """
    roots = build_tree(spans)
    if not roots:
        return "(no spans recorded)"
    t0 = min(s["start"] for s in spans)
    t1 = max(s["start"] + s["duration"] for s in spans)
    window = max(t1 - t0, 1e-9)
    wall = max((r["duration"] for r in roots), default=window) or window
    walked = list(_walk_depth(roots))
    name_width = min(
        44, max(len(node["name"]) + 2 * depth for node, depth in walked)
    )
    lines = [
        f"trace {spans[0]['trace_id']} · {len(spans)} spans ·"
        f" {window:.3f}s wall"
    ]
    for node, depth in walked:
        offset = int(round((node["start"] - t0) / window * width))
        length = int(round(node["duration"] / window * width))
        offset = min(offset, width - 1)
        length = max(1, min(length, width - offset))
        bar = " " * offset + "#" * length + " " * (width - offset - length)
        label = ("  " * depth + node["name"])[:name_width].ljust(name_width)
        pct = node["duration"] / wall * 100.0
        flag = "" if node["status"] == "ok" else f"  [{node['status']}]"
        lines.append(
            f"{label} |{bar}| {node['duration']:8.3f}s {pct:5.1f}%{flag}"
        )
    return "\n".join(lines)


def _walk_depth(
    roots: List[Dict[str, Any]], depth: int = 0
) -> Iterator[Tuple[Dict[str, Any], int]]:
    for node in roots:
        yield node, depth
        yield from _walk_depth(node["children"], depth + 1)
