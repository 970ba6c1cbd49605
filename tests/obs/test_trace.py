"""Unit tests for the span tracer (:mod:`repro.obs.trace`)."""

import time

import pytest

from repro.core.config import ConfigError
from repro.obs import trace
from repro.queue import JobQueue


def _activate(**kwargs):
    ctx = trace.TraceContext(
        trace_id=trace.new_trace_id(), span_id="root", job_id="job-1"
    )
    return ctx, trace.activate(ctx, job_id="job-1", **kwargs)


class TestIds:
    def test_trace_ids_are_32_hex_and_unique(self):
        ids = {trace.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 32 and int(i, 16) >= 0 for i in ids)

    def test_span_ids_are_unique(self):
        ids = {trace.new_span_id() for _ in range(256)}
        assert len(ids) == 256

    def test_ensure_trace_id_keeps_valid_client_values(self):
        assert trace.ensure_trace_id("client-trace-01") == "client-trace-01"

    @pytest.mark.parametrize(
        "bad",
        [None, "", "short", "has spaces here", "x" * 65, "bad\nnewline!"],
    )
    def test_ensure_trace_id_mints_on_invalid(self, bad):
        minted = trace.ensure_trace_id(bad)
        assert minted != bad
        assert len(minted) == 32


class TestSpans:
    def test_nested_spans_share_trace_and_chain_parents(self):
        ctx, activation = _activate()
        with activation as sink:
            with trace.span("outer") as outer:
                with trace.span("inner", depth=2) as inner:
                    assert inner.context.trace_id == ctx.trace_id
        by_name = {s["name"]: s for s in sink}
        assert by_name["outer"]["parent_id"] == "root"
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["attributes"]["depth"] == 2
        assert all(s["trace_id"] == ctx.trace_id for s in sink)
        # Children close before parents, and fit inside them.
        assert by_name["inner"]["duration"] <= by_name["outer"]["duration"]

    def test_span_records_error_status_and_reraises(self):
        _, activation = _activate()
        with activation as sink:
            with pytest.raises(ValueError):
                with trace.span("doomed"):
                    raise ValueError("boom")
        (recorded,) = sink
        assert recorded["status"] == "error"
        assert "boom" in recorded["attributes"]["error"]

    def test_backdated_start_extends_duration(self):
        _, activation = _activate()
        with activation as sink:
            with trace.span("claimed", start=time.time() - 0.5):
                pass
        (recorded,) = sink
        assert recorded["duration"] >= 0.5

    def test_record_span_attaches_premeasured_child(self):
        _, activation = _activate()
        with activation as sink:
            with trace.span("parent"):
                trace.record_span(
                    "measured",
                    start=time.time() - 0.01,
                    duration=0.01,
                    attributes={"shard": 3},
                )
        by_name = {s["name"]: s for s in sink}
        assert by_name["measured"]["parent_id"] == by_name["parent"]["span_id"]
        assert by_name["measured"]["attributes"]["shard"] == 3

    def test_record_fault_annotates_innermost_span(self):
        _, activation = _activate()
        with activation as sink:
            with trace.span("op"):
                trace.record_fault("store.write", "io_error")
        (recorded,) = sink
        assert recorded["attributes"]["faults"] == [
            {"point": "store.write", "kind": "io_error"}
        ]

    def test_current_ids_inside_and_outside(self):
        assert trace.current_ids() == (None, None, None)
        ctx, activation = _activate()
        with activation:
            with trace.span("op"):
                trace_id, span_id, job_id = trace.current_ids()
                assert trace_id == ctx.trace_id
                assert span_id is not None
                assert job_id == "job-1"
        assert trace.current_ids() == (None, None, None)


class TestInactive:
    def test_span_is_noop_without_activation(self):
        with trace.span("orphan") as handle:
            handle.annotate("k", "v")
            handle.add_fault("p", "error")
        assert handle.context is None

    def test_record_span_and_fault_are_noops_without_activation(self):
        trace.record_span("orphan", start=time.time(), duration=0.0)
        trace.record_fault("p", "error")  # must not raise

    def test_activate_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv(trace.ENV_TRACE, "off")
        ctx = trace.TraceContext(trace_id="t" * 32, span_id="root")
        with trace.activate(ctx) as sink:
            with trace.span("op") as handle:
                pass
        assert handle.context is None
        assert sink == []


class TestEnvParsing:
    @pytest.mark.parametrize("raw", ["on", "1", "true", "yes"])
    def test_trace_enabled_values(self, monkeypatch, raw):
        monkeypatch.setenv(trace.ENV_TRACE, raw)
        assert trace.tracing_enabled() is True

    @pytest.mark.parametrize("raw", ["off", "0", "false", "no"])
    def test_trace_disabled_values(self, monkeypatch, raw):
        monkeypatch.setenv(trace.ENV_TRACE, raw)
        assert trace.tracing_enabled() is False

    def test_trace_malformed_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv(trace.ENV_TRACE, "maybe")
        with pytest.raises(ConfigError, match="REPRO_TRACE"):
            trace.tracing_enabled()

    def test_ring_default_and_override(self, monkeypatch):
        monkeypatch.delenv(trace.ENV_TRACE_RING, raising=False)
        assert trace.ring_from_env() == trace.DEFAULT_TRACE_RING
        monkeypatch.setenv(trace.ENV_TRACE_RING, "7")
        assert trace.ring_from_env() == 7

    @pytest.mark.parametrize("raw", ["0", "-3", "many", "2.5"])
    def test_ring_malformed_raises_naming_the_variable(
        self, monkeypatch, raw
    ):
        monkeypatch.setenv(trace.ENV_TRACE_RING, raw)
        with pytest.raises(ConfigError, match="REPRO_TRACE_RING"):
            trace.ring_from_env()


class TestTreeAndWaterfall:
    def _sample_spans(self):
        ctx, activation = _activate()
        with activation as sink:
            with trace.span("attempt"):
                with trace.span("stage.a"):
                    time.sleep(0.002)
                with trace.span("stage.b"):
                    time.sleep(0.002)
        sink.append(
            trace.synthetic_span(
                trace_id=ctx.trace_id,
                span_id="root",
                parent_id=None,
                name="job",
                start=time.time() - 1.0,
                duration=1.0,
            )
        )
        return sink

    def test_build_tree_is_single_connected_tree(self):
        spans = self._sample_spans()
        tree = trace.build_tree(spans)
        assert len(tree) == 1
        root = tree[0]
        assert root["name"] == "job"
        (attempt,) = root["children"]
        assert [c["name"] for c in attempt["children"]] == [
            "stage.a",
            "stage.b",
        ]

    def test_waterfall_lists_every_span_with_percentages(self):
        spans = self._sample_spans()
        out = trace.render_waterfall(spans, width=20)
        for name in ("job", "attempt", "stage.a", "stage.b"):
            assert name in out
        assert "100.0%" in out
        # Deeper spans are indented further than their parents.
        lines = out.splitlines()
        job_line = next(l for l in lines if l.lstrip().startswith("job"))
        stage_line = next(
            l for l in lines if l.lstrip().startswith("stage.a")
        )
        indent = lambda l: len(l) - len(l.lstrip())  # noqa: E731
        assert indent(stage_line) > indent(job_line)


class TestDurableRing:
    def test_record_and_fetch_spans(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite3")
        try:
            ctx, activation = _activate()
            with activation as sink:
                with trace.span("op"):
                    pass
            queue.record_spans(sink, job_id="job-1")
            spans = queue.trace_spans(job_id="job-1")
            assert [s["name"] for s in spans] == ["op"]
            # Also reachable by trace id alone.
            assert queue.trace_spans(trace_id=ctx.trace_id) == spans
        finally:
            queue.close()

    def test_trace_spans_requires_a_filter(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite3")
        try:
            with pytest.raises(ValueError):
                queue.trace_spans()
        finally:
            queue.close()

    def test_rewritten_spans_replace_not_duplicate(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite3")
        try:
            span = trace.synthetic_span(
                trace_id="t" * 32,
                span_id="s1",
                parent_id=None,
                name="job",
                start=1.0,
                duration=1.0,
            )
            queue.record_spans([span], job_id="j")
            queue.record_spans([dict(span, duration=2.0)], job_id="j")
            (only,) = queue.trace_spans(job_id="j")
            assert only["duration"] == 2.0
        finally:
            queue.close()

    def test_ring_bounds_retained_traces(self, tmp_path, monkeypatch):
        monkeypatch.setenv(trace.ENV_TRACE_RING, "3")
        queue = JobQueue(tmp_path / "q.sqlite3")
        try:
            for i in range(6):
                tid = f"trace-{i:04d}-padding"
                queue.record_spans(
                    [
                        trace.synthetic_span(
                            trace_id=tid,
                            span_id=f"s{i}",
                            parent_id=None,
                            name="job",
                            start=float(i),
                            duration=0.1,
                        )
                    ],
                    job_id=f"job-{i}",
                )
            # The oldest traces were evicted; the newest three survive.
            assert queue.trace_spans(trace_id="trace-0000-padding") == []
            assert queue.trace_spans(trace_id="trace-0002-padding") == []
            for i in (3, 4, 5):
                assert queue.trace_spans(trace_id=f"trace-{i:04d}-padding")
        finally:
            queue.close()
