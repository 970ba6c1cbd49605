"""Histogram math and MetricsRegistry semantics (repro.obs.metrics)."""

import json
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.obs.trace import TraceContext, activate, new_trace_id, timed


class TestHistogramBucketing:
    def test_observations_land_in_owning_bucket(self):
        hist = Histogram(buckets=(0.1, 1.0, 10.0))
        hist.observe(0.05)  # <= 0.1
        hist.observe(0.5)  # <= 1.0
        hist.observe(5.0)  # <= 10.0
        hist.observe(50.0)  # overflow
        doc = hist.to_dict()
        assert doc["count"] == 4
        # Exported buckets are cumulative (Prometheus `le` semantics).
        assert [b["count"] for b in doc["buckets"]] == [1, 2, 3, 4]
        assert doc["buckets"][-1]["le"] == "+Inf"

    def test_boundary_value_belongs_to_lower_bucket(self):
        # Prometheus `le` semantics: upper bounds are inclusive.
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert [b["count"] for b in hist.to_dict()["buckets"]] == [1, 1, 1]

    def test_exact_count_sum_min_max(self):
        hist = Histogram(buckets=(1.0,))
        for value in (0.25, 0.5, 4.0):
            hist.observe(value)
        doc = hist.to_dict()
        assert doc["count"] == 3
        assert doc["sum"] == pytest.approx(4.75)
        assert doc["min"] == pytest.approx(0.25)
        assert doc["max"] == pytest.approx(4.0)

    def test_default_buckets_are_sorted_and_positive(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert all(edge > 0 for edge in DEFAULT_LATENCY_BUCKETS)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 0.5))


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        hist = Histogram()
        assert hist.quantile(0.5) is None
        assert hist.summary()["p50"] is None

    def test_single_observation_reports_itself_everywhere(self):
        # The interpolation is clamped to [min, max], so one sample is
        # the answer at every quantile — not some bucket midpoint.
        hist = Histogram()
        hist.observe(0.0421)
        for q in (0.5, 0.9, 0.99):
            assert hist.quantile(q) == pytest.approx(0.0421)

    def test_quantiles_are_monotone_in_q(self):
        hist = Histogram()
        for i in range(1, 200):
            hist.observe(i / 1000.0)
        p50, p90, p99 = (hist.quantile(q) for q in (0.5, 0.9, 0.99))
        assert p50 <= p90 <= p99

    def test_uniform_spread_lands_near_true_quantile(self):
        # 1..1000 ms uniform: p50 ~ 0.5s, p90 ~ 0.9s, within one
        # bucket's width of the truth (that is all a fixed-bucket
        # histogram promises).
        hist = Histogram()
        for i in range(1, 1001):
            hist.observe(i / 1000.0)
        assert hist.quantile(0.5) == pytest.approx(0.5, abs=0.35)
        assert hist.quantile(0.9) == pytest.approx(0.9, abs=0.35)

    def test_quantile_clamped_to_observed_extremes(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(2.0)
        hist.observe(3.0)
        assert hist.quantile(0.99) <= 3.0
        assert hist.quantile(0.01) >= 2.0

    def test_bad_q_rejected(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(0.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.count("jobs")
        reg.count("jobs", 4)
        assert reg.snapshot()["counters"]["jobs"] == 5

    def test_timer_records_into_named_histogram(self):
        # ``timed`` is the one timer: it feeds histogram ``name`` of the
        # process registry, and of ``registry`` only when one is passed.
        process = get_registry().histogram("stage.check")
        before = process.count
        private = MetricsRegistry()
        with timed("stage.check", registry=private) as handle:
            pass
        assert handle.context is None  # no trace, so no span
        root = TraceContext(trace_id=new_trace_id(), span_id="root")
        with activate(root) as spans:
            with timed("stage.check", registry=private, task="check"):
                pass
            with pytest.raises(ValueError):
                with timed("stage.check"):
                    raise ValueError("boom")
        assert [(s["name"], s["status"]) for s in spans] == [
            ("stage.check", "ok"),
            ("stage.check", "error"),
        ]
        assert spans[0]["attributes"] == {"task": "check"}
        # The raising block is observed too.
        assert process.count - before == 3
        summary = private.snapshot()["timings"]["stage.check"]
        assert summary["count"] == 2
        assert summary["p50"] is not None

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.count("n")
        reg.observe("lat", 0.01)
        json.dumps(reg.snapshot())
        json.dumps(reg.to_dict())

    def test_render_text_exposition(self):
        reg = MetricsRegistry()
        reg.count("queue.jobs_claimed", 3)
        reg.observe("worker.job", 0.02)
        text = reg.render_text(prefix="repro")
        assert "repro_queue_jobs_claimed_total 3" in text
        assert "repro_worker_job_seconds_count 1" in text
        assert text.endswith("\n")

    def test_thread_safety_under_contention(self):
        # 8 threads x 1000 increments + observations must neither lose
        # updates nor corrupt bucket totals.
        reg = MetricsRegistry()
        threads_n, iterations = 8, 1000

        def hammer(index):
            for i in range(iterations):
                reg.count("hits")
                reg.observe("lat", (index + 1) * 1e-4)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits") == threads_n * iterations
        doc = reg.to_dict()["timings"]["lat"]
        assert doc["count"] == threads_n * iterations
        # The +Inf cumulative bucket must equal the exact count — no
        # lost or double-counted observation under contention.
        assert doc["buckets"][-1]["count"] == threads_n * iterations

    def test_process_registry_reset(self):
        reset_registry()
        get_registry().count("x")
        assert get_registry().counter_value("x") == 1
        reset_registry()
        assert get_registry().counter_value("x") == 0


class TestProfiler:
    def test_profile_call_returns_result_and_report(self):
        from repro.obs.profiler import profile_call

        result, report = profile_call(sorted, range(500, 0, -1), top_n=5)
        assert result[0] == 1
        assert report["sort"] == "cumtime"
        assert 0 < len(report["top"]) <= 5
        for row in report["top"]:
            assert {"function", "file", "line", "ncalls"} <= set(row)
        json.dumps(report)

    def test_bad_sort_rejected(self):
        from repro.obs.profiler import profile_call

        with pytest.raises(ValueError):
            profile_call(sorted, [1], sort="nonsense")
