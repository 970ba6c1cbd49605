"""Service latency histograms: /v1/stats quantiles and /v1/metrics."""

import json
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.core.config import RunConfig
from repro.obs import reset_registry
from repro.service import ReproServer


@pytest.fixture()
def server(tmp_path):
    config = RunConfig(cache="readwrite", cache_dir=str(tmp_path / "store"))
    srv = ReproServer.create(
        port=0, config=config, workers=2, backend="serial", timeout=300.0
    )
    srv.start_background()
    yield srv
    srv.stop()


def _get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


def _get_json(server, path):
    status, _, body = _get(server, path)
    return status, json.loads(body)


def _post(server, doc):
    request = urllib.request.Request(
        server.url + "/v1/jobs",
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def _wait(server, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, record = _get_json(server, f"/v1/jobs/{job_id}")
        assert status == 200
        if record["status"] in ("done", "error", "timeout", "failed"):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def _burst(server, n):
    """Submit n distinct check jobs and wait for all of them."""
    submitted = [
        _post(
            server,
            {
                "kind": "synth",
                "order": 6,
                "ports": 2,
                "seed": seed,
                "task": "check",
            },
        )
        for seed in range(n)
    ]
    for record in submitted:
        assert _wait(server, record["id"])["status"] == "done"
    return submitted


class TestStatsLatency:
    def test_per_task_quantiles_present_and_monotone(self, server):
        _burst(server, 4)
        status, stats = _get_json(server, "/v1/stats")
        assert status == 200
        latency = stats["latency"]
        check = latency["tasks"]["check"]
        for kind in ("queue_wait", "execution"):
            hist = check[kind]
            assert hist["count"] >= 4
            p50, p90, p99 = hist["p50"], hist["p90"], hist["p99"]
            assert p50 is not None and p90 is not None and p99 is not None
            assert 0.0 <= p50 <= p90 <= p99
            # The full bucket detail rides along for dashboards.
            assert hist["buckets"][-1]["le"] == "+Inf"
            assert hist["buckets"][-1]["count"] == hist["count"]

    def test_endpoint_histograms_cover_submit_and_poll(self, server):
        _burst(server, 2)
        _, stats = _get_json(server, "/v1/stats")
        endpoints = stats["latency"]["endpoints"]
        assert "jobs.submit" in endpoints
        assert "jobs.get" in endpoints
        assert endpoints["jobs.submit"]["count"] >= 2
        assert endpoints["jobs.submit"]["p50"] is not None

    def test_cached_submissions_excluded_from_quantiles(self, server):
        spec = {
            "kind": "synth",
            "order": 6,
            "ports": 2,
            "seed": 99,
            "task": "check",
        }
        first = _post(server, spec)
        assert _wait(server, first["id"])["status"] == "done"
        second = _post(server, spec)
        assert second["cached"] is True
        _, stats = _get_json(server, "/v1/stats")
        latency = stats["latency"]
        assert latency["cached_submissions_excluded"] >= 1
        # Only the real execution contributes a sample for this spec.
        assert latency["tasks"]["check"]["execution"]["count"] == 1


class TestMetricsEndpoint:
    def test_prometheus_text_exposition(self, server):
        _burst(server, 2)
        status, headers, body = _get(server, "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "repro_worker_jobs_done_total" in text
        # Every sample line is `name value` — parseable floats, no NaN.
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)

    def test_metrics_endpoint_does_not_500_when_idle(self, server):
        status, _, body = _get(server, "/v1/metrics")
        assert status == 200


class TestEmittedSeries:
    """Pin the spans each job emits and the series ``/v1/metrics`` shows.

    The embedded worker runs on the ``serial`` backend, so the series
    recorded inside a job (``stage.*``, ``eigensweep.*``, ...) land in
    the process registry next to the HTTP, queue, store and worker ones.
    """

    CHECK = {"kind": "synth", "order": 8, "ports": 2, "seed": 3, "task": "check"}
    ENFORCE = {
        "kind": "synth",
        "order": 8,
        "ports": 2,
        "seed": 4,
        "sigma_target": 1.05,
        "task": "enforce",
    }
    CHECK_SPANS = {
        "job": 1,
        "queue.wait": 1,
        "worker.attempt": 1,
        "queue.claim": 1,
        "batch.pipeline": 1,
        "stage.check": 1,
        "solve.sweep": 1,
        "queue.ack": 1,
        "store.get": 2,
        "store.put": 2,
    }
    ENFORCE_SPANS = dict(
        CHECK_SPANS,
        **{
            "stage.enforce": 1,
            "enforce.iteration": 2,
            "solve.sweep": 2,
            "store.get": 3,
            "store.put": 3,
        },
    )
    COUNTERS = (
        "eigensweep.runs",
        "enforcement.iterations",
        "http.requests.jobs.get",
        "http.requests.jobs.submit",
        "http.requests.jobs.trace",
        "queue.jobs_acked",
        "queue.jobs_claimed",
        "store.get.hits",
        "store.get.misses",
        "store.put.writes",
        "worker.jobs.done",
    )
    HISTOGRAMS = (
        "eigensweep.solve",
        "enforcement.run",
        "http.jobs.get",
        "http.jobs.submit",
        "http.jobs.trace",
        "queue.ack",
        "queue.claim",
        "queue.enqueue",
        "stage.check",
        "stage.enforce",
        "store.get",
        "store.put",
        "worker.job",
    )

    @staticmethod
    def _spans_of(server, job_id):
        # A job reads ``done`` only with its whole trace: fetch it once.
        status, payload = _get_json(server, f"/v1/jobs/{job_id}/trace")
        assert status == 200
        return Counter(s["name"] for s in payload["spans"])

    def test_span_multisets_and_metric_series(self, tmp_path):
        reset_registry()
        config = RunConfig(cache="readwrite", cache_dir=str(tmp_path / "store"))
        server = ReproServer.create(
            port=0, config=config, workers=1, backend="serial", timeout=300.0
        )
        server.start_background()
        try:
            traces = []
            for spec in (self.CHECK, self.ENFORCE, self.CHECK):
                record = _post(server, spec)
                assert _wait(server, record["id"])["status"] == "done"
                traces.append(self._spans_of(server, record["id"]))
            status, _, body = _get(server, "/v1/metrics")
        finally:
            server.stop()
        assert traces == [
            Counter(self.CHECK_SPANS),
            Counter(self.ENFORCE_SPANS),
            Counter({"job": 1, "store.get": 1}),
        ]
        assert status == 200
        series = {
            line.split(" ")[0].split("{")[0]
            for line in body.decode("utf-8").splitlines()
            if not line.startswith("#")
        }
        expected = {
            f"repro_{name.replace('.', '_')}_total" for name in self.COUNTERS
        } | {
            f"repro_{name.replace('.', '_')}_seconds_{part}"
            for name in self.HISTOGRAMS
            for part in ("bucket", "sum", "count")
        }
        assert series == expected
