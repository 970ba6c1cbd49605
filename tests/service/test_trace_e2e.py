"""End-to-end distributed tracing through the live service.

The acceptance path of the tracing subsystem: a job submitted over HTTP
to ``repro serve`` (two embedded workers) must yield, at
``GET /v1/jobs/<id>/trace``, a single connected span tree whose root
carries the submitted ``X-Repro-Trace-Id`` — with child spans for the
queue wait, the worker execution, each pipeline stage, and at least one
result-store access — and ``repro trace <job-id>`` must render the same
tree as an ASCII waterfall whose durations nest consistently.
"""

import json
import time
import urllib.error
import urllib.request

from repro.cli import main
from repro.core.config import RunConfig
from repro.queue import TERMINAL_STATES
from repro.service import ReproServer

SPEC = {"kind": "synth", "order": 6, "ports": 2, "seed": 3, "task": "check"}
CLIENT_TRACE_ID = "e2e-client-trace-0001"

#: Wall-clock slack for parent/child containment: parents measure with
#: perf_counter while synthesized roots subtract wall clocks.
SLACK = 0.05


def _server(tmp_path, **kwargs):
    kwargs.setdefault(
        "config",
        RunConfig(cache="readwrite", cache_dir=str(tmp_path / "store")),
    )
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("backend", "serial")
    server = ReproServer.create(port=0, **kwargs)
    server.start_background()
    return server


def _get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=90) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(server, doc, headers=None):
    request = urllib.request.Request(
        server.url + "/v1/jobs",
        data=json.dumps(doc).encode("utf-8"),
        headers=dict({"Content-Type": "application/json"}, **(headers or {})),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=90) as resp:
        return resp.status, json.loads(resp.read())


def _wait_done(server, job_id, deadline=120.0):
    """Follow ``/events`` to a terminal state, as a client would.

    The callers fetch the trace the moment this returns, so their
    assertions on the ``job`` root check that the wake-up at a terminal
    state comes only after the trace is persisted.
    """
    limit = time.monotonic() + deadline
    _, record = _get(server, f"/v1/jobs/{job_id}")
    while record["status"] not in TERMINAL_STATES:
        assert time.monotonic() < limit, f"job stuck: {record}"
        _, record = _get(
            server,
            f"/v1/jobs/{job_id}/events?since={record['version']}&timeout=30",
        )
    return record


def _walk(node, depth=0):
    yield node, depth
    for child in node.get("children", ()):
        yield from _walk(child, depth + 1)


def _tree_faults(payload, job_id):
    """What keeps a trace payload from being one complete tree.

    Empty when the spans form a single tree rooted at the job's ``job``
    span, with every child inside its parent.
    """
    if len(payload["tree"]) != 1:
        return [f"{len(payload['tree'])} roots: {payload['spans']}"]
    (root,) = payload["tree"]
    if (root["name"], root["span_id"]) != ("job", job_id):
        return [f"root is {root['name']} {root['span_id']}"]
    faults = []
    for node, _ in _walk(root):
        end = node["start"] + node["duration"]
        for child in node.get("children", ()):
            if (
                child["start"] < node["start"] - SLACK
                or child["start"] + child["duration"] > end + SLACK
            ):
                faults.append(f"{child['name']} outside {node['name']}")
    return faults


class TestServiceTraceEndToEnd:
    def test_submitted_trace_id_yields_one_connected_tree(self, tmp_path):
        server = _server(tmp_path)
        try:
            status, record = _post(
                server, SPEC, headers={"X-Repro-Trace-Id": CLIENT_TRACE_ID}
            )
            assert status == 202
            assert record["trace_id"] == CLIENT_TRACE_ID
            final = _wait_done(server, record["id"])
            assert final["status"] == "done"

            status, payload = _get(
                server, f"/v1/jobs/{record['id']}/trace"
            )
            assert status == 200
            assert payload["trace_id"] == CLIENT_TRACE_ID
            assert payload["job_id"] == record["id"]
            assert all(
                s["trace_id"] == CLIENT_TRACE_ID for s in payload["spans"]
            )

            # One connected tree, rooted at the synthesized job span.
            assert len(payload["tree"]) == 1
            root = payload["tree"][0]
            assert root["name"] == "job"
            assert root["span_id"] == record["id"]

            names = [node["name"] for node, _ in _walk(root)]
            assert len(names) == len(payload["spans"])
            assert "queue.wait" in names
            assert "worker.attempt" in names
            assert "batch.pipeline" in names
            # Each executed pipeline stage contributes a span, and the
            # result lands in the store under the trace.
            assert any(n.startswith("stage.") for n in names)
            assert any(n.startswith("store.") for n in names)

            # Nesting is monotonic: every child fits inside its parent.
            assert _tree_faults(payload, record["id"]) == []
        finally:
            server.stop()

    def test_absent_header_mints_a_trace_id(self, tmp_path):
        server = _server(tmp_path, workers=0)
        try:
            _, record = _post(server, SPEC)
            assert record["trace_id"]
            assert len(record["trace_id"]) == 32
        finally:
            server.stop()

    def test_invalid_header_is_replaced_not_echoed(self, tmp_path):
        server = _server(tmp_path, workers=0)
        try:
            _, record = _post(
                server, SPEC, headers={"X-Repro-Trace-Id": "bad value!!"}
            )
            assert record["trace_id"] != "bad value!!"
        finally:
            server.stop()

    def test_cached_submission_still_records_a_trace(self, tmp_path):
        server = _server(tmp_path)
        try:
            _, first = _post(server, SPEC)
            _wait_done(server, first["id"])
            status, second = _post(server, dict(SPEC))
            assert status == 200 and second["cached"]
            _, payload = _get(server, f"/v1/jobs/{second['id']}/trace")
            (root,) = payload["tree"]
            assert root["name"] == "job"
            assert root["attributes"]["cached"] is True
            assert [c["name"] for c in root["children"]] == ["store.get"]
        finally:
            server.stop()

    def test_reused_trace_id_stays_scoped_per_job(self, tmp_path):
        """A client may send one X-Repro-Trace-Id on several
        submissions; each job's trace endpoint must still return a
        single tree containing only that job's spans."""
        server = _server(tmp_path)
        try:
            _, first = _post(
                server, SPEC, headers={"X-Repro-Trace-Id": CLIENT_TRACE_ID}
            )
            _wait_done(server, first["id"])
            status, second = _post(
                server,
                dict(SPEC),
                headers={"X-Repro-Trace-Id": CLIENT_TRACE_ID},
            )
            assert status == 200 and second["cached"]
            assert second["id"] != first["id"]

            for job_id in (first["id"], second["id"]):
                _, payload = _get(server, f"/v1/jobs/{job_id}/trace")
                assert payload["trace_id"] == CLIENT_TRACE_ID
                assert len(payload["tree"]) == 1
                assert payload["tree"][0]["span_id"] == job_id
        finally:
            server.stop()

    def test_unknown_job_trace_is_404(self, tmp_path):
        server = _server(tmp_path, workers=0)
        try:
            status, payload = _get(server, "/v1/jobs/ghost/trace")
            assert status == 404
            assert payload["error"]["code"] == "not_found"
        finally:
            server.stop()

    def test_tracing_disabled_yields_empty_tree(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "off")
        server = _server(tmp_path)
        try:
            _, record = _post(server, SPEC)
            _wait_done(server, record["id"])
            # The cached resubmission writes no trace either.
            _, cached = _post(server, SPEC)
            assert cached["cached"]
            for job_id in (record["id"], cached["id"]):
                status, payload = _get(server, f"/v1/jobs/{job_id}/trace")
                assert status == 200
                assert payload["spans"] == []
                assert payload["tree"] == []
        finally:
            server.stop()


class TestTraceCompleteAtDone:
    """A client that reads ``done`` can fetch the whole trace at once."""

    JOBS = 30

    def test_done_and_cached_jobs_have_complete_traces(self, tmp_path):
        server = _server(tmp_path)
        fresh, cached = {}, {}
        try:
            for index in range(self.JOBS):
                spec = dict(SPEC, seed=100 + index)
                _, record = _post(server, spec)
                # Plain GETs, no sleep: the trace is read at the first
                # ``done``, with no wake-up ordering to lean on.
                while record["status"] not in TERMINAL_STATES:
                    _, record = _get(server, f"/v1/jobs/{record['id']}")
                assert record["status"] == "done", record
                _, payload = _get(server, f"/v1/jobs/{record['id']}/trace")
                faults = _tree_faults(payload, record["id"])
                if faults:
                    fresh[record["id"]] = faults

                status, resubmitted = _post(server, spec)
                assert status == 200 and resubmitted["cached"]
                _, payload = _get(
                    server, f"/v1/jobs/{resubmitted['id']}/trace"
                )
                faults = _tree_faults(payload, resubmitted["id"])
                names = sorted(s["name"] for s in payload["spans"])
                if names != ["job", "store.get"]:
                    faults.append(f"spans {names}")
                elif not any(
                    s["attributes"].get("hit") is True
                    for s in payload["spans"]
                    if s["name"] == "store.get"
                ):
                    faults.append("store.get is not a hit")
                if faults:
                    cached[resubmitted["id"]] = faults
        finally:
            server.stop()
        assert (len(fresh), len(cached)) == (0, 0), (fresh, cached)


class TestStructuredAccessLog:
    def test_requests_log_method_path_status_duration(
        self, tmp_path, caplog
    ):
        import logging

        server = _server(tmp_path, workers=0)
        try:
            with caplog.at_level(logging.DEBUG, logger="repro.service.http"):
                _get(server, "/healthz")
                _, record = _post(
                    server,
                    SPEC,
                    headers={"X-Repro-Trace-Id": CLIENT_TRACE_ID},
                )
        finally:
            server.stop()
        access = [
            r
            for r in caplog.records
            if getattr(r, "http_method", None) is not None
        ]
        health = next(r for r in access if r.http_path == "/healthz")
        assert health.http_method == "GET"
        assert health.http_status == 200
        assert health.duration_ms >= 0.0
        submit = next(r for r in access if r.http_method == "POST")
        assert submit.http_status == 202
        # The access log correlates with the job's distributed trace.
        assert submit.trace_id == CLIENT_TRACE_ID
        assert record["trace_id"] == CLIENT_TRACE_ID


class TestTraceCli:
    def _finished_job(self, tmp_path):
        server = _server(tmp_path)
        try:
            _, record = _post(
                server, SPEC, headers={"X-Repro-Trace-Id": CLIENT_TRACE_ID}
            )
            _wait_done(server, record["id"])
            _, payload = _get(server, f"/v1/jobs/{record['id']}/trace")
        finally:
            server.stop()
        return record["id"], payload, str(server.manager.queue_path)

    def test_waterfall_matches_the_http_tree(self, tmp_path, capsys):
        job_id, payload, queue_path = self._finished_job(tmp_path)
        assert main(["trace", job_id, "--queue", queue_path]) == 0
        out = capsys.readouterr().out
        assert CLIENT_TRACE_ID in out
        for span in payload["spans"]:
            assert span["name"] in out
        assert "100.0%" in out

    def test_json_mode_round_trips_the_payload(self, tmp_path, capsys):
        job_id, payload, queue_path = self._finished_job(tmp_path)
        assert main(["trace", job_id, "--queue", queue_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_unknown_job_exits_nonzero(self, tmp_path, capsys):
        _, _, queue_path = self._finished_job(tmp_path)
        assert main(["trace", "ghost", "--queue", queue_path]) == 1
        assert "ghost" in capsys.readouterr().err
