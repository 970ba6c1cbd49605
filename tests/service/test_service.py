"""HTTP service round trips: submit, poll, fetch, cached resubmission."""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.service import JobError, JobManager, ReproServer
from repro.queue.spec import input_digest, job_from_spec
from repro.synth.generator import random_macromodel
from repro.touchstone.writer import write_touchstone

SPEC = {"kind": "synth", "order": 6, "ports": 2, "seed": 3, "task": "check"}


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
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(server, path, doc):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _wait(server, job_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, record = _get(server, f"/v1/jobs/{job_id}")
        assert status == 200
        if record["status"] in ("done", "error", "timeout", "failed"):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def _finish(manager, record, timeout=120.0):
    """Poll the manager until the submitted job reaches a terminal state.

    Queue rows are immutable snapshots — progress is observed by
    re-reading, not by watching the returned object mutate.
    """
    deadline = time.time() + timeout
    row = record
    while time.time() < deadline:
        row = manager.get(record.id)
        if row is not None and row.terminal:
            return row
        time.sleep(0.02)
    raise AssertionError(f"job {record.id} did not finish within {timeout}s")


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"]
        assert payload["uptime_seconds"] >= 0

    def test_submit_poll_fetch_then_cached_resubmit(self, server):
        status, record = _post(server, "/v1/jobs", SPEC)
        assert status == 202
        assert record["status"] in ("queued", "running")
        assert record["cached"] is False

        finished = _wait(server, record["id"])
        assert finished["status"] == "done"
        result = finished["result"]
        assert result["status"] == "ok"
        assert result["is_passive"] is False  # sigma_target 1.05 violates
        assert result["crossings"]

        # Resubmission: answered synchronously from the store.
        status, again = _post(server, "/v1/jobs", SPEC)
        assert status == 200
        assert again["cached"] is True
        assert again["status"] == "done"
        assert again["result"]["crossings"] == result["crossings"]

        # The content-addressed payload is fetchable directly.
        status, stored = _get(server, f"/v1/results/{again['key']}")
        assert status == 200
        assert stored["payload"]["name"] == result["name"]

    def test_job_name_does_not_fragment_the_cache(self, server):
        _wait(server, _post(server, "/v1/jobs", SPEC)[1]["id"])
        status, renamed = _post(server, "/v1/jobs", dict(SPEC, name="other"))
        assert status == 200
        assert renamed["cached"] is True

    def test_stats_counts_cached_submissions(self, server):
        _wait(server, _post(server, "/v1/jobs", SPEC)[1]["id"])
        _post(server, "/v1/jobs", SPEC)
        status, stats = _get(server, "/v1/stats")
        assert status == 200
        assert stats["jobs"]["total"] == 2
        assert stats["cached_submissions"] == 1
        assert stats["store"]["entries"] >= 1
        assert stats["cache"] == "readwrite"

    def test_model_job_round_trip(self, server):
        model = random_macromodel(6, 2, seed=9, sigma_target=1.04)
        spec = {"kind": "model", "model": model.to_dict(), "task": "check"}
        status, record = _post(server, "/v1/jobs", spec)
        assert status == 202
        finished = _wait(server, record["id"])
        assert finished["status"] == "done"
        crossings = finished["result"]["crossings"]
        reference = (
            np.sort(np.asarray(crossings)) if crossings else np.empty(0)
        )
        status, again = _post(server, "/v1/jobs", spec)
        assert again["cached"] is True
        np.testing.assert_allclose(
            np.sort(np.asarray(again["result"]["crossings"])), reference
        )

    def test_touchstone_job(self, server, tmp_path):
        model = random_macromodel(6, 2, seed=4, sigma_target=0.9)
        freqs_hz = np.linspace(0.01, 2.0, 80)
        response = model.frequency_response(2.0 * np.pi * freqs_hz)
        path = tmp_path / "dev.s2p"
        write_touchstone(path, freqs_hz, response, parameter="S")
        spec = {"kind": "touchstone", "path": str(path), "num_poles": 12}
        status, record = _post(server, "/v1/jobs", spec)
        assert status == 202
        finished = _wait(server, record["id"])
        assert finished["status"] == "done"
        assert finished["result"]["session"]["fit"]["num_poles"] == 12

    def test_errors(self, server):
        # Every error speaks the one envelope: {"error": {code, message}}.
        status, payload = _get(server, "/v1/jobs/doesnotexist")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "doesnotexist" in payload["error"]["message"]
        status, payload = _get(server, "/v1/results/doesnotexist")
        assert status == 404 and payload["error"]["code"] == "not_found"
        status, payload = _get(server, "/nope")
        assert status == 404 and payload["error"]["code"] == "not_found"
        status, payload = _post(server, "/v1/jobs", {"kind": "bogus"})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "job kind" in payload["error"]["message"]
        status, payload = _post(server, "/v1/jobs", {"task": "explode"})
        assert status == 400
        status, payload = _post(
            server, "/v1/jobs", {"kind": "touchstone", "path": "/no/such.s2p"}
        )
        assert status == 400 and "not found" in payload["error"]["message"]
        status, payload = _post(
            server, "/v1/jobs", {"config": {"num_threads": -2}}
        )
        assert status == 400 and "config" in payload["error"]["message"]
        # Malformed numeric fields must be a 400 JSON body, not a
        # dropped connection (TypeError path through int()/float()).
        for bad in (
            {"kind": "synth", "seed": None},
            {"kind": "synth", "order": "eight"},
            {"num_poles": "40.5"},
            {"margin": None},
        ):
            status, payload = _post(server, "/v1/jobs", bad)
            assert status == 400 and "error" in payload, (bad, status, payload)
            assert payload["error"]["code"] == "bad_request"

    def test_cache_off_override_forces_recompute(self, server):
        finished = _wait(server, _post(server, "/v1/jobs", SPEC)[1]["id"])
        assert finished["status"] == "done"
        # Same source + task, but the submission opts out of the cache:
        # it must run fresh, not serve the stored payload.
        status, record = _post(
            server, "/v1/jobs", dict(SPEC, config={"cache": "off"})
        )
        assert status == 202
        assert record["cached"] is False

    def test_config_override_enters_the_job(self, server):
        spec = dict(SPEC, config={"num_threads": 2})
        status, record = _post(server, "/v1/jobs", spec)
        finished = _wait(server, record["id"])
        assert finished["status"] == "done"
        session = finished["result"]["session"]
        assert session["config"]["num_threads"] == 2
        # A different solver config is a different cache key: the base
        # spec must NOT alias onto the override's stored result.
        status, other = _post(server, "/v1/jobs", SPEC)
        assert status == 202
        assert other["cached"] is False
        assert other["key"] != finished["key"]


class TestManagerUnit:
    def test_invalid_specs_raise_job_error(self):
        with pytest.raises(JobError):
            job_from_spec({"kind": "touchstone"}, "x")
        with pytest.raises(JobError):
            job_from_spec({"kind": "model"}, "x")
        with pytest.raises(JobError):
            job_from_spec({"kind": "model", "model": {"poles": []}}, "x")

    def test_input_digest_ignores_name(self):
        job_a = job_from_spec(SPEC, "alpha")
        job_b = job_from_spec(SPEC, "beta")
        assert input_digest(job_a, SPEC) == input_digest(job_b, SPEC)

    def test_shutdown_refuses_new_work(self, tmp_path):
        manager = JobManager(
            config=RunConfig(cache="off"),
            workers=1,
            backend="serial",
            queue_path=str(tmp_path / "q.sqlite3"),
        )
        manager.shutdown()
        with pytest.raises(RuntimeError):
            manager.submit(SPEC)

    def test_jobs_survive_a_manager_restart(self, tmp_path):
        """The queue is the state: a restart forgets nothing."""
        config = RunConfig(
            cache="readwrite", cache_dir=str(tmp_path / "store")
        )
        manager = JobManager(config=config, workers=1, backend="serial")
        try:
            records = [
                _finish(manager, manager.submit(dict(SPEC, seed=seed)))
                for seed in range(3)
            ]
        finally:
            manager.shutdown()
        # A brand-new manager over the same store sees every job, its
        # result, and the warmed cache — the in-memory-registry failure
        # mode (restart loses everything) is gone.
        reborn = JobManager(config=config, workers=0)
        try:
            for record in records:
                row = reborn.get(record.id)
                assert row is not None and row.status == "done"
                assert row.result["status"] == "ok"
            assert reborn.result_payload(records[0].key) is not None
            assert reborn.submit(dict(SPEC, seed=0)).cached is True
        finally:
            reborn.shutdown()

    def test_cache_off_never_short_circuits(self, tmp_path):
        manager = JobManager(
            config=RunConfig(cache="off"),
            workers=1,
            backend="serial",
            queue_path=str(tmp_path / "q.sqlite3"),
        )
        try:
            first = _finish(manager, manager.submit(SPEC))
            assert first.status == "done"
            second = manager.submit(SPEC)
            assert second.cached is False
        finally:
            manager.shutdown()
