"""``examples/serve_client.py``: the stdlib client follows ``/events``."""

import importlib.util
import time
from pathlib import Path

from repro.core.config import RunConfig
from repro.queue import TERMINAL_STATES, JobQueue
from repro.service import ReproServer

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "serve_client.py"
SPEC = {"kind": "synth", "order": 6, "ports": 2, "seed": 3, "task": "check"}


def _load_example():
    spec = importlib.util.spec_from_file_location("serve_client", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_client_knows_every_terminal_state():
    assert _load_example().TERMINAL_STATES == TERMINAL_STATES


def test_wait_for_returns_a_failed_job(tmp_path):
    client = _load_example()
    server = ReproServer.create(
        port=0,
        config=RunConfig(cache="readwrite", cache_dir=str(tmp_path / "store")),
        workers=0,
    )
    server.start_background()
    try:
        record = client.api(server.url, "/v1/jobs", SPEC)
        # The queue gives up on a job whose lease attempts ran out.
        with JobQueue(server.manager.queue_path) as queue:
            queue.claim("w1")
            queue.ack(record["id"], "w1", state="failed", error="gave up")
        started = time.monotonic()
        final = client.wait_for(server.url, record, timeout=30.0)
        assert final["status"] == "failed"
        assert time.monotonic() - started < 10.0
    finally:
        server.stop()
