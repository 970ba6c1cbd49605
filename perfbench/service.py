"""Workloads ``service_enforce`` and ``service_cached``.

Both drive an in-process :class:`~repro.service.ReproServer` over HTTP.
The server runs one embedded worker on the default (process) backend
against a fresh ``readwrite`` result store under the checkout.

* ``service_enforce``: one client submits Touchstone ``enforce`` jobs
  (fit -> check -> enforce), each on a fresh seeded violating model, and
  long-polls ``/events`` until the job finishes.  Every job misses the
  store and writes to it.
* ``service_cached``: set-up runs a small fixed set of those jobs; then
  two clients resubmit them, each answered synchronously from the store
  with ``200 cached: true``.  No solver work at all.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
import urllib.error
import urllib.request
import uuid
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.fold import JobFold, find_root, fold_spans
from perfbench.measured import Measured
from perfbench.probes import CallTimer, all_wrapped
from perfbench.stats import median
from repro import RunConfig
from repro.hamiltonian.shift_invert import ShiftInvertOperator
from repro.hamiltonian.spectral import imaginary_eigenvalues_dense
from repro.macromodel.rational import PoleResidueModel
from repro.macromodel.realization import pole_residue_to_simo
from repro.queue.db import TERMINAL_STATES, JobQueue
from repro.service import ReproServer
from repro.service import manager as service_manager
from repro.store import ResultStore
from repro.synth import random_macromodel
from repro.touchstone.writer import write_touchstone

#: Device shape of every job: p = 4, 12 poles per column, sigma 1.1.
PORTS = 4
POLES = 12
SIGMA_TARGET = 1.1

#: Frequency samples (rad/s) written to each Touchstone file.
FREQS = np.linspace(0.05, 14.0, 300)

#: Generator seed of the ``service_enforce`` warm-up device.
WARM_DEVICE = 0

#: Jobs per pass of ``service_enforce`` (the ``wall_s`` unit).
ENFORCE_PASS = 4

#: Specs warmed in set-up and resubmitted by ``service_cached``.
CACHED_SPECS = 4

#: Concurrent clients of ``service_cached``.
CACHED_CLIENTS = 2

#: Per-job budget of the embedded worker, and of the waiting client.
JOB_TIMEOUT_S = 60.0

#: Bound on re-fetching a trace whose ``job`` root is not persisted yet.
TRACE_REFETCHES = 40
TRACE_REFETCH_DELAY_S = 0.025


# -- HTTP -------------------------------------------------------------------


def call(url: str, path: str, doc: Optional[dict] = None) -> Tuple[int, dict]:
    """One JSON round trip: GET, or POST when ``doc`` is given."""
    data = None if doc is None else json.dumps(doc).encode("utf-8")
    request = urllib.request.Request(
        url + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method="GET" if doc is None else "POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=JOB_TIMEOUT_S) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, {}


def wait_done(url: str, record: dict, deadline: float) -> dict:
    """Long-poll ``/events`` until the job reaches a terminal state."""
    while record.get("status") not in TERMINAL_STATES:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        status, fresh = call(
            url,
            f"/v1/jobs/{record['id']}/events"
            f"?since={record['version']}&timeout={min(30.0, remaining):.3f}",
        )
        if status != 200:
            break
        record = fresh
    return record


# -- inputs -----------------------------------------------------------------


def write_device(directory: Path, seed: int) -> dict:
    """Write one seeded violating device; returns its enforce job spec."""
    model = random_macromodel(POLES, PORTS, seed=seed, sigma_target=SIGMA_TARGET)
    path = directory / f"device-{seed}.s{PORTS}p"
    write_touchstone(path, FREQS / (2.0 * np.pi), model.frequency_response(FREQS))
    return {
        "kind": "touchstone",
        "path": str(path),
        "task": "enforce",
        "num_poles": POLES,
    }


def enforced_is_passive(record: dict) -> bool:
    """The job's verdict, re-checked on its model by the dense oracle."""
    result = record.get("result") or {}
    if record.get("status") != "done" or result.get("status") != "ok":
        return False
    if not result.get("is_passive"):
        return False
    model = PoleResidueModel.from_dict(result["session"]["model"])
    return imaginary_eigenvalues_dense(pole_residue_to_simo(model)).size == 0


# -- the server -------------------------------------------------------------


class ServiceRig:
    """A fresh store + in-process server with one embedded worker."""

    def __init__(self, scratch: Path):
        self.dir = scratch / f"service-{uuid.uuid4().hex[:8]}"
        self.inputs = self.dir / "inputs"
        self.inputs.mkdir(parents=True)
        config = RunConfig(cache="readwrite", cache_dir=str(self.dir / "store"))
        self.server = ReproServer.create(
            port=0, config=config, workers=1, timeout=JOB_TIMEOUT_S
        )
        self.server.start_background()
        self.url = self.server.url
        status, _ = call(self.url, "/healthz")
        if status != 200:
            raise RuntimeError(f"service did not come up: /healthz -> {status}")

    def run_job(self, spec: dict) -> Tuple[dict, float, float, float]:
        """Submit and wait; returns (record, latency, submit_s, done_wall)."""
        started = time.perf_counter()
        status, record = call(self.url, "/v1/jobs", spec)
        submit_s = time.perf_counter() - started
        if status in (200, 202):
            record = wait_done(self.url, record, started + JOB_TIMEOUT_S)
        else:
            record = {"status": f"http {status}"}
        return record, time.perf_counter() - started, submit_s, time.time()

    def trace(self, job_id: str) -> Tuple[Optional[JobFold], bool, int]:
        """Fold a finished job's trace: (fold, complete at first, spans).

        The worker persists spans after it acks, so the ``job`` root may
        be missing right at ``done``; re-fetch a bounded number of times
        and never fold a partial tree.
        """
        complete_at_done = True
        for _ in range(TRACE_REFETCHES + 1):
            status, payload = call(self.url, f"/v1/jobs/{job_id}/trace")
            spans = payload.get("spans", []) if status == 200 else []
            if find_root(spans) is not None:
                return fold_spans(spans), complete_at_done, len(spans)
            complete_at_done = False
            time.sleep(TRACE_REFETCH_DELAY_S)
        return None, False, 0

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


def front_end_timers() -> Dict[str, CallTimer]:
    return {
        "service.spec_parse_s": CallTimer(),
        "queue.enqueue_s": CallTimer(),
        "store.get_s": CallTimer(classify=lambda payload: payload is not None),
        "obs.trace_record_s": CallTimer(),
        "hamiltonian.applies": CallTimer(),
    }


def front_end_probes(timers: Dict[str, CallTimer]):
    """Wrap the in-process calls a submission makes."""
    return all_wrapped(
        [
            (service_manager, "parse_spec", timers["service.spec_parse_s"]),
            (JobQueue, "enqueue", timers["queue.enqueue_s"]),
            (ResultStore, "get", timers["store.get_s"]),
            (JobQueue, "record_spans", timers["obs.trace_record_s"]),
            (ShiftInvertOperator, "matvec", timers["hamiltonian.applies"]),
        ]
    )


def front_end_metrics(timers: Dict[str, CallTimer]) -> Dict[str, float]:
    return {
        name: median(timer.samples)
        for name, timer in timers.items()
        if name.endswith("_s")
    }


# -- service_enforce --------------------------------------------------------


def _work(report: dict, key: str) -> int:
    return int((report.get("work") or {}).get(key, 0))


class EnforceWorkload:
    """Closed loop of one client; one op is one job, submit to finish."""

    name = "service_enforce"

    #: Set-up is one warm job whose latency lands on the 0.2 s worker
    #: poll and 0.1 s long-poll grids; a median of seven (under 1 s each)
    #: keeps ``setup_s`` from jumping a grid step between runs.
    setup_repeats = 7

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.rig: Optional[ServiceRig] = None
        self.next_input = 0

    def _spec(self) -> dict:
        self.next_input += 1
        return write_device(self.rig.inputs, self.seed * 100_000 + self.next_input)

    def setup(self) -> None:
        self.rig = ServiceRig(self.scratch)
        self.next_input = 0
        # One job warms the worker path (pool start, lazy imports).  Its
        # device is the same for every seed, so that ``setup_s`` does not
        # swing with the fit and enforce effort of a seeded model; it can
        # never match a measured device (those are seed * 100000 + k, k >= 1).
        record, *_ = self.rig.run_job(write_device(self.rig.inputs, WARM_DEVICE))
        if record.get("status") != "done":
            raise RuntimeError(f"warm-up job did not finish: {record}")

    def close(self) -> None:
        if self.rig is not None:
            self.rig.close()
            self.rig = None

    def run(self, seconds: float, traced: bool) -> Measured:
        out = Measured()
        timers = front_end_timers()
        records: List[dict] = []
        jobs: List[dict] = []
        deadline = time.perf_counter() + seconds
        with front_end_probes(timers) if traced else nullcontext():
            while len(records) < ENFORCE_PASS or time.perf_counter() < deadline:
                spec = self._spec()
                record, latency, submit_s, done_wall = self.rig.run_job(spec)
                records.append(record)
                out.latencies.append(latency)
                if traced:
                    jobs.append(
                        self._traced_job(record, latency, submit_s, done_wall)
                    )
        out.busy_s = sum(out.latencies)
        out.pass_walls = _passes(out.latencies, ENFORCE_PASS)
        # Correctness is checked after the clock stops.
        out.failed = sum(not enforced_is_passive(r) for r in records)
        if traced:
            out.layers = self._layers(jobs, timers)
        return out

    def _traced_job(
        self, record: dict, latency: float, submit_s: float, done_wall: float
    ) -> dict:
        job = {"complete_at_done": True, "fold": None, "spans": 0}
        if "id" in record:
            fold, complete, count = self.rig.trace(record["id"])
            job.update(fold=fold, complete_at_done=complete, spans=count)
        result = record.get("result") or {}
        session = result.get("session") or {}
        enforcement = session.get("enforcement") or {}
        reports = enforcement.get("reports") or []
        job.update(
            latency=latency,
            submit_s=submit_s,
            done_wall=done_wall,
            elapsed=float(result.get("elapsed", 0.0)),
            attempts=int(record.get("attempts", 0)),
            fit_iterations=int((session.get("fit") or {}).get("iterations", 0)),
            enforce_iterations=int(enforcement.get("iterations", 0)),
            steps_check=_work(reports[0], "arnoldi_steps") if reports else 0,
            steps_enforce=sum(_work(r, "arnoldi_steps") for r in reports[1:]),
        )
        return job

    @staticmethod
    def _layers(jobs: List[dict], timers: Dict[str, CallTimer]) -> Dict[str, float]:
        folded = [job for job in jobs if job["fold"] is not None]

        def per_job(pick) -> float:
            return median([pick(job["fold"]) for job in folded])

        lookups = [
            span
            for job in folded
            for span in job["fold"].spans
            if span["name"] == "store.get"
        ]
        hits = sum(bool(span["attributes"].get("hit")) for span in lookups)
        values = front_end_metrics(timers)
        values.update(
            {
                "core.sweep_self_s": per_job(lambda f: f.layer_self.get("core", 0.0)),
                "api.stage_self_s": per_job(lambda f: f.layer_self.get("api", 0.0)),
                "vectfit.self_s": per_job(lambda f: f.layer_self.get("vectfit", 0.0)),
                "passivity.enforce_self_s": per_job(
                    lambda f: f.layer_self.get("passivity", 0.0)
                ),
                "batch.spawn_s": per_job(
                    lambda f: f.name_self.get("worker.attempt", 0.0)
                ),
                "queue.wait_s": per_job(lambda f: f.name_total.get("queue.wait", 0.0)),
                "queue.claim_s": per_job(
                    lambda f: f.name_total.get("queue.claim", 0.0)
                ),
                "queue.ack_s": per_job(lambda f: f.name_total.get("queue.ack", 0.0)),
                "store.put_s": per_job(lambda f: f.name_total.get("store.put", 0.0)),
                "store.hit_ratio": hits / len(lookups) if lookups else 0.0,
                "service.notify_lag_s": median(
                    [job["done_wall"] - job["fold"].root_end for job in folded]
                ),
                "core.arnoldi_steps.check": median([j["steps_check"] for j in jobs]),
                "core.arnoldi_steps.enforce": median(
                    [j["steps_enforce"] for j in jobs]
                ),
                "vectfit.iterations": median([j["fit_iterations"] for j in jobs]),
                "passivity.enforce_iterations": median(
                    [j["enforce_iterations"] for j in jobs]
                ),
                "queue.attempts_per_job": median([j["attempts"] for j in jobs]),
                "service.submit_s": median([j["submit_s"] for j in jobs]),
                "service.overhead_s": median(
                    [j["latency"] - j["elapsed"] for j in jobs]
                ),
                "obs.spans_per_job": median([j["spans"] for j in folded]),
                "obs.trace_incomplete_at_done": float(
                    sum(not j["complete_at_done"] for j in jobs)
                ),
            }
        )
        return values


# -- service_cached ---------------------------------------------------------


class CachedWorkload:
    """Closed loop of two clients; one op is one cached POST."""

    name = "service_cached"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.rig: Optional[ServiceRig] = None
        self.specs: List[dict] = []
        self.keys: List[str] = []

    def setup(self) -> None:
        self.rig = ServiceRig(self.scratch)
        self.specs, self.keys = [], []
        for index in range(CACHED_SPECS):
            spec = write_device(self.rig.inputs, self.seed * 100_000 + index + 1)
            record, *_ = self.rig.run_job(spec)
            if not enforced_is_passive(record):
                raise RuntimeError(f"warm-up job failed: {record.get('status')}")
            self.specs.append(spec)
            self.keys.append(record["key"])

    def close(self) -> None:
        if self.rig is not None:
            self.rig.close()
            self.rig = None

    def _client(self, index: int, deadline: float, ops: list) -> None:
        position = index
        while len(ops) < CACHED_SPECS or time.perf_counter() < deadline:
            which = position % CACHED_SPECS
            started = time.perf_counter()
            status, record = call(self.rig.url, "/v1/jobs", self.specs[which])
            latency = time.perf_counter() - started
            # Checked outside the timed region; only the verdict is kept,
            # since a response carries the whole stored result.
            ok = status == 200 and record.get("cached") is True
            ops.append((latency, ok and record.get("key") == self.keys[which]))
            position += 1

    def run(self, seconds: float, traced: bool) -> Measured:
        out = Measured()
        timers = front_end_timers()
        per_client: List[list] = [[] for _ in range(CACHED_CLIENTS)]
        deadline = time.perf_counter() + seconds
        started = time.perf_counter()
        with front_end_probes(timers) if traced else nullcontext():
            threads = [
                threading.Thread(target=self._client, args=(i, deadline, ops))
                for i, ops in enumerate(per_client)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        out.busy_s = time.perf_counter() - started
        for ops in per_client:
            latencies = [op[0] for op in ops]
            out.latencies.extend(latencies)
            out.pass_walls.extend(_passes(latencies, CACHED_SPECS))
            out.failed += sum(not ok for _, ok in ops)
        if traced:
            values = front_end_metrics(timers)
            hits = timers["store.get_s"].outcomes
            values["store.hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
            values["service.submit_s"] = median(out.latencies)
            out.layers = values
            out.notes["operator_applies"] = len(timers["hamiltonian.applies"].samples)
        return out


def _passes(latencies: List[float], size: int) -> List[float]:
    """Wall seconds of each whole block of ``size`` consecutive ops."""
    return [
        sum(latencies[i : i + size])
        for i in range(0, len(latencies) - size + 1, size)
    ]
