"""The HTTP front-end: a stdlib-only JSON API over the durable queue.

Endpoints (all JSON unless noted)::

    GET  /healthz                 liveness: {"status": "ok", ...}
    GET  /v1/stats                queue depth, workers, store stats, and
                                  per-endpoint/per-task latency histograms
    GET  /v1/metrics              process metrics, Prometheus text format
    POST /v1/jobs                 submit a job spec; 202 queued / 200 cached
    GET  /v1/jobs/<id>            one job record (status, result when done)
    GET  /v1/jobs/<id>/events     long-poll a state transition
                                  (?since=<version>&timeout=<seconds>)
    GET  /v1/jobs/<id>/trace      the job's span tree (distributed trace)
    GET  /v1/results/<key>        raw result-store payload by cache key

``POST /v1/jobs`` honors an ``X-Repro-Trace-Id`` request header: the
(sanitized) value becomes the job's trace id, so a caller that spans
multiple services can stitch this job into its own distributed trace.
Absent or invalid, a fresh id is minted; either way it is returned in
the job record and reachable later via ``GET /v1/jobs/<id>/trace``.

Errors use one envelope everywhere::

    {"error": {"code": "<machine-readable>", "message": "<human-readable>"}}

with codes ``bad_request`` (400), ``not_found`` (404), ``rate_limited``
(429, with a ``Retry-After`` header), ``unavailable`` (503), and
``internal`` (500 — sanitized; tracebacks go to the log, never the
client).

Built on ``http.server.ThreadingHTTPServer`` — no third-party web stack,
so a clean wheel install serves traffic with nothing but the standard
library.  Request threads only touch the queue database and the on-disk
store; the heavy lifting happens in queue workers (embedded threads
and/or external ``repro worker`` processes), so polling stays cheap
while eigensweeps run.

Embedding (tests, notebooks, the example client)::

    from repro.service import ReproServer

    server = ReproServer.create(port=0)      # ephemeral port
    server.start_background()
    ... http requests against server.url ...
    server.stop()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.config import RunConfig
from repro.faults import inject as _inject
from repro.obs.metrics import get_registry as _obs_metrics
from repro.queue import QueueConfig
from repro.service.manager import JobError, JobManager
from repro.utils.logging import get_logger

__all__ = ["ReproServer", "MAX_BODY_BYTES", "MAX_POLL_SECONDS", "describe_manager"]

_LOG = get_logger("service.http")

#: Upper bound on request bodies (model payloads are a few MiB at most).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Upper bound on one ``/events`` long-poll (clients re-poll to wait
#: longer; unbounded waits would pin handler threads forever).
MAX_POLL_SECONDS = 60.0


def _repro_version() -> str:
    from repro import __version__

    return __version__


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ReproServer`'s manager."""

    protocol_version = "HTTP/1.1"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        _LOG.debug("%s - %s", self.address_string(), format % args)

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        """Structured access log (DEBUG; visible under REPRO_LOG_LEVEL).

        Replaces the stderr one-liner ``http.server`` would print with a
        record carrying method/path/status/duration and — when the
        request touched a job — its trace id, so JSON-mode logs
        correlate with the job's distributed trace.
        """
        try:
            status = int(code)
        except (TypeError, ValueError):
            status = str(code)
        started = getattr(self, "_started", None)
        extra = {
            "http_method": self.command,
            "http_path": urlsplit(self.path).path,
            "http_status": status,
            "duration_ms": None
            if started is None
            else round((time.perf_counter() - started) * 1000.0, 3),
        }
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            extra["trace_id"] = trace_id
        _LOG.debug(
            "%s %s -> %s", self.command, self.path, status, extra=extra
        )

    def _send_json(
        self, status: int, payload: dict, *, headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        code: str,
        message: str,
        *,
        headers: Optional[dict] = None,
    ) -> None:
        """The one error envelope every endpoint speaks."""
        self._send_json(
            status,
            {"error": {"code": code, "message": message}},
            headers=headers,
        )

    def _read_json_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise JobError("request body required (JSON object)")
        if length > MAX_BODY_BYTES:
            raise JobError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise JobError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise JobError("request body must be a JSON object")
        return doc

    def _query(self) -> dict:
        return parse_qs(urlsplit(self.path).query)

    def _endpoint_label(self, method: str) -> str:
        """Low-cardinality endpoint label for the latency histograms.

        Path parameters (job ids, store keys) are collapsed so the
        metric set stays bounded no matter how many jobs pass through.
        """
        path = urlsplit(self.path).path.rstrip("/") or "/"
        if path == "/healthz":
            return "healthz"
        if path == "/v1/stats":
            return "stats"
        if path == "/v1/metrics":
            return "metrics"
        if path == "/v1/jobs":
            return "jobs.submit" if method == "POST" else "jobs"
        if path.startswith("/v1/jobs/") and path.endswith("/events"):
            return "jobs.events"
        if path.startswith("/v1/jobs/") and path.endswith("/trace"):
            return "jobs.trace"
        if path.startswith("/v1/jobs/"):
            return "jobs.get"
        if path.startswith("/v1/results/"):
            return "results.get"
        return "other"

    def _query_number(self, query: dict, name: str, default: float) -> float:
        values = query.get(name)
        if not values:
            return default
        try:
            return float(values[-1])
        except ValueError as exc:
            raise JobError(f"query parameter {name!r} must be a number") from exc

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        endpoint = self._endpoint_label("GET")
        started = time.perf_counter()
        self._started = started
        self._trace_id: Optional[str] = None
        try:
            _inject("http.request")
            self._route_get()
        except JobError as exc:
            self._send_error_json(400, "bad_request", str(exc))
        except RuntimeError as exc:
            # ServiceUnavailable and injected request faults: the client
            # should back off and retry, not give up.
            self._send_error_json(
                503, "unavailable", str(exc), headers={"Retry-After": "1"}
            )
        except Exception:
            # Sanitized: the traceback goes to the server log only —
            # clients never see internals.
            _LOG.exception("unhandled error serving GET %s", self.path)
            self._send_error_json(500, "internal", "internal server error")
        finally:
            registry = _obs_metrics()
            registry.count(f"http.requests.{endpoint}")
            registry.observe(
                f"http.{endpoint}", time.perf_counter() - started
            )

    def _route_get(self) -> None:
        path = urlsplit(self.path).path.rstrip("/") or "/"
        if path == "/healthz":
            server: ReproServer = self.server  # type: ignore[assignment]
            health = self.manager.health()
            # Degraded is still HTTP 200: the process is alive and reads
            # may serve — the body says what broke and how badly.
            self._send_json(
                200,
                {
                    "status": health["status"],
                    "subsystems": health["subsystems"],
                    "version": _repro_version(),
                    "uptime_seconds": time.time() - server.started,
                },
            )
            return
        if path == "/v1/stats":
            self._send_json(200, self.manager.stats())
            return
        if path == "/v1/metrics":
            # Prometheus-style text exposition of the process registry:
            # every counter and latency histogram recorded in this
            # process (HTTP handling, queue ops, store traffic, solver
            # stages of the embedded workers).
            body = _obs_metrics().render_text().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if path.startswith("/v1/jobs/") and path.endswith("/events"):
            job_id = path[len("/v1/jobs/"):-len("/events")]
            query = self._query()
            since = int(self._query_number(query, "since", 0))
            timeout = min(
                MAX_POLL_SECONDS,
                max(0.0, self._query_number(query, "timeout", 30.0)),
            )
            record = self.manager.events(job_id, since=since, timeout=timeout)
            if record is None:
                self._send_error_json(
                    404, "not_found", f"unknown job id {job_id!r}"
                )
                return
            self._send_json(200, record.to_dict())
            return
        if path.startswith("/v1/jobs/") and path.endswith("/trace"):
            job_id = path[len("/v1/jobs/"):-len("/trace")]
            payload = self.manager.trace(job_id)
            if payload is None:
                self._send_error_json(
                    404, "not_found", f"unknown job id {job_id!r}"
                )
                return
            self._trace_id = payload.get("trace_id")
            self._send_json(200, payload)
            return
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            record = self.manager.get(job_id)
            if record is None:
                self._send_error_json(
                    404, "not_found", f"unknown job id {job_id!r}"
                )
                return
            self._send_json(200, record.to_dict())
            return
        if path.startswith("/v1/results/"):
            key = path[len("/v1/results/"):]
            payload = self.manager.result_payload(key)
            if payload is None:
                self._send_error_json(
                    404, "not_found", f"no stored result under key {key!r}"
                )
                return
            self._send_json(200, {"key": key, "payload": payload})
            return
        self._send_error_json(404, "not_found", f"unknown endpoint {path!r}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        endpoint = self._endpoint_label("POST")
        started = time.perf_counter()
        self._started = started
        self._trace_id = None
        try:
            _inject("http.request")
            self._route_post()
        except (JobError, TypeError, ValueError) as exc:
            # TypeError covers malformed numeric fields (e.g. "seed":
            # null) raised by the int()/float() coercions — a client
            # error, not a server crash.
            self._send_error_json(400, "bad_request", str(exc))
        except RuntimeError as exc:
            # ServiceUnavailable (queue down) and injected request
            # faults are retryable: say so with Retry-After.
            self._send_error_json(
                503, "unavailable", str(exc), headers={"Retry-After": "1"}
            )
        except Exception:
            _LOG.exception("unhandled error serving POST %s", self.path)
            self._send_error_json(500, "internal", "internal server error")
        finally:
            registry = _obs_metrics()
            registry.count(f"http.requests.{endpoint}")
            registry.observe(
                f"http.{endpoint}", time.perf_counter() - started
            )

    def _route_post(self) -> None:
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/v1/jobs":
            self._send_error_json(
                404, "not_found", f"unknown endpoint {path!r}"
            )
            return
        allowed, retry_after = self.manager.check_rate(
            self.client_address[0]
        )
        if not allowed:
            self._send_error_json(
                429,
                "rate_limited",
                "job submission rate exceeded; retry after"
                f" {retry_after:.1f}s",
                headers={"Retry-After": f"{max(1, round(retry_after))}"},
            )
            return
        spec = self._read_json_body()
        record = self.manager.submit(
            spec, trace_id=self.headers.get("X-Repro-Trace-Id")
        )
        self._trace_id = record.trace_id
        # A cached submission is complete right now (200); fresh work is
        # accepted for asynchronous execution (202).
        self._send_json(200 if record.cached else 202, record.to_dict())


class ReproServer(ThreadingHTTPServer):
    """The macromodel service: HTTP server + queue front-end in one object."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager
        self.started = time.time()
        self._thread: Optional[threading.Thread] = None

    @classmethod
    def create(
        cls,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[RunConfig] = None,
        file_representation: bool = False,
        workers: int = 2,
        timeout: Optional[float] = None,
        backend: str = "process",
        num_poles: int = 30,
        margin: float = 0.002,
        queue_config: Optional[QueueConfig] = None,
        queue_path: Optional[str] = None,
    ) -> "ReproServer":
        """Build a server on ``host:port`` (0 binds an ephemeral port)."""
        manager = JobManager(
            config=config,
            file_representation=file_representation,
            workers=workers,
            timeout=timeout,
            backend=backend,
            num_poles=num_poles,
            margin=margin,
            queue_config=queue_config,
            queue_path=queue_path,
        )
        return cls((host, port), manager)

    @property
    def port(self) -> int:
        """The bound port (useful after binding port 0)."""
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the bound server."""
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (for tests and embedded clients)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self._thread

    def stop(self) -> None:
        """Shut the HTTP loop down and drain the embedded workers."""
        self.shutdown()
        self.server_close()
        self.manager.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def describe(self) -> dict:
        """Resolved server configuration (``repro serve --print-config``)."""
        return dict(
            describe_manager(self.manager, self.server_address[0], self.port),
            url=self.url,
        )


def describe_manager(manager: JobManager, host: str, port: int) -> dict:
    """The resolved-configuration payload, computable without a socket.

    ``repro serve --print-config`` uses this directly so describing a
    configuration never fails on an already-bound port.
    """
    return {
        "host": host,
        "port": int(port),
        "workers": manager.workers,
        "backend": manager.backend,
        "timeout": manager.timeout,
        "num_poles": manager.num_poles,
        "margin": manager.margin,
        "config": manager.config.to_dict(),
        "file_representation": manager.file_representation,
        "queue": dict(
            manager.queue_config.to_dict(), path=str(manager.queue_path)
        ),
        "store": None
        if manager.store is None
        else {
            "root": str(manager.store.root),
            "max_bytes": manager.store.max_bytes,
            "schema": manager.store.schema,
        },
        "version": _repro_version(),
    }
