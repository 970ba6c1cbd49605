"""Drive the HTTP macromodel service with a stdlib-only client.

Submits a small fleet of synthetic characterization jobs over HTTP,
follows each over the long-poll ``/v1/jobs/<id>/events`` endpoint until
it finishes, fetches one result by its content-addressed key, then
resubmits the whole fleet to show the cached fast path (every second
submission answers synchronously with ``"cached": true``).

Run against an embedded throwaway server (started in-process on an
ephemeral port, with a temporary result store)::

    python examples/serve_client.py

or against a server you started yourself::

    repro serve --port 8080 --workers 4 --cache readwrite &
    python examples/serve_client.py --url http://127.0.0.1:8080

The client half of this file uses nothing beyond ``urllib`` and ``json``
— exactly what any non-Python consumer of the API would reimplement.
"""

import argparse
import json
import sys
import tempfile
import time
import urllib.error
import urllib.request

#: Retry budget for throttled (429) / temporarily unavailable (503)
#: responses — both carry Retry-After, the server's own backoff advice.
RETRYABLE_STATUSES = (429, 503)
MAX_RETRIES = 8

#: Job states that never change again (``repro.queue.TERMINAL_STATES``):
#: ``failed`` means the queue gave up after the lease attempts ran out.
TERMINAL_STATES = ("done", "error", "timeout", "failed")


def _retry_delay(response_headers, attempt: int) -> float:
    """Honor the server's Retry-After; fall back to linear backoff."""
    try:
        delay = float(response_headers.get("Retry-After"))
    except (TypeError, ValueError):
        delay = 0.5 * (attempt + 1)
    return min(max(delay, 0.0), 30.0)


def api(base_url: str, path: str, doc=None):
    """One JSON round trip (GET when ``doc`` is None, else POST).

    Rate-limited (429) and degraded-service (503) responses are retried
    after the delay the server asks for in ``Retry-After`` — transient
    congestion is the service telling the client *when* to come back,
    not a failure.
    """
    data = None if doc is None else json.dumps(doc).encode("utf-8")
    for attempt in range(MAX_RETRIES + 1):
        request = urllib.request.Request(
            base_url + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method="GET" if doc is None else "POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            if exc.code not in RETRYABLE_STATUSES or attempt >= MAX_RETRIES:
                raise
            time.sleep(_retry_delay(exc.headers, attempt))


def wait_for(base_url: str, record: dict, timeout: float = 300.0) -> dict:
    """Follow one job over ``/events`` until it reaches a terminal state.

    Each request long-polls: the server answers the moment the job's
    row changes, so the client neither sleeps nor hammers
    ``GET /v1/jobs``.
    """
    deadline = time.monotonic() + timeout
    while record["status"] not in TERMINAL_STATES:
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            raise TimeoutError(
                f"job {record['id']} still {record['status']} after {timeout}s"
            )
        record = api(
            base_url,
            f"/v1/jobs/{record['id']}/events?since={record['version']}"
            f"&timeout={min(30.0, remaining):.3f}",
        )
    return record


def submit_fleet(base_url: str, count: int) -> None:
    specs = [
        {"kind": "synth", "order": 10, "ports": 2, "seed": seed, "task": "check"}
        for seed in range(count)
    ]

    health = api(base_url, "/healthz")
    print(f"server {base_url} is {health['status']} (v{health['version']})")

    # --- Cold pass: submit everything, then follow /events -------------
    t0 = time.perf_counter()
    submitted = [api(base_url, "/v1/jobs", spec) for spec in specs]
    for record in submitted:
        print(f"  submitted {record['id']}  status={record['status']}")
    finished = [wait_for(base_url, record) for record in submitted]
    cold_s = time.perf_counter() - t0
    for record in finished:
        result = record["result"] or {}
        if record["status"] != "done" or result.get("status") != "ok":
            reason = record.get("error") or result.get("error") or "unknown"
            print(f"  {record['id']:<12} [{record['status']}] {reason}")
            continue
        verdict = "passive" if result["is_passive"] else "NOT passive"
        print(
            f"  {result['name']:<12} [{record['status']}] {verdict},"
            f" {len(result['crossings'])} crossing(s)"
        )

    # --- Fetch one payload straight from the store ----------------------
    done = [record for record in finished if record["status"] == "done"]
    if done:
        key = done[0]["key"]
        stored = api(base_url, f"/v1/results/{key}")
        print(f"fetched /v1/results/{key[:12]}...  ->  {stored['payload']['name']}")

    # --- Warm pass: the same fleet, served from the store ---------------
    t0 = time.perf_counter()
    resubmitted = [api(base_url, "/v1/jobs", spec) for spec in specs]
    warm_s = time.perf_counter() - t0
    cached = sum(1 for record in resubmitted if record["cached"])
    print(
        f"resubmitted {len(specs)} jobs: {cached} answered from the store"
        f" in {warm_s * 1e3:.1f} ms (cold pass took {cold_s:.2f} s)"
    )

    stats = api(base_url, "/v1/stats")
    print(
        f"server stats: {stats['jobs']['total']} submissions,"
        f" {stats['cached_submissions']} cached,"
        f" store holds {stats['store']['entries']} entries"
        if stats["store"]
        else "server stats: store disabled"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--url",
        default=None,
        help="base URL of a running `repro serve` (default: embed one)",
    )
    parser.add_argument("--jobs", type=int, default=4, help="fleet size")
    args = parser.parse_args()

    if args.url is not None:
        submit_fleet(args.url.rstrip("/"), args.jobs)
        return 0

    # No server given: embed one on an ephemeral port with a throwaway
    # store, exactly as `repro serve` would run it.
    from repro.core.config import RunConfig
    from repro.service import ReproServer

    with tempfile.TemporaryDirectory() as tmp:
        server = ReproServer.create(
            port=0,
            config=RunConfig(cache="readwrite", cache_dir=tmp),
            workers=2,
            timeout=300.0,
        )
        server.start_background()
        print(f"embedded server on {server.url} (store: {tmp})")
        try:
            submit_fleet(server.url, args.jobs)
        finally:
            server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
