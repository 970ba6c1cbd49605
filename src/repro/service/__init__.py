"""Persistent macromodel service: an HTTP job server over a durable queue.

``repro serve`` turns the library into a long-running daemon: clients
POST job specifications (synthetic, Touchstone, or inline-model sources;
fit/check/enforce/hinf/simulate tasks) to ``/v1/jobs``, poll
``/v1/jobs/<id>`` (or long-poll ``/v1/jobs/<id>/events``), and fetch
content-addressed payloads from ``/v1/results/<key>``.  Submissions land
in the persistent :mod:`repro.queue` (one SQLite file next to the result
store), execution happens in queue workers — threads embedded in the
server and/or external ``repro worker`` processes sharing the file — and
results land in the :mod:`repro.store` cache, so a resubmission of an
already-computed job returns immediately with ``"cached": true``.  A
service restart loses nothing: the queue is the state.

Everything is standard library (``http.server`` + ``sqlite3``): a clean
wheel install can serve and consume the API with no extra dependencies.
"""

from repro.service.manager import (
    VALID_KINDS,
    VALID_TASKS,
    JobError,
    JobManager,
)
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_POLL_SECONDS,
    ReproServer,
)

__all__ = [
    "JobError",
    "JobManager",
    "ReproServer",
    "MAX_BODY_BYTES",
    "MAX_POLL_SECONDS",
    "VALID_TASKS",
    "VALID_KINDS",
]
