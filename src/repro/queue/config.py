"""Queue configuration: the ``REPRO_QUEUE_*`` knobs.

Mirrors the :class:`~repro.core.config.RunConfig` pattern — one frozen,
validated value object constructed from code, dictionaries, or the
environment, flowing unchanged from the CLI (``repro serve`` /
``repro worker`` / ``repro jobs``) down to the queue and worker layers::

    qc = QueueConfig()                       # defaults
    qc = QueueConfig.from_env()              # REPRO_QUEUE_* overrides
    qc = qc.merged(lease_seconds=5.0)        # functional per-call override

Recognized environment variables (all optional):

* ``REPRO_QUEUE_PATH``          — queue database file (default: one file
  named ``queue.sqlite3`` next to the result store);
* ``REPRO_QUEUE_LEASE``         — job lease in seconds; a worker that
  stops heartbeating loses its job after this long;
* ``REPRO_QUEUE_HEARTBEAT``     — heartbeat interval (must stay below
  the lease or a healthy worker would lose its own job);
* ``REPRO_QUEUE_POLL``          — seconds an idle worker waits before
  re-checking the queue (work enqueued in the same process wakes it at
  once);
* ``REPRO_QUEUE_MAX_ATTEMPTS``  — claim attempts before a job is marked
  ``failed`` (bounds requeue loops from crashing workers);
* ``REPRO_QUEUE_RATE``          — per-client job submissions per second
  accepted by the HTTP front-end (0 disables rate limiting);
* ``REPRO_QUEUE_BURST``         — per-client token-bucket burst size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.core.config import ConfigError
from repro.utils.validation import (
    ensure_nonnegative_float,
    ensure_positive_float,
    ensure_positive_int,
)

__all__ = ["QUEUE_ENV_PREFIX", "QUEUE_FILENAME", "QueueConfig"]

#: Environment prefix recognized by :meth:`QueueConfig.from_env`.
QUEUE_ENV_PREFIX = "REPRO_QUEUE_"

#: Default database filename, created next to the result store.
QUEUE_FILENAME = "queue.sqlite3"


def _checked_fields(mapping: Mapping[str, Any]) -> dict:
    valid = {f.name for f in fields(QueueConfig)}
    unknown = sorted(set(mapping) - valid)
    if unknown:
        raise ValueError(
            f"unknown QueueConfig field(s) {unknown};"
            f" valid fields: {sorted(valid)}"
        )
    return dict(mapping)


@dataclass(frozen=True)
class QueueConfig:
    """Frozen bundle of the durable-queue knobs.

    Parameters
    ----------
    path:
        Queue database file; ``None`` resolves to ``queue.sqlite3`` next
        to the result store (see :meth:`resolve_path`).
    lease_seconds:
        How long a claimed job stays owned without a heartbeat.  Short
        leases recover faster from killed workers; long leases tolerate
        slower heartbeat scheduling under load.
    heartbeat_seconds:
        Interval between lease renewals of an executing worker; must be
        smaller than ``lease_seconds``.
    poll_seconds:
        Longest wait of an idle worker before it re-checks the queue.
        Work enqueued in the same process (``repro serve`` with
        embedded workers) wakes it at once, so this bounds how soon it
        notices work enqueued by another process, or an expired lease.
    max_attempts:
        Claim attempts before a job is marked ``failed`` (a job leased
        by a crashing worker is requeued at most this many times).
    rate:
        Per-client submissions per second the HTTP front-end accepts;
        ``0.0`` (default) disables rate limiting.
    burst:
        Token-bucket burst: clients may submit this many jobs instantly
        before the steady-state ``rate`` applies.
    """

    path: Optional[str] = None
    lease_seconds: float = 60.0
    heartbeat_seconds: float = 15.0
    poll_seconds: float = 0.2
    max_attempts: int = 3
    rate: float = 0.0
    burst: int = 20

    def __post_init__(self) -> None:
        if self.path is not None:
            if isinstance(self.path, os.PathLike):
                object.__setattr__(self, "path", os.fspath(self.path))
            elif not isinstance(self.path, str):
                raise TypeError(
                    "path must be a path string or None,"
                    f" got {type(self.path).__name__}"
                )
        object.__setattr__(
            self,
            "lease_seconds",
            ensure_positive_float(self.lease_seconds, "lease_seconds"),
        )
        object.__setattr__(
            self,
            "heartbeat_seconds",
            ensure_positive_float(self.heartbeat_seconds, "heartbeat_seconds"),
        )
        if self.heartbeat_seconds >= self.lease_seconds:
            raise ValueError(
                f"heartbeat_seconds ({self.heartbeat_seconds}) must stay"
                f" below lease_seconds ({self.lease_seconds}) or a healthy"
                " worker would lose its own lease"
            )
        object.__setattr__(
            self,
            "poll_seconds",
            ensure_positive_float(self.poll_seconds, "poll_seconds"),
        )
        object.__setattr__(
            self,
            "max_attempts",
            ensure_positive_int(self.max_attempts, "max_attempts"),
        )
        object.__setattr__(
            self, "rate", ensure_nonnegative_float(self.rate, "rate")
        )
        object.__setattr__(
            self, "burst", ensure_positive_int(self.burst, "burst")
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_env(
        cls,
        environ: Optional[Mapping[str, str]] = None,
        *,
        base: Optional["QueueConfig"] = None,
        prefix: str = QUEUE_ENV_PREFIX,
    ) -> "QueueConfig":
        """Build a config from ``REPRO_QUEUE_*`` environment variables.

        Raises
        ------
        repro.ConfigError
            On any unparseable value, naming the offending variable.
        """
        environ = os.environ if environ is None else environ
        base = base if base is not None else cls()
        overrides: dict = {}

        def get(key: str) -> Optional[str]:
            value = environ.get(prefix + key)
            return None if value is None or value.strip() == "" else value

        def parse(key: str, raw: str, caster):
            try:
                return caster(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"invalid {prefix + key}={raw!r}: {exc}"
                ) from exc

        if (raw := get("PATH")) is not None:
            overrides["path"] = raw.strip()
        if (raw := get("LEASE")) is not None:
            overrides["lease_seconds"] = parse("LEASE", raw, float)
        if (raw := get("HEARTBEAT")) is not None:
            overrides["heartbeat_seconds"] = parse("HEARTBEAT", raw, float)
        if (raw := get("POLL")) is not None:
            overrides["poll_seconds"] = parse("POLL", raw, float)
        if (raw := get("MAX_ATTEMPTS")) is not None:
            overrides["max_attempts"] = parse("MAX_ATTEMPTS", raw, int)
        if (raw := get("RATE")) is not None:
            overrides["rate"] = parse("RATE", raw, float)
        if (raw := get("BURST")) is not None:
            overrides["burst"] = parse("BURST", raw, int)
        try:
            return base.merged(**overrides) if overrides else base
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def merged(self, **overrides: Any) -> "QueueConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        if not overrides:
            return self
        return replace(self, **_checked_fields(overrides))

    # -- introspection ------------------------------------------------------

    def resolve_path(self, store_root: Optional[os.PathLike] = None) -> Path:
        """The concrete database file this config names.

        An explicit ``path`` wins; otherwise the file lives next to the
        result store (``store_root``, else the default cache location) —
        the one shared filesystem location every worker already mounts.
        """
        if self.path is not None:
            return Path(self.path)
        if store_root is None:
            from repro.store import default_cache_dir

            store_root = default_cache_dir()
        return Path(store_root) / QUEUE_FILENAME

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of this config."""
        return {
            "path": self.path,
            "lease_seconds": self.lease_seconds,
            "heartbeat_seconds": self.heartbeat_seconds,
            "poll_seconds": self.poll_seconds,
            "max_attempts": self.max_attempts,
            "rate": self.rate,
            "burst": self.burst,
        }
