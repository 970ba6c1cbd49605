"""On-disk content-addressed result store.

Layout (one directory per store)::

    <root>/
      index.json              # advisory index: key -> {size, stage, created}
      size.json               # running byte total of the entries (capped stores)
      objects/<k[:2]>/<key>.json   # one JSON envelope per entry

Entries are written atomically (temp file in the destination directory +
``os.replace``), so concurrent writers — threads and whole process pools
— can share a store without locks: the worst case is the same entry
written twice, and last-writer-wins is harmless for content-addressed
values.  Reads are corruption-tolerant: a truncated, unparsable, or
wrong-schema entry counts as a miss and is discarded, never raised.

The index file is an *acceleration*, not a source of truth — it is
rebuilt from a directory scan whenever it is missing, stale, or
unreadable, so a crash between an object write and an index write can
never corrupt the store.

Eviction is LRU by file mtime (touched on every hit) against a byte-size
cap (``max_bytes``; ``REPRO_CACHE_MAX_BYTES``; 0 disables the cap).

Cost model: a put does no work proportional to the store's size.  A
capped put reads the running byte total in ``size.json``, adds its own
bytes and writes it back in place, all under an exclusive ``flock`` of
that file, so writers in other processes (every job child included)
count toward one total.  Only when the total would pass the cap does a
put run an eviction pass, which scans every entry (O(entries)) and
evicts down to 7/8 of the cap, so passes are spaced by an eighth of the
cap's bytes.  Every authoritative scan re-trues the sidecar: the
eviction pass, :meth:`ResultStore.stats`, :meth:`ResultStore.prune` and
:meth:`ResultStore.clear`.  Each holds the lock from its scan through
its write, so a put that adds meanwhile lands on top of the scanned
total and no increment is lost; a put whose entry the scan already saw
is counted twice, which only brings the next eviction pass forward.  A
missing or unreadable sidecar costs one scan; an uncapped instance
never touches it.  Index updates stay pending in memory until a flush
loads, merges and rewrites ``index.json`` (on every update while the
index file is small, every :data:`_INDEX_FLUSH_EVERY` updates after
that), so a short-lived instance on a large store never parses the
index.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.faults import init_from_env as _faults_init_from_env
from repro.faults import inject as _inject
from repro.obs import trace as _obs_trace
from repro.obs.metrics import get_registry as _obs_metrics
from repro.store.keys import STORE_SCHEMA_VERSION
from repro.utils.retry import RetryPolicy, retry_call

__all__ = [
    "DEFAULT_MAX_BYTES",
    "ResultStore",
    "default_cache_dir",
    "default_max_bytes",
]

#: Backoff absorbing transient I/O races (concurrent writers, injected
#: io_errors); bounded so a genuinely dead disk fails in well under a
#: second and the caller's graceful-degradation path takes over.
_IO_RETRY = RetryPolicy(max_attempts=4, base_seconds=0.005, cap_seconds=0.05)


def _transient_io(exc: BaseException) -> bool:
    """Retriable store I/O failures: any OSError except a clean miss."""
    return isinstance(exc, OSError) and not isinstance(exc, FileNotFoundError)

#: Default size cap of a store: 512 MiB.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_INDEX_NAME = "index.json"
_SIZE_NAME = "size.json"
_OBJECTS_DIR = "objects"

#: A large index is flushed at most every this many pending updates (an
#: index file of at most ``_INDEX_FLUSH_SMALL_BYTES``, about 64 entries,
#: on every update — the merge is cheap there), keeping a burst of N
#: puts O(N) instead of O(N^2) in index serialization.
_INDEX_FLUSH_EVERY = 16
_INDEX_FLUSH_SMALL_BYTES = 8 * 1024


def default_cache_dir() -> Path:
    """The default store location: ``REPRO_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def default_max_bytes() -> Optional[int]:
    """The default size cap: ``REPRO_CACHE_MAX_BYTES`` (0 = unlimited),
    else :data:`DEFAULT_MAX_BYTES`.

    Raises
    ------
    repro.ConfigError
        When the environment value is not a valid integer.
    """
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if not raw:
        return DEFAULT_MAX_BYTES
    from repro.core.config import ConfigError

    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"invalid REPRO_CACHE_MAX_BYTES={raw!r}: {exc}"
        ) from exc
    if value < 0:
        raise ConfigError(
            f"invalid REPRO_CACHE_MAX_BYTES={raw!r}: must be >= 0"
        )
    return None if value == 0 else value


class ResultStore:
    """A content-addressed, size-capped, corruption-tolerant result cache.

    Parameters
    ----------
    root:
        Store directory (created on first write).  Defaults to
        :func:`default_cache_dir`.
    max_bytes:
        LRU eviction threshold in bytes; ``None`` defers to
        :func:`default_max_bytes`, ``0`` disables eviction.
    schema:
        Entry schema version; entries written under any other version
        are treated as misses (and discarded when encountered).

    Notes
    -----
    Instances are thread-safe; distinct instances (including in other
    processes) may point at the same ``root`` concurrently.  The
    ``counters`` dict tracks this instance's traffic only — hits,
    misses, writes, evictions, and corrupt entries discarded.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        max_bytes: Optional[int] = None,
        schema: int = STORE_SCHEMA_VERSION,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_bytes is None:
            max_bytes = default_max_bytes()
        elif max_bytes == 0:
            max_bytes = None
        elif max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self.schema = int(schema)
        # Surface a malformed REPRO_FAULTS plan here, at construction,
        # instead of deep inside a hot read path (no-op when unset).
        _faults_init_from_env()
        self._lock = threading.Lock()
        # Infrastructure-failure state feeding health(): consecutive
        # non-miss I/O failures and the last one seen.  A miss is a
        # *successful* I/O round trip; only real errno failures count.
        self._failures = 0
        self._last_error: Optional[str] = None
        # Index updates not yet merged into index.json (None = removed).
        self._pending: Dict[str, Optional[dict]] = {}
        self.counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "evictions": 0,
            "corrupt": 0,
            "read_errors": 0,
            "write_errors": 0,
            "retries": 0,
        }

    @classmethod
    def from_config(cls, config: Any) -> "ResultStore":
        """Build a store from a :class:`~repro.core.config.RunConfig`
        (its ``cache_dir`` field, else the default location)."""
        cache_dir = getattr(config, "cache_dir", None)
        return cls(cache_dir)

    # -- paths --------------------------------------------------------------

    def _objects_root(self) -> Path:
        return self.root / _OBJECTS_DIR

    def _entry_path(self, key: str) -> Path:
        key = str(key)
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self._objects_root() / key[:2] / f"{key}.json"

    def _index_path(self) -> Path:
        return self.root / _INDEX_NAME

    def _size_path(self) -> Path:
        return self.root / _SIZE_NAME

    # -- reads --------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Return the payload stored under ``key``, or ``None`` on a miss.

        Corrupt or wrong-schema entries are misses: counted, discarded
        best-effort, never raised.  A *transient* read failure (EIO and
        friends, retried with backoff first) is also a miss, but the
        entry is left in place — a flaky disk is not evidence the bytes
        are bad — and recorded against :meth:`health`.  A hit refreshes
        the entry's LRU timestamp.
        """
        with _obs_trace.timed("store.get", key=key[:16]) as span:
            payload = self._get_inner(key)
            span.annotate("hit", payload is not None)
        _obs_metrics().count(
            "store.get.hits" if payload is not None else "store.get.misses"
        )
        return payload

    def _get_inner(self, key: str) -> Optional[dict]:
        path = self._entry_path(key)

        def _read() -> bytes:
            fault = _inject("store.read")
            data = path.read_bytes()
            if fault == "corrupt":
                # Injected bit-rot: flip one byte mid-payload so the
                # validation below must catch it.
                mid = len(data) // 2
                data = data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1:]
            return data

        try:
            doc = json.loads(
                retry_call(
                    _read,
                    policy=_IO_RETRY,
                    retry_on=_transient_io,
                    on_retry=self._count_retry,
                )
            )
        except FileNotFoundError:
            self.counters["misses"] += 1
            self._note_ok()
            return None
        except OSError as exc:
            # Transient infrastructure failure: miss, but keep the
            # entry — discarding on EIO would let a flaky disk empty
            # the whole store.
            self.counters["misses"] += 1
            self.counters["read_errors"] += 1
            self._note_failure(exc)
            return None
        except ValueError:
            self._discard(path, corrupt=True)
            self.counters["misses"] += 1
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != self.schema
            or doc.get("key") != key
            or not isinstance(doc.get("payload"), dict)
        ):
            # Wrong schema version or a foreign/forged file at this
            # address: unusable either way, so reclaim the space.
            self._discard(path, corrupt=True)
            self.counters["misses"] += 1
            return None
        try:
            now = time.time()
            os.utime(path, (now, now))
        except OSError:
            pass
        self.counters["hits"] += 1
        self._note_ok()
        return doc["payload"]

    def contains(self, key: str) -> bool:
        """True when a valid entry exists (no counters, no LRU touch)."""
        path = self._entry_path(key)
        try:
            doc = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return False
        return (
            isinstance(doc, dict)
            and doc.get("schema") == self.schema
            and doc.get("key") == key
            and isinstance(doc.get("payload"), dict)
        )

    # -- writes -------------------------------------------------------------

    def put(self, key: str, payload: dict, *, stage: str = "result") -> bool:
        """Persist ``payload`` under ``key`` atomically; returns success.

        The payload must already be JSON-serializable (the uniform
        ``to_dict()`` contract).  Failures — unwritable directory, disk
        full — are reported as ``False``, never raised: the cache is an
        accelerator, and a computation must not die because its result
        could not be memoized.
        """
        with _obs_trace.timed("store.put", key=key[:16], stage=stage) as span:
            ok = self._put_inner(key, payload, stage=stage)
            span.annotate("ok", ok)
        _obs_metrics().count("store.put.writes" if ok else "store.put.errors")
        return ok

    def _put_inner(self, key: str, payload: dict, *, stage: str) -> bool:
        if not isinstance(payload, dict):
            raise TypeError(
                f"payload must be a dict, got {type(payload).__name__}"
            )
        path = self._entry_path(key)
        envelope = {
            "schema": self.schema,
            "key": key,
            "stage": str(stage),
            "created": time.time(),
            "payload": payload,
        }
        try:
            data = json.dumps(envelope, sort_keys=True).encode("utf-8")
        except (TypeError, ValueError):
            return False

        def _write_once() -> None:
            fault = _inject("store.write")
            # An injected truncation survives on disk as a partial
            # write: the replace goes through with a strict prefix of
            # the envelope, which a later get() must reject as corrupt.
            body = data if fault != "truncate" else data[: len(data) // 2]
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(body)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

        with self._lock:
            try:
                retry_call(
                    _write_once,
                    policy=_IO_RETRY,
                    retry_on=_transient_io,
                    on_retry=self._count_retry,
                )
            except OSError as exc:
                self.counters["write_errors"] += 1
                self._note_failure(exc)
                return False
            self.counters["writes"] += 1
            self._note_ok()
            self._update_index(
                {
                    key: {
                        "size": len(data),
                        "stage": str(stage),
                        "created": envelope["created"],
                    }
                }
            )
            if self.max_bytes is not None and not self._add_to_total(len(data)):
                # One authoritative pass: it evicts only when the scan
                # confirms the store is over the cap.
                self._evict_locked(
                    self.max_bytes, target=self.max_bytes - self.max_bytes // 8
                )
        return True

    def _discard(self, path: Path, *, corrupt: bool = False) -> bool:
        """Delete an entry file; False when it could not be removed."""
        if corrupt:
            self.counters["corrupt"] += 1
        try:
            path.unlink()
        except FileNotFoundError:
            return True
        except OSError:
            return False
        return True

    # -- health -------------------------------------------------------------

    def _count_retry(self, attempt: int, exc: BaseException) -> None:
        self.counters["retries"] += 1

    def _note_ok(self) -> None:
        self._failures = 0
        self._last_error = None

    def _note_failure(self, exc: BaseException) -> None:
        self._failures += 1
        self._last_error = f"{type(exc).__name__}: {exc}"

    def health(self) -> dict:
        """Passive health snapshot: ``ok`` until I/O actually fails.

        The state is self-healing — any subsequent successful operation
        (including a clean miss) resets it — so a transient blip clears
        on the next touch while a dead disk stays ``failing``.
        """
        failing = self._failures > 0
        return {
            "status": "failing" if failing else "ok",
            "consecutive_failures": self._failures,
            "last_error": self._last_error,
        }

    def probe(self) -> dict:
        """Actively exercise the read path, then report :meth:`health`.

        Reads a reserved key that never exists: a clean miss proves the
        I/O path works (and resets the failure state); an errno failure
        records itself.  No counters are touched — probes must not
        pollute traffic statistics.
        """
        path = self._entry_path("00" * 20)
        try:
            _inject("store.read")
            path.read_bytes()
        except FileNotFoundError:
            self._note_ok()
        except OSError as exc:
            self._note_failure(exc)
        else:  # pragma: no cover - the reserved key should never exist
            self._note_ok()
        return self.health()

    # -- running size -------------------------------------------------------

    @contextmanager
    def _size_file(self) -> Iterator[Optional[int]]:
        """The sidecar's descriptor, held under an exclusive lock; ``None``
        when this instance is uncapped or the sidecar cannot be opened.

        An authoritative scan holds it from the scan through its re-true.
        """
        fd = None
        if self.max_bytes is not None:
            try:
                fd = os.open(self._size_path(), os.O_RDWR | os.O_CREAT, 0o644)
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                if fd is not None:
                    os.close(fd)
                fd = None
        try:
            yield fd
        finally:
            if fd is not None:
                os.close(fd)

    @staticmethod
    def _write_total(fd: int, total: int) -> None:
        data = json.dumps({"total_bytes": int(total)}).encode("utf-8")
        os.pwrite(fd, data, 0)
        os.ftruncate(fd, len(data))

    def _add_to_total(self, size: int) -> bool:
        """Add ``size`` to the sidecar's total unless that would pass the
        cap; False when it would, or when the sidecar is missing or
        unreadable (the caller then runs an eviction pass)."""
        with self._size_file() as fd:
            if fd is None:
                return False
            try:
                total = json.loads(os.pread(fd, 4096, 0))["total_bytes"]
                if not isinstance(total, int) or total < 0:
                    return False
                if total + size > self.max_bytes:
                    return False
                self._write_total(fd, total + size)
                return True
            except (OSError, ValueError, TypeError, KeyError):
                return False

    def _retrue(self, fd: Optional[int], total: int) -> None:
        """Write an authoritative scan's total to the sidecar held by
        :meth:`_size_file` (a failed write only costs a later scan)."""
        if fd is not None:
            try:
                self._write_total(fd, total)
            except OSError:
                pass

    # -- index --------------------------------------------------------------

    def _load_index(self) -> Dict[str, dict]:
        try:
            doc = json.loads(self._index_path().read_bytes())
        except (OSError, ValueError):
            return {}
        if not isinstance(doc, dict) or doc.get("schema") != self.schema:
            return {}
        entries = doc.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _index_entries(self) -> Dict[str, dict]:
        """The index on disk with this instance's pending updates merged.

        Concurrent writers in other processes may make it stale, which
        is fine — the index is advisory and rebuilt from a scan wherever
        correctness matters.
        """
        entries = self._load_index()
        for key, value in self._pending.items():
            if value is None:
                entries.pop(key, None)
            else:
                entries[key] = value
        return entries

    def _write_index(self, entries: Dict[str, dict]) -> None:
        payload = {"schema": self.schema, "entries": entries}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=".index-", suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # dumps, not dump: only the one-shot encoder is the C one.
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp_name, self._index_path())
        except OSError:
            # The index is advisory; a failed update only costs a rebuild.
            pass

    def _index_is_small(self) -> bool:
        try:
            return self._index_path().stat().st_size <= _INDEX_FLUSH_SMALL_BYTES
        except OSError:
            return True  # missing: the flush writes a fresh index

    def _update_index(
        self, updates: Dict[str, Optional[dict]], *, flush: bool = False
    ) -> None:
        self._pending.update(updates)
        if (
            flush
            or len(self._pending) >= _INDEX_FLUSH_EVERY
            or self._index_is_small()
        ):
            self._write_index(self._index_entries())
            self._pending = {}

    def rebuild_index(self) -> int:
        """Rebuild ``index.json`` from a directory scan; returns the
        number of entries indexed."""
        with self._lock:
            entries = {
                key: {"size": size, "stage": None, "created": mtime}
                for key, _path, size, mtime in self._scan()
            }
            self._pending = {}
            self._write_index(entries)
            return len(entries)

    # -- maintenance --------------------------------------------------------

    def _scan(self) -> List[Tuple[str, Path, int, float]]:
        """Authoritative listing: ``(key, path, size, mtime)`` per entry."""
        found: List[Tuple[str, Path, int, float]] = []
        objects = self._objects_root()
        if not objects.is_dir():
            return found
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                found.append((path.stem, path, int(stat.st_size), stat.st_mtime))
        return found

    def _evict_locked(
        self, max_bytes: Optional[int], *, target: Optional[int] = None
    ) -> Tuple[int, int, int]:
        """One authoritative pass: evict LRU entries down to ``target``
        (default ``max_bytes``) when the store holds more than
        ``max_bytes`` (``None``: never), and re-true the sidecar.

        Returns ``(removed, entries left, bytes left)``.
        """
        removed = 0
        index_updates: Dict[str, Optional[dict]] = {}
        with self._size_file() as fd:
            entries = self._scan()
            total = sum(size for _k, _p, size, _m in entries)
            if max_bytes is not None and total > max_bytes:
                target = max_bytes if target is None else target
                entries = sorted(entries, key=lambda e: e[3])
                for key, path, size, _mtime in entries:
                    if total <= target:
                        break
                    self._discard(path)
                    index_updates[key] = None
                    total -= size
                    removed += 1
            self._retrue(fd, total)
        if index_updates:
            self.counters["evictions"] += removed
            self._update_index(index_updates, flush=True)
        return removed, len(entries) - removed, total

    def prune(self, max_bytes: Optional[int] = None) -> dict:
        """Evict LRU entries down to ``max_bytes``; returns a summary.

        ``None`` prunes to the store's own cap.  Unlike the constructor
        (where ``0`` follows the ``REPRO_CACHE_MAX_BYTES`` convention of
        "unlimited"), an explicit ``prune(0)`` means what it says: evict
        everything.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        with self._lock:
            removed, count, total = self._evict_locked(cap)
        return {
            "removed": removed,
            "entries": count,
            "total_bytes": total,
            "max_bytes": cap,
        }

    def clear(self) -> int:
        """Delete every entry (and the index); returns the number removed."""
        with self._lock, self._size_file() as fd:
            entries = self._scan()
            kept = sum(
                size
                for _key, path, size, _mtime in entries
                if not self._discard(path)
            )
            try:
                self._index_path().unlink()
            except OSError:
                pass
            self._pending = {}
            self._retrue(fd, kept)
            return len(entries)

    def stats(self) -> dict:
        """Store statistics from an authoritative directory scan.

        Entry and byte counts come from the scan, which also re-trues
        the running-size sidecar; the per-stage labels come from the
        advisory index, whose flush is amortized on large stores —
        entries another process wrote very recently may show under stage
        ``None`` there.
        """
        with self._size_file() as fd:
            entries = self._scan()
            total = sum(size for _k, _p, size, _m in entries)
            self._retrue(fd, total)
        with self._lock:
            index = self._index_entries()
        stages: Dict[str, int] = {}
        for key, _path, _size, _mtime in entries:
            stage = (index.get(key) or {}).get("stage")
            stages[str(stage)] = stages.get(str(stage), 0) + 1
        return {
            "root": str(self.root),
            "schema": self.schema,
            "entries": len(entries),
            "total_bytes": total,
            "max_bytes": self.max_bytes,
            "stages": stages,
            "counters": dict(self.counters),
            "health": self.health(),
        }

    def __repr__(self) -> str:
        return (
            f"ResultStore(root={str(self.root)!r}, schema={self.schema},"
            f" max_bytes={self.max_bytes})"
        )
