"""ResultStore behavior: hits, misses, eviction, corruption, concurrency."""

import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.core.config import ConfigError
from repro.store import STORE_SCHEMA_VERSION, ResultStore, content_key
from repro.store.store import default_max_bytes


def _key(tag) -> str:
    return content_key({"tag": str(tag)})


class TestBasicTraffic:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _key("a")
        assert store.get(key) is None
        assert store.put(key, {"value": 42}, stage="check")
        assert store.get(key) == {"value": 42}
        assert store.counters["misses"] == 1
        assert store.counters["hits"] == 1
        assert store.counters["writes"] == 1

    def test_contains_does_not_count(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _key("a")
        assert not store.contains(key)
        store.put(key, {"v": 1})
        assert store.contains(key)
        assert store.counters["hits"] == 0
        assert store.counters["misses"] == 0

    def test_distinct_instances_share_entries(self, tmp_path):
        ResultStore(tmp_path).put(_key("a"), {"v": 1})
        assert ResultStore(tmp_path).get(_key("a")) == {"v": 1}

    def test_payload_must_be_dict(self, tmp_path):
        with pytest.raises(TypeError):
            ResultStore(tmp_path).put(_key("a"), [1, 2, 3])

    def test_malformed_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path).get("../../etc/passwd")

    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="root ignores file permission bits",
    )
    def test_unwritable_root_is_a_soft_failure(self, tmp_path):
        read_only = tmp_path / "ro"
        read_only.mkdir()
        os.chmod(read_only, 0o500)
        try:
            store = ResultStore(read_only)
            assert store.put(_key("a"), {"v": 1}) is False
        finally:
            os.chmod(read_only, 0o700)


class TestCorruptionRecovery:
    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _key("a")
        store.put(key, {"v": 1})
        path = store._entry_path(key)
        path.write_bytes(path.read_bytes()[:10])
        assert store.get(key) is None
        assert store.counters["corrupt"] == 1
        assert not path.exists()
        # The store heals: a rewrite serves again.
        store.put(key, {"v": 2})
        assert store.get(key) == {"v": 2}

    def test_non_json_garbage_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _key("a")
        path = store._entry_path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x00\xff not json")
        assert store.get(key) is None
        assert not path.exists()

    def test_key_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key_a, key_b = _key("a"), _key("b")
        store.put(key_a, {"v": 1})
        # Copy a's envelope to b's address: the embedded key disagrees.
        path_b = store._entry_path(key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(store._entry_path(key_a).read_bytes())
        assert store.get(key_b) is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        old = ResultStore(tmp_path, schema=STORE_SCHEMA_VERSION)
        key = _key("a")
        old.put(key, {"v": 1})
        new = ResultStore(tmp_path, schema=STORE_SCHEMA_VERSION + 1)
        assert new.get(key) is None
        assert new.counters["misses"] == 1
        # The stale-schema entry was reclaimed, not left to rot.
        assert not new.contains(key)

    def test_corrupt_index_is_rebuilt_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_key("a"), {"v": 1})
        (tmp_path / "index.json").write_bytes(b"{broken")
        assert store.get(_key("a")) == {"v": 1}
        assert store.stats()["entries"] == 1
        assert store.rebuild_index() == 1
        doc = json.loads((tmp_path / "index.json").read_bytes())
        assert len(doc["entries"]) == 1


class TestEviction:
    def test_lru_eviction_respects_size_cap(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=0)  # unlimited while filling
        payload = {"blob": "x" * 512}
        for i in range(10):
            store.put(_key(i), payload)
            time.sleep(0.01)  # distinct mtimes for a deterministic LRU order
        # Touch the two oldest so they become most-recently-used.
        assert store.get(_key(0)) is not None
        assert store.get(_key(1)) is not None
        time.sleep(0.01)
        sizes = [size for _k, _p, size, _m in store._scan()]
        cap = sum(sizes) - 3 * max(sizes)  # force at least 3 evictions
        removed = store.prune(cap)["removed"]
        assert removed >= 3
        assert store.get(_key(0)) is not None, "recently used entry evicted"
        assert store.get(_key(1)) is not None, "recently used entry evicted"
        assert store.stats()["total_bytes"] <= cap

    def test_put_evicts_beyond_cap(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=2048)
        for i in range(40):
            store.put(_key(i), {"blob": "y" * 256})
        stats = store.stats()
        assert stats["total_bytes"] <= 2048
        assert store.counters["evictions"] > 0

    def test_prune_zero_empties_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(4):
            store.put(_key(i), {"v": i})
        summary = store.prune(0)
        assert summary["removed"] == 4
        assert summary["total_bytes"] == 0
        assert store.stats()["entries"] == 0

    def test_put_under_cap_does_not_rescan(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path, max_bytes=1 << 20)
        store.put(_key("seed"), {"v": 0})  # seeds the byte estimate
        calls = []
        original = store._scan

        def counting_scan():
            calls.append(1)
            return original()

        monkeypatch.setattr(store, "_scan", counting_scan)
        for i in range(20):
            store.put(_key(i), {"v": i})
        assert not calls, "put() scanned the store while under the cap"

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(5):
            store.put(_key(i), {"v": i})
        assert store.clear() == 5
        assert store.stats()["entries"] == 0
        assert store.get(_key(0)) is None


class TestEnvironment:
    def test_max_bytes_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1234")
        assert default_max_bytes() == 1234
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert default_max_bytes() is None

    def test_malformed_max_bytes_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
        with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_BYTES"):
            default_max_bytes()
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
        with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_BYTES"):
            default_max_bytes()

    def test_cache_dir_env_steers_default_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "steered"))
        assert ResultStore().root == tmp_path / "steered"


def _thread_writer(args):
    root, tag = args
    store = ResultStore(root)
    for i in range(20):
        key = _key(f"{tag}-{i % 5}")
        store.put(key, {"writer": str(tag), "i": i})
        store.get(key)
    return True


def _sidecar_adder(root):
    """Add 1 to the running total for one second; returns the adds made."""
    store = ResultStore(root, max_bytes=1 << 30)
    deadline = time.monotonic() + 1.0
    adds = 0
    while time.monotonic() < deadline:
        assert store._add_to_total(1)
        adds += 1
    return adds


class TestConcurrency:
    def test_concurrent_writers_lose_no_sidecar_update(self, tmp_path):
        """More writer processes than cores: every increment is counted."""
        ResultStore(tmp_path, max_bytes=1 << 30).stats()  # sidecar at 0
        context = multiprocessing.get_context("spawn")
        try:
            with ProcessPoolExecutor(max_workers=4, mp_context=context) as pool:
                results = list(pool.map(_sidecar_adder, [tmp_path] * 4, timeout=120))
        except OSError as exc:  # pragma: no cover - constrained hosts
            pytest.skip(f"process pool unavailable: {exc}")
        assert _sidecar(tmp_path) == sum(results) > 0

    def test_many_threads_shared_instance(self, tmp_path):
        store = ResultStore(tmp_path)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(
                pool.map(
                    lambda tag: [
                        store.put(_key(f"t-{tag}-{i % 4}"), {"t": tag, "i": i})
                        for i in range(25)
                    ],
                    range(8),
                )
            )
        stats = store.stats()
        assert stats["entries"] == 8 * 4
        for tag in range(8):
            for i in range(4):
                assert store.get(_key(f"t-{tag}-{i}")) is not None

    def test_thread_pool_distinct_instances(self, tmp_path):
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(
                pool.map(_thread_writer, [(tmp_path, t) for t in range(6)])
            )
        assert all(results)
        store = ResultStore(tmp_path)
        # 6 writers x 5 keys each, all readable and well-formed.
        assert store.stats()["entries"] == 30
        for tag in range(6):
            for i in range(5):
                assert store.get(_key(f"{tag}-{i}")) is not None

    def test_process_pool_writers(self, tmp_path):
        try:
            with ProcessPoolExecutor(max_workers=4) as pool:
                results = list(
                    pool.map(_thread_writer, [(tmp_path, t) for t in range(4)])
                )
        except OSError as exc:  # pragma: no cover - constrained hosts
            pytest.skip(f"process pool unavailable: {exc}")
        assert all(results)
        store = ResultStore(tmp_path)
        assert store.stats()["entries"] == 20
        for tag in range(4):
            for i in range(5):
                assert store.get(_key(f"{tag}-{i}")) is not None


def _fill_directly(root, count):
    """Write ``count`` well-formed entries without going through put()."""
    for i in range(count):
        key = _key(f"bulk-{i}")
        path = root / "objects" / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema": STORE_SCHEMA_VERSION, "key": key, "stage": "bulk",
            "created": 0.0, "payload": {"i": i},
        }
        path.write_text(json.dumps(envelope, sort_keys=True))


def _sidecar(root):
    return json.loads((root / "size.json").read_text())["total_bytes"]


def _scanned_total(root):
    return sum(size for _k, _p, size, _m in ResultStore(root)._scan())


class TestRunningSize:
    """A put reads and updates the sidecar; it never scans the store."""

    def test_first_put_into_a_large_store_neither_scans_nor_loads(
        self, tmp_path, monkeypatch
    ):
        _fill_directly(tmp_path, 10_000)
        ResultStore(tmp_path).rebuild_index()
        ResultStore(tmp_path).stats()  # re-trues the sidecar

        def refuse(self, *args, **kwargs):
            raise AssertionError("a put scanned the store or parsed the index")

        monkeypatch.setattr(ResultStore, "_scan", refuse)
        monkeypatch.setattr(ResultStore, "_load_index", refuse)
        before = _sidecar(tmp_path)
        store = ResultStore(tmp_path, max_bytes=1 << 30)
        assert store.put(_key("fresh"), {"v": 1}, stage="check")
        size = store._entry_path(_key("fresh")).stat().st_size
        assert _sidecar(tmp_path) == before + size

    def test_short_lived_writers_stay_under_the_cap(self, tmp_path):
        probe = ResultStore(tmp_path, max_bytes=0)
        probe.put(_key("probe"), {"writer": 0, "i": 0})
        entry_bytes = probe._entry_path(_key("probe")).stat().st_size
        probe.clear()
        cap = 50 * entry_bytes
        for writer in range(200):
            store = ResultStore(tmp_path, max_bytes=cap)
            for i in range(3):
                assert store.put(_key(f"w{writer}-{i}"), {"writer": writer, "i": i})
        stats = ResultStore(tmp_path, max_bytes=cap).stats()
        assert 0 < stats["total_bytes"] <= cap

    @pytest.mark.parametrize(
        "sidecar",
        [None, b"{broken", b'{"total_bytes": -3}', b'{"total_bytes": 99999999}'],
        ids=["missing", "corrupt", "negative", "stale"],
    )
    def test_bad_sidecar_costs_one_scan_and_is_rewritten(
        self, tmp_path, monkeypatch, sidecar
    ):
        for i in range(5):
            ResultStore(tmp_path, max_bytes=1 << 20).put(_key(i), {"v": i})
        if sidecar is None:
            (tmp_path / "size.json").unlink()
        else:
            (tmp_path / "size.json").write_bytes(sidecar)
        scans = []
        original = ResultStore._scan

        def counting_scan(self):
            scans.append(1)
            return original(self)

        monkeypatch.setattr(ResultStore, "_scan", counting_scan)
        store = ResultStore(tmp_path, max_bytes=1 << 20)
        store.put(_key("next"), {"v": 5})
        store.put(_key("after"), {"v": 6})
        assert len(scans) == 1
        monkeypatch.setattr(ResultStore, "_scan", original)
        assert _sidecar(tmp_path) == _scanned_total(tmp_path)
        assert store.counters["evictions"] == 0

    def test_clear_and_prune_retrue_the_sidecar(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=1 << 20)
        for i in range(6):
            store.put(_key(i), {"blob": "z" * (100 * i)})
        (tmp_path / "size.json").write_text('{"total_bytes": 7}')
        store.prune(2000)
        assert _sidecar(tmp_path) == _scanned_total(tmp_path) <= 2000
        store.clear()
        assert _sidecar(tmp_path) == 0 == _scanned_total(tmp_path)

    @pytest.mark.parametrize("operation", ["prune", "stats", "clear"])
    def test_an_add_during_a_scan_lands_after_the_retrue(
        self, tmp_path, monkeypatch, operation
    ):
        """A put that adds between a scan and its re-true is not lost:
        the add waits for the sidecar lock and lands on the scanned total."""
        store = ResultStore(tmp_path, max_bytes=1 << 20)
        for i in range(4):
            store.put(_key(i), {"v": i})
        other = ResultStore(tmp_path, max_bytes=1 << 20)
        writers = []
        scan = store._scan

        def scan_then_put():
            entries = scan()
            writer = threading.Thread(
                target=other.put, args=(_key("late"), {"v": "late"})
            )
            writer.start()
            writer.join(0.3)  # unlocked, the put would finish here
            writers.append(writer)
            return entries

        monkeypatch.setattr(store, "_scan", scan_then_put)
        getattr(store, operation)()
        for writer in writers:
            writer.join()
        assert writers and other.contains(_key("late"))
        assert _sidecar(tmp_path) == _scanned_total(tmp_path)

    def test_uncapped_store_writes_no_sidecar(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=0)
        for i in range(3):
            store.put(_key(i), {"v": i})
        store.stats()
        store.prune()
        store.clear()
        assert not (tmp_path / "size.json").exists()

    def test_sidecar_failure_never_fails_a_put(self, tmp_path, monkeypatch):
        import repro.store.store as store_module

        (tmp_path / "size.json").mkdir(parents=True)  # unreplaceable
        points = []
        inject = store_module._inject

        def recording_inject(point):
            points.append(point)
            return inject(point)

        monkeypatch.setattr(store_module, "_inject", recording_inject)
        store = ResultStore(tmp_path, max_bytes=1 << 20)
        assert store.put(_key("a"), {"v": 1})
        assert store.put(_key("b"), {"v": 2})
        assert points == ["store.write", "store.write"]
        assert store.get(_key("a")) == {"v": 1}

    def test_a_full_store_evicts_to_seven_eighths(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=0)
        store.put(_key("probe"), {"blob": "q" * 200})
        entry_bytes = store._entry_path(_key("probe")).stat().st_size
        store.clear()
        cap = 16 * entry_bytes
        store = ResultStore(tmp_path, max_bytes=cap)
        puts = 0
        while not store.counters["evictions"]:
            store.put(_key(f"e{puts:02d}"), {"blob": "q" * 200})
            puts += 1
        # One pass makes room for an eighth of the cap, not one entry.
        assert store.counters["evictions"] >= 2
        assert _sidecar(tmp_path) == _scanned_total(tmp_path) <= cap - cap // 8


class TestPendingIndex:
    def test_large_index_flushes_every_sixteen_updates(self, tmp_path, monkeypatch):
        _fill_directly(tmp_path, 200)
        ResultStore(tmp_path).rebuild_index()
        loads = []
        original = ResultStore._load_index

        def counting_load(self):
            loads.append(1)
            return original(self)

        monkeypatch.setattr(ResultStore, "_load_index", counting_load)
        store = ResultStore(tmp_path, max_bytes=0)
        for i in range(15):
            store.put(_key(f"p{i}"), {"v": i}, stage="check")
        assert not loads
        store.put(_key("p15"), {"v": 15}, stage="check")
        assert len(loads) == 1
        index = json.loads((tmp_path / "index.json").read_text())["entries"]
        assert len(index) == 216
        assert index[_key("p3")]["stage"] == "check"

    def test_stats_labels_include_pending_updates(self, tmp_path):
        _fill_directly(tmp_path, 200)
        ResultStore(tmp_path).rebuild_index()
        store = ResultStore(tmp_path)
        store.put(_key("fresh"), {"v": 1}, stage="enforce")
        assert store.stats()["stages"]["enforce"] == 1

    def test_small_store_indexes_every_put(self, tmp_path):
        for tag in ("a", "b"):
            ResultStore(tmp_path).put(_key(tag), {"v": tag}, stage=tag)
        index = json.loads((tmp_path / "index.json").read_text())["entries"]
        assert {entry["stage"] for entry in index.values()} == {"a", "b"}
