"""Sharded cache store: durability, concurrency, eviction.

Covers the on-disk contracts of :mod:`repro.engine.store` that the
engine-level tests only exercise indirectly: atomic index and shard
writes, two processes appending to one store without losing entries,
readers never seeing torn records, lock contention surfacing in the
stats, and LRU eviction under entry/byte budgets.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.engine import EvaluationCache
from repro.engine.store import (
    FileLock,
    ShardedStore,
    atomic_write,
    atomic_write_json,
    shard_of,
)

NAMESPACES = ("results", "mappings", "layers")


def _key(tag) -> str:
    """A realistic content-addressed key (SHA-256 hex)."""
    return hashlib.sha256(str(tag).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


class TestBuildingBlocks:
    def test_shard_of_hex_prefix(self):
        assert shard_of(_key("x")) == _key("x")[0]
        assert shard_of("abc") == "a"

    def test_shard_of_non_hex_is_stable(self):
        assert shard_of("zzz") == shard_of("zzz")
        assert shard_of("zzz") in "0123456789abcdef"

    def test_atomic_write_json_round_trip(self, tmp_path):
        path = str(tmp_path / "index.json")
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == {"a": 2}

    def test_atomic_write_json_failure_keeps_old_file(self, tmp_path):
        path = str(tmp_path / "index.json")
        atomic_write_json(path, {"a": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == {"a": 1}
        # No stray temp files left behind either.
        assert os.listdir(str(tmp_path)) == ["index.json"]

    def test_atomic_write_replaces_text(self, tmp_path):
        path = str(tmp_path / "shard-0.jsonl")
        assert atomic_write(path, "old\n") == path
        atomic_write(path, "new\n")
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == "new\n"
        assert os.listdir(str(tmp_path)) == ["shard-0.jsonl"]

    def test_atomic_write_failure_mid_write_keeps_old_file(self, tmp_path):
        """A write that fails once its temp file exists (here: text
        UTF-8 cannot encode) removes the temp file and leaves the old
        file whole."""
        path = str(tmp_path / "shard-0.jsonl")
        atomic_write(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(path, "half\n\ud800")
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == "old\n"
        assert os.listdir(str(tmp_path)) == ["shard-0.jsonl"]


# ---------------------------------------------------------------------------
# Round trip + lazy loading
# ---------------------------------------------------------------------------


class TestShardedRoundTrip:
    def test_save_reload_lazy_fault(self, tmp_path):
        cache = EvaluationCache(str(tmp_path))
        keys = [_key(i) for i in range(8)]
        for i, key in enumerate(keys):
            cache.put("results", key, {"value": i})
        cache.save()

        warm = EvaluationCache(str(tmp_path))
        assert len(warm) == 0  # nothing loaded up front
        for i, key in enumerate(keys):
            assert warm.get("results", key) == {"value": i}
        # Only the shards those keys live in were faulted.
        shards = {shard_of(key) for key in keys}
        assert warm.store.stats.shard_loads == len(shards)

    def test_flush_is_delta_only(self, tmp_path):
        cache = EvaluationCache(str(tmp_path))
        cache.put("results", _key("a"), {"v": 1})
        cache.save()
        assert cache.store.stats.flushed_entries == 1
        cache.put("results", _key("b"), {"v": 2})
        cache.save()
        # Second save flushed only the one new entry.
        assert cache.store.stats.flushed_entries == 2

    def test_overwrite_latest_wins_after_reload(self, tmp_path):
        cache = EvaluationCache(str(tmp_path))
        cache.put("results", _key("a"), {"v": 1})
        cache.save()
        cache.put("results", _key("a"), {"v": 2})
        cache.save()
        warm = EvaluationCache(str(tmp_path))
        assert warm.get("results", _key("a")) == {"v": 2}


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def _writer_process(directory, start, count, barrier):
    """Write ``count`` entries through a private cache handle, flushing
    in small batches to interleave with the sibling process."""
    cache = EvaluationCache(directory)
    barrier.wait()
    for i in range(start, start + count):
        cache.put("results", _key(i), {"value": i, "writer": start})
        if i % 5 == 0:
            cache.save()
    cache.save()


class TestConcurrency:
    def test_two_processes_disjoint_writes_union(self, tmp_path):
        """Two processes sweeping disjoint grids into one cache directory
        lose no entries: the merged store equals the serial union."""
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        count = 20
        procs = [
            ctx.Process(target=_writer_process,
                        args=(str(tmp_path), start, count, barrier))
            for start in (0, count)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(60)
            assert proc.exitcode == 0

        merged = EvaluationCache(str(tmp_path))
        for i in range(2 * count):
            expected = {"value": i, "writer": 0 if i < count else count}
            assert merged.get("results", _key(i)) == expected
        assert merged.store.entry_counts()["results"] == 2 * count

    def test_reader_never_sees_torn_record(self, tmp_path):
        """A reader concurrent with a flushing writer sees the old value
        or the new value — never a torn/partial one."""
        directory = str(tmp_path)
        key = _key("contended")
        payload = "x" * 4096  # large enough to span write syscalls
        writer = EvaluationCache(directory)
        writer.put("results", key, {"n": 0, "sum": 0, "pad": payload})
        writer.save()

        stop = threading.Event()
        errors = []

        def write_versions():
            try:
                for n in range(1, 40):
                    writer.put("results", key,
                               {"n": n, "sum": n, "pad": payload})
                    writer.save()
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)
            finally:
                stop.set()

        thread = threading.Thread(target=write_versions)
        thread.start()
        reads = 0
        while not stop.is_set() or reads == 0:
            fresh = EvaluationCache(directory)
            value = fresh.get("results", key)
            assert value is not None
            assert value["n"] == value["sum"]  # complete record
            assert len(value["pad"]) == len(payload)
            reads += 1
        thread.join(30)
        assert not errors
        assert reads > 0

    def test_lock_contention_is_counted(self, tmp_path):
        store = ShardedStore(str(tmp_path), NAMESPACES)
        key = _key("locked")
        shard = shard_of(key)
        lock_path = os.path.join(store.root, "locks",
                                 f"shard-{shard}.lock")
        from repro.engine import store as store_module
        if store_module.fcntl is None:
            pytest.skip("platform without flock advisory locks")

        done = threading.Event()

        def flush_contended():
            store.flush({"results": {key: {"v": 1}}})
            done.set()

        # flock is per open file description, so holding the lock on a
        # separate fd in this same process blocks the flusher thread.
        with FileLock(lock_path):
            thread = threading.Thread(target=flush_contended)
            thread.start()
            time.sleep(0.2)
            assert not done.is_set()  # stuck behind our lock
        thread.join(30)
        assert done.is_set()
        assert store.stats.lock_waits >= 1
        assert store.stats.lock_wait_s > 0.0
        # The write still landed once the lock cleared.
        assert store.load_shard(shard)["results"][key] == {"v": 1}

    def test_lock_acquisition_timeout_is_a_clear_error(self, tmp_path):
        from repro.engine import store as store_module
        from repro.exceptions import StoreLockTimeout

        if store_module.fcntl is None:
            pytest.skip("platform without flock advisory locks")
        lock_path = os.path.join(str(tmp_path), "wedged.lock")
        # A second acquisition on a separate fd must give up at the
        # deadline with an error naming the lock, not block forever.
        with FileLock(lock_path):
            started = time.perf_counter()
            with pytest.raises(StoreLockTimeout,
                               match="wedged.lock"):
                with FileLock(lock_path, timeout=0.2):
                    pass
            waited = time.perf_counter() - started
        assert 0.15 <= waited < 5.0
        # The lock is usable again once the holder releases it.
        with FileLock(lock_path, timeout=0.2):
            pass


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------


class TestEviction:
    def test_byte_budget_evicts_lru_and_recomputes(self, tmp_path):
        directory = str(tmp_path)
        cache = EvaluationCache(directory)
        pad = "y" * 512
        keys = [_key(i) for i in range(8)]
        for i, key in enumerate(keys):
            cache.put("results", key, {"value": i, "pad": pad})
        cache.save()
        total = cache.store.total_bytes()

        # Touch the two oldest-written entries so recency protects them.
        warm = EvaluationCache(directory)
        assert warm.get("results", keys[0]) is not None
        assert warm.get("results", keys[1]) is not None
        warm.save()  # persists the access touches

        summary = warm.store.gc(max_bytes=total // 2)
        assert summary["evicted_entries"] > 0
        assert summary["evicted_bytes"] > 0
        # Compaction re-encodes surviving lines with their merged access
        # timestamps, whose float repr can run a few bytes longer than
        # the original — budget the slack per surviving entry.
        survivors = sum(warm.store.entry_counts().values())
        assert warm.store.total_bytes() <= total // 2 + 8 * survivors

        after = EvaluationCache(directory)
        assert after.get("results", keys[0]) == {"value": 0, "pad": pad}
        assert after.get("results", keys[1]) == {"value": 1, "pad": pad}
        # An evicted entry is simply a miss: recompute-and-put restores.
        missing = [key for key in keys
                   if after.get("results", key) is None]
        assert missing
        after.put("results", missing[0],
                  {"value": keys.index(missing[0]), "pad": pad})
        after.save()
        assert EvaluationCache(directory).get(
            "results", missing[0]) is not None

    def test_entry_budget_auto_gc_on_flush(self, tmp_path):
        cache = EvaluationCache(str(tmp_path), max_entries=3)
        for i in range(9):
            cache.put("results", _key(i), {"v": i})
        cache.save()  # flush trips the budget and runs gc inline
        assert cache.store.stats.evicted_entries == 6
        assert sum(cache.store.entry_counts().values()) == 3

    def test_per_namespace_budget(self, tmp_path):
        store = ShardedStore(str(tmp_path), NAMESPACES)
        store.flush({
            "results": {_key(("r", i)): {"v": i} for i in range(6)},
            "layers": {_key(("l", i)): {"v": i} for i in range(4)},
        })
        summary = store.gc(max_entries={"results": 2})
        counts = store.entry_counts()
        assert counts["results"] == 2
        assert counts["layers"] == 4  # unbudgeted namespace untouched
        assert summary["evicted_entries"] == 4

    def test_gc_compacts_superseded_puts(self, tmp_path):
        store = ShardedStore(str(tmp_path), NAMESPACES)
        key = _key("rewritten")
        for version in range(5):
            store.flush({"results": {key: {"v": version}}})
        size_before = store.total_bytes()
        summary = store.gc()
        assert summary["evicted_entries"] == 0
        assert store.total_bytes() < size_before
        assert store.load_shard(shard_of(key))["results"][key] == {"v": 4}

    def test_gc_compaction_leaves_a_complete_shard(self, tmp_path):
        """gc rewrites a shard whole: a fresh store reads the one
        surviving record back, and no temp file is left."""
        store = ShardedStore(str(tmp_path), NAMESPACES)
        key = _key("rewritten")
        for version in range(3):
            store.flush({"results": {key: {"v": version}}})
        store.gc()
        fresh = ShardedStore(str(tmp_path), NAMESPACES)
        assert fresh.load_shard(shard_of(key))["results"][key] == {"v": 2}
        with open(fresh.shard_path(shard_of(key)), "r",
                  encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 1
        assert not [name for _root, _dirs, files in os.walk(str(tmp_path))
                    for name in files if name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCacheCli:
    def test_stats_json(self, tmp_path, capsys):
        from repro.cli import main

        cache = EvaluationCache(str(tmp_path))
        cache.put("results", _key("a"), {"v": 1})
        cache.put("layers", _key("b"), {"v": 2})
        cache.save()
        assert main(["cache", "stats", str(tmp_path), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["total_entries"] == 2
        assert info["entries"] == {"results": 1, "mappings": 0,
                                   "layers": 1, "failures": 0}
        assert info["bytes"] > 0

    def test_gc_with_budget(self, tmp_path, capsys):
        from repro.cli import main

        cache = EvaluationCache(str(tmp_path))
        for i in range(10):
            cache.put("results", _key(i), {"v": i})
        cache.save()
        assert main(["cache", "gc", str(tmp_path),
                     "--max-entries", "4", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["gc"]["evicted_entries"] == 6
        assert info["total_entries"] == 4

    def test_stats_table_output(self, tmp_path, capsys):
        from repro.cli import main

        cache = EvaluationCache(str(tmp_path))
        cache.put("results", _key("a"), {"v": 1})
        cache.save()
        assert main(["cache", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out
        assert "results 1" in out

    def test_stray_image_is_ignored_and_migrate_is_gone(self, tmp_path,
                                                        capsys):
        """A whole-image ``cache.json`` from before the store is never
        read: its entries could come from an older model."""
        from repro.cli import main

        image = tmp_path / "cache.json"
        image.write_text(json.dumps(
            {"version": 1, "entries": {"results": {_key("r"): {"v": 1}}}}))
        assert EvaluationCache(str(tmp_path)).get("results", _key("r")) \
            is None
        assert main(["cache", "stats", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_entries"] == 0
        assert json.loads(image.read_text())["version"] == 1
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "migrate", str(tmp_path)])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("action", ["stats", "gc"])
    def test_missing_store_fails_and_creates_nothing(self, tmp_path,
                                                     capsys, action):
        """A mistyped directory, or one that holds no store (here only a
        stray ``cache.json``), is an error, not an empty cache made on
        the spot."""
        from repro.cli import main

        missing = tmp_path / "typo-dir"
        assert main(["cache", action, str(missing)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(missing) in err
        assert not missing.exists()
        holder = tmp_path / "old-cache"
        holder.mkdir()
        (holder / "cache.json").write_text("{}")
        assert main(["cache", action, str(holder), "--json"]) == 2
        assert str(holder) in capsys.readouterr().err
        assert sorted(os.listdir(holder)) == ["cache.json"]
