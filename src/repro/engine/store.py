"""Sharded, content-addressed, concurrent-safe persistent cache store.

:class:`ShardedStore` is the one on-disk form of a directory-backed
:class:`~repro.engine.cache.EvaluationCache`.  Its layout is built
around the fact that every cache key is (or is prefixed by) a SHA-256
content hash:

* **Shards.**  Entries are distributed over ``shard-0.jsonl`` ..
  ``shard-f.jsonl`` by the first hex digit of their key — uniformly, for
  free, because the keys are content hashes.  Each shard is an
  append-only log of JSON lines: ``["put", namespace, key, value,
  mtime]`` records plus batched ``["touch", atime, {namespace:
  [keys]}]`` access records for LRU bookkeeping.  Replaying a log
  (later lines win) reconstructs the shard; compaction (:meth:`gc`)
  rewrites it minimal.

* **O(delta) persistence.**  A flush appends only the entries added
  since the last flush — never rewriting what other runs (or other
  processes) wrote — so persistence cost scales with *this run's* new
  work, not with everything ever cached.  Opening a store reads only
  the compact ``index.json``; shards fault in lazily on first lookup.

* **Concurrency.**  Every shard append and shard read happens under an
  advisory ``flock`` on a per-shard lock file, with writes fsync'd
  before the lock drops, so concurrent sweep processes interleave whole
  records: the merged store is the union of everyone's entries and a
  reader sees either the old or the new value of a key, never a torn
  one.  Contended acquisitions are counted (and timed) in
  :class:`StoreStats`.

* **Capacity.**  Optional entry/byte budgets — global or per-namespace
  — trigger LRU eviction: :meth:`gc` orders entries by last put/touch
  time and rewrites the shards compacted.  Evicted entries are simply
  recomputed on the next miss; content-addressed keys make that safe.

Everything on-disk is written either append-under-lock (shard logs) or
atomically via :func:`atomic_write` (the index, compacted shards), so a
crash mid-write never corrupts what was there before.

A ``cache.json`` beside ``store/`` is a whole-image cache from before
the store existed.  It is ignored and left in place: its entries were
computed by older models under keys that do not say so, and no key can
tell them from current ones.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro import obs
from repro.exceptions import StoreLockTimeout

try:  # advisory file locks: POSIX everywhere this repo targets
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None

_STORE_FORMAT_VERSION = 1
_HEX_DIGITS = "0123456789abcdef"
_SHARD_IDS = tuple(_HEX_DIGITS)

Budget = Union[None, int, Dict[str, int]]


def atomic_write(path: str, text: str) -> str:
    """Durably replace ``path`` with ``text``.

    Temp file in the same directory, fsync'd before ``os.replace``, so a
    crash at any point leaves either the old file or the complete new
    one — never a truncated one (a plain ``open(...).write`` could be
    caught mid-write, and an un-fsync'd rename can surface as an empty
    file after power loss).  Writes the store index and compacted
    shards.
    """
    fd, temp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".",
        prefix="." + os.path.basename(path) + "-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return path


def atomic_write_json(path: str, payload: Any) -> str:
    """:func:`atomic_write` of ``payload`` as JSON (the store index)."""
    return atomic_write(path, json.dumps(payload))


@dataclass
class StoreStats:
    """Operational counters for one :class:`ShardedStore`.

    ``lock_waits`` counts *contended* lock acquisitions only (an
    uncontended ``flock`` is free and uncounted), so a non-zero value is
    direct evidence of concurrent processes sharing the directory.
    """

    shard_loads: int = 0
    loaded_entries: int = 0
    flushes: int = 0
    flushed_entries: int = 0
    lock_waits: int = 0
    lock_wait_s: float = 0.0
    evicted_entries: int = 0
    evicted_bytes: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard_loads": self.shard_loads,
            "loaded_entries": self.loaded_entries,
            "flushes": self.flushes,
            "flushed_entries": self.flushed_entries,
            "lock_waits": self.lock_waits,
            "lock_wait_s": round(self.lock_wait_s, 6),
            "evicted_entries": self.evicted_entries,
            "evicted_bytes": self.evicted_bytes,
        }

    def reset(self) -> None:
        self.shard_loads = 0
        self.loaded_entries = 0
        self.flushes = 0
        self.flushed_entries = 0
        self.lock_waits = 0
        self.lock_wait_s = 0.0
        self.evicted_entries = 0
        self.evicted_bytes = 0


class FileLock:
    """Exclusive advisory lock on a sentinel file (context manager).

    ``flock`` where available (POSIX — processes waiting on the same
    path serialize, and the kernel releases the lock even if the holder
    dies); a create-exclusive spinlock elsewhere.  Contended
    acquisitions are recorded on ``stats`` and traced as
    ``cache.lock_wait`` spans.

    ``timeout`` bounds the acquisition wait: a contender holding the
    lock past the deadline raises
    :class:`~repro.exceptions.StoreLockTimeout` instead of blocking the
    caller forever (store operations hold locks for milliseconds, so a
    deadline measured in seconds only ever fires on a wedged holder).
    ``timeout=None`` preserves the unbounded wait.
    """

    def __init__(self, path: str, stats: Optional[StoreStats] = None,
                 timeout: Optional[float] = None) -> None:
        self.path = path
        self.stats = stats
        self.timeout = timeout
        self._fd: Optional[int] = None

    def __enter__(self) -> "FileLock":
        self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        if fcntl is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                with obs.span("cache.lock_wait", path=self.path):
                    started = time.perf_counter()
                    self._blocking_acquire()
                    if self.stats is not None:
                        self.stats.lock_waits += 1
                        self.stats.lock_wait_s += (time.perf_counter()
                                                   - started)
        else:  # pragma: no cover - exercised only off-POSIX
            self._spin_acquire()
        return self

    def _blocking_acquire(self) -> None:
        """Wait for the flock — unbounded, or polling under a deadline."""
        if self.timeout is None:
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            return
        deadline = time.perf_counter() + self.timeout
        while True:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return
            except OSError:
                if time.perf_counter() >= deadline:
                    os.close(self._fd)
                    self._fd = None
                    raise StoreLockTimeout(
                        f"could not acquire {self.path} within "
                        f"{self.timeout:g}s — another process is holding "
                        f"it (wedged writer?)") from None
                time.sleep(0.005)

    def _spin_acquire(self) -> None:  # pragma: no cover - non-POSIX only
        sentinel = self.path + ".held"
        started = time.perf_counter()
        waited = False
        while True:
            try:
                fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                self._sentinel = sentinel
                break
            except FileExistsError:
                waited = True
                time.sleep(0.005)
        if waited and self.stats is not None:
            self.stats.lock_waits += 1
            self.stats.lock_wait_s += time.perf_counter() - started

    def __exit__(self, *_exc) -> None:
        if fcntl is None and hasattr(self, "_sentinel"):  # pragma: no cover
            try:
                os.unlink(self._sentinel)
            except OSError:
                pass
        if self._fd is not None:
            os.close(self._fd)  # closing drops the flock
            self._fd = None


def shard_of(key: str) -> str:
    """The shard a key lives in: its first hex digit.

    Cache keys are SHA-256 hashes (or hash-prefixed), so the first digit
    is uniform; anything else (defensive) hashes through crc32.
    """
    first = key[0] if key else "0"
    if first in _HEX_DIGITS:
        return first
    return _HEX_DIGITS[zlib.crc32(key.encode("utf-8")) & 15]


class ShardedStore:
    """The on-disk backend behind a directory-backed ``EvaluationCache``.

    Layout under ``<directory>/store/``::

        index.json      # version stamp + per-namespace entry counts
        shard-0.jsonl   # append-only put/touch logs, one per hex digit
        ...
        shard-f.jsonl
        locks/          # advisory lock sentinels (one per shard + index)

    ``namespaces`` fixes the entry families (:meth:`load_shard` skips
    any other).  ``max_entries``/``max_bytes``
    (int = global, dict = per-namespace) arm automatic LRU eviction at
    flush time; :meth:`gc` applies the same policy on demand.
    """

    def __init__(
        self,
        directory: str,
        namespaces: Iterable[str],
        max_entries: Budget = None,
        max_bytes: Budget = None,
        lock_timeout: Optional[float] = 30.0,
    ) -> None:
        self.directory = directory
        self.namespaces = tuple(namespaces)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: Per-acquisition deadline on shard/index locks — store
        #: operations hold them for milliseconds, so hitting it means a
        #: wedged contender; raise StoreLockTimeout, don't hang a sweep.
        self.lock_timeout = lock_timeout
        self.root = os.path.join(directory, "store")
        self.stats = StoreStats()
        #: Approximate per-namespace entry counts from the index; kept
        #: current on flush (overwrites double-count until the next gc).
        self.index_counts: Dict[str, int] = {}
        self._open()

    # ------------------------------------------------------------------
    # Paths and locks
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.json")

    def shard_path(self, shard: str) -> str:
        return os.path.join(self.root, f"shard-{shard}.jsonl")

    def _lock(self, name: str) -> FileLock:
        return FileLock(os.path.join(self.root, "locks", name + ".lock"),
                        self.stats, timeout=self.lock_timeout)

    # ------------------------------------------------------------------
    # Open
    # ------------------------------------------------------------------
    def _open(self) -> None:
        with obs.span("cache.open", directory=self.directory):
            os.makedirs(os.path.join(self.root, "locks"), exist_ok=True)
            if not os.path.exists(self.index_path):
                with self._lock("index"):
                    # Re-check under the lock: another process may have
                    # initialized the store meanwhile.
                    if not os.path.exists(self.index_path):
                        self._write_index()
            index = self._read_index()
            self.index_counts = {
                ns: int(count)
                for ns, count in index.get("entries", {}).items()
            }

    def _read_index(self) -> Dict[str, Any]:
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                index = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(index, dict) \
                or index.get("version") != _STORE_FORMAT_VERSION:
            return {}
        return index

    def _write_index(self) -> None:
        atomic_write_json(self.index_path, {
            "version": _STORE_FORMAT_VERSION,
            "shards": len(_SHARD_IDS),
            "namespaces": list(self.namespaces),
            "entries": dict(self.index_counts),
        })

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def load_shard(self, shard: str) -> Dict[str, Dict[str, Any]]:
        """Replay one shard log; returns ``{namespace: {key: value}}``.

        Reads under the shard lock, so an in-flight append from another
        process is seen either complete or not at all.  Undecodable
        lines (a torn tail from a crashed writer) are skipped — every
        complete record before them is still served.
        """
        path = self.shard_path(shard)
        entries: Dict[str, Dict[str, Any]] = {}
        if not os.path.exists(path):
            return entries
        with obs.span("cache.shard_load", shard=shard) as span:
            with self._lock("shard-" + shard):
                with open(path, "r", encoding="utf-8") as handle:
                    lines = handle.read().splitlines()
            count = 0
            for line in lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail from a crashed writer
                if record[0] != "put":
                    continue
                _tag, namespace, key, value = record[0:4]
                if namespace not in self.namespaces:
                    continue
                entries.setdefault(namespace, {})[key] = value
                count += 1
            self.stats.shard_loads += 1
            self.stats.loaded_entries += count
            span.set("entries", count)
        return entries

    def _replay_meta(
        self, shard: str,
    ) -> Tuple[Dict[Tuple[str, str], Any], Dict[Tuple[str, str], float],
               Dict[Tuple[str, str], int]]:
        """Full replay with LRU metadata (gc's view): values, last
        access times, and encoded entry sizes."""
        values: Dict[Tuple[str, str], Any] = {}
        atimes: Dict[Tuple[str, str], float] = {}
        sizes: Dict[Tuple[str, str], int] = {}
        path = self.shard_path(shard)
        if not os.path.exists(path):
            return values, atimes, sizes
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record[0] == "put":
                _tag, namespace, key, value, stamp = record
                if namespace not in self.namespaces:
                    continue
                slot = (namespace, key)
                values[slot] = value
                atimes[slot] = float(stamp)
                sizes[slot] = len(line)
            elif record[0] == "touch":
                _tag, stamp, touched = record
                for namespace, keys in touched.items():
                    for key in keys:
                        slot = (namespace, key)
                        if slot in values:
                            atimes[slot] = max(atimes[slot], float(stamp))
        return values, atimes, sizes

    def entry_counts(self) -> Dict[str, int]:
        """Exact per-namespace entry counts (loads every shard; the
        inspection path behind ``repro cache stats``)."""
        counts = {ns: 0 for ns in self.namespaces}
        for shard in _SHARD_IDS:
            values, _atimes, _sizes = self._replay_meta(shard)
            for namespace, _key in values:
                counts[namespace] += 1
        return counts

    def total_bytes(self) -> int:
        """On-disk footprint of the shard logs (exact, via ``stat``)."""
        total = 0
        for shard in _SHARD_IDS:
            try:
                total += os.stat(self.shard_path(shard)).st_size
            except OSError:
                pass
        return total

    def shard_sizes(self) -> Dict[str, int]:
        sizes = {}
        for shard in _SHARD_IDS:
            try:
                sizes[shard] = os.stat(self.shard_path(shard)).st_size
            except OSError:
                sizes[shard] = 0
        return sizes

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _append(self, added: Dict[str, Dict[str, Any]],
                touched: Dict[str, List[str]]) -> int:
        """Append put/touch records, grouped by shard, each shard under
        its lock and fsync'd.  Returns the number of entries written."""
        by_shard: Dict[str, List[Tuple[str, str, Any]]] = {}
        for namespace, values in added.items():
            for key, value in values.items():
                by_shard.setdefault(shard_of(key), []).append(
                    (namespace, key, value))
        touch_by_shard: Dict[str, Dict[str, List[str]]] = {}
        for namespace, keys in touched.items():
            for key in keys:
                touch_by_shard.setdefault(shard_of(key), {}) \
                    .setdefault(namespace, []).append(key)
        now = time.time()
        written = 0
        for shard in sorted(set(by_shard) | set(touch_by_shard)):
            with self._lock("shard-" + shard):
                with open(self.shard_path(shard), "a",
                          encoding="utf-8") as handle:
                    for namespace, key, value in by_shard.get(shard, ()):
                        handle.write(json.dumps(
                            ["put", namespace, key, value, now],
                            separators=(",", ":")) + "\n")
                        written += 1
                    touches = touch_by_shard.get(shard)
                    if touches:
                        handle.write(json.dumps(
                            ["touch", now, touches],
                            separators=(",", ":")) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
        for namespace, values in added.items():
            if values:
                self.index_counts[namespace] = (
                    self.index_counts.get(namespace, 0) + len(values))
        return written

    def flush(self, added: Dict[str, Dict[str, Any]],
              touched: Optional[Dict[str, List[str]]] = None) -> int:
        """Persist this run's delta: new entries + access touches.

        O(dirty): appends to exactly the shards the delta lands in and
        rewrites nothing.  Updates the index counts, then applies the
        configured capacity budgets (LRU eviction via :meth:`gc`) if
        the store has outgrown them.
        """
        added = {ns: values for ns, values in added.items() if values}
        touched = {ns: list(keys)
                   for ns, keys in (touched or {}).items() if keys}
        total = sum(len(values) for values in added.values())
        with obs.span("cache.flush", entries=total,
                      shards=len({shard_of(key)
                                  for values in added.values()
                                  for key in values})):
            written = self._append(added, touched)
            if written or touched:
                with self._lock("index"):
                    self._write_index()
            self.stats.flushes += 1
            self.stats.flushed_entries += written
        if self._over_budget():
            self.gc()
        return written

    # ------------------------------------------------------------------
    # Eviction / compaction
    # ------------------------------------------------------------------
    def _over_budget(self) -> bool:
        if self.max_entries is not None:
            if isinstance(self.max_entries, dict):
                for namespace, limit in self.max_entries.items():
                    if self.index_counts.get(namespace, 0) > limit:
                        return True
            elif sum(self.index_counts.values()) > self.max_entries:
                return True
        if self.max_bytes is not None and not isinstance(self.max_bytes,
                                                         dict):
            if self.total_bytes() > self.max_bytes:
                return True
        elif isinstance(self.max_bytes, dict):
            # Per-namespace byte budgets need entry sizes: approximate
            # the trigger with the total, let gc apply the precise cut.
            if self.total_bytes() > sum(self.max_bytes.values()):
                return True
        return False

    def gc(self, max_entries: Budget = None,
           max_bytes: Budget = None) -> Dict[str, Any]:
        """Evict LRU entries down to budget and compact every shard.

        Budgets default to the store's configured ones; passing ``None``
        for both on an unbudgeted store still compacts (dropping
        superseded puts and touch records).  Entries are ranked by last
        put/touch time per namespace; the least recently used go first.
        Compacted shards are written atomically under their locks, so
        concurrent readers never see a half-rewritten log.
        """
        max_entries = self.max_entries if max_entries is None else max_entries
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        with obs.span("cache.gc") as span:
            shards: Dict[str, Tuple] = {}
            per_ns: Dict[str, List[Tuple[float, str, Tuple[str, str]]]] = {}
            ns_bytes: Dict[str, int] = {}
            for shard in _SHARD_IDS:
                with self._lock("shard-" + shard):
                    replayed = self._replay_meta(shard)
                shards[shard] = replayed
                values, atimes, sizes = replayed
                for slot in values:
                    namespace = slot[0]
                    per_ns.setdefault(namespace, []).append(
                        (atimes[slot], shard, slot))
                    ns_bytes[namespace] = (ns_bytes.get(namespace, 0)
                                           + sizes[slot])
            evict: set = set()
            evicted_bytes = 0
            for namespace, ranked in per_ns.items():
                ranked.sort()  # oldest access first
                keep = len(ranked)
                # Only per-namespace (dict) budgets apply here; global
                # int budgets rank all namespaces together below.
                entry_limit = (max_entries.get(namespace)
                               if isinstance(max_entries, dict) else None)
                byte_limit = (max_bytes.get(namespace)
                              if isinstance(max_bytes, dict) else None)
                dropped = 0
                remaining_bytes = ns_bytes.get(namespace, 0)
                for atime, shard, slot in ranked:
                    over_entries = (entry_limit is not None
                                    and keep - dropped > entry_limit)
                    over_bytes = (byte_limit is not None
                                  and remaining_bytes > byte_limit)
                    if not (over_entries or over_bytes):
                        break
                    evict.add(slot)
                    size = shards[shard][2][slot]
                    evicted_bytes += size
                    remaining_bytes -= size
                    dropped += 1
            if not isinstance(max_entries, dict) \
                    and max_entries is not None:
                cut, cut_bytes = self._global_cut(per_ns, shards,
                                                  max_entries, evict)
                evict |= cut
                evicted_bytes += cut_bytes
            if not isinstance(max_bytes, dict) and max_bytes is not None:
                cut, cut_bytes = self._global_byte_cut(
                    per_ns, shards, max_bytes, evict)
                evict |= cut
                evicted_bytes += cut_bytes
            counts = {ns: 0 for ns in self.namespaces}
            for shard in _SHARD_IDS:
                values, atimes, _sizes = shards[shard]
                survivors = [
                    (slot, values[slot], atimes[slot])
                    for slot in values if slot not in evict
                ]
                for slot, _value, _atime in survivors:
                    counts[slot[0]] += 1
                self._compact_shard(shard, survivors)
            self.index_counts = counts
            with self._lock("index"):
                self._write_index()
            self.stats.evicted_entries += len(evict)
            self.stats.evicted_bytes += evicted_bytes
            span.set("evicted", len(evict))
            return {
                "evicted_entries": len(evict),
                "evicted_bytes": evicted_bytes,
                "entries": counts,
                "bytes": self.total_bytes(),
            }

    def _global_cut(self, per_ns, shards, limit: int,
                    evicted: set) -> Tuple[set, int]:
        """LRU cut across all namespaces for a global entry budget."""
        ranked = [item for items in per_ns.values() for item in items
                  if item[2] not in evicted]
        ranked.sort()
        keep = len(ranked)
        extra: set = set()
        extra_bytes = 0
        for _atime, shard, slot in ranked:
            if keep <= limit:
                break
            extra.add(slot)
            extra_bytes += shards[shard][2][slot]
            keep -= 1
        return extra, extra_bytes

    def _global_byte_cut(self, per_ns, shards, limit: int,
                         evicted: set) -> Tuple[set, int]:
        """LRU cut across all namespaces for a global byte budget."""
        ranked = [item for items in per_ns.values() for item in items
                  if item[2] not in evicted]
        ranked.sort()
        remaining = sum(shards[shard][2][slot]
                        for _atime, shard, slot in ranked)
        extra: set = set()
        extra_bytes = 0
        for _atime, shard, slot in ranked:
            if remaining <= limit:
                break
            size = shards[shard][2][slot]
            extra.add(slot)
            extra_bytes += size
            remaining -= size
        return extra, extra_bytes

    def _compact_shard(self, shard: str,
                       survivors: List[Tuple[Tuple[str, str], Any,
                                             float]]) -> None:
        path = self.shard_path(shard)
        if not survivors:
            with self._lock("shard-" + shard):
                if os.path.exists(path):
                    os.unlink(path)
            return
        lines = [
            json.dumps(["put", slot[0], slot[1], value, atime],
                       separators=(",", ":"))
            for slot, value, atime in survivors
        ]
        with self._lock("shard-" + shard):
            atomic_write(path, "\n".join(lines) + "\n")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Exact store inventory (loads every shard): per-namespace and
        per-shard entry counts plus on-disk bytes."""
        counts = {ns: 0 for ns in self.namespaces}
        shard_entries = {}
        for shard in _SHARD_IDS:
            values, _atimes, _sizes = self._replay_meta(shard)
            shard_entries[shard] = len(values)
            for namespace, _key in values:
                counts[namespace] += 1
        return {
            "directory": self.directory,
            "entries": counts,
            "total_entries": sum(counts.values()),
            "bytes": self.total_bytes(),
            "shards": {
                shard: {"entries": shard_entries[shard], "bytes": size}
                for shard, size in self.shard_sizes().items()
                if shard_entries[shard] or size
            },
        }
