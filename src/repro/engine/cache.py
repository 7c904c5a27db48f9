"""Persistent evaluation cache: in-memory dicts over a sharded disk store.

The cache memoizes four namespaces, keyed by content hashes so entries
are valid across processes and sessions:

* ``results``  — whole-job :class:`~repro.model.results.NetworkEvaluation`
  dicts, keyed by :attr:`EvaluationJob.key`;
* ``mappings`` — mapper search results (the expensive part of
  ``use_mapper=True`` runs), keyed by (system, layer shape, search
  budget, seed);
* ``layers``   — individual layer evaluations, shared between jobs that
  evaluate the same layer under the same configuration (e.g. the fused
  and non-fused arms of a memory sweep);
* ``failures`` — poison-job quarantine records, keyed like ``results``:
  jobs that failed deterministically through a retrying
  :class:`~repro.engine.executor.FailurePolicy` land here (error type,
  message, attempt count) so a rerun skips them instead of re-failing
  — surfaced via :meth:`EvaluationCache.peek` and ``repro cache stats``.

A directory cache persists through :class:`repro.engine.store.ShardedStore`:
entries shard by key prefix into append-only logs,
:meth:`EvaluationCache.save` flushes only the entries added since the
last save (O(delta), never a full rewrite), shards fault into memory
lazily on first lookup, and per-shard advisory locks make one cache
directory safe to share between concurrent sweep processes.  An entry
is the same :mod:`repro.engine.codec` dict in memory, in a pool reply
and on disk.  Hit/miss counts are tracked per namespace and mergeable
across worker processes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.engine.codec import (
    canonical_json,
    layer_evaluation_from_dict,
    layer_evaluation_to_dict,
)
from repro.engine.store import Budget, ShardedStore, shard_of
from repro.mapping.mapper import MapperResult
from repro.mapping.serialize import mapping_from_dict, mapping_to_dict
from repro.model.results import LayerEvaluation

NAMESPACES: Tuple[str, ...] = ("results", "mappings", "layers", "failures")


@functools.lru_cache(maxsize=65536)
def _store_key_json(store_key: Tuple) -> str:
    return canonical_json(list(store_key))


def store_entry_key(system_key: str, store_key: Iterable[Any]) -> str:
    """The cache-entry key a :class:`SystemStore` lookup resolves to.

    The single source of truth for the composition — the store uses it
    for every load/save and the sweep planner for dedup and parent-side
    assembly, so the two can never diverge.  The JSON suffix depends
    only on the store-key tuple (not the configuration), so it is
    memoized on its own and the per-call work is a string concat: a
    thousand-config sweep renders each layer's suffix once, not once
    per configuration.
    """
    if type(store_key) is tuple:
        try:
            return system_key + "/" + _store_key_json(store_key)
        except TypeError:  # unhashable member: render directly
            pass
    return system_key + "/" + canonical_json(list(store_key))


@dataclass
class CacheStats:
    """Hit/miss counters for one namespace."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return f"{self.hits}/{self.lookups} hits ({self.hit_rate:.1%})"

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


@dataclass
class PlannerStats:
    """Counters of the sweep planner's cross-job work elimination.

    Filled by the planner (:mod:`repro.engine.planner`) in the parent
    process, in-process and pooled runs alike: of ``planned`` sub-tasks
    expanded from a job batch (one per distinct layer shape and flag set
    of each job), ``deduplicated`` were dropped as duplicates of another
    job's task with the same configuration and ``cache_hits`` because
    the cache already held them; ``phase1_tasks`` is the unique
    remainder actually executed, shipped as ``batches`` pool dispatch
    payloads on the pooled path (0 in-process).
    """

    planned: int = 0
    deduplicated: int = 0
    cache_hits: int = 0
    phase1_tasks: int = 0
    batches: int = 0

    def describe(self) -> str:
        return (f"planner: {self.planned} sub-tasks planned, "
                f"{self.deduplicated} deduplicated, "
                f"{self.cache_hits} already cached, "
                f"{self.phase1_tasks} executed "
                f"({self.batches} pool batches)")

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready counter dict (the ``--json`` stats record)."""
        return {
            "planned": self.planned,
            "deduplicated": self.deduplicated,
            "cache_hits": self.cache_hits,
            "phase1_tasks": self.phase1_tasks,
            "batches": self.batches,
        }

    def reset(self) -> None:
        self.planned = 0
        self.deduplicated = 0
        self.cache_hits = 0
        self.phase1_tasks = 0
        self.batches = 0


@dataclass
class ResilienceStats:
    """Counters of the fault-tolerance machinery, filled by the executor.

    ``retries`` counts job re-attempts under a retrying
    :class:`~repro.engine.executor.FailurePolicy`, ``timeouts`` tasks
    that tripped the worker-side watchdog, ``quarantines`` jobs written
    to the ``failures`` namespace after exhausting their retries, and
    ``respawns`` worker-pool recoveries from dead worker processes.
    """

    retries: int = 0
    timeouts: int = 0
    quarantines: int = 0
    respawns: int = 0

    def any(self) -> bool:
        return bool(self.retries or self.timeouts
                    or self.quarantines or self.respawns)

    def to_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantines": self.quarantines,
            "respawns": self.respawns,
        }

    def describe(self) -> str:
        return (f"resilience: {self.retries} retries, "
                f"{self.timeouts} timeouts, "
                f"{self.quarantines} quarantined, "
                f"{self.respawns} worker respawns")

    def reset(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.quarantines = 0
        self.respawns = 0


class EvaluationCache:
    """In-memory + on-disk cache for sweep-engine evaluations.

    ``directory=None`` gives a purely in-memory cache (still useful for
    sharing mapper results across the jobs of one sweep).  A directory
    opens a :class:`~repro.engine.store.ShardedStore`: only the compact
    index is read up front, shards fault in lazily on first lookup, and
    :meth:`save` appends just the entries added since the last save —
    so neither warm-start nor persistence cost scales with the total
    cache size, and multiple processes can share the directory (see
    :mod:`repro.engine.store`).

    ``max_entries``/``max_bytes`` (int = global, dict = per-namespace)
    arm the store's LRU eviction; evicted entries recompute on the next
    miss.
    """

    def __init__(self, directory: Optional[str] = None,
                 max_entries: Budget = None,
                 max_bytes: Budget = None) -> None:
        self.directory = directory
        self._data: Dict[str, Dict[str, Any]] = {ns: {} for ns in NAMESPACES}
        self._added: Dict[str, Dict[str, Any]] = {ns: {} for ns in NAMESPACES}
        self.stats: Dict[str, CacheStats] = {ns: CacheStats()
                                             for ns in NAMESPACES}
        self.planner = PlannerStats()
        self.resilience = ResilienceStats()
        self._store: Optional[ShardedStore] = None
        self._loaded_shards: Set[str] = set()
        self._touched: Dict[str, Set[str]] = {ns: set() for ns in NAMESPACES}
        #: Mapper-entry keys that came from disk, not this session's
        #: searches — excluded from :meth:`mapper_search_stats` so a
        #: lazily faulted warm entry never counts as a fresh search.
        self._disk_mappings: Set[str] = set()
        if directory is not None:
            self._store = ShardedStore(directory, NAMESPACES,
                                       max_entries=max_entries,
                                       max_bytes=max_bytes)

    @property
    def store(self) -> Optional[ShardedStore]:
        """The disk store (``None`` for an in-memory cache)."""
        return self._store

    # ------------------------------------------------------------------
    # Generic namespace access
    # ------------------------------------------------------------------
    def _fault(self, key: str) -> None:
        """Load the disk shard holding ``key`` into memory (idempotent).

        In-memory values win over their disk copies: a key present in
        both was put this session, and content-addressed keys make the
        two interchangeable anyway.  Faulted entries join ``_data`` but
        are never marked added (they are already persisted).
        """
        store = self._store
        if store is None:
            return
        shard = shard_of(key)
        if shard in self._loaded_shards:
            return
        self._loaded_shards.add(shard)
        for namespace, values in store.load_shard(shard).items():
            data = self._data.get(namespace)
            if data is None:
                continue
            fresh = {k: v for k, v in values.items() if k not in data}
            data.update(fresh)
            if namespace == "mappings":
                self._disk_mappings.update(fresh)

    def get(self, namespace: str, key: str) -> Optional[Any]:
        """Look up ``key``, counting the hit or miss."""
        entry = self._data[namespace].get(key)
        if entry is None and self._store is not None:
            self._fault(key)
            entry = self._data[namespace].get(key)
        stats = self.stats[namespace]
        if entry is None:
            stats.misses += 1
        else:
            stats.hits += 1
            if self._store is not None:
                self._touched[namespace].add(key)
        return entry

    def put(self, namespace: str, key: str, value: Any) -> None:
        self._data[namespace][key] = value
        self._added[namespace][key] = value

    def contains(self, namespace: str, key: str) -> bool:
        """Membership probe that counts neither a hit nor a miss (the
        planner's dedup-against-the-cache check, which must not distort
        the hit-rate report of the evaluation that follows)."""
        if key in self._data[namespace]:
            return True
        if self._store is not None:
            self._fault(key)
            return key in self._data[namespace]
        return False

    def peek(self, namespace: str, key: str) -> Optional[Any]:
        """Uncounted lookup (see :meth:`contains`)."""
        entry = self._data[namespace].get(key)
        if entry is None and self._store is not None:
            self._fault(key)
            entry = self._data[namespace].get(key)
        if entry is not None and self._store is not None:
            self._touched[namespace].add(key)
        return entry

    def __len__(self) -> int:
        """In-memory entry count (with a store, only the shards
        faulted in so far — ``store.describe()`` has the disk totals)."""
        return sum(len(entries) for entries in self._data.values())

    def size(self, namespace: str) -> int:
        return len(self._data[namespace])

    # ------------------------------------------------------------------
    # Typed helpers
    # ------------------------------------------------------------------
    def get_result(self, key: str) -> Optional[Dict[str, Any]]:
        return self.get("results", key)

    def put_result(self, key: str, value: Dict[str, Any]) -> None:
        self.put("results", key, value)

    # ------------------------------------------------------------------
    # Shipping entries between processes
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The full in-memory entry image (a shallow copy per
        namespace)."""
        return {ns: dict(entries) for ns, entries in self._data.items()}

    @property
    def dirty(self) -> bool:
        """True when entries were added since the last save/pop_added —
        a clean (100%-hit) run has no entries to flush."""
        return any(self._added.values())

    @property
    def needs_flush(self) -> bool:
        """Whether :meth:`save` has anything to persist: added entries,
        or (with a store) access touches that keep LRU recency
        honest across warm runs."""
        if self.dirty:
            return True
        return self._store is not None and any(self._touched.values())

    def pop_added(self) -> Dict[str, Dict[str, Any]]:
        """Entries added since the last call (worker -> parent shipping)."""
        added = self._added
        self._added = {ns: {} for ns in NAMESPACES}
        return added

    def merge(self, entries: Dict[str, Dict[str, Any]]) -> None:
        """Adopt entries computed elsewhere (also marks them for saving)."""
        for namespace, values in entries.items():
            for key, value in values.items():
                self.put(namespace, key, value)

    def adopt(self, entries: Dict[str, Dict[str, Any]]) -> None:
        """Merge entries *without* marking them added/dirty.

        How a pool worker seeds each batch's fresh cache with the
        batch's deps (:attr:`~repro.engine.planner.TaskChunk.deps`):
        those entries are already owned (and persisted) by the parent,
        so the worker must not ship them back with its own results.
        """
        for namespace, values in entries.items():
            self._data[namespace].update(values)

    def stats_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-namespace hit/miss counters, plus (when a disk store
        is live) its ``store`` counters — shard loads, flushes, lock
        waits, evictions — under the ``"store"`` key."""
        snapshot: Dict[str, Dict[str, Any]] = {
            ns: {"hits": s.hits, "misses": s.misses}
            for ns, s in self.stats.items()
        }
        if self._store is not None:
            snapshot["store"] = self._store.stats.to_dict()
        if self.resilience.any():
            snapshot["resilience"] = self.resilience.to_dict()
        return snapshot

    def reset_stats(self) -> None:
        """Zero every hit/miss counter and the planner counters.

        Tests use this to scope assertions to one run.  Entries are
        untouched — only the statistics reset.
        """
        for stats in self.stats.values():
            stats.reset()
        self.planner.reset()
        self.resilience.reset()
        if self._store is not None:
            self._store.stats.reset()

    def absorb_stats(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a pool worker's per-namespace hit/miss counts into this
        cache's statistics (a worker's batch cache has no store and no
        resilience counters)."""
        for namespace, counts in snapshot.items():
            stats = self.stats[namespace]
            stats.hits += counts.get("hits", 0)
            stats.misses += counts.get("misses", 0)

    def describe_stats(self) -> str:
        parts = [f"{ns} {self.stats[ns].describe()}"
                 for ns in NAMESPACES if self.stats[ns].lookups]
        line = "cache: " + (" | ".join(parts) if parts else "no lookups")
        if self.planner.planned:
            line += "\n" + self.planner.describe()
        if self.resilience.any():
            line += "\n" + self.resilience.describe()
        quarantined = len(self._data["failures"])
        if quarantined:
            line += (f"\nquarantine: {quarantined} poison "
                     f"job{'s' if quarantined != 1 else ''} on file "
                     f"(skipped under --on-error skip/retry)")
        if self._store is not None:
            store = self._store.stats
            line += (f"\nstore: {store.shard_loads} shard loads "
                     f"({store.loaded_entries} entries), "
                     f"{store.flushes} flushes "
                     f"({store.flushed_entries} entries), "
                     f"{store.lock_waits} lock waits, "
                     f"{store.evicted_entries} evicted")
        return line

    def mapper_search_stats(self) -> Dict[str, int]:
        """Aggregated search-efficiency counters over cached mapper results.

        Sums the ``evaluated`` / ``valid`` / ``deduplicated`` /
        ``pruned_early`` counters of every mapper-search entry currently
        in the cache, so sweep front-ends can surface how much work the
        candidate dedup and early capacity rejection saved.
        """
        totals = {"searches": 0, "evaluated": 0, "valid": 0,
                  "deduplicated": 0, "pruned_early": 0}
        for key, entry in self._data["mappings"].items():
            if key in self._disk_mappings:
                # Lazily faulted warm entries are prior sessions' work;
                # counting them would misreport them as fresh searches.
                continue
            totals["searches"] += 1
            for counter in ("evaluated", "valid", "deduplicated",
                            "pruned_early"):
                totals[counter] += int(entry.get(counter, 0))
        return totals

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self) -> Optional[str]:
        """Flush to disk; returns the store root (``None`` in-memory).

        Flushes only the entries added since the last save, plus batched
        access touches for LRU recency — O(delta) appends, never a
        rewrite.
        """
        if self._store is None:
            return None
        added = {ns: dict(values)
                 for ns, values in self._added.items() if values}
        touched = {ns: sorted(keys)
                   for ns, keys in self._touched.items() if keys}
        self._store.flush(added, touched)
        self._added = {ns: {} for ns in NAMESPACES}
        self._touched = {ns: set() for ns in NAMESPACES}
        return self._store.root


class SystemStore:
    """Adapter giving a system object cached mapper searches and layer
    evaluations.

    Every :class:`~repro.systems.base.PhotonicSystem` accepts one of these
    as its ``store`` argument and calls the four duck-typed methods below
    with structural keys (tuples of scalars); the store scopes them under
    the system's configuration hash so different configurations never
    collide.

    ``counts_memo`` is the run's reference-counts memo (see
    :mod:`repro.systems.base`); it is never persisted.
    """

    def __init__(self, cache: EvaluationCache, system_key: str,
                 counts_memo: Optional[Dict] = None) -> None:
        self.cache = cache
        self.system_key = system_key
        self.counts_memo = counts_memo

    def _key(self, key: Iterable[Any]) -> str:
        return store_entry_key(self.system_key, key)

    # ------------------------------------------------------------------
    # Mapper results
    # ------------------------------------------------------------------
    def load_mapper_result(self, key: Iterable[Any]) -> Optional[MapperResult]:
        entry = self.cache.get("mappings", self._key(key))
        if entry is None:
            return None
        return MapperResult(
            mapping=mapping_from_dict(entry["mapping"]),
            cost=float(entry["cost"]),
            evaluated=int(entry["evaluated"]),
            valid=int(entry["valid"]),
            deduplicated=int(entry["deduplicated"]),
            pruned_early=int(entry["pruned_early"]),
        )

    def save_mapper_result(self, key: Iterable[Any],
                           result: MapperResult) -> None:
        self.cache.put("mappings", self._key(key), {
            "mapping": mapping_to_dict(result.mapping),
            "cost": result.cost,
            "evaluated": result.evaluated,
            "valid": result.valid,
            "deduplicated": result.deduplicated,
            "pruned_early": result.pruned_early,
        })

    # ------------------------------------------------------------------
    # Layer evaluations
    # ------------------------------------------------------------------
    def load_layer(self, key: Iterable[Any]) -> Optional[LayerEvaluation]:
        entry = self.cache.get("layers", self._key(key))
        if entry is None:
            return None
        return layer_evaluation_from_dict(entry)

    def save_layer(self, key: Iterable[Any],
                   evaluation: LayerEvaluation) -> None:
        self.cache.put("layers", self._key(key),
                       layer_evaluation_to_dict(evaluation))
