"""Persistent warm worker pool with an epoch-stamped cache delta protocol.

:class:`WorkerPool` owns a ``multiprocessing`` pool that *survives across*
``run_jobs`` calls.  That changes the economics of the parallel sweep
path in three ways:

* **Warm per-worker state.**  With the fork start method each worker
  keeps its module-level caches between dispatches — the memoized
  architecture/energy-table builds (``PhotonicSystem.build_cached``), the
  ``SearchContext`` FIFO, the mapper's process-wide fill-event and
  tile-size tables, and its copy of the evaluation cache — so a second
  dispatch pays none of the first one's warm-up.  Each worker freezes
  (``gc.freeze()``) the heap it inherits at fork once its initializer
  has run, so the collector's full passes scan only what the worker
  itself allocates.

* **Delta cache sync instead of full snapshots.**  The first dispatch
  (at spawn) ships the cache image once, stamped with the cache's
  ``(epoch, per-namespace length)`` marker — or, when the cache sits on
  a sharded directory store, just the store reference plus the parent's
  unflushed additions: the workers fault warm entries in from the
  shared store lazily, so seeding cost no longer scales with the total
  cache size either.  Entries are append-only
  within an epoch and dicts preserve insertion order, so every later
  dispatch ships only the entries *beyond* the oldest marker any worker
  could be holding — O(new entries), not O(cache).  ``cache.clear()``
  bumps the epoch, and switching ``run_jobs`` to a different cache
  object changes the timeline entirely; either way an additive delta
  cannot express the change, so the pool ships a token-stamped
  full-snapshot *reset* in-band with the next dispatch — the worker
  processes themselves stay alive, keeping their warm module state.

* **A slim wire format.**  Planner batches are re-encoded before
  pickling: configurations and layers are interned into per-payload
  tables referenced by index, sub-tasks travel as ``(kind, layer_index,
  flags)`` triples, and result messages pack the homogeneous scalar
  metrics of layer evaluations into typed :mod:`array` columns.  The
  decoded entries are reconstructed field-for-field in the canonical
  codec order, so cached values remain bit-identical to serially
  computed ones.

Interrupt safety: any exception while a dispatch is in flight — a
``KeyboardInterrupt`` included — terminates and joins the workers before
propagating, so no orphaned processes linger.  The :class:`WorkerPool`
object itself stays usable; the next dispatch simply respawns.

Worker supervision: while blocked waiting for results the pool polls
the dispatch with a short timeout and checks its worker processes'
liveness (``Process.is_alive`` plus a pid-set comparison against the
dispatch-time roster, which also catches workers the ``multiprocessing``
machinery already silently replaced).  A worker that died — SIGKILL,
``os._exit``, OOM — costs one batch retry, not a hung sweep: the pool
tears the process group down, respawns workers re-seeded from the
current cache (shared store or snapshot — including everything already
merged from answered batches), and re-dispatches only the unanswered
payloads with a bumped attempt number.  Marker bookkeeping forgets dead
pids (``_sync_payload`` prunes the ack map to live workers each
dispatch), so deltas never grow unboundedly waiting for acks that can't
come.  Repeated crashes on the same payloads raise
:class:`~repro.exceptions.WorkerCrashError` after ``max_respawns``
recoveries.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import sys
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.engine import faults
from repro.engine.cache import EvaluationCache, SystemStore, store_entry_key
from repro.exceptions import WorkerCrashError
from repro.workloads.layer import ConvLayer

_Marker = Tuple[int, Tuple[int, ...]]

#: Per-task guard shipped inside dispatch payloads:
#: ``(task_timeout_seconds, capture_errors, fault_plan_wire)`` — or
#: ``None`` for the unguarded fast path (no try/except per task at all).
_Guard = Optional[Tuple[Optional[float], bool, Optional[list]]]

# ---------------------------------------------------------------------------
# Wire format: slim batch payloads
# ---------------------------------------------------------------------------

_KIND_CODES = {"mapper": 0, "layer": 1}
_KIND_NAMES = ("mapper", "layer")

# ConvLayer wire order — mirrors repro.engine.codec.layer_to_dict, the
# canonical field order every serialized layer uses.
_LAYER_FIELDS = ("name", "n", "m", "c", "p", "q", "r", "s",
                 "stride_h", "stride_w", "groups",
                 "bits_per_weight", "bits_per_activation", "kind")


def _encode_batch(batch: Iterable[Any]) -> Tuple[list, list, list]:
    """Re-encode one planner batch for the wire.

    Chunks arrive as :class:`~repro.engine.planner.TaskChunk` objects
    whose tasks each carry a full :class:`ConvLayer`; on a typical grid
    every layer appears in several tasks (one mapper search plus each
    DRAM-flag variant), so interning layers and configurations into
    per-payload tables referenced by index cuts the pickled size several
    fold.  Layers travel as bare field tuples, not dataclass pickles.
    """
    contexts: list = []
    layer_specs: list = []
    layer_index: Dict[int, int] = {}
    segments: list = []
    for chunk in batch:
        context_index = len(contexts)
        contexts.append((chunk.system, chunk.config, chunk.system_key))
        codes = []
        for task in chunk.tasks:
            layer = task.layer
            index = layer_index.get(id(layer))
            if index is None:
                index = len(layer_specs)
                layer_index[id(layer)] = index
                layer_specs.append(
                    tuple(getattr(layer, name) for name in _LAYER_FIELDS))
            flags = (task.use_mapper
                     | task.input_from_dram << 1
                     | task.output_to_dram << 2)
            codes.append((_KIND_CODES[task.kind], index, flags))
        segments.append((context_index, codes))
    return contexts, layer_specs, segments


def _decode_layers(layer_specs: list) -> List[ConvLayer]:
    return [ConvLayer(**dict(zip(_LAYER_FIELDS, spec)))
            for spec in layer_specs]


# ---------------------------------------------------------------------------
# Wire format: typed-column result packing
# ---------------------------------------------------------------------------

# Homogeneous scalars of every "layers" cache entry (one per evaluated
# layer — by far the most numerous result objects on the wire).  The
# remaining fields are heterogeneous (nested dicts, optionals) and ride
# in a residual tuple.  _ENTRY_ORDER is the canonical codec field order
# (repro.engine.codec.layer_evaluation_to_dict); decoding rebuilds each
# dict in exactly that order so a pool-computed cache image is
# indistinguishable from a serial one.
_INT_COLUMNS = ("cycles", "real_macs", "padded_macs", "peak_parallelism")
_RESIDUAL_FIELDS = ("layer", "energy", "occupancy_bits",
                    "compute_cycles", "bandwidth_bound_level")
_ENTRY_ORDER = ("layer", "energy", "cycles", "real_macs", "padded_macs",
                "peak_parallelism", "clock_ghz", "occupancy_bits",
                "compute_cycles", "bandwidth_bound_level")
_ENTRY_FIELD_SET = frozenset(_ENTRY_ORDER)
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _packable(entry: Any) -> bool:
    if not isinstance(entry, dict) or entry.keys() != _ENTRY_FIELD_SET:
        return False
    for name in _INT_COLUMNS:
        value = entry[name]
        if type(value) is not int or not _INT64_MIN <= value <= _INT64_MAX:
            return False
    return type(entry["clock_ghz"]) is float


def _pack_added(added: Dict[str, Dict[str, Any]]) -> Dict[str, tuple]:
    """Pack a worker's new cache entries for the return trip.

    Layer-evaluation entries become four parallel structures: the key
    list, one ``array('q')`` holding the int columns row-major, one
    ``array('d')`` of clocks, and a residual tuple per entry.  Typed
    arrays pickle as flat byte buffers — no per-element object headers —
    and round-trip int64/float64 values exactly.  Anything that doesn't
    match the schema passes through raw.
    """
    packed: Dict[str, tuple] = {}
    for namespace, entries in added.items():
        if namespace != "layers" or not entries:
            if entries:
                packed[namespace] = ("raw", entries)
            continue
        keys, ints, clocks, residuals, raw = [], array("q"), array("d"), [], {}
        for key, entry in entries.items():
            if not _packable(entry):
                raw[key] = entry
                continue
            keys.append(key)
            for name in _INT_COLUMNS:
                ints.append(entry[name])
            clocks.append(entry["clock_ghz"])
            residuals.append(tuple(entry[name] for name in _RESIDUAL_FIELDS))
        packed[namespace] = ("cols", keys, ints, clocks, residuals, raw)
    return packed


def _unpack_added(packed: Dict[str, tuple]) -> Dict[str, Dict[str, Any]]:
    added: Dict[str, Dict[str, Any]] = {}
    for namespace, payload in packed.items():
        if payload[0] == "raw":
            added[namespace] = payload[1]
            continue
        _tag, keys, ints, clocks, residuals, raw = payload
        entries: Dict[str, Any] = {}
        width = len(_INT_COLUMNS)
        for row, key in enumerate(keys):
            layer, energy, occupancy, compute_cycles, bound = residuals[row]
            base = row * width
            entries[key] = {
                "layer": layer,
                "energy": energy,
                "cycles": ints[base],
                "real_macs": ints[base + 1],
                "padded_macs": ints[base + 2],
                "peak_parallelism": ints[base + 3],
                "clock_ghz": clocks[row],
                "occupancy_bits": occupancy,
                "compute_cycles": compute_cycles,
                "bandwidth_bound_level": bound,
            }
        entries.update(raw)
        added[namespace] = entries
    return added


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------

_WORKER_CACHE: Optional[EvaluationCache] = None
_WORKER_MARK: Optional[_Marker] = None
_WORKER_TOKEN: int = 0
_WORKER_OBS: Optional[Tuple[float, int]] = None


def _seed_cache(seed: Optional[tuple]) -> Optional[EvaluationCache]:
    """Build a worker cache from a tagged seed payload.

    ``("image", snapshot)`` is the classic full pickled image;
    ``("store", (directory, pending))`` opens the shared sharded store
    lazily — the worker reads warm entries shard-by-shard straight from
    disk as it needs them and only the parent's unflushed additions
    rode the wire.
    """
    if seed is None:
        return None
    kind, body = seed
    if kind == "store":
        return EvaluationCache.from_store_seed(body)
    return EvaluationCache.from_snapshot(body)


def default_signal_handlers() -> None:
    """Give a forked worker the interpreter's own SIGTERM and SIGINT
    handling.  Workers inherit the parent's handlers; a daemon's drain
    handler would make them survive the SIGTERM of ``terminate()``, so
    closing the pool would wait on them for ever."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def _init_pool_worker(seed: Optional[tuple],
                      marker: Optional[_Marker], token: int) -> None:
    """Pool initializer: restore default signal handling, seed the floor
    snapshot, silence inherited tracing (payloads re-activate it per
    dispatch as needed), then freeze the heap inherited at fork so later
    full collections never rescan it."""
    global _WORKER_CACHE, _WORKER_MARK, _WORKER_TOKEN, _WORKER_OBS
    default_signal_handlers()
    _WORKER_CACHE = _seed_cache(seed)
    _WORKER_MARK = marker
    _WORKER_TOKEN = token
    _WORKER_OBS = None
    obs.deactivate()
    gc.freeze()


def _sync_tracing(config: Optional[Tuple[float, int]]) -> None:
    """Match this worker's tracer to the dispatch's: a persistent pool
    can serve traced and untraced dispatches back to back, so the lane
    follows the payload, not the spawn."""
    global _WORKER_OBS
    if config == _WORKER_OBS:
        return
    if config is None:
        obs.deactivate()
    else:
        obs.activate(obs.Tracer.for_worker(config))
    _WORKER_OBS = config


def _apply_sync(sync: Optional[tuple]) -> EvaluationCache:
    """Fold the dispatch's cache sync into the warm worker cache.

    Payloads are tagged: ``("reset", token, marker, seed)`` replaces
    the cache wholesale (the parent switched caches or bumped the epoch
    — the processes stay alive, only the cached data is swapped; the
    seed is an image or store reference, see :func:`_seed_cache`), while
    ``("delta", token, marker, delta)`` folds in new entries.  The token
    identifies the cache timeline: a reset is applied once per token (a
    worker serving two payloads of one dispatch must not wipe its first
    batch's entries), and a delta whose token doesn't match the worker's
    falls back to an empty cache — strictly safe, since worker caches
    only avoid recomputation and ``pop_added`` re-ships anything
    computed fresh.
    """
    global _WORKER_CACHE, _WORKER_MARK, _WORKER_TOKEN
    if sync is None:
        return (_WORKER_CACHE if _WORKER_CACHE is not None
                else EvaluationCache())
    kind, token, target = sync[0], sync[1], sync[2]
    if kind == "reset":
        if token != _WORKER_TOKEN or _WORKER_CACHE is None:
            _WORKER_CACHE = _seed_cache(sync[3]) or EvaluationCache()
            _WORKER_TOKEN = token
            _WORKER_MARK = target
        return _WORKER_CACHE
    delta = sync[3]
    if token != _WORKER_TOKEN or _WORKER_CACHE is None:
        # Missed a reset for this timeline (or never seeded): a delta
        # alone can't reconstruct it, so start empty.
        _WORKER_CACHE = EvaluationCache()
        _WORKER_TOKEN = token
    if delta:
        # adopt(), not merge(): parent-owned entries must not be
        # re-shipped back with this worker's own results.
        _WORKER_CACHE.adopt(delta)
    _WORKER_MARK = target
    return _WORKER_CACHE


def _run_wire_batch(payload):
    """Execute one slim-encoded planner batch; ship packed results back.

    The same contract as the legacy ``_run_batch_in_worker``: each
    segment's tasks share one (memoized) system build and one store
    scope, and the whole batch answers in a single message.

    ``guard`` (see :data:`_Guard`) arms the failure-policy machinery:
    each task runs under the watchdog deadline and the fault-injection
    hook, and — when ``capture`` is set — a task exception is recorded
    against its store-entry key in the reply's ``failed`` map instead of
    aborting the dispatch, so the surviving tasks of the batch still
    land in the cache.  ``guard=None`` is the zero-overhead fast path.
    """
    from repro.engine.jobs import system_registry
    from repro.systems.base import SubTask

    index, sync, obs_config, wire, guard, attempt = payload
    _sync_tracing(obs_config)
    cache = _apply_sync(sync)
    contexts, layer_specs, segments = wire
    layers = _decode_layers(layer_specs)
    registry = system_registry()
    failed: Dict[str, Tuple[str, str]] = {}
    if guard is None:
        timeout, capture, plan = None, False, None
    else:
        timeout, capture, plan_wire = guard
        plan = faults.FaultPlan.from_wire(plan_wire)
    with obs.span("worker.batch", segments=len(segments),
                  tasks=sum(len(codes) for _index, codes in segments)):
        for context_index, codes in segments:
            system_name, config, system_key = contexts[context_index]
            entry = registry[system_name]
            with obs.span("system.build", system=system_name):
                system = entry.system_type(
                    config, store=SystemStore(cache, system_key))
            for kind_code, layer_id, flags in codes:
                task = SubTask(
                    kind=_KIND_NAMES[kind_code],
                    layer=layers[layer_id],
                    use_mapper=bool(flags & 1),
                    input_from_dram=bool(flags & 2),
                    output_to_dram=bool(flags & 4))
                if guard is None:
                    system.compute_sub_task(task)
                    continue
                try:
                    with faults.task_deadline(timeout):
                        if plan is not None:
                            plan.check(faults.sub_task_key(system_name,
                                                           task), attempt)
                        system.compute_sub_task(task)
                except Exception as error:
                    if not capture:
                        raise
                    key = store_entry_key(system_key,
                                          system.sub_task_store_key(task))
                    failed[key] = (type(error).__name__, str(error))
    added = cache.pop_added()
    stats = cache.stats_snapshot()
    cache.reset_stats()
    tracer = obs.current_tracer()
    events = tracer.drain() if tracer.enabled else None
    return (index, _pack_added(added), stats, events,
            os.getpid(), _WORKER_MARK, failed)


def pool_context():
    """Fork where available (cheap, inherits warm module state)."""
    if sys.platform != "win32":
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover
            pass
    return multiprocessing.get_context()  # pragma: no cover


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class PoolStats:
    """Wire-traffic counters for one :class:`WorkerPool`.

    ``snapshot_entries`` counts entries shipped via full snapshots (at
    spawn or as in-band resets); ``delta_entries`` counts entries
    shipped as warm deltas — on a healthy reused pool the latter stays
    small while the former is paid once per cache timeline.
    ``store_seeds`` counts seeds that shipped a shared-store reference
    instead of a pickled image (directory caches: workers read warm
    entries from disk themselves, so ``snapshot_entries`` then counts
    only the unflushed additions that rode along).  ``epoch_resets``
    counts timeline changes (epoch bump or cache switch) answered by an
    in-band reseed; the workers stay alive.
    """

    spawns: int = 0
    dispatches: int = 0
    batches: int = 0
    snapshot_entries: int = 0
    store_seeds: int = 0
    delta_syncs: int = 0
    delta_entries: int = 0
    epoch_resets: int = 0
    #: Supervision recoveries: a worker process died mid-dispatch and
    #: the pool respawned + re-dispatched the unanswered batches.
    respawns: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "spawns": self.spawns,
            "dispatches": self.dispatches,
            "batches": self.batches,
            "snapshot_entries": self.snapshot_entries,
            "store_seeds": self.store_seeds,
            "delta_syncs": self.delta_syncs,
            "delta_entries": self.delta_entries,
            "epoch_resets": self.epoch_resets,
            "respawns": self.respawns,
        }


@dataclass
class _CacheSync:
    """What the pool knows about its workers' cache copies."""

    cache_id: int
    epoch: int
    floor: _Marker                      # shipped to every worker at spawn
    marks: Dict[int, _Marker]           # pid -> last acknowledged marker
    token: int                          # cache-timeline id the workers hold
    #: True while some worker may still hold the previous timeline:
    #: dispatches ship full-snapshot resets until every pid has
    #: acknowledged the new token.
    resetting: bool = False


class WorkerPool:
    """A process pool that persists across ``run_jobs`` calls.

    Use as a context manager (or call :meth:`close` yourself)::

        with WorkerPool(workers=4) as pool:
            first = run_jobs(jobs_a, cache=cache, pool=pool)
            second = run_jobs(jobs_b, cache=cache, pool=pool)  # warm

    Workers spawn lazily on the first dispatch and are seeded with the
    cache's full image once; later dispatches ship only the entries
    added since (see the module docstring for the marker protocol).
    Results are bit-identical to serial execution — the pool only moves
    cache entries, never recomputes them differently.
    """

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.stats = PoolStats()
        #: Result-wait poll interval (seconds): how often the
        #: supervision loop wakes to check worker liveness while
        #: blocked on a dispatch.
        self.supervision_interval = 0.25
        #: Crash-recovery budget *per dispatch*: more worker deaths than
        #: this on one batch set raises WorkerCrashError instead of
        #: respawning forever (a deterministic crasher would loop).
        self.max_respawns = 3
        self._pool = None
        self._pool_size = 0
        self._sync: Optional[_CacheSync] = None
        self._token = 0          # monotonic; never reused across resets

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True while worker processes are alive."""
        return self._pool is not None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the workers and wait for them to exit (idempotent).

        Outside a dispatch every worker is idle, so each one exits on the
        pool's end-of-work sentinel.  Signalling them instead could catch
        a worker that has sent its last reply but not yet released the
        result queue's lock, and the pool's shutdown would then wait on
        that lock for ever.  The pool object remains usable: the next
        dispatch respawns with a fresh snapshot floor.
        """
        self._shut_down(kill=False)

    def _shut_down(self, kill: bool) -> None:
        """Join the workers; ``kill`` terminates them first (a dispatch
        was cut short and some may never finish their task)."""
        if self._pool is not None:
            if kill:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool.join()
            self._pool = None
            self._pool_size = 0
            self._sync = None

    def _ensure_workers(self, cache: Optional[EvaluationCache],
                        pending: int) -> None:
        if self._pool is not None and self._sync is not None:
            stale = (cache is None
                     or self._sync.cache_id != id(cache)
                     or self._sync.epoch != cache.epoch)
            if stale:
                # The warm copies describe data that no longer exists
                # (epoch bump) or a different cache object entirely; an
                # additive delta can't fix either.  Keep the processes
                # alive — their module-level memos (architecture builds,
                # search contexts) are still good — and ship a
                # full-snapshot reset in-band with the next dispatch.
                self.stats.epoch_resets += 1
                if cache is None:
                    # Nothing to reseed from; drop the warm copies with
                    # the processes.
                    self.close()
                else:
                    self._token += 1
                    self._sync = _CacheSync(
                        cache_id=id(cache), epoch=cache.epoch,
                        floor=cache.sync_marker(), marks={},
                        token=self._token, resetting=True)
        if self._pool is not None:
            return
        size = max(1, min(self.workers, pending,
                          multiprocessing.cpu_count() or self.workers))
        if cache is not None:
            seed = self._seed_payload(cache)
            marker = cache.sync_marker()
        else:
            seed, marker = None, None
        with obs.span("executor.pool_spawn", workers=size):
            self._pool = pool_context().Pool(
                size, initializer=_init_pool_worker,
                initargs=(seed, marker, self._token))
        self._pool_size = size
        self.stats.spawns += 1
        if cache is not None:
            self._sync = _CacheSync(cache_id=id(cache), epoch=cache.epoch,
                                    floor=marker, marks={},
                                    token=self._token)
        else:
            self._sync = None

    def _seed_payload(self, cache: EvaluationCache) -> tuple:
        """The tagged worker seed (see :func:`_seed_cache`).

        Directory caches ship a store reference plus only the unflushed
        additions — the workers fault warm entries in from the shared
        sharded store themselves; everything else ships the full
        in-memory image (sans the whole-job ``results`` namespace,
        which workers never read).
        """
        store_seed = cache.store_seed()
        if store_seed is not None:
            self.stats.store_seeds += 1
            self.stats.snapshot_entries += sum(
                len(values) for values in store_seed[1].values())
            return ("store", store_seed)
        with obs.span("executor.snapshot"):
            snapshot = cache.snapshot()
            snapshot["results"] = {}
        self.stats.snapshot_entries += sum(
            len(snapshot[ns]) for ns in snapshot)
        return ("image", snapshot)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _worker_pids(self) -> Optional[set]:
        """The live pool's worker pids (None when nothing is spawned).

        Reads the ``multiprocessing.Pool`` internals — stable across
        every CPython this repo supports — because the public API offers
        no roster; the supervision loop needs one to tell a lost result
        from a slow one.
        """
        if self._pool is None:
            return None
        processes = getattr(self._pool, "_pool", None)
        if processes is None:  # pragma: no cover - interpreter variance
            return None
        return {process.pid for process in processes}

    def _roster_changed(self, roster: set) -> bool:
        """True when any dispatch-time worker died or was replaced.

        ``multiprocessing.Pool`` silently repopulates dead workers, so a
        pid-set comparison catches deaths the ``is_alive`` sweep would
        miss (the corpse is already reaped and replaced); the in-flight
        task of a replaced worker is lost either way.
        """
        processes = getattr(self._pool, "_pool", None) \
            if self._pool is not None else None
        if processes is None:  # pragma: no cover - interpreter variance
            return True
        if {process.pid for process in processes} != roster:
            return True
        return any(not process.is_alive() for process in processes)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _sync_payload(self, cache: Optional[EvaluationCache]):
        sync = self._sync
        if cache is None or sync is None:
            return None
        # Forget dead pids: a mark held for a worker that no longer
        # exists would pin the delta base at its last ack forever (the
        # ack that moves it past can never come), growing every later
        # delta unboundedly.
        alive = self._worker_pids()
        if alive is not None:
            for pid in [pid for pid in sync.marks if pid not in alive]:
                del sync.marks[pid]
        current = cache.sync_marker()
        if sync.resetting:
            # Some worker may still hold the previous timeline: ship a
            # full seed (image, or store reference for directory caches)
            # until every pid has acknowledged the new token.  The
            # worker-side token check makes repeated resets idempotent
            # within a dispatch.
            sync.floor = current
            return ("reset", sync.token, current,
                    self._seed_payload(cache))
        # The base is the oldest state any worker can be in: its last
        # acknowledged marker, or the spawn floor if it has never
        # answered.  Markers on one cache timeline are totally ordered,
        # but take the per-namespace minimum anyway — it is correct even
        # for incomparable markers.
        known = list(sync.marks.values())
        if len(sync.marks) < self._pool_size or not known:
            known.append(sync.floor)
        base = (sync.epoch,
                tuple(min(lengths) for lengths
                      in zip(*(mark[1] for mark in known))))
        delta = cache.entries_since(base)
        delta.pop("results", None)
        self.stats.delta_syncs += 1
        self.stats.delta_entries += sum(len(v) for v in delta.values())
        return ("delta", sync.token, current, delta)

    def run_batches(
        self,
        batches: List[Any],
        cache: Optional[EvaluationCache],
        obs_config: Optional[Tuple[float, int]] = None,
        guard: _Guard = None,
        attempt: int = 0,
    ) -> Iterator[Tuple[int, Dict[str, Dict[str, Any]],
                        Dict[str, Dict[str, int]], Optional[dict],
                        Dict[str, Tuple[str, str]]]]:
        """Dispatch planner batches; yield ``(index, added, stats,
        trace_events, failed_keys)`` as each answers (completion order).

        The result wait is supervised: a worker process that dies
        mid-dispatch (see the module docstring) is detected within
        ``supervision_interval``, the pool respawns re-seeded from the
        *current* cache — answered batches included — and only the
        unanswered payloads are re-dispatched, with the attempt number
        bumped so deterministic fault-injection plans don't re-fire.

        ``guard``/``attempt`` ship the failure-policy watchdog and
        fault-injection context to the workers (see :data:`_Guard`);
        ``failed_keys`` maps a failed task's store-entry key to its
        ``(error type, message)`` when the guard captures errors, and is
        empty otherwise.

        Any exception raised while results are in flight — including a
        ``KeyboardInterrupt`` or the consumer abandoning the iterator —
        closes the pool before propagating, so no orphaned workers
        survive a cancelled dispatch.  The pool respawns on next use.
        """
        pending = {index: _encode_batch(batch)
                   for index, batch in enumerate(batches)}
        self.stats.dispatches += 1
        self.stats.batches += len(pending)
        respawns = 0
        try:
            while pending:
                self._ensure_workers(cache, len(pending))
                sync = self._sync_payload(cache)
                payloads = [(index, sync, obs_config, wire, guard,
                             attempt + respawns)
                            for index, wire in pending.items()]
                roster = self._worker_pids() or set()
                replies = self._pool.imap_unordered(_run_wire_batch,
                                                    payloads, chunksize=1)
                while True:
                    try:
                        reply = replies.next(
                            timeout=self.supervision_interval)
                    except multiprocessing.TimeoutError:
                        if self._roster_changed(roster):
                            break  # a worker died: recover below
                        continue
                    except StopIteration:
                        break
                    index, packed, stats, events, pid, mark, failed = reply
                    if self._sync is not None and mark is not None:
                        self._sync.marks[pid] = mark
                        if (self._sync.resetting
                                and len(self._sync.marks)
                                >= self._pool_size):
                            self._sync.resetting = False
                    pending.pop(index, None)
                    yield index, _unpack_added(packed), stats, events, \
                        failed
                if not pending:
                    break
                # Batches went unanswered: a worker crashed (or the
                # dispatch drained short, which re-dispatching also
                # fixes).  Kill the survivors — their sibling's death
                # may have wedged the shared result queue — respawn
                # re-seeded from the current cache, and retry what's
                # left.  One SIGKILL costs one batch retry, not a hang.
                respawns += 1
                self.stats.respawns += 1
                if respawns > self.max_respawns:
                    raise WorkerCrashError(
                        f"worker processes died {respawns} times on one "
                        f"dispatch ({len(pending)} batches unanswered); "
                        f"giving up — inspect the batch for a "
                        f"crash-inducing task")
                with obs.span("pool.respawn", round=respawns,
                              pending=len(pending)):
                    self._shut_down(kill=True)
        except BaseException:
            # A half-finished dispatch leaves workers in an unknown
            # state; kill them rather than risk stale answers later.
            self._shut_down(kill=True)
            raise
