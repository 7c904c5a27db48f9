"""Persistent warm worker pool running stateless, self-contained batches.

:class:`WorkerPool` owns a :class:`concurrent.futures.ProcessPoolExecutor`
that *survives across* ``run_jobs`` calls.  That changes the economics
of the parallel sweep path in three ways:

* **Warm per-worker module state.**  With the fork start method each
  worker keeps its module-level memos between dispatches — the memoized
  architecture/energy-table builds (``PhotonicSystem.build_cached``), the
  ``SearchContext`` FIFO, the mapper's process-wide fill-event and
  tile-size tables — so a second dispatch pays none of the first one's
  warm-up.  Each worker freezes (``gc.freeze()``) the heap it inherits
  at fork once its initializer has run, so the collector's full passes
  scan only what the worker itself allocates.

* **No cache state in the workers.**  The planner dedups every sub-task
  against the parent's cache and packs each mapper search with the
  layer tasks that consume it, so the only cached entries a batch ever
  reads are the mapper searches its ``use_mapper`` layer tasks consume
  that were already cached at plan time.  Each chunk carries exactly
  those (:attr:`~repro.engine.planner.TaskChunk.deps`); a worker runs
  each batch against a fresh cache seeded with them and ships back only
  what it computed.  Nothing is replicated, so switching caches between
  dispatches, or sharing one pool between several caches, needs no
  bookkeeping at all.

* **A slim wire format.**  Planner batches are re-encoded before
  pickling: configurations and layers are interned into per-payload
  tables referenced by index, sub-tasks travel as ``(kind, layer_index,
  flags)`` triples, and result messages pack the homogeneous scalar
  metrics of layer evaluations into typed :mod:`array` columns.  The
  decoded entries are reconstructed field-for-field in the canonical
  codec order, so cached values remain bit-identical to ones computed
  in-process.

Interrupt safety: any exception while a dispatch is in flight — a
``KeyboardInterrupt`` or an abandoned result iterator included — closes
the pool (:meth:`WorkerPool.close`, which never signals a worker) before
propagating, so no orphaned processes linger.  The pool object stays
usable; the next dispatch simply respawns.

Worker supervision: a worker that dies mid-batch — SIGKILL,
``os._exit``, OOM — breaks the executor, and the batches it had not
answered raise ``BrokenProcessPool``.  The pool closes the broken
executor, respawns, and re-submits only those payloads — unchanged,
since each carries its own inputs — with a bumped attempt number, so
one dead worker costs one batch retry, not a hung sweep.  Repeated
crashes raise :class:`~repro.exceptions.WorkerCrashError` after
``max_respawns`` recoveries.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import signal
from array import array
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.engine import faults
from repro.engine.cache import EvaluationCache, SystemStore, store_entry_key
from repro.exceptions import WorkerCrashError
from repro.workloads.layer import ConvLayer

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
    Each context also carries its chunk's ``deps`` (the cached mapper
    entries its tasks read), so a payload is complete in itself.
    """
    contexts: list = []
    layer_specs: list = []
    layer_index: Dict[int, int] = {}
    segments: list = []
    for chunk in batch:
        context_index = len(contexts)
        contexts.append((chunk.system, chunk.config, chunk.system_key,
                         chunk.deps))
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

_WORKER_OBS: Optional[Tuple[float, int]] = None


def default_signal_handlers() -> None:
    """Give a forked worker the interpreter's own SIGTERM and SIGINT
    handling.  Workers inherit the parent's handlers: a daemon's drain
    handler would let a worker outlive the SIGTERM the executor sends
    when a sibling dies, and joining it would wait for ever.  SIGINT
    raises ``KeyboardInterrupt``, so Ctrl-C ends a running batch."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def _init_pool_worker() -> None:
    """Pool initializer: restore default signal handling, silence
    inherited tracing (payloads re-activate it per dispatch as needed),
    then freeze the heap inherited at fork so later full collections
    never rescan it."""
    global _WORKER_OBS
    default_signal_handlers()
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


def build_system(name: str, config: Any, system_key: str,
                 cache: EvaluationCache, counts_memo: Dict) -> Any:
    """One configuration's system, reading and writing ``cache`` through
    a store that shares ``counts_memo`` (see :mod:`repro.systems.base`)."""
    from repro.engine.jobs import system_registry

    with obs.span("system.build", system=name):
        return system_registry()[name].system_type(
            config, store=SystemStore(cache, system_key, counts_memo))


def run_tasks(system: Any, name: str, system_key: str,
              tasks: Iterable[Any], guard: Any, attempt: int,
              failed: Dict[str, Tuple[str, str]]) -> None:
    """Compute ``tasks`` on ``system`` (registered as ``name``, stored
    under ``system_key``); their entries land in its store.

    The one task loop, for pool workers and in-process runs alike.
    ``guard`` is ``(task_timeout, capture, fault plan)``, or ``None``
    for the unguarded fast path (no try/except per task at all).  Under
    a guard each task runs inside the watchdog deadline after the fault
    plan's check, and, when ``capture`` is set, a task's exception is
    recorded in ``failed`` against its store-entry key instead of
    propagating, so the remaining tasks still run.
    """
    if guard is None:
        for task in tasks:
            system.compute_sub_task(task)
        return
    timeout, capture, plan = guard
    for task in tasks:
        try:
            with faults.task_deadline(timeout):
                if plan is not None:
                    plan.check(faults.sub_task_key(name, task), attempt)
                system.compute_sub_task(task)
        except Exception as error:
            if not capture:
                raise
            key = store_entry_key(system_key,
                                  system.sub_task_store_key(task))
            failed[key] = (type(error).__name__, str(error))


def _run_wire_batch(payload):
    """Execute one slim-encoded planner batch; ship packed results back.

    The batch runs against a fresh cache seeded with its chunks' deps
    and one fresh counts memo, so no state carries over from one batch
    to the next.  Each segment's tasks share one (memoized) system build
    and one store scope; every segment shares the memo, so the clock and
    scenario twins the planner packs together analyze each reference
    candidate once.  The whole batch answers in a single message: the
    entries it computed, its hit/miss counts, its trace events and its
    failures.

    ``guard`` (see :data:`_Guard`) arms :func:`run_tasks`' per-task
    watchdog, fault injection and failure capture; a captured failure
    rides back in the reply's ``failed`` map, so the surviving tasks of
    the batch still land in the cache.
    """
    from repro.systems.base import SubTask

    index, obs_config, wire, guard, attempt = payload
    _sync_tracing(obs_config)
    contexts, layer_specs, segments = wire
    cache = EvaluationCache()
    counts_memo: Dict = {}
    layers = _decode_layers(layer_specs)
    failed: Dict[str, Tuple[str, str]] = {}
    if guard is not None:
        timeout, capture, plan_wire = guard
        guard = (timeout, capture, faults.FaultPlan.from_wire(plan_wire))
    with obs.span("worker.batch", segments=len(segments),
                  tasks=sum(len(codes) for _index, codes in segments)):
        for context_index, codes in segments:
            system_name, config, system_key, deps = contexts[context_index]
            # adopt(), not merge(): the parent already holds these
            # entries, so they must not ride back with the results.
            cache.adopt({"mappings": deps})
            system = build_system(system_name, config, system_key, cache,
                                  counts_memo)
            run_tasks(system, system_name, system_key, (
                SubTask(kind=_KIND_NAMES[kind_code],
                        layer=layers[layer_id],
                        use_mapper=bool(flags & 1),
                        input_from_dram=bool(flags & 2),
                        output_to_dram=bool(flags & 4))
                for kind_code, layer_id, flags in codes),
                guard, attempt, failed)
    tracer = obs.current_tracer()
    events = tracer.drain() if tracer.enabled else None
    return (index, _pack_added(cache.pop_added()), cache.stats_snapshot(),
            events, failed)


def pool_context():
    """Fork where available (cheap, inherits warm module state)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class PoolStats:
    """Traffic counters for one :class:`WorkerPool`.

    ``dep_entries`` counts the cached mapper entries that rode along
    with dispatched batches (:attr:`~repro.engine.planner.TaskChunk.
    deps`) — the only cache state a worker ever receives.
    """

    spawns: int = 0
    dispatches: int = 0
    batches: int = 0
    dep_entries: int = 0
    #: Supervision recoveries: a worker process died mid-dispatch and
    #: the pool respawned + re-dispatched the unanswered batches.
    respawns: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class WorkerPool:
    """A process pool that persists across ``run_jobs`` calls.

    Use as a context manager (or call :meth:`close` yourself)::

        with WorkerPool(workers=4) as pool:
            first = run_jobs(jobs_a, cache=cache, pool=pool)
            second = run_jobs(jobs_b, cache=cache, pool=pool)  # warm

    Workers spawn lazily on the first dispatch, ``min(workers,
    cpu_count)`` of them, and hold no cache state: every batch carries
    the few cached entries it reads (see the module docstring).  Results
    are bit-identical to in-process runs — the pool only moves cache
    entries, never recomputes them differently.
    """

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._size = min(workers, multiprocessing.cpu_count())
        self.stats = PoolStats()
        #: Crash-recovery budget *per dispatch*: more worker deaths than
        #: this on one batch set raises WorkerCrashError instead of
        #: respawning forever (a deterministic crasher would loop).
        self.max_respawns = 3
        self._executor = None

    @property
    def active(self) -> bool:
        """True while worker processes are alive."""
        return self._executor is not None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the workers and wait for them to exit (idempotent).

        The pool's one way to stop, on every path (a finished run, an
        error, an interrupt, an abandoned dispatch, a crash respawn):
        queued batches are cancelled and running ones finish, so on an
        error path this returns once they end.  No worker is signalled,
        so none can die holding a lock this waits on.  A task that may
        never end is the ``task_timeout`` watchdog's job (SIGALRM in the
        worker); Ctrl-C ends running batches too, since workers keep the
        default SIGINT handler.  The next dispatch respawns.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _submit(self, payload: tuple):
        """Submit one batch, starting the executor first if none runs.
        Under fork the executor forks every worker inside its first
        ``submit``, so ``executor.pool_spawn`` covers both."""
        if self._executor is None:
            # Lazy: a module-level import costs every ``import repro`` 7 ms.
            from concurrent.futures import ProcessPoolExecutor

            self.stats.spawns += 1
            with obs.span("executor.pool_spawn", workers=self._size):
                self._executor = ProcessPoolExecutor(
                    self._size, mp_context=pool_context(),
                    initializer=_init_pool_worker)
                return self._submit(payload)
        return self._executor.submit(_run_wire_batch, payload)

    def run_batches(
        self,
        batches: List[Any],
        obs_config: Optional[Tuple[float, int]] = None,
        guard: _Guard = None,
        attempt: int = 0,
    ) -> Iterator[Tuple[int, Dict[str, Dict[str, Any]],
                        Dict[str, Dict[str, int]], Optional[dict],
                        Dict[str, Tuple[str, str]]]]:
        """Dispatch planner batches; yield ``(index, added, stats,
        trace_events, failed_keys)`` as each answers (completion order).

        A batch whose worker died raises ``BrokenProcessPool`` and stays
        pending: the pool respawns and re-submits it with the attempt
        number bumped, so deterministic fault-injection plans don't
        re-fire.  Any other exception a batch raises propagates.

        ``guard``/``attempt`` ship the failure-policy watchdog and
        fault-injection context to the workers (see :data:`_Guard`);
        ``failed_keys`` maps a failed task's store-entry key to its
        ``(error type, message)`` when the guard captures errors, and is
        empty otherwise.

        Any exception raised while results are in flight — including a
        ``KeyboardInterrupt`` or the consumer abandoning the iterator —
        closes the pool (:meth:`close`) before propagating.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        pending = {index: _encode_batch(batch)
                   for index, batch in enumerate(batches)}
        self.stats.dispatches += 1
        self.stats.batches += len(pending)
        self.stats.dep_entries += sum(len(chunk.deps) for batch in batches
                                      for chunk in batch)
        respawns = 0
        try:
            while pending:
                backlog = [(index, obs_config, wire, guard, attempt + respawns)
                           for index, wire in pending.items()]
                running: set = set()
                while backlog or running:
                    # One batch per worker at a time: none waits in the
                    # executor's queue, so close() waits only for running ones.
                    try:
                        while backlog and len(running) < self._size:
                            running.add(self._submit(backlog.pop(0)))
                    except BrokenProcessPool:
                        backlog = []  # a worker died: respawn below
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        try:
                            index, packed, stats, events, failed = \
                                future.result()
                        except BrokenProcessPool:
                            continue  # unanswered: re-submitted below
                        del pending[index]
                        yield (index, _unpack_added(packed), stats, events,
                               failed)
                if not pending:
                    break
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
                    self.close()
        except BaseException:
            self.close()
            raise
