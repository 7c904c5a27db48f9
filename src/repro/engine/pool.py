"""Persistent warm worker pool running stateless, self-contained batches.

:class:`WorkerPool` owns a :class:`concurrent.futures.ProcessPoolExecutor`
that *survives across* ``run_jobs`` calls.  That changes the economics
of the parallel sweep path in two ways:

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
  bookkeeping at all.  A payload is its chunks' ``(system, config,
  system_key, deps, tasks)`` and a reply the batch cache's new entries,
  both plain pickles: an entry is the same :mod:`repro.engine.codec`
  dict in a worker, on the wire and in the parent's cache.

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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.engine import faults
from repro.engine.cache import EvaluationCache, SystemStore, store_entry_key
from repro.exceptions import WorkerCrashError

#: Per-task guard shipped inside dispatch payloads:
#: ``(task_timeout_seconds, capture_errors, fault_plan_wire)`` — or
#: ``None`` for the unguarded fast path (no try/except per task at all).
_Guard = Optional[Tuple[Optional[float], bool, Optional[list]]]

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
    """Execute one planner batch; ship its new entries back.

    The batch runs against a fresh cache seeded with its chunks' deps
    and one fresh counts memo, so no state carries over from one batch
    to the next.  Each chunk's tasks share one (memoized) system build
    and one store scope; every chunk shares the memo, so the clock and
    scenario twins the planner packs together analyze each reference
    candidate once.  The whole batch answers in a single message: the
    entries it computed, its hit/miss counts, its trace events and its
    failures.

    ``guard`` (see :data:`_Guard`) arms :func:`run_tasks`' per-task
    watchdog, fault injection and failure capture; a captured failure
    rides back in the reply's ``failed`` map, so the surviving tasks of
    the batch still land in the cache.
    """
    index, obs_config, chunks, guard, attempt = payload
    _sync_tracing(obs_config)
    cache = EvaluationCache()
    counts_memo: Dict = {}
    failed: Dict[str, Tuple[str, str]] = {}
    if guard is not None:
        timeout, capture, plan_wire = guard
        guard = (timeout, capture, faults.FaultPlan.from_wire(plan_wire))
    with obs.span("worker.batch", segments=len(chunks),
                  tasks=sum(len(tasks) for *_context, tasks in chunks)):
        for system_name, config, system_key, deps, tasks in chunks:
            # adopt(), not merge(): the parent already holds these
            # entries, so they must not ride back with the results.
            cache.adopt({"mappings": deps})
            system = build_system(system_name, config, system_key, cache,
                                  counts_memo)
            run_tasks(system, system_name, system_key, tasks, guard,
                      attempt, failed)
    tracer = obs.current_tracer()
    events = tracer.drain() if tracer.enabled else None
    return (index, cache.pop_added(), cache.stats_snapshot(), events,
            failed)


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

        The executor holds at most one batch per worker.  A worker that
        answers is handed the next batch before its reply is yielded, so
        the workers keep computing while the caller merges the reply and
        assembles the jobs it completes.

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
        closes the pool (:meth:`close`) before propagating: running
        batches finish, the backlog is dropped, and the next dispatch
        respawns.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        pending = {index: [(chunk.system, chunk.config, chunk.system_key,
                            chunk.deps, chunk.tasks) for chunk in batch]
                   for index, batch in enumerate(batches)}
        self.stats.dispatches += 1
        self.stats.batches += len(pending)
        self.stats.dep_entries += sum(len(chunk.deps) for batch in batches
                                      for chunk in batch)
        respawns = 0
        try:
            while pending:
                backlog = [(index, obs_config, chunks, guard,
                            attempt + respawns)
                           for index, chunks in pending.items()]
                running: set = set()

                def refill() -> None:
                    # One batch per worker at a time: none waits in the
                    # executor's queue, so close() waits only for running
                    # ones.
                    nonlocal backlog
                    try:
                        while backlog and len(running) < self._size:
                            running.add(self._submit(backlog.pop(0)))
                    except BrokenProcessPool:
                        backlog = []  # a worker died: respawn below

                refill()
                while running:
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    # Freed workers take their next batch before the
                    # caller sees a reply, so they compute while it merges.
                    refill()
                    for future in done:
                        try:
                            reply = future.result()
                        except BrokenProcessPool:
                            continue  # unanswered: re-submitted below
                        del pending[reply[0]]
                        yield reply
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
