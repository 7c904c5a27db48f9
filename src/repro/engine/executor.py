"""Batch job execution: one pipeline, in-process or pooled, cache-aware.

:func:`run_jobs` is the engine's front door.  It takes a job list (a
compiled :class:`~repro.api.Study` or hand-made jobs), consults the
cache for finished results and returns evaluations in input order.
Every miss goes one way: lookup → plan → run tasks → assemble.

* **Plan.**  The planner (:mod:`repro.engine.planner`) expands each job
  into its mapper-search and layer-evaluation sub-tasks, deduplicated
  across the run's jobs and against the cache.
* **Run tasks.**  One guarded task loop
  (:func:`repro.engine.pool.run_tasks`) computes them, either
  in-process — each job planned and run when its turn comes — or on a
  process pool in configuration-affine batches (one system build per
  configuration, one result message per batch).
* **Assemble.**  Each :class:`~repro.model.results.NetworkEvaluation` is
  built in the parent from the warm cache as soon as the entries it
  reads are there: in-process right after the job's own tasks, pooled
  inside the merge of the batch that lands the job's last entry, while
  the workers run the rest.  The job's result dict embeds its cached
  layer dicts verbatim, and decoding it sums only the network totals —
  the per-layer objects are built only if a caller reads ``layers``.

The two ways of running tasks give bit-identical results (see
``tests/test_system_contract.py``): sub-results ship as JSON dicts whose
floats round-trip exactly, and ordering is restored by index.  Workers
hold no copy of the parent's cache: each chunk carries the cached mapper
searches its tasks read, and the entries a worker computes are shipped
back and merged into the parent's cache (and saved, when the cache has a
directory).  The parent is the only writer, which keeps the on-disk
image race-free.

When a tracer is active (:mod:`repro.obs`), every phase of this module
records spans — lookup, planning, pool spawn, dispatch, merge,
assembly — and workers record their own lanes against the parent's clock
epoch, shipping events back piggybacked on the existing result messages.
With tracing disabled (the default) the span calls hit the shared no-op
tracer and the worker messages carry no extra payload.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.engine import faults
from repro.engine.cache import EvaluationCache, store_entry_key
from repro.engine.codec import layer_to_dict, network_evaluation_from_dict
from repro.engine.jobs import EvaluationJob, job_system_key
from repro.engine.planner import Planner, SweepPlan, build_plan
from repro.engine.pool import WorkerPool, run_tasks
from repro.exceptions import SpecError
from repro.model.results import NetworkEvaluation

#: Per-record completion callback: ``(index, job, outcome)`` where
#: ``outcome`` is the job's :class:`~repro.model.results.
#: NetworkEvaluation` (or a :class:`JobFailure` under a capturing
#: failure policy).  Invoked exactly once per job — the moment its
#: result slot is filled (cache hit, in-process or pooled assembly,
#: quarantine, final failure) — in completion order, which is not
#: necessarily input order: a pooled run streams a job as the batch
#: holding its last entry lands, in index order among the jobs that
#: batch completes.  This is the streaming seam: callers can forward
#: each record while the rest of the batch is still computing.  An
#: exception raised by the callback aborts the run (the
#: cooperative-cancellation lever); on a pool it also closes the pool,
#: so no further batch starts.
OnRecordFn = Callable[
    [int, EvaluationJob, Union["NetworkEvaluation", "JobFailure"]], None]

CacheLike = Union[None, str, EvaluationCache]


def _as_cache(cache: CacheLike) -> Optional[EvaluationCache]:
    if cache is None or isinstance(cache, EvaluationCache):
        return cache
    return EvaluationCache(str(cache))


# ---------------------------------------------------------------------------
# Failure policy
# ---------------------------------------------------------------------------

_ON_ERROR = ("raise", "skip", "retry")


@dataclasses.dataclass(frozen=True)
class FailurePolicy:
    """How :func:`run_jobs` treats a job that raises (or times out).

    * ``on_error="raise"`` (the default) is fail-stop: the first error
      aborts the run, exactly as before this policy existed.
    * ``"skip"`` converts each failing job into a :class:`JobFailure`
      in the result list and lets the rest of the sweep finish.
    * ``"retry"`` re-attempts failing jobs up to ``max_retries`` times
      with exponential backoff (``backoff * 2**attempt`` seconds
      between rounds); a job that fails every attempt is *quarantined*
      — recorded in the cache's ``failures`` namespace so later runs
      skip it immediately — and surfaced as a :class:`JobFailure`.

    ``task_timeout`` (seconds, any mode) arms a per-task watchdog
    (:func:`repro.engine.faults.task_deadline`) around every planner
    sub-task, in-process and in pool workers alike; a task over the
    deadline raises :class:`~repro.exceptions.TaskTimeoutError`, and
    every job that needs the task then follows the ``on_error`` route
    like any other failure.
    """

    on_error: str = "raise"
    max_retries: int = 2
    backoff: float = 0.5
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.on_error not in _ON_ERROR:
            raise ValueError(
                f"unknown on_error {self.on_error!r}; "
                f"options: {', '.join(_ON_ERROR)}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")

    @property
    def captures(self) -> bool:
        """Whether failures become data instead of propagating."""
        return self.on_error != "raise"


@dataclasses.dataclass(frozen=True)
class JobFailure:
    """The per-job outcome slot a failed coordinate gets under a
    non-fail-stop :class:`FailurePolicy` (in place of its
    :class:`~repro.model.results.NetworkEvaluation`)."""

    error: str          # exception type name, e.g. "TaskTimeoutError"
    message: str
    attempts: int       # how many times the job was tried this run
    quarantined: bool = False


class _SubTaskFailed(Exception):
    """Internal: assembly hit an entry whose computation failed under
    the guard (carries the original error)."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.message = message


def run_job(job: EvaluationJob,
            cache: CacheLike = None) -> NetworkEvaluation:
    """Evaluate one job, going through the cache when one is given."""
    return run_jobs([job], cache=cache)[0]  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


def run_jobs(
    jobs: Sequence[EvaluationJob],
    workers: int = 1,
    cache: CacheLike = None,
    pool: Optional[WorkerPool] = None,
    failure_policy: Optional[FailurePolicy] = None,
    inject: Any = None,
    on_record: Optional[OnRecordFn] = None,
) -> List[Union[NetworkEvaluation, JobFailure]]:
    """Evaluate ``jobs``; results come back in input order.

    Every cache miss goes through one pipeline (see the module
    docstring): the planner expands it into the sub-tasks no earlier
    job and no cache entry covers, the tasks run, and the job is
    assembled from the entries they leave.  ``workers=1`` (or a single
    miss) runs each job's tasks in-process when its turn comes, so
    records stream in job order; ``workers>1`` plans every miss first,
    runs the tasks over a process pool and assembles each job as soon
    as the batch holding its last entry lands.  Both give bit-identical
    results.  ``cache`` may be an :class:`EvaluationCache`, a directory
    path (opened as a sharded store inside it — see
    :mod:`repro.engine.store` — safe to share between concurrent
    processes), or ``None``, in which case a run-local in-memory cache
    carries the sub-results.

    ``pool`` (a :class:`~repro.engine.pool.WorkerPool`) keeps the worker
    processes — and their warm architecture builds and search contexts
    — alive across calls, and runs at the pool's worker count.  Without
    it each parallel call spins up an ephemeral pool.

    ``failure_policy`` (a :class:`FailurePolicy`) decides what happens
    when a job raises or exceeds its deadline; under ``"skip"`` or
    ``"retry"`` the returned list holds a :class:`JobFailure` at each
    failed coordinate instead of an evaluation, and jobs the cache has
    quarantined as poison are skipped up front.  The default (``None``)
    is fail-stop, identical to the pre-policy behavior.  ``inject``
    feeds a deterministic fault plan (:mod:`repro.engine.faults` —
    a :class:`~repro.engine.faults.FaultPlan`, JSON path, or decoded
    data; ``None`` falls back to the ``REPRO_INJECT`` variable) to
    every sub-task and job, in-process or pooled, for testing the
    machinery above.

    ``on_record`` (an :data:`OnRecordFn`) is invoked exactly once per
    job as its outcome slot is assembled — cache hits during lookup,
    in-process or pooled assembly, quarantine pre-skips, and finalized
    failures alike — so callers can stream results out while later
    jobs are still running, on the pool as in-process.

    Tasks run in-process share this call's memo of reference counts
    (see :mod:`repro.systems.base`); no cache sees it.  Pool workers
    keep one such memo per batch, and the planner packs configurations
    that differ only in clock or scenario into one batch.
    """
    cache = _as_cache(cache)
    counts_memo: Dict = {}
    if pool is not None:
        workers = max(workers, pool.workers)
    jobs = list(jobs)
    total = len(jobs)
    results: List[Optional[Union[NetworkEvaluation, JobFailure]]] = \
        [None] * total

    policy = failure_policy
    fault_plan = faults.resolve_plan(inject)
    capture = policy is not None and policy.captures
    timeout = policy.task_timeout if policy is not None else None
    guard = None
    if capture or timeout or fault_plan:
        guard = (timeout, capture,
                 fault_plan.to_wire() if fault_plan else None)

    with obs.span("run_jobs", jobs=total, workers=workers) as run_span:
        # Resolve whole-job cache hits up front (counts the hits/misses).
        # Job identity dicts/keys are memoized on the jobs themselves, so
        # planning and assembly below never rebuild the architecture
        # serialization.
        misses: List[int] = []
        with obs.span("run_jobs.lookup", jobs=total):
            for index, job in enumerate(jobs):
                if cache is None:
                    misses.append(index)
                    continue
                cached = cache.get_result(job.key)
                if cached is None:
                    misses.append(index)
                else:
                    results[index] = network_evaluation_from_dict(cached)
                    if on_record is not None:
                        on_record(index, job, results[index])
        run_span.set("misses", len(misses))

        # Coordinates the cache has quarantined as poison are answered
        # up front (as failures) instead of being re-attempted — a rerun
        # over a half-failed sweep only pays for the undecided jobs.
        if capture and cache is not None and misses:
            screened: List[int] = []
            for index in misses:
                poison = cache.peek("failures", jobs[index].key)
                if poison is None:
                    screened.append(index)
                    continue
                results[index] = JobFailure(
                    error="JobQuarantinedError",
                    message=(f"quarantined after "
                             f"{poison.get('attempts', '?')} failed "
                             f"attempts ({poison.get('error')}: "
                             f"{poison.get('message')})"),
                    attempts=0, quarantined=True)
                if on_record is not None:
                    on_record(index, jobs[index], results[index])
            misses = screened

        # Misses run against the caller's cache, or a run-local one: the
        # planner dedups against it, and assembly reads from it.
        work_cache = cache if cache is not None else EvaluationCache()
        remaining = misses
        attempt = 0
        while remaining:
            round_failures: Dict[int, Tuple[str, str]] = {}
            _execute_round(jobs, remaining, results, work_cache, workers,
                           pool, guard, attempt, round_failures,
                           counts_memo, on_record)
            if not round_failures:
                break
            if cache is not None:
                for etype, _message in round_failures.values():
                    if etype == "TaskTimeoutError":
                        cache.resilience.timeouts += 1
            retrying = (policy.on_error == "retry"
                        and attempt < policy.max_retries)
            if not retrying:
                # Out of attempts (or skip mode): finalize the failures.
                # Retry-mode exhaustion additionally quarantines — the
                # job failed identically on every attempt, so reruns
                # should not pay for it again.
                for index in sorted(round_failures):
                    etype, message = round_failures[index]
                    quarantined = False
                    if policy.on_error == "retry" and cache is not None:
                        cache.put("failures", jobs[index].key, {
                            "error": etype,
                            "message": message,
                            "attempts": attempt + 1,
                            "label": jobs[index].describe(),
                        })
                        cache.resilience.quarantines += 1
                        quarantined = True
                    results[index] = JobFailure(
                        error=etype, message=message,
                        attempts=attempt + 1, quarantined=quarantined)
                    if on_record is not None:
                        on_record(index, jobs[index], results[index])
                break
            delay = policy.backoff * (2 ** attempt)
            if cache is not None:
                cache.resilience.retries += len(round_failures)
            remaining = sorted(round_failures)
            attempt += 1
            with obs.span("executor.retry", jobs=len(remaining),
                          attempt=attempt, delay=delay):
                if delay > 0:
                    time.sleep(delay)

        if cache is not None and cache.directory is not None \
                and cache.needs_flush:
            cache.save()
    return results  # type: ignore[return-value]


def _execute_round(
    jobs: List[EvaluationJob],
    misses: List[int],
    results: List[Optional[Union[NetworkEvaluation, JobFailure]]],
    cache: EvaluationCache,
    workers: int,
    pool: Optional[WorkerPool],
    guard,
    attempt: int,
    round_failures: Dict[int, Tuple[str, str]],
    counts_memo: Dict,
    on_record: Optional[OnRecordFn] = None,
) -> None:
    """One (re)attempt at the given miss indices (see :func:`run_jobs`).

    Plans the misses into sub-tasks, runs them, and assembles each job
    from the entries they leave in ``cache``.  With several workers and
    several misses the whole round is planned first and its tasks run
    on the pool, and each job is assembled as soon as the last entry it
    waits on lands; otherwise each job is planned, run and assembled in
    turn, in-process.  Either way a record streams before the round ends.
    Under a capturing guard, a failing job lands in ``round_failures``
    as ``index -> (error type, message)`` instead of raising; successful
    jobs fill ``results`` and fire ``on_record`` (failures do not — they
    are not final until the retry loop gives up on them).
    """
    capture = guard is not None and guard[1]
    fault_plan = (faults.FaultPlan.from_wire(guard[2])
                  if guard is not None else None)
    recipes: Dict[Tuple, Tuple[List, List]] = {}
    failed: Dict[str, Tuple[str, str]] = {}

    def finish(index: int, systems: Dict[str, Any]) -> None:
        job = jobs[index]
        try:
            # Job-level injected faults (``...:job`` keys) fire here, on
            # every execution path.
            if fault_plan is not None:
                fault_plan.check(faults.job_task_key(job), attempt)
            result_dict = _assemble_job(job, systems[job_system_key(job)],
                                        cache, recipes, failed)
            cache.put_result(job.key, result_dict)
            results[index] = network_evaluation_from_dict(result_dict)
        except _SubTaskFailed as error:
            # A sub-task this job needs failed under the guard: route the
            # job through the policy rather than recompute the task.
            round_failures[index] = (error.error, error.message)
            return
        except Exception as error:
            if not capture:
                raise
            round_failures[index] = (type(error).__name__, str(error))
            return
        if on_record is not None:
            on_record(index, job, results[index])

    if workers > 1 and len(misses) > 1:
        sweep_plan = build_plan([jobs[index] for index in misses], cache,
                                workers)
        # A job is assembled in the parent (pure cache lookups, so
        # nothing is shipped twice) once every layer entry it waits on
        # has landed or failed: inside the merge of the batch that
        # completes it, while the workers run the rest.
        pending = dict(zip(misses, sweep_plan.waits))
        waiting: Dict[str, List[int]] = {}
        for index, keys in pending.items():
            for key in keys:
                waiting.setdefault(key, []).append(index)

        def assemble(indices: List[int]) -> None:
            if indices:
                with obs.span("run_jobs.assemble", jobs=len(indices)):
                    for index in indices:
                        finish(index, sweep_plan.systems)

        def landed(keys: Iterable[str]) -> None:
            ready = []
            for key in keys:
                for index in waiting.pop(key, ()):
                    pending[index].discard(key)
                    if not pending[index]:
                        ready.append(index)
            assemble(sorted(ready))

        assemble([index for index in misses if not pending[index]])
        _execute_phase1(sweep_plan, cache, workers, failed, landed,
                        pool=pool, guard=guard, attempt=attempt)
        # An entry planned but never stored leaves its jobs waiting;
        # assembly names it.
        assemble([index for index in misses if pending[index]])
        return

    # In-process: one planner for the round, so a task planned (or
    # failed) for an earlier job is neither run nor retried for a later
    # one; its systems, one per configuration, share the run's memo.
    planner = Planner(cache, counts_memo)
    task_guard = None if guard is None else (guard[0], capture, fault_plan)
    with obs.span("run_jobs.serial", jobs=len(misses)):
        try:
            for index in misses:
                try:
                    chunk = planner.expand(jobs[index])
                    if chunk.tasks:
                        run_tasks(planner.systems[chunk.system_key],
                                  chunk.system, chunk.system_key,
                                  chunk.tasks, task_guard, attempt, failed)
                except Exception as error:
                    if not capture:
                        raise
                    round_failures[index] = (type(error).__name__,
                                             str(error))
                    continue
                with obs.span("run_jobs.assemble", jobs=1):
                    finish(index, planner.systems)
        finally:
            planner.report()


def _assembly_recipe(system: Any, job: EvaluationJob) -> Tuple[List, List]:
    """What assembling ``job`` looks up: its distinct store keys, in
    first-use order, and per layer block ``(index into them, count,
    layer dict)`` — the same fusion-block walk :meth:`evaluate_network`
    performs, with each entry's own layer to attach to what it reads."""
    from repro.model.accelerator import fusion_blocks

    network_entries = job.network.entries
    slots: Dict[Tuple, int] = {}
    steps = []
    for index, network_entry in enumerate(network_entries):
        is_last = index == len(network_entries) - 1
        layer = network_entry.layer
        layer_spec = layer_to_dict(layer)
        for input_dram, output_dram, count in fusion_blocks(
                network_entry, is_last, job.fused):
            store_key = system._layer_store_key(
                layer, job.use_mapper, input_dram, output_dram)
            steps.append((slots.setdefault(store_key, len(slots)), count,
                          layer_spec))
    return list(slots), steps


def _assemble_job(
    job: EvaluationJob,
    system: Any,
    cache: EvaluationCache,
    recipes: Dict[Tuple, Tuple[List, List]],
    failed_entries: Dict[str, Tuple[str, str]],
) -> Dict[str, Any]:
    """Build a job's result dict straight from warm layer entries.

    ``system`` is the planner's system for the job's configuration:
    assembly reads only its store keys, its fusion check and its
    architecture.

    The dict form of what :meth:`~repro.systems.base.PhotonicSystem.
    evaluate_network` would return: the cached per-layer dicts are the
    exact serializations the object path would decode and re-encode, so
    embedding them verbatim is bit-identical and skips both conversions.
    Each distinct store key is peeked, failure-checked and (under
    ``include_dram=False``, the accelerator-only view of Figs. 2 and 5)
    stripped of DRAM rows once per job; same-shape layers embed shallow
    copies carrying their own layer dict and sharing one rows list.  A
    missing entry listed in ``failed_entries`` (its computation failed
    under the failure-policy guard) raises :class:`_SubTaskFailed`, so
    the caller routes the job through the policy.  Any other missing
    entry means the system's sub-task seams disagree with this walk: a
    :class:`~repro.exceptions.SpecError` names the job and the key.

    ``recipes`` (per round) memoizes the store-key walk for systems
    whose task keys are configuration-free, so a sweep of many
    configurations over one network derives the keys once.
    """
    from repro.model.accelerator import NetworkOptions

    if job.fused:
        # Same validation (and failure) the evaluation path applies.
        system.model._check_fusion_capacity(job.network,
                                            NetworkOptions(fused=True))
    system_key = job_system_key(job)
    recipe = None
    memo_key = None
    if getattr(system, "subtask_keys_config_free", False):
        memo_key = (type(system), id(job.network), job.fused,
                    job.use_mapper)
        recipe = recipes.get(memo_key)
    if recipe is None:
        recipe = _assembly_recipe(system, job)
        if memo_key is not None:
            recipes[memo_key] = recipe
    store_keys, steps = recipe
    resolved = []
    for store_key in store_keys:
        key = store_entry_key(system_key, store_key)
        layer_dict = cache.peek("layers", key)
        if layer_dict is None:
            if key in failed_entries:
                raise _SubTaskFailed(*failed_entries[key])
            raise SpecError(
                f"{job.describe()}: layer entry {key} was planned but "
                f"never computed; {job.system}'s sub-task seams disagree "
                f"with assembly")
        rows = layer_dict["energy"]
        if not job.include_dram:
            rows = [row for row in rows if row[0] != "DRAM"]
        resolved.append((layer_dict, rows))
    layers = []
    for slot, count, layer_spec in steps:
        layer_dict, rows = resolved[slot]
        if layer_dict["layer"] != layer_spec or not job.include_dram:
            layer_dict = dict(layer_dict, layer=layer_spec, energy=rows)
        layers.append([layer_dict, count])
    return {
        "name": job.network.name,
        "layers": layers,
        "clock_ghz": system.architecture.clock_ghz,
        "peak_parallelism": system.architecture.peak_parallelism,
    }


def _execute_phase1(
    sweep_plan: SweepPlan,
    cache: EvaluationCache,
    workers: int,
    failed_entries: Dict[str, Tuple[str, str]],
    landed: Callable[[Iterable[str]], None],
    pool: Optional[WorkerPool] = None,
    guard=None,
    attempt: int = 0,
) -> None:
    """Run the plan's unique sub-tasks over a pool; merge results.

    With a caller-supplied :class:`WorkerPool` the workers (and their
    warm state) survive this call; otherwise an ephemeral pool of at
    most one worker per batch is spun up and torn down here.

    ``guard``/``attempt`` ship the failure-policy/fault-injection
    context to the workers.  Each batch's failed entries (store entry
    key -> ``(error type, message)``, only under a capturing guard) go
    into ``failed_entries``; then ``landed`` gets the keys of the
    batch's new layer entries and failed entries, after the merge.  An
    exception from ``landed`` abandons the dispatch, which closes the
    pool (see :meth:`WorkerPool.run_batches`).  Worker respawns the
    pool performed during this dispatch are folded into the cache's
    resilience counters.
    """
    tracer = obs.current_tracer()
    if sweep_plan.batches:
        with obs.span("executor.phase1", batches=len(sweep_plan.batches),
                      tasks=sweep_plan.phase1_tasks):
            obs_config = (tracer.worker_config() if tracer.enabled
                          else None)
            owned = pool is None
            if owned:
                pool = WorkerPool(min(workers, len(sweep_plan.batches)))
            respawns_before = pool.stats.respawns
            stream = None
            try:
                # The dispatch span's *self* time is the parent-side
                # pickle/submit/decode overhead; the blocking receive is
                # carved out into ``executor.wait`` child spans (that
                # wall-clock is worker compute — it shows up on the
                # worker lanes — not parent overhead).
                with obs.span("executor.dispatch",
                              batches=len(sweep_plan.batches)) as dispatch:
                    stream = pool.run_batches(sweep_plan.batches,
                                              obs_config, guard=guard,
                                              attempt=attempt)
                    while True:
                        with obs.span("executor.wait"):
                            item = next(stream, None)
                        if item is None:
                            break
                        _index, added, stats, events, failed = item
                        with obs.span("executor.merge"):
                            cache.merge(added)
                            cache.absorb_stats(stats)
                            if events:
                                tracer.absorb(events)
                            if failed:
                                failed_entries.update(failed)
                        dispatch.add("messages")
                        landed(itertools.chain(added.get("layers", ()),
                                               failed))
            finally:
                if stream is not None:
                    stream.close()  # an abandoned dispatch closes the pool
                cache.resilience.respawns += (pool.stats.respawns
                                              - respawns_before)
                if owned:
                    pool.close()
