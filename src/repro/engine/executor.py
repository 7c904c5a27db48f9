"""Batch job execution: serial or multiprocessing, cache-aware, ordered.

:func:`run_jobs` is the engine's front door.  It takes a job list (from
the sweep builders or hand-assembled), consults the cache for finished
results, computes the misses — serially or across a process pool — and
returns evaluations in input order.  Parallel execution is verified (see
``tests/test_engine.py``) to produce bit-identical results to serial
execution: sub-results ship as JSON dicts whose floats round-trip
exactly, and ordering is restored by index.

Parallel batches run in two phases.  A planner
(:mod:`repro.engine.planner`) expands the miss jobs into their unique
mapper-search and layer-evaluation sub-tasks — deduplicated across the
whole batch and against the cache — and phase 1 executes those over the
pool in configuration-affine chunks (one system build per chunk, one
result message per chunk).  Phase 2 then assembles every
:class:`~repro.model.results.NetworkEvaluation` in the parent from the
now-warm cache: each job's result dict embeds its cached layer dicts
verbatim, and decoding it sums only the network totals — the per-layer
objects are built only if a caller reads ``layers``.

Workers hold no copy of the parent's cache: each chunk carries the
cached mapper searches its tasks read, and the entries a worker computes
are shipped back and merged into the parent's cache (and saved, when
the cache has a directory).  The parent is the only writer, which keeps
the on-disk image race-free.

When a tracer is active (:mod:`repro.obs`), every phase of this module
records spans — lookup, planning, pool spawn, dispatch, merge,
assembly — and workers record their own lanes against the parent's clock
epoch, shipping events back piggybacked on the existing result messages.
With tracing disabled (the default) the span calls hit the shared no-op
tracer and the worker messages carry no extra payload.
"""

from __future__ import annotations

import dataclasses
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.engine import faults
from repro.engine.cache import EvaluationCache, SystemStore, store_entry_key
from repro.engine.codec import (
    layer_to_dict,
    network_evaluation_from_dict,
    network_evaluation_to_dict,
)
from repro.engine.jobs import EvaluationJob, job_system_key, system_registry
from repro.engine.planner import SweepPlan, build_plan
from repro.engine.pool import WorkerPool
from repro.model.results import (
    EnergyBreakdown,
    NetworkEvaluation,
)

#: Per-record completion callback: ``(index, job, outcome)`` where
#: ``outcome`` is the job's :class:`~repro.model.results.
#: NetworkEvaluation` (or a :class:`JobFailure` under a capturing
#: failure policy).  Invoked exactly once per job — the moment its
#: result slot is assembled, on every execution path (cache hit, serial,
#: planned parallel, quarantine, final failure) —
#: in completion order, which is not necessarily input order.  This is
#: the streaming seam: callers can forward each record while the rest
#: of the batch is still computing.  An exception raised by the
#: callback aborts the run (the cooperative-cancellation lever).
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
    (:func:`repro.engine.faults.task_deadline`) around every job and
    planner sub-task; a task over the deadline raises
    :class:`~repro.exceptions.TaskTimeoutError`, which then follows the
    ``on_error`` route like any other failure.
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
    """Internal: phase-2 assembly hit an entry whose worker-side
    computation failed under the guard (carries the original error)."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.message = message


def strip_dram(evaluation: NetworkEvaluation) -> NetworkEvaluation:
    """Drop DRAM entries (the accelerator-only view of Figs. 2 and 5).

    Only the ``energy`` field is rewritten — ``dataclasses.replace``
    carries every other field through unchanged, so a field added to
    :class:`~repro.model.results.LayerEvaluation` later cannot be
    silently dropped here (regression-tested in ``tests/test_engine.py``).
    """
    stripped = []
    for layer_eval, count in evaluation.layers:
        entries = {
            key: value
            for key, value in layer_eval.energy.entries().items()
            if key[0] != "DRAM"
        }
        stripped.append((
            dataclasses.replace(layer_eval, energy=EnergyBreakdown(entries)),
            count,
        ))
    return dataclasses.replace(evaluation, layers=tuple(stripped))


# ---------------------------------------------------------------------------
# Single-job execution
# ---------------------------------------------------------------------------


def _compute_job(job: EvaluationJob,
                 cache: Optional[EvaluationCache],
                 counts_memo: Optional[Dict] = None) -> NetworkEvaluation:
    """Evaluate ``job`` (no whole-result cache lookup; sub-results cached).

    The identity dict (an architecture build + full serialization) is only
    computed when a cache needs keys — and is memoized on the job itself —
    so uncached runs skip it entirely and cached runs pay for it once.
    """
    entry = system_registry()[job.system]
    with obs.span("job.compute", job=job.describe(), system=job.system):
        with obs.span("system.build", system=job.system):
            store = (SystemStore(cache, job_system_key(job), counts_memo)
                     if cache is not None else None)
            system = entry.system_type(job.config, store=store)
        evaluation = system.evaluate_network(
            job.network, fused=job.fused, use_mapper=job.use_mapper)
        if not job.include_dram:
            evaluation = strip_dram(evaluation)
        if cache is not None:
            cache.put_result(job.key, network_evaluation_to_dict(evaluation))
    return evaluation


def run_job(job: EvaluationJob,
            cache: CacheLike = None) -> NetworkEvaluation:
    """Evaluate one job, going through the cache when one is given."""
    cache = _as_cache(cache)
    if cache is None:
        return _compute_job(job, None)
    cached = cache.get_result(job.key)
    if cached is not None:
        return network_evaluation_from_dict(cached)
    return _compute_job(job, cache)


def _guarded_compute(job: EvaluationJob,
                     cache: Optional[EvaluationCache],
                     guard, attempt: int,
                     counts_memo: Dict) -> NetworkEvaluation:
    """:func:`_compute_job` under the failure-policy guard: arm the
    task-deadline watchdog and consult the fault-injection plan.  With
    ``guard=None`` this is exactly ``_compute_job`` (zero overhead)."""
    if guard is None:
        return _compute_job(job, cache, counts_memo)
    timeout, _capture, plan_wire = guard
    plan = faults.FaultPlan.from_wire(plan_wire)
    with faults.task_deadline(timeout):
        if plan is not None:
            plan.check(faults.job_task_key(job), attempt)
        return _compute_job(job, cache, counts_memo)


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

    ``workers=1`` runs in-process, sharing sub-results through the
    cache as it goes.  ``workers>1`` plans the cache misses into unique
    sub-tasks, runs them over a ``multiprocessing`` pool and assembles
    the results in the parent (see the module docstring); results are
    bit-identical to the serial path.  ``cache`` may be an
    :class:`EvaluationCache`, a directory path (opened as a sharded
    store inside it — see :mod:`repro.engine.store` — safe to share
    between concurrent processes), or ``None``.

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
    every execution path, for testing the machinery above.

    ``on_record`` (an :data:`OnRecordFn`) is invoked exactly once per
    job as its outcome slot is assembled — cache hits during lookup,
    serial completions, parallel phase-2 assembly, quarantine
    pre-skips, and finalized failures alike — so callers can stream
    results out while later jobs are still running.

    Jobs computed in-process share this call's memo of reference counts
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
        # the serial path below never rebuilds the architecture
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

        remaining = misses
        attempt = 0
        while remaining:
            round_failures: Dict[int, Tuple[str, str]] = {}
            _execute_round(jobs, remaining, results, cache, workers, pool,
                           guard, attempt, round_failures, counts_memo,
                           on_record)
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
    cache: Optional[EvaluationCache],
    workers: int,
    pool: Optional[WorkerPool],
    guard,
    attempt: int,
    round_failures: Dict[int, Tuple[str, str]],
    counts_memo: Dict,
    on_record: Optional[OnRecordFn] = None,
) -> None:
    """One (re)attempt at the given miss indices (see :func:`run_jobs`).

    Runs the misses through the planner and the pool, or serially when
    there is a single worker or a single miss.  Under a capturing guard,
    a failing job lands in ``round_failures`` as ``index -> (error type,
    message)`` instead of raising; successful jobs fill ``results`` and
    fire ``on_record`` (failures do not — they are not final until the
    retry loop gives up on them).
    """
    capture = guard is not None and guard[1]
    if workers > 1 and len(misses) > 1:
        # The planner needs a cache to dedup against and assemble from;
        # a cache-less parallel run plans through a run-local one
        # (discarded afterwards — results are what matters).
        work_cache = cache if cache is not None else EvaluationCache()
        sweep_plan = build_plan([jobs[index] for index in misses],
                                work_cache, workers)
        failed_entries = _execute_phase1(sweep_plan, work_cache, workers,
                                         pool=pool, guard=guard,
                                         attempt=attempt)
        # Phase 2: every sub-result is now warm — assembling the network
        # evaluations is pure cache lookups, done in the parent so
        # nothing is shipped twice.
        fault_plan = (faults.FaultPlan.from_wire(guard[2])
                      if guard is not None else None)
        with obs.span("run_jobs.assemble", jobs=len(misses)):
            recipes: Dict[Tuple, List[Tuple]] = {}
            for index in misses:
                job = jobs[index]
                try:
                    # Job-level injected faults (``...:job`` keys) fire
                    # on every execution path — here, before assembly
                    # short-circuits the work.
                    if fault_plan is not None:
                        fault_plan.check(faults.job_task_key(job), attempt)
                    result_dict = _assemble_job(job, work_cache, recipes,
                                                failed_entries)
                    if result_dict is not None:
                        work_cache.put_result(job.key, result_dict)
                        results[index] = \
                            network_evaluation_from_dict(result_dict)
                    else:  # an entry is missing: evaluate normally
                        results[index] = _guarded_compute(
                            job, work_cache, guard, attempt, counts_memo)
                except _SubTaskFailed as failed:
                    # A sub-task this job needs failed under the guard.
                    # Do NOT fall back to parent-side compute — a
                    # timed-out task would just be recomputed without
                    # its budget; route it through the policy instead.
                    round_failures[index] = (failed.error, failed.message)
                    continue
                except Exception as error:
                    if not capture:
                        raise
                    round_failures[index] = (type(error).__name__,
                                             str(error))
                    continue
                if on_record is not None:
                    on_record(index, job, results[index])
    else:
        with obs.span("run_jobs.serial", jobs=len(misses)):
            for index in misses:
                try:
                    results[index] = _guarded_compute(
                        jobs[index], cache, guard, attempt, counts_memo)
                except Exception as error:
                    if not capture:
                        raise
                    round_failures[index] = (type(error).__name__,
                                             str(error))
                    continue
                if on_record is not None:
                    on_record(index, jobs[index], results[index])


def _assembly_recipe(system: Any, job: EvaluationJob) -> List[Tuple]:
    """The (store key, count, layer dict) sequence assembling ``job``
    looks up — the same fusion-block walk :meth:`evaluate_network`
    performs, with each entry's own layer to attach to what it reads."""
    from repro.model.accelerator import fusion_blocks

    network_entries = job.network.entries
    recipe = []
    for index, network_entry in enumerate(network_entries):
        is_last = index == len(network_entries) - 1
        layer = network_entry.layer
        layer_spec = layer_to_dict(layer)
        for input_dram, output_dram, count in fusion_blocks(
                network_entry, is_last, job.fused):
            recipe.append((system._layer_store_key(
                layer, job.use_mapper, input_dram, output_dram),
                count, layer_spec))
    return recipe


def _assemble_job(
    job: EvaluationJob,
    cache: EvaluationCache,
    recipes: Optional[Dict[Tuple, List[Tuple]]] = None,
    failed_entries: Optional[Dict[str, Tuple[str, str]]] = None,
) -> Optional[Dict[str, Any]]:
    """Build a job's result dict straight from warm layer entries.

    The dict form of what :meth:`~repro.systems.base.PhotonicSystem.
    evaluate_network` would return: the cached per-layer dicts are the
    exact serializations the object path would decode and re-encode, so
    embedding them verbatim is bit-identical and skips both conversions.
    Layer entries are shared by shape, so an entry stored under another
    same-shape layer is embedded as a shallow copy carrying this job's
    own layer dict.  Returns ``None`` when any entry is missing — the
    caller then falls back to ordinary evaluation.  When the missing
    entry is listed in ``failed_entries`` (its phase-1 computation
    failed under the failure-policy guard), :class:`_SubTaskFailed` is
    raised instead so the caller routes the job through the policy
    rather than silently recomputing a known-failing task.

    ``recipes`` (optional, per-run) memoizes the store-key walk for
    systems whose task keys are configuration-free, so a sweep of many
    configurations over one network derives the keys once.
    """
    from repro.model.accelerator import NetworkOptions

    system = system_registry()[job.system].system_type(job.config)
    if job.fused:
        # Same validation (and failure) the evaluation path applies.
        system.model._check_fusion_capacity(job.network,
                                            NetworkOptions(fused=True))
    system_key = job_system_key(job)
    recipe = None
    memo_key = None
    if recipes is not None \
            and getattr(system, "subtask_keys_config_free", False):
        memo_key = (type(system), id(job.network), job.fused,
                    job.use_mapper)
        recipe = recipes.get(memo_key)
    if recipe is None:
        recipe = _assembly_recipe(system, job)
        if memo_key is not None:
            recipes[memo_key] = recipe
    layers = []
    for store_key, count, layer_spec in recipe:
        key = store_entry_key(system_key, store_key)
        layer_dict = cache.peek("layers", key)
        if layer_dict is None:
            if failed_entries and key in failed_entries:
                raise _SubTaskFailed(*failed_entries[key])
            return None
        if layer_dict["layer"] != layer_spec or not job.include_dram:
            layer_dict = dict(layer_dict, layer=layer_spec)
            if not job.include_dram:
                layer_dict["energy"] = [
                    row for row in layer_dict["energy"] if row[0] != "DRAM"
                ]
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
    pool: Optional[WorkerPool] = None,
    guard=None,
    attempt: int = 0,
) -> Dict[str, Tuple[str, str]]:
    """Run the plan's unique sub-tasks over a pool; merge results.

    With a caller-supplied :class:`WorkerPool` the workers (and their
    warm state) survive this call; otherwise an ephemeral pool of at
    most one worker per batch is spun up and torn down here.

    ``guard``/``attempt`` ship the failure-policy/fault-injection
    context to the workers.  Returns the failed-entry map (store entry
    key -> ``(error type, message)``) collected from the workers —
    empty when nothing failed or the guard isn't capturing.  Worker
    respawns the pool performed during this dispatch are folded into
    the cache's resilience counters.
    """
    tracer = obs.current_tracer()
    failed_entries: Dict[str, Tuple[str, str]] = {}
    if sweep_plan.batches:
        with obs.span("executor.phase1", batches=len(sweep_plan.batches),
                      tasks=sweep_plan.phase1_tasks):
            obs_config = (tracer.worker_config() if tracer.enabled
                          else None)
            owned = pool is None
            if owned:
                pool = WorkerPool(min(workers, len(sweep_plan.batches)))
            respawns_before = pool.stats.respawns
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
            finally:
                cache.resilience.respawns += (pool.stats.respawns
                                              - respawns_before)
                if owned:
                    pool.close()
    return failed_entries
