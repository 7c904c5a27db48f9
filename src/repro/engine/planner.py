"""Layer-grain sweep planning: jobs in, deduplicated task chunks out.

:func:`run_jobs` runs every batch of whole-network jobs as sub-tasks
planned here.  Each job is expanded into the sub-tasks its evaluation
would memoize through the ``store`` seam — mapper searches and
per-layer evaluations, enumerated by
:meth:`repro.systems.base.PhotonicSystem.enumerate_sub_tasks` — and the
expansion is deduplicated two ways:

* **by store key**, within a job and across the batch.  Store keys name
  a layer's shape, not the layer, so same-geometry layers (ResNet18's
  repeated block shapes) compute once per configuration and share one
  entry, as do repeated fusion-block flag pairs and the tasks of jobs
  sharing a configuration;
* **against the cache**, so warm entries are never re-planned.

An in-process run expands each job when its turn comes
(:class:`Planner`) and runs its new tasks at once.  A pooled run plans
the whole batch first (:func:`build_plan`) and groups the unique
remainder into :class:`TaskChunk` payloads with configuration affinity:
every task of one ``system_key`` travels in one chunk (split at
mapper-dependency boundaries only when oversized), so a worker builds
each architecture/energy table once, shares one system instance across
the chunk's tasks, and ships all results back in a single message.
A chunk also carries the few cached entries its tasks read
(:attr:`TaskChunk.deps`), so a worker needs no copy of the cache.
Chunks are packed into batches by geometry (:func:`_balance`):
configurations that differ only in clock or scenario ride in one batch,
whose worker analyzes their reference candidates once and prices them
per configuration, as an in-process run does.  Reassembling
whole-network evaluations from the warmed cache is cheap and runs in
the parent (:func:`repro.engine.executor.run_jobs`): the plan records
which planned layer entries each job waits on
(:attr:`SweepPlan.waits`), so a job is assembled as soon as they land.

Planning never changes what is computed, only where and how often:
in-process and pooled results are bit-identical, and whole-job cache
keys are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro import obs
from repro.engine.cache import EvaluationCache, store_entry_key
from repro.engine.jobs import EvaluationJob, job_system_key
from repro.engine.pool import build_system

#: Namespace a sub-task kind persists into.
_TASK_NAMESPACE = {"mapper": "mappings", "layer": "layers"}


@dataclass
class TaskChunk:
    """One phase-1 worker payload: a run of sub-tasks sharing a system.

    Tasks are ordered mapper-first, so a chunk's layer evaluations find
    their searches already in the worker-local store.  ``clusters``
    (parallel to ``tasks``, planner-internal) tags each task with the
    mapper search it produces or consumes, so splitting never separates
    a layer task from the search it depends on.

    ``deps`` (entry key -> entry) holds the cached ``mappings`` entries
    the chunk's tasks read: the searches its ``use_mapper`` layer tasks
    consume that were already cached at plan time.  Nothing else is
    needed: a layer task is planned only when its own entry is missing,
    and a search that is not cached rides in the chunk as a task.
    """

    system: str
    config: Any
    system_key: str
    tasks: List[Any] = field(default_factory=list)
    clusters: List[Any] = field(default_factory=list)
    deps: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass
class SweepPlan:
    """The planner's output: what phase 1 runs and what it skipped.

    ``batches`` are the pool dispatch units: each is a list of
    :class:`TaskChunk` segments executed back to back by one worker,
    which ships all their results in a single message.  A chunk (one
    ``system_key``'s tasks) is never divided across batches unless it
    was itself oversized, so configuration affinity survives packing,
    and the chunks of one geometry share a batch unless together they
    are oversized.

    ``systems`` maps each planned job's ``system_key`` to the system the
    planner built for it, which assembly reuses.  ``waits`` holds, per
    planned job in input order, the layer entry keys it reads that the
    cache lacked at plan time: the job can be assembled once each of
    them has landed or failed.
    """

    batches: List[List[TaskChunk]]
    planned: int = 0
    deduplicated: int = 0
    cache_hits: int = 0
    systems: Dict[str, Any] = field(default_factory=dict)
    waits: List[Set[str]] = field(default_factory=list)

    @property
    def chunks(self) -> List[TaskChunk]:
        return [chunk for batch in self.batches for chunk in batch]

    @property
    def phase1_tasks(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)


class Planner:
    """Expands jobs into sub-tasks one at a time, against ``cache``.

    A task is kept only when no job expanded before it planned the same
    entry and the cache lacks it.  :func:`build_plan` expands a whole
    batch for the pool; an in-process run (:func:`repro.engine.executor.
    run_jobs`) expands each job when its turn comes, so both plan the
    same tasks for one job list.

    Each configuration gets one system, stored in ``cache`` and sharing
    ``counts_memo`` (the run's reference counts; see
    :mod:`repro.systems.base`).  It serves keys, geometry and expansion
    here, runs the configuration's tasks in-process, and assembles its
    jobs.  The pool path's parent only plans and assembles with it, so
    it builds that system's energy table and model only to check a
    fused job's buffer capacity.
    """

    def __init__(self, cache: EvaluationCache, counts_memo: Dict) -> None:
        self.cache = cache
        self.counts_memo = counts_memo
        self.planned = self.deduplicated = self.cache_hits = self.tasks = 0
        #: system_key -> the configuration's system.
        self.systems: Dict[str, Any] = {}
        #: Per expanded job: the layer entry keys it reads that the cache
        #: lacked at plan time (planned by it or by an earlier job).
        self.waits: List[Set[str]] = []
        # Entry keys already planned or cached -> whether the key is a
        # layer entry planned this round (one a job's assembly waits on).
        self._seen: Dict[str, bool] = {}
        # (system class, network identity, fused, use_mapper) ->
        # [(task, store key), ...].  Systems declaring their task keys
        # configuration-free (all built-ins) expand each network once per
        # run instead of once per job; the jobs keep their networks
        # alive, so identity keying is stable here.
        self._expansions: Dict[Tuple, List[Tuple[Any, Tuple]]] = {}

    def expand(self, job: EvaluationJob) -> TaskChunk:
        """``job``'s new sub-tasks, as a chunk of its configuration."""
        system_key = job_system_key(job)
        system = self.systems.get(system_key)
        if system is None:
            system = self.systems[system_key] = build_system(
                job.system, job.config, system_key, self.cache,
                self.counts_memo)
        memo_key = (type(system), id(job.network), job.fused,
                    job.use_mapper)
        expansion = self._expansions.get(memo_key)
        if expansion is None:
            expansion = [(task, system.sub_task_store_key(task))
                         for task in system.enumerate_sub_tasks(
                             job.network, fused=job.fused,
                             use_mapper=job.use_mapper)]
            if system.subtask_keys_config_free:
                self._expansions[memo_key] = expansion
        chunk = TaskChunk(system=job.system, config=job.config,
                          system_key=system_key)
        cache = self.cache
        seen = self._seen
        waits: Set[str] = set()
        for task, store_key in expansion:
            self.planned += 1
            entry_key = store_entry_key(system_key, store_key)
            planned = seen.get(entry_key)
            if planned is not None:
                self.deduplicated += 1
                if planned:
                    waits.add(entry_key)
                continue
            if cache.contains(_TASK_NAMESPACE[task.kind], entry_key):
                seen[entry_key] = False
                self.cache_hits += 1
                continue
            seen[entry_key] = task.kind == "layer"
            if seen[entry_key]:
                waits.add(entry_key)
            if task.kind == "mapper":
                cluster = ("search", entry_key)
            elif task.use_mapper:
                search_key = store_entry_key(
                    system_key, system._mapper_store_key(task.layer))
                cluster = ("search", search_key)
                if search_key not in chunk.deps:
                    search = cache.peek("mappings", search_key)
                    if search is not None:
                        chunk.deps[search_key] = search
            else:
                cluster = ("solo", entry_key)
            chunk.tasks.append(task)
            chunk.clusters.append(cluster)
        self.tasks += len(chunk.tasks)
        self.waits.append(waits)
        return chunk

    def report(self, batches: int = 0) -> None:
        """Fold this planner's counts into ``cache.planner``."""
        stats = self.cache.planner
        stats.planned += self.planned
        stats.deduplicated += self.deduplicated
        stats.cache_hits += self.cache_hits
        stats.phase1_tasks += self.tasks
        stats.batches += batches


def build_plan(jobs: Sequence[EvaluationJob],
               cache: EvaluationCache,
               workers: int = 1) -> SweepPlan:
    """Expand ``jobs`` into deduplicated, config-affine task chunks.

    Dedup counters are folded into ``cache.planner`` so front-ends
    report them alongside the hit/miss statistics.
    """
    with obs.span("planner.build_plan", jobs=len(jobs)) as plan_span:
        # The parent's systems only plan and assemble: the memo stays
        # empty, and each worker batch makes its own.
        planner = Planner(cache, {})
        groups: Dict[str, TaskChunk] = {}
        with obs.span("planner.expand"):
            for job in jobs:
                chunk = planner.expand(job)
                group = groups.setdefault(chunk.system_key, chunk)
                if group is not chunk:
                    group.tasks += chunk.tasks
                    group.clusters += chunk.clusters
                    group.deps.update(chunk.deps)

        with obs.span("planner.balance"):
            batches = _balance(
                [(planner.systems[key].geometry, group)
                 for key, group in groups.items() if group.tasks],
                workers)
        plan = SweepPlan(batches=batches, planned=planner.planned,
                         deduplicated=planner.deduplicated,
                         cache_hits=planner.cache_hits,
                         systems=planner.systems, waits=planner.waits)
        planner.report(len(batches))
        for counter in ("planned", "deduplicated", "cache_hits",
                        "phase1_tasks"):
            plan_span.set(counter, getattr(plan, counter))
        plan_span.set("batches", len(plan.batches))
    return plan


def _balance(groups: List[Tuple[Any, TaskChunk]],
             workers: int) -> List[List[TaskChunk]]:
    """Pack config-affine chunks into balanced, geometry-affine batches.

    ``groups`` pairs each configuration's chunk with its system's
    :attr:`~repro.systems.base.PhotonicSystem.geometry`.  A chunk much
    bigger than its peers (one slow network job idling the other
    workers) is first split at mapper-dependency boundaries: a layer
    task always stays in the same chunk as the search it consumes, so a
    split never makes a worker redo another chunk's mapper work.

    The chunks are then grouped by geometry, so configurations that
    differ only in clock or scenario share one worker's counts memo.  A
    group that fits stays whole; a bigger one is cut into runs of whole
    chunks of about the target size, so a study with fewer geometries
    than batches still feeds every worker.  An unhashable config
    (geometry ``None``) is a group of its own.  The runs are packed
    longest-first onto ``~ 2 x workers`` batches (always to the lightest
    batch), which keeps the pool tail short while amortizing per-message
    IPC over many tasks.
    """
    if not groups:
        return []
    total = sum(len(group) for _geometry, group in groups)
    # Enough batches to keep every worker fed and rebalance around a
    # slow one, but few enough that each ships a worthwhile amount of
    # work per message.
    target = max(4, math.ceil(total / max(workers * 2, 1)))
    by_geometry: Dict[Any, List[TaskChunk]] = {}
    for geometry, group in groups:
        key = group.system_key if geometry is None else geometry
        by_geometry.setdefault(key, []).extend(
            [group] if len(group) <= 2 * target else _split(group, target))
    runs: List[Tuple[int, List[TaskChunk]]] = []
    for chunks in by_geometry.values():
        size = sum(len(chunk) for chunk in chunks)
        if size <= 2 * target:
            runs.append((size, chunks))
            continue
        run: List[TaskChunk] = []
        size = 0
        for chunk in chunks:
            run.append(chunk)
            size += len(chunk)
            if size >= target:
                runs.append((size, run))
                run, size = [], 0
        if run:
            runs.append((size, run))
    runs.sort(key=lambda sized: -sized[0])
    batch_count = min(len(runs), max(workers * 2, 1))
    batches: List[List[TaskChunk]] = [[] for _ in range(batch_count)]
    loads = [0] * batch_count
    for size, run in runs:
        lightest = loads.index(min(loads))
        batches[lightest].extend(run)
        loads[lightest] += size
    return [batch for batch in batches if batch]


def _split(group: TaskChunk, target: int) -> List[TaskChunk]:
    """Split a group into ~target-sized chunks at cluster boundaries.

    A cluster is a mapper task plus every layer task consuming its
    search (matched by the ``clusters`` tags computed at plan time);
    mapper-less layer tasks are singleton clusters.  Clusters are packed
    in enumeration order, preserving the mapper-before-dependents
    ordering within each chunk, and each chunk takes the deps of the
    searches its own clusters consume.
    """
    clusters: Dict[Any, List[Any]] = {}
    order: List[Any] = []
    for task, cluster in zip(group.tasks, group.clusters):
        if cluster not in clusters:
            clusters[cluster] = []
            order.append(cluster)
        clusters[cluster].append(task)
    chunks: List[TaskChunk] = []
    current: List[Any] = []
    deps: Dict[str, Any] = {}
    for cluster in order:
        current.extend(clusters[cluster])
        if cluster[1] in group.deps:
            deps[cluster[1]] = group.deps[cluster[1]]
        if len(current) >= target:
            chunks.append(TaskChunk(system=group.system, config=group.config,
                                    system_key=group.system_key,
                                    tasks=current, deps=deps))
            current, deps = [], {}
    if current:
        chunks.append(TaskChunk(system=group.system, config=group.config,
                                system_key=group.system_key, tasks=current,
                                deps=deps))
    return chunks
