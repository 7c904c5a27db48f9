"""Layer-grain sweep planning: jobs in, deduplicated task chunks out.

:func:`run_jobs` parallelizes a batch of whole-network jobs; this module
turns that batch into a two-phase *work plan* first.  Each job is
expanded into the sub-tasks its evaluation would memoize through the
``store`` seam — mapper searches and per-layer evaluations, enumerated
by :meth:`repro.systems.base.PhotonicSystem.enumerate_sub_tasks` — and
the expansion is deduplicated two ways:

* **by store key**, within a job and across the batch.  Store keys name
  a layer's shape, not the layer, so same-geometry layers (ResNet18's
  repeated block shapes) compute once per configuration and share one
  entry, as do repeated fusion-block flag pairs and the tasks of jobs
  sharing a configuration;
* **against the cache**, so warm entries are never re-planned.

The unique remainder is grouped into :class:`TaskChunk` payloads with
configuration affinity: every task of one ``system_key`` travels in one
chunk (split at mapper-dependency boundaries only when oversized), so a
worker builds each architecture/energy table once, shares one system
instance across the chunk's tasks, and ships all results back in a
single message.  A chunk also carries the few cached entries its tasks
read (:attr:`TaskChunk.deps`), so a worker needs no copy of the cache.
Chunks are packed into batches by geometry (:func:`_balance`):
configurations that differ only in clock or scenario ride in one batch,
whose worker analyzes their reference candidates once and prices them
per configuration, as the serial path does.  Phase 2 — reassembling
whole-network evaluations from the warmed cache — is cheap and runs in
the parent (:func:`repro.engine.executor.run_jobs`).

Planning never changes what is computed, only where and how often:
results are bit-identical to the serial path, and whole-job cache keys
are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro import obs
from repro.engine.cache import EvaluationCache, store_entry_key
from repro.engine.jobs import EvaluationJob, job_system_key, system_registry

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
    """

    batches: List[List[TaskChunk]]
    planned: int = 0
    deduplicated: int = 0
    cache_hits: int = 0

    @property
    def chunks(self) -> List[TaskChunk]:
        return [chunk for batch in self.batches for chunk in batch]

    @property
    def phase1_tasks(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)


def _expand_tasks(system: Any,
                  job: EvaluationJob) -> List[Tuple[Any, Tuple]]:
    """One job's sub-tasks with their store keys precomputed."""
    return [(task, system.sub_task_store_key(task))
            for task in system.enumerate_sub_tasks(
                job.network, fused=job.fused, use_mapper=job.use_mapper)]


def build_plan(jobs: Sequence[EvaluationJob],
               cache: EvaluationCache,
               workers: int = 1) -> SweepPlan:
    """Expand ``jobs`` into deduplicated, config-affine task chunks.

    Dedup counters are folded into ``cache.planner`` so front-ends
    report them alongside the hit/miss statistics.
    """
    with obs.span("planner.build_plan", jobs=len(jobs)) as plan_span:
        registry = system_registry()
        groups: Dict[str, TaskChunk] = {}
        seen = set()  # entry keys already planned (or found cached)
        planned = deduplicated = cache_hits = 0
        systems: Dict[str, Any] = {}
        # (system class, network identity, fused, use_mapper) ->
        # [(task, store key), ...].  Systems declaring their task keys
        # configuration-free (all built-ins) expand each network once per
        # batch instead of once per job; the jobs keep their networks
        # alive, so identity keying is stable here.
        expansions: Dict[Tuple, List[Tuple[Any, Tuple]]] = {}

        with obs.span("planner.expand"):
            for job in jobs:
                system_key = job_system_key(job)
                system = systems.get(system_key)
                if system is None:
                    entry = registry[job.system]
                    system = entry.system_type(job.config)
                    systems[system_key] = system
                group = groups.get(system_key)
                if group is None:
                    group = TaskChunk(system=job.system, config=job.config,
                                      system_key=system_key)
                    groups[system_key] = group
                if getattr(system, "subtask_keys_config_free", False):
                    memo_key = (type(system), id(job.network), job.fused,
                                job.use_mapper)
                    expansion = expansions.get(memo_key)
                    if expansion is None:
                        expansion = _expand_tasks(system, job)
                        expansions[memo_key] = expansion
                else:
                    expansion = _expand_tasks(system, job)
                for task, store_key in expansion:
                    planned += 1
                    entry_key = store_entry_key(system_key, store_key)
                    if entry_key in seen:
                        deduplicated += 1
                        continue
                    seen.add(entry_key)
                    if cache.contains(_TASK_NAMESPACE[task.kind],
                                      entry_key):
                        cache_hits += 1
                        continue
                    if task.kind == "mapper":
                        cluster = ("search", entry_key)
                    elif task.use_mapper:
                        search_key = store_entry_key(
                            system_key, system._mapper_store_key(task.layer))
                        cluster = ("search", search_key)
                        if search_key not in group.deps:
                            search = cache.peek("mappings", search_key)
                            if search is not None:
                                group.deps[search_key] = search
                    else:
                        cluster = ("solo", len(group.tasks))
                    group.tasks.append(task)
                    group.clusters.append(cluster)

        with obs.span("planner.balance"):
            batches = _balance(
                [(systems[key].geometry, group)
                 for key, group in groups.items() if group.tasks],
                workers)
        plan = SweepPlan(batches=batches, planned=planned,
                         deduplicated=deduplicated, cache_hits=cache_hits)
        stats = cache.planner
        stats.planned += plan.planned
        stats.deduplicated += plan.deduplicated
        stats.cache_hits += plan.cache_hits
        stats.phase1_tasks += plan.phase1_tasks
        stats.batches += len(plan.batches)
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
