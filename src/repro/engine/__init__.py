"""Parallel sweep engine with a persistent mapping/evaluation cache.

The engine separates *what* to evaluate from *how*: declarative
:class:`~repro.engine.jobs.EvaluationJob` specs, compiled by a
:class:`~repro.api.Study` (or made one by one with
:func:`~repro.engine.jobs.make_job`), are executed in-process or over a
process pool by :func:`~repro.engine.executor.run_jobs`, and memoized —
whole-job
results, mapper searches, and layer evaluations — in an
:class:`~repro.engine.cache.EvaluationCache` keyed by content hashes and
persisted through a sharded, content-addressed directory store
(:class:`~repro.engine.store.ShardedStore`) with O(dirty) delta flushes,
multi-process-safe per-shard locking, and optional LRU eviction.

Quickstart (a :class:`repro.api.Study` compiles the job list)::

    from repro import AlbireoConfig, Study
    from repro.engine import EvaluationCache, run_jobs

    cache = EvaluationCache("sweep-cache")
    jobs = (Study().configs(AlbireoConfig()).networks("resnet18")
            .grid(clusters=(8, 16, 32), output_reuse=(3, 9)).compile())
    results = run_jobs(jobs, workers=4, cache=cache)
    print(cache.describe_stats())

Every run goes through :mod:`~repro.engine.planner`: jobs are expanded
into their unique mapper/layer sub-tasks, deduplicated across the run
and against the cache, executed in-process or in configuration-affine
pool batches, and assembled from the warm cache in the parent — the same
records either way, with the dedup counters reported via
``cache.planner``.

Modules:

* :mod:`~repro.engine.jobs` — job specs and content-hash keys.
* :mod:`~repro.engine.cache` — the in-memory + on-disk cache.
* :mod:`~repro.engine.store` — sharded directory store: locks, LRU, delta IO.
* :mod:`~repro.engine.planner` — batch expansion, dedup, task chunking.
* :mod:`~repro.engine.executor` — the run pipeline (in-process or
  pooled), retry/quarantine failure policy.
* :mod:`~repro.engine.pool` — persistent warm worker pool running
  stateless batches, worker supervision/respawn.
* :mod:`~repro.engine.faults` — deterministic fault injection + watchdog.
* :mod:`~repro.engine.codec` — JSON codecs for jobs and results.
"""

from repro.engine.cache import (
    CacheStats,
    EvaluationCache,
    PlannerStats,
    ResilienceStats,
    SystemStore,
)
from repro.engine.codec import (
    config_to_dict,
    content_hash,
    layer_evaluation_from_dict,
    layer_evaluation_to_dict,
    network_evaluation_from_dict,
    network_evaluation_to_dict,
    network_from_dict,
    network_to_dict,
)
from repro.engine.executor import (
    FailurePolicy,
    JobFailure,
    run_job,
    run_jobs,
)
from repro.engine.faults import FaultPlan, FaultSpec, InjectedFault
from repro.engine.jobs import EvaluationJob, job_system_key, make_job
from repro.engine.planner import SweepPlan, TaskChunk, build_plan
from repro.engine.pool import PoolStats, WorkerPool
from repro.engine.store import ShardedStore, StoreStats, atomic_write_json

__all__ = [
    "CacheStats",
    "EvaluationCache",
    "EvaluationJob",
    "FailurePolicy",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "JobFailure",
    "PlannerStats",
    "PoolStats",
    "ResilienceStats",
    "ShardedStore",
    "StoreStats",
    "SweepPlan",
    "SystemStore",
    "TaskChunk",
    "WorkerPool",
    "atomic_write_json",
    "build_plan",
    "job_system_key",
    "config_to_dict",
    "content_hash",
    "layer_evaluation_from_dict",
    "layer_evaluation_to_dict",
    "make_job",
    "network_evaluation_from_dict",
    "network_evaluation_to_dict",
    "network_from_dict",
    "network_to_dict",
    "run_job",
    "run_jobs",
]
