"""Tests for the persistent warm worker pool (:mod:`repro.engine.pool`).

Covers stateless workers (each batch carries the cached mapper entries
it reads, and nothing else), pool sizing, plain-pickle batch payloads,
interrupt safety (a cancelled dispatch leaves no orphaned workers and
the pool stays reusable), and bit-identity of pooled execution against
serial execution.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.api import Study
from repro.engine import (
    EvaluationCache,
    WorkerPool,
    build_plan,
    run_jobs,
)
from repro.engine.codec import network_evaluation_to_dict
from repro.engine.pool import _run_wire_batch
from repro.systems import AlbireoConfig
from repro.workloads import tiny_cnn


@pytest.fixture(scope="module")
def small_network():
    return tiny_cnn()


def _grid_a(network):
    return (Study().configs(AlbireoConfig()).networks(network)
            .grid(clusters=(4, 8)).compile())


def _grid_b(network):
    return (Study().configs(AlbireoConfig()).networks(network)
            .grid(clusters=(4, 8, 16), output_reuse=(3, 9)).compile())


def _dicts(evaluations):
    return [network_evaluation_to_dict(e) for e in evaluations]


def _no_orphans():
    """True when no worker processes linger (after a short grace)."""
    for _ in range(50):
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return not multiprocessing.active_children()


def _group_gone(pgid):
    """True once no process of group ``pgid`` is left (2.5 s grace)."""
    deadline = time.monotonic() + 2.5
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)


class TestPoolReuse:
    def test_two_dispatches_one_spawn_bit_identical(self, small_network):
        """A reused pool spawns once, ships no cache entries when no task
        reads one, and stays bit-identical to serial execution."""
        jobs_a, jobs_b = _grid_a(small_network), _grid_b(small_network)
        serial_a = _dicts(run_jobs(jobs_a, workers=1))
        serial_b = _dicts(run_jobs(jobs_b, workers=1))
        cache = EvaluationCache()
        with WorkerPool(workers=2) as pool:
            warm_a = _dicts(run_jobs(jobs_a, workers=2, cache=cache,
                                     pool=pool))
            assert pool.stats.spawns == 1
            warm_b = _dicts(run_jobs(jobs_b, workers=2, cache=cache,
                                     pool=pool))
        assert warm_a == serial_a
        assert warm_b == serial_b
        assert pool.stats.spawns == 1
        assert pool.stats.dispatches == 2
        # No use_mapper task reads a cached entry: nothing rides along.
        assert pool.stats.dep_entries == 0
        assert _no_orphans()

    def test_cached_searches_ride_with_their_batch(self):
        """A kept pool's second use_mapper dispatch reads the first one's
        mapper searches: each chunk carries the cached entries its layer
        tasks consume (5 LeNet-5 searches x 2 configurations), so no
        search runs twice, and the records equal serial execution."""
        def study(fused):
            return (Study().systems("crossbar").networks("lenet5")
                    .grid(global_buffer_kib=[1024, 2048])
                    .fusion(fused).options(use_mapper=True))

        cache = EvaluationCache()
        with WorkerPool(2) as pool:
            unfused = study(False).run(cache=cache, pool=pool)
            assert pool.stats.dep_entries == 0
            assert cache.mapper_search_stats()["searches"] == 10
            fused = study(True).run(cache=cache, pool=pool)
        assert pool.stats.spawns == 1
        assert pool.stats.dispatches == 2
        assert pool.stats.dep_entries == 10
        assert cache.mapper_search_stats()["searches"] == 10
        # 10 searches, read once by each run's 10 layer tasks.
        assert cache.stats["mappings"].misses == 10
        assert cache.stats["mappings"].hits == 20
        serial_cache = EvaluationCache()
        assert unfused.to_records() \
            == study(False).run(cache=serial_cache).to_records()
        assert fused.to_records() \
            == study(True).run(cache=serial_cache).to_records()
        assert _no_orphans()

    def test_kept_pool_spawns_its_full_worker_count(self):
        """A kept pool whose first dispatch is a single batch still
        spawns all its workers, so later, wider dispatches use them.
        ``wide`` has four geometries (the planner packs clock twins of
        one geometry together), so it dispatches four batches."""
        narrow = Study().systems("albireo").networks("lenet5", "tiny")
        wide = (Study().systems("albireo").networks("tiny")
                .grid(global_buffer_kib=[256, 512, 1024, 2048]))
        with WorkerPool(2) as pool:
            first = narrow.run(cache=EvaluationCache(), pool=pool)
            assert pool.stats.batches == 1
            second = wide.run(cache=EvaluationCache(), pool=pool)
            assert pool.stats.batches == 5
            assert len(multiprocessing.active_children()) \
                == min(2, multiprocessing.cpu_count())
        assert pool.stats.spawns == 1
        assert first.to_records() == narrow.run().to_records()
        assert second.to_records() == wide.run().to_records()
        assert _no_orphans()

    def test_pool_worker_count_overrides_run_jobs_default(self,
                                                          small_network):
        """Passing a pool without ``workers=`` still runs parallel."""
        jobs = _grid_a(small_network)
        serial = _dicts(run_jobs(jobs, workers=1))
        with WorkerPool(workers=2) as pool:
            pooled = _dicts(run_jobs(jobs, cache=EvaluationCache(),
                                     pool=pool))
        assert pool.stats.spawns == 1
        assert pooled == serial


class TestInterruptSafety:
    def test_interrupt_mid_dispatch_closes_cleanly(self, small_network):
        """A KeyboardInterrupt while results are in flight closes the
        pool (no orphans) and the pool object remains reusable."""
        jobs = _grid_b(small_network)
        cache = EvaluationCache()
        plan = build_plan(jobs, cache, workers=2)
        assert plan is not None and plan.batches
        pool = WorkerPool(workers=2)
        try:
            stream = pool.run_batches(plan.batches)
            next(stream)  # at least one batch answered; workers live
            assert pool.active
            with pytest.raises(KeyboardInterrupt):
                stream.throw(KeyboardInterrupt)
            assert not pool.active
            assert _no_orphans()
            # The pool respawns lazily and completes a full run.
            fresh_cache = EvaluationCache()
            results = _dicts(run_jobs(jobs, workers=2, cache=fresh_cache,
                                      pool=pool))
            assert results == _dicts(run_jobs(jobs, workers=1))
            assert pool.stats.spawns == 2
        finally:
            pool.close()
        assert _no_orphans()

    def test_abandoning_iterator_closes_pool(self, small_network):
        """Dropping the dispatch iterator (GeneratorExit) must not leak
        workers either."""
        jobs = _grid_b(small_network)
        cache = EvaluationCache()
        plan = build_plan(jobs, cache, workers=2)
        pool = WorkerPool(workers=2)
        try:
            stream = pool.run_batches(plan.batches)
            next(stream)
            stream.close()
            assert not pool.active
            assert _no_orphans()
        finally:
            pool.close()

    def test_ctrl_c_stops_a_pooled_run_promptly(self, tmp_path):
        """Ctrl-C reaches the whole process group: the workers' running
        batches end and no queued batch starts, although every layer
        task of this 12-point, 2-worker run would sleep for 30 s."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        plan = tmp_path / "sleep.json"
        plan.write_text(json.dumps([{"match": "*:*:layer",
                                     "action": "sleep", "seconds": 30.0}]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "examples/study_spec.json",
             "--workers", "2", "--inject", str(plan)],
            cwd=root, env=dict(os.environ, PYTHONPATH=os.path.join(root,
                                                                   "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            time.sleep(2.0)  # dispatched: both workers are sleeping
            interrupted = time.monotonic()
            os.killpg(process.pid, signal.SIGINT)
            process.wait(timeout=25)
            assert time.monotonic() - interrupted < 10
            assert _group_gone(process.pid)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()

    def test_close_is_idempotent_and_context_manager_closes(self):
        pool = WorkerPool(workers=2)
        pool.close()
        pool.close()
        with WorkerPool(workers=2) as ctx_pool:
            assert not ctx_pool.active  # lazy: nothing dispatched yet
        assert not ctx_pool.active

    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)


class TestPlainPayloads:
    def test_a_batch_travels_as_a_plain_pickle(self, small_network,
                                               monkeypatch):
        """A batch ships as its chunks' ``(system, config, system_key,
        deps, tasks)`` (the planner's clusters stay in the parent), runs
        from its own pickle alone, and the pool yields the worker's
        entries unchanged."""
        plan = build_plan(_grid_b(small_network), EvaluationCache(),
                          workers=2)
        with WorkerPool(workers=2) as pool:
            pooled = {index: added for index, added, *_rest
                      in pool.run_batches(plan.batches)}

        shipped = []

        def submit(payload):
            shipped.append(payload)
            future = Future()
            future.set_result(
                _run_wire_batch(pickle.loads(pickle.dumps(payload))))
            return future

        local = WorkerPool(workers=2)
        monkeypatch.setattr(local, "_submit", submit)
        in_process = {index: added for index, added, *_rest
                      in local.run_batches(plan.batches)}

        assert len(shipped) == len(plan.batches) > 1
        for index, _obs_config, chunks, _guard, _attempt in shipped:
            assert chunks == [
                (chunk.system, chunk.config, chunk.system_key, chunk.deps,
                 chunk.tasks) for chunk in plan.batches[index]]
        assert all(added["layers"] for added in pooled.values())
        assert in_process == pooled
        assert _no_orphans()


class TestStudyIntegration:
    def test_study_run_accepts_pool(self, small_network):
        def build():
            return (Study()
                    .systems("albireo")
                    .networks("tiny")
                    .grid(clusters=[4, 8]))

        baseline = build().run(workers=1)
        cache = EvaluationCache()
        with WorkerPool(workers=2) as pool:
            first = build().run(workers=2, cache=cache, pool=pool)
            second = build().run(workers=2, cache=cache, pool=pool)
        assert pool.stats.spawns == 1
        assert pool.stats.dispatches >= 1
        assert [r.tags for r in first] == [r.tags for r in baseline]
        for warm in (first, second):
            for got, want in zip(warm, baseline):
                assert got.metrics == want.metrics


class TestSupervision:
    """Worker death mid-dispatch is survived: detected, respawned,
    re-dispatched — one SIGKILL costs one batch retry, not a hang."""

    def test_sigkilled_worker_respawns_and_completes_bit_identical(
            self, small_network):
        """A worker SIGKILLing itself mid-batch (the OOM-killer stand-in,
        delivered deterministically by the fault plan on attempt 0)
        breaks the executor; the pool respawns once and the sweep still
        matches serial execution bit for bit."""
        jobs = _grid_b(small_network)
        serial = _dicts(run_jobs(jobs, workers=1))
        cache = EvaluationCache()
        kill = [{"match": "albireo:conv2:layer", "action": "kill",
                 "attempt": 0}]
        with WorkerPool(workers=2) as pool:
            survived = _dicts(run_jobs(jobs, workers=2, cache=cache,
                                       pool=pool, inject=kill))
            assert survived == serial
            assert pool.stats.respawns == 1
            # The replacement workers were spawned fresh.
            assert pool.stats.spawns == 2
            # The pool stays reusable after the recovery.
            again = _dicts(run_jobs(_grid_a(small_network), workers=2,
                                    cache=cache, pool=pool))
            assert again == _dicts(run_jobs(_grid_a(small_network),
                                            workers=1))
            assert pool.stats.respawns == 1
        assert cache.resilience.respawns == 1
        assert _no_orphans()

    def test_crash_storm_gives_up_with_worker_crash_error(
            self, small_network):
        """A batch that kills its worker on *every* attempt exhausts
        ``max_respawns`` and surfaces a clear error instead of looping
        (or hanging) forever."""
        from repro.exceptions import WorkerCrashError

        jobs = _grid_a(small_network)
        kill_always = [{"match": "albireo:conv1:layer", "action": "kill",
                        "attempt": -1}]
        pool = WorkerPool(workers=2)
        try:
            with pytest.raises(WorkerCrashError, match="died"):
                run_jobs(jobs, workers=2, cache=EvaluationCache(),
                         pool=pool, inject=kill_always)
            assert pool.stats.respawns == pool.max_respawns + 1
            # The crashed dispatch closed the pool; a clean run after
            # the storm respawns and succeeds.
            clean = _dicts(run_jobs(jobs, workers=2,
                                    cache=EvaluationCache(), pool=pool))
            assert clean == _dicts(run_jobs(jobs, workers=1))
        finally:
            pool.close()
        assert _no_orphans()

    def test_abrupt_exit_is_survived_too(self, small_network):
        """``os._exit(1)`` (atexit handlers skipped) looks identical to
        a SIGKILL from the parent's side and recovers the same way."""
        jobs = _grid_a(small_network)
        serial = _dicts(run_jobs(jobs, workers=1))
        exit_once = [{"match": "albireo:conv2:layer", "action": "exit",
                      "attempt": 0}]
        with WorkerPool(workers=2) as pool:
            survived = _dicts(run_jobs(jobs, workers=2,
                                       cache=EvaluationCache(),
                                       pool=pool, inject=exit_once))
        assert survived == serial
        assert pool.stats.respawns == 1
        assert _no_orphans()

    def test_worker_killed_while_idle_is_replaced(self, small_network):
        """A kept pool whose worker dies between dispatches is broken:
        the executor stops the other worker too.  The next dispatch
        respawns once and completes."""
        jobs = _grid_a(small_network)
        with WorkerPool(workers=2) as pool:
            run_jobs(jobs, workers=2, cache=EvaluationCache(), pool=pool)
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            assert _no_orphans()
            again = _dicts(run_jobs(jobs, workers=2,
                                    cache=EvaluationCache(), pool=pool))
        assert again == _dicts(run_jobs(jobs, workers=1))
        assert pool.stats.respawns == 1
        assert pool.stats.spawns == 2
        assert _no_orphans()
