"""Tests for the parallel sweep engine (jobs, cache, executor, planner,
sweeps)."""

import dataclasses
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.engine import (
    EvaluationCache,
    build_plan,
    config_sweep_jobs,
    default_grid_jobs,
    job_system_key,
    make_job,
    memory_sweep_jobs,
    parameter_grid,
    pareto_frontier,
    reuse_sweep_jobs,
    run_job,
    run_jobs,
)
from repro.engine.codec import (
    content_hash,
    network_evaluation_from_dict,
    network_evaluation_to_dict,
    network_from_dict,
    network_to_dict,
)
from repro.energy import AGGRESSIVE, CONSERVATIVE
from repro.systems import AlbireoConfig, AlbireoSystem
from repro.workloads import tiny_cnn


@pytest.fixture(scope="module")
def small_network():
    return tiny_cnn()


def _repeated_geometry_network():
    """A network whose layers repeat the same shape under several names
    (the ResNet18 pattern shape-keyed layer entries share).

    Built from explicit entries: ``Network.from_layers`` would merge the
    consecutive same-shape layers into one counted repetition, which is
    exactly the collapse real model-zoo networks (distinct residual-block
    layer names, non-consecutive repeats) don't get for free.
    """
    from repro.workloads import ConvLayer
    from repro.workloads.network import LayerRepetition, Network

    shape = dict(m=8, c=8, p=16, q=16, r=3, s=3)
    entries = [LayerRepetition(
        layer=ConvLayer(name="conv0", **shape),
        consumes_previous_output=False)]
    entries.extend(
        LayerRepetition(layer=ConvLayer(name=f"conv{i}", **shape))
        for i in range(1, 4))
    entries.append(LayerRepetition(
        layer=ConvLayer(name="odd", m=16, c=8, p=8, q=8, r=3, s=3)))
    return Network(name="RepeatNet", entries=tuple(entries))


def _small_configs(count=4):
    return [replace(AlbireoConfig(), clusters=clusters,
                    output_reuse=output_reuse)
            for clusters in (4, 8)
            for output_reuse in (3, 9)][:count]


def _evaluations_identical(a, b):
    """Bit-exact equality of two network evaluations."""
    if (a.name != b.name or a.clock_ghz != b.clock_ghz
            or a.peak_parallelism != b.peak_parallelism
            or len(a.layers) != len(b.layers)):
        return False
    for (eval_a, count_a), (eval_b, count_b) in zip(a.layers, b.layers):
        if count_a != count_b or eval_a.cycles != eval_b.cycles:
            return False
        if eval_a.energy.entries() != eval_b.energy.entries():
            return False
    return True


class TestJobs:
    def test_key_is_deterministic(self, small_network):
        job_a = make_job(small_network, AlbireoConfig())
        job_b = make_job(small_network, AlbireoConfig())
        assert job_a.key == job_b.key

    def test_key_ignores_presentation_metadata(self, small_network):
        plain = make_job(small_network, AlbireoConfig())
        tagged = make_job(small_network, AlbireoConfig(),
                          label="point 3", tags={"clusters": 16})
        assert plain.key == tagged.key

    def test_key_tracks_config_changes(self, small_network):
        base = make_job(small_network, AlbireoConfig())
        bigger = make_job(small_network, AlbireoConfig(clusters=32))
        assert base.key != bigger.key

    def test_key_tracks_options(self, small_network):
        base = make_job(small_network, AlbireoConfig())
        fused = make_job(small_network, AlbireoConfig(), fused=True)
        mapped = make_job(small_network, AlbireoConfig(), use_mapper=True)
        assert len({base.key, fused.key, mapped.key}) == 3

    def test_key_matches_full_identity_hash(self, small_network):
        """The composed-fragment hash (memoized architecture/network
        JSON spliced into the identity text) must stay byte-identical
        to hashing the full canonical dict."""
        from repro.engine.codec import content_hash

        for options in ({}, {"fused": True}, {"use_mapper": True},
                        {"include_dram": False}):
            job = make_job(small_network, AlbireoConfig(clusters=8),
                           **options)
            assert job.key == content_hash(job.to_dict()), options

    def test_config_serialized_once_per_config_object(self, small_network,
                                                      monkeypatch):
        """Job keys and system keys share one memoized config JSON per
        config object, however many jobs and key reads use it."""
        from repro.engine import jobs as jobs_module

        calls = []
        original = jobs_module.config_to_dict

        def counting(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(jobs_module, "config_to_dict", counting)
        monkeypatch.setattr(jobs_module, "_CONFIG_JSON_MEMO", {})
        configs = [AlbireoConfig(clusters=clusters)
                   for clusters in (4, 8, 16)]
        for config in configs:
            for fused in (False, True):
                job = make_job(small_network, config, fused=fused)
                assert job.key and job_system_key(job)
        assert len(calls) == len(configs)

    def test_key_stable_across_processes(self, small_network):
        """The content hash must not depend on PYTHONHASHSEED."""
        job = make_job(small_network, AlbireoConfig())
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.engine import make_job\n"
            "from repro.systems import AlbireoConfig\n"
            "from repro.workloads import tiny_cnn\n"
            "print(make_job(tiny_cnn(), AlbireoConfig()).key)\n"
        )
        keys = set()
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=120,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                cwd=str(__import__("pathlib").Path(__file__).parent.parent),
            )
            assert result.returncode == 0, result.stderr[-2000:]
            keys.add(result.stdout.strip())
        keys.add(job.key)
        assert len(keys) == 1

    def test_unknown_system_rejected(self, small_network):
        from repro.exceptions import SpecError

        with pytest.raises(SpecError):
            make_job(small_network, AlbireoConfig(), system="tpu")

    def test_registry_delegates_to_systems_registry(self):
        from repro.engine.jobs import system_registry
        from repro.systems.registry import system_entries

        entries = system_registry()
        assert entries == system_entries()
        assert {"albireo", "crossbar", "wdm_delay"} <= set(entries)
        for tag, entry in entries.items():
            assert entry.name == tag

    def test_make_job_infers_crossbar(self, small_network):
        from repro.systems import CrossbarConfig

        assert make_job(small_network, CrossbarConfig()).system == "crossbar"

    def test_make_job_rejects_foreign_config(self, small_network):
        from repro.energy import CONSERVATIVE
        from repro.exceptions import SpecError

        with pytest.raises(SpecError, match="cannot infer system"):
            make_job(small_network, CONSERVATIVE)


class TestCodec:
    def test_network_round_trip(self, small_network):
        spec = network_to_dict(small_network)
        rebuilt = network_from_dict(json.loads(json.dumps(spec)))
        assert network_to_dict(rebuilt) == spec

    def test_evaluation_round_trip_is_exact(self, small_network):
        evaluation = AlbireoSystem(AlbireoConfig()).evaluate_network(
            small_network)
        spec = network_evaluation_to_dict(evaluation)
        rebuilt = network_evaluation_from_dict(json.loads(json.dumps(spec)))
        assert _evaluations_identical(evaluation, rebuilt)
        assert rebuilt.energy_pj == evaluation.energy_pj

    def test_content_hash_order_independent(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash(
            {"b": 2, "a": 1})
        assert content_hash({"a": 1}) != content_hash({"a": 2})


class TestCache:
    def test_round_trip_save_reload_hit(self, small_network, tmp_path):
        jobs = config_sweep_jobs(small_network, _small_configs(2))
        cache = EvaluationCache(str(tmp_path))
        cold = run_jobs(jobs, cache=cache)
        assert cache.stats["results"].hits == 0
        assert (tmp_path / "store" / "index.json").exists()

        reloaded = EvaluationCache(str(tmp_path))
        warm = run_jobs(jobs, cache=reloaded)
        assert reloaded.stats["results"].hits == len(jobs)
        assert reloaded.stats["results"].misses == 0
        for a, b in zip(cold, warm):
            assert _evaluations_identical(a, b)

    def test_mapper_results_cached(self, small_network, tmp_path):
        job = make_job(small_network, AlbireoConfig(), use_mapper=True)
        cache = EvaluationCache(str(tmp_path))
        run_job(job, cache)
        assert cache.size("mappings") > 0
        mapper_misses = cache.stats["mappings"].misses

        # Same config, different option: new job, but mapper entries hit.
        sibling = make_job(small_network, AlbireoConfig(), use_mapper=True,
                           fused=True)
        run_job(sibling, cache)
        assert cache.stats["mappings"].hits > 0
        assert cache.stats["mappings"].misses == mapper_misses

    def test_mapper_counters_round_trip(self):
        """Search-efficiency counters survive the mapper-store round trip."""
        from repro.engine.cache import SystemStore
        from repro.mapping.mapper import MapperResult
        from repro.systems.albireo import albireo_reference_mapping
        from repro.workloads import ConvLayer

        mapping = albireo_reference_mapping(
            AlbireoConfig(), ConvLayer(name="l", m=8, c=8, p=4, q=4))
        cache = EvaluationCache()
        store = SystemStore(cache, "cfg")
        store.save_mapper_result(("k",), MapperResult(
            mapping=mapping, cost=1.5, evaluated=10, valid=7,
            deduplicated=3, pruned_early=2))
        loaded = store.load_mapper_result(("k",))
        assert loaded.deduplicated == 3
        assert loaded.pruned_early == 2
        stats = cache.mapper_search_stats()
        assert stats == {"searches": 1, "evaluated": 10, "valid": 7,
                         "deduplicated": 3, "pruned_early": 2}

    def test_pre_overhaul_mapper_entries_still_load(self):
        """Cache images written before the counters existed stay valid."""
        from repro.engine.cache import SystemStore
        from repro.mapping.serialize import mapping_to_dict
        from repro.systems.albireo import albireo_reference_mapping
        from repro.workloads import ConvLayer

        mapping = albireo_reference_mapping(
            AlbireoConfig(), ConvLayer(name="l", m=8, c=8, p=4, q=4))
        cache = EvaluationCache()
        store = SystemStore(cache, "cfg")
        # A legacy entry: no deduplicated / pruned_early keys.
        cache.put("mappings", store._key(("k",)), {
            "mapping": mapping_to_dict(mapping),
            "cost": 2.0, "evaluated": 5, "valid": 5,
        })
        loaded = store.load_mapper_result(("k",))
        assert loaded.valid == 5
        assert loaded.deduplicated == 0
        assert loaded.pruned_early == 0

    def test_corrupt_or_foreign_image_starts_fresh(self, tmp_path):
        (tmp_path / "cache.json").write_text(
            json.dumps({"version": 999, "entries": {"results": {"x": 1}}}))
        for backend in ("legacy", "sharded"):
            cache = EvaluationCache(str(tmp_path), backend=backend)
            assert len(cache) == 0
            assert cache.get("results", "x") is None

    def test_truncated_image_starts_fresh(self, tmp_path):
        (tmp_path / "cache.json").write_text('{"version": 1, "entries": {TR')
        for backend in ("legacy", "sharded"):
            cache = EvaluationCache(str(tmp_path), backend=backend)
            assert len(cache) == 0
            assert cache.get("results", "x") is None

    def test_in_memory_cache_needs_no_disk(self, small_network):
        cache = EvaluationCache()
        job = make_job(small_network, AlbireoConfig())
        run_job(job, cache)
        run_job(job, cache)
        assert cache.stats["results"].hits == 1
        assert cache.save() is None

    def test_atomic_save_leaves_single_image(self, small_network, tmp_path):
        cache = EvaluationCache(str(tmp_path), backend="legacy")
        run_job(make_job(small_network, AlbireoConfig()), cache)
        cache.save()
        cache.save()
        files = list(tmp_path.iterdir())
        assert [f.name for f in files] == ["cache.json"]

    def test_atomic_save_leaves_no_temp_files(self, small_network, tmp_path):
        cache = EvaluationCache(str(tmp_path))
        run_job(make_job(small_network, AlbireoConfig()), cache)
        cache.save()
        cache.save()
        names = [p.name for p in (tmp_path / "store").iterdir()]
        assert "index.json" in names
        assert all(n == "locks" or n == "index.json"
                   or (n.startswith("shard-") and n.endswith(".jsonl"))
                   for n in names)

    def test_clean_run_skips_disk_rewrite(self, small_network, tmp_path):
        jobs = config_sweep_jobs(small_network, _small_configs(2))
        run_jobs(jobs, cache=EvaluationCache(str(tmp_path),
                                             backend="legacy"))
        image = tmp_path / "cache.json"
        before = image.stat().st_mtime_ns

        warm = EvaluationCache(str(tmp_path), backend="legacy")
        run_jobs(jobs, cache=warm)  # 100% hits: nothing new to persist
        assert not warm.dirty
        assert image.stat().st_mtime_ns == before

    def test_clean_sharded_run_appends_no_entries(self, small_network,
                                                  tmp_path):
        jobs = config_sweep_jobs(small_network, _small_configs(2))
        run_jobs(jobs, cache=EvaluationCache(str(tmp_path)))
        store_dir = tmp_path / "store"
        counts_before = json.loads(
            (store_dir / "index.json").read_text())["entries"]

        warm = EvaluationCache(str(tmp_path))
        run_jobs(jobs, cache=warm)  # 100% hits: only LRU touches persist
        assert not warm.dirty
        counts_after = json.loads(
            (store_dir / "index.json").read_text())["entries"]
        assert counts_after == counts_before
        assert warm.store.stats.flushed_entries == 0


class TestExecutor:
    def test_parallel_equals_serial(self, small_network):
        """workers=4 must return the same ordering and identical numbers."""
        jobs = reuse_sweep_jobs(
            small_network, AlbireoConfig(),
            output_reuse_values=(3, 9), input_reuse_values=(9, 27),
            weight_lane_variants=(("Original", 1),),
        )
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=4)
        assert len(serial) == len(parallel) == len(jobs)
        for a, b in zip(serial, parallel):
            assert _evaluations_identical(a, b)
            assert a.energy_pj == b.energy_pj

    def test_parallel_merges_worker_cache_entries(self, small_network,
                                                  tmp_path):
        jobs = config_sweep_jobs(small_network, _small_configs(3))
        cache = EvaluationCache(str(tmp_path))
        run_jobs(jobs, workers=2, cache=cache)
        assert cache.size("results") == len(jobs)
        assert cache.size("layers") > 0

        warm = EvaluationCache(str(tmp_path))
        run_jobs(jobs, workers=2, cache=warm)
        assert warm.stats["results"].hits == len(jobs)

    def test_order_preserved_with_cache_hits_interleaved(self,
                                                         small_network):
        jobs = config_sweep_jobs(small_network, _small_configs(4))
        cache = EvaluationCache()
        # Pre-warm only the middle jobs so hits and misses interleave.
        run_jobs(jobs[1:3], cache=cache)
        mixed = run_jobs(jobs, cache=cache)
        uncached = run_jobs(jobs)
        for a, b in zip(mixed, uncached):
            assert _evaluations_identical(a, b)

    def test_include_dram_false_strips_dram(self, small_network):
        job = make_job(small_network, AlbireoConfig(), include_dram=False)
        evaluation = run_job(job)
        entries = evaluation.total_energy.entries()
        assert entries
        assert all(component != "DRAM" for component, _ in entries)

    def test_accelerator_only_view_round_trips_every_field(
            self, small_network):
        """Assembly's accelerator-only view (``include_dram=False``) may
        only drop DRAM energy rows: every other layer-entry field —
        including ones added after this test was written — survives
        byte-for-byte."""
        warm = EvaluationCache()
        run_job(make_job(small_network, AlbireoConfig()), warm)
        # Make the optional fields non-default so silently dropping one
        # cannot hide behind its default value.
        cache = EvaluationCache()
        cache.merge({"layers": {
            key: dict(entry, occupancy_bits={"GlobalBuffer": 17.5},
                      compute_cycles=entry["cycles"] + 3,
                      bandwidth_bound_level="DRAM")
            for key, entry in warm.snapshot()["layers"].items()}})
        full = network_evaluation_to_dict(
            run_job(make_job(small_network, AlbireoConfig()), cache))
        view = network_evaluation_to_dict(run_job(
            make_job(small_network, AlbireoConfig(), include_dram=False),
            cache))
        assert cache.planner.phase1_tasks == 0  # both read the entries
        assert {key: value for key, value in view.items()
                if key != "layers"} \
            == {key: value for key, value in full.items()
                if key != "layers"}
        assert len(view["layers"]) == len(full["layers"])
        for (after, count_a), (before, count_b) in zip(view["layers"],
                                                       full["layers"]):
            assert count_a == count_b
            assert after["occupancy_bits"] == {"GlobalBuffer": 17.5}
            assert {key: value for key, value in after.items()
                    if key != "energy"} \
                == {key: value for key, value in before.items()
                    if key != "energy"}
            assert after["energy"]
            assert after["energy"] == [row for row in before["energy"]
                                       if row[0] != "DRAM"]


class TestPlanner:
    def test_plan_dedups_repeated_geometry(self):
        """Same-shape layers under different names share one task."""
        network = _repeated_geometry_network()
        jobs = [make_job(network, config)
                for config in _small_configs(2)]
        cache = EvaluationCache()
        plan = build_plan(jobs, cache, workers=2)
        assert plan is not None
        # 5 entries per job but only 2 unique geometries per config: the
        # shape-keyed expansion already collapses the rest.
        assert plan.planned == plan.phase1_tasks == 4
        assert plan.deduplicated == 0
        assert cache.planner.planned == 4
        assert cache.planner.phase1_tasks == 4

    def test_plan_dedups_against_warm_cache(self, small_network):
        jobs = config_sweep_jobs(small_network, _small_configs(2))
        cache = EvaluationCache()
        run_jobs(jobs, cache=cache)  # warm every layer entry serially
        cache.reset_stats()
        plan = build_plan(jobs, cache, workers=2)
        assert plan.phase1_tasks == 0
        assert plan.cache_hits > 0
        assert not plan.batches

    def test_planned_parallel_identical_and_shared_entries_cached(self):
        """Shape-shared layer entries still yield bit-identical results,
        and they land in the cache for later replay."""
        network = _repeated_geometry_network()
        jobs = [make_job(network, config, include_dram=include_dram)
                for config in _small_configs(2)
                for include_dram in (True, False)]
        serial = run_jobs(jobs)
        cache = EvaluationCache()
        parallel = run_jobs(jobs, workers=2, cache=cache)
        assert cache.planner.deduplicated > 0
        for a, b in zip(serial, parallel):
            assert _evaluations_identical(a, b)
            assert a.energy_pj == b.energy_pj
        # Every layer shape is cached once and every same-shape layer
        # reads that entry, so a warm run needs no evaluation at all.
        warm = EvaluationCache()
        warm.merge(cache.snapshot())
        run_jobs(jobs, cache=warm)
        assert warm.stats["results"].hits == len(jobs)
        assert warm.stats["layers"].misses == 0

    def test_fig4_fig5_grids_plan_one_task_per_geometry(self):
        """The acceptance-criterion grids: every planned sub-task is a
        distinct (configuration, shape, flags) entry — ResNet18's repeated
        block shapes collapse at expansion, so nothing is left to dedup."""
        from repro.energy import AGGRESSIVE, CONSERVATIVE
        from repro.workloads import resnet18

        network = resnet18()
        fig4 = memory_sweep_jobs(network, AlbireoConfig(),
                                 scenarios=(CONSERVATIVE, AGGRESSIVE))
        plan4 = build_plan(fig4, EvaluationCache(), workers=4)
        assert plan4.planned == plan4.phase1_tasks == 96
        fig5 = reuse_sweep_jobs(network, AlbireoConfig())
        plan5 = build_plan(fig5, EvaluationCache(), workers=4)
        assert plan5.planned == plan5.phase1_tasks == 216

    def test_batches_preserve_config_affinity(self, small_network):
        """Every task of one system_key ships in one batch segment."""
        jobs = config_sweep_jobs(small_network, _small_configs(4))
        plan = build_plan(jobs, EvaluationCache(), workers=2)
        seen_keys = set()
        for batch in plan.batches:
            for chunk in batch:
                assert chunk.system_key not in seen_keys
                seen_keys.add(chunk.system_key)
        assert len(seen_keys) == len({job_system_key(job) for job in jobs})

    def test_oversized_group_splits_at_cluster_boundaries(self):
        """One giant job is split for load balancing, but a use_mapper
        layer task always rides with the mapper search it consumes."""
        from repro.workloads import ConvLayer
        from repro.workloads.network import Network

        layers = [ConvLayer(name=f"c{i}", m=4 + i, c=3, p=8, q=8, r=3, s=3)
                  for i in range(24)]
        network = Network.from_layers("WideNet", layers)
        job = make_job(network, AlbireoConfig(), use_mapper=True)
        plan = build_plan([job], EvaluationCache(), workers=4)
        chunks = plan.chunks
        assert len(chunks) > 1  # actually split
        # Dependency closure: each chunk's use_mapper layer tasks only
        # consume searches scheduled in the same chunk.  (Shapes are all
        # distinct here, so matching by layer name is exact.)
        for chunk in chunks:
            produced = {task.layer.name for task in chunk.tasks
                        if task.kind == "mapper"}
            consumed = {task.layer.name for task in chunk.tasks
                        if task.kind == "layer" and task.use_mapper}
            assert consumed <= produced

    @pytest.mark.parametrize("field_name, values", [
        ("clock_ghz", (4.0, 5.0)),
        ("scenario", (CONSERVATIVE, AGGRESSIVE)),
    ], ids=["clock", "scenario"])
    def test_energy_only_twins_share_a_batch(self, small_network,
                                             field_name, values):
        """Configurations that differ only in clock or scenario ride in
        one batch, so one worker's counts memo serves them all."""
        configs = [replace(AlbireoConfig(), global_buffer_kib=kib,
                           **{field_name: value})
                   for kib in (1024, 2048) for value in values]
        jobs = config_sweep_jobs(small_network, configs)
        plan = build_plan(jobs, EvaluationCache(), workers=2)
        assert len(plan.batches) == 2
        for batch in plan.batches:
            assert len(batch) == 2  # both twins, whole
            assert len({chunk.config.global_buffer_kib
                        for chunk in batch}) == 1

    def test_oversized_geometry_group_is_cut_into_whole_chunks(
            self, small_network):
        """A geometry with more work than a batch should hold is cut into
        runs of whole configuration chunks, so a study with fewer
        geometries than batches still feeds every worker."""
        configs = [replace(AlbireoConfig(), clock_ghz=clock)
                   for clock in (3.0, 3.1, 3.2, 3.3)]
        plan = build_plan(config_sweep_jobs(small_network, configs),
                          EvaluationCache(), workers=2)
        per_config = len(plan.chunks[0])
        assert len(plan.batches) == 2
        assert all(len(batch) == 2 for batch in plan.batches)
        assert all(len(chunk) == per_config for chunk in plan.chunks)
        assert len({chunk.system_key for chunk in plan.chunks}) == 4

    def test_one_geometry_mapper_study_fills_every_batch(self):
        """The one-configuration ``use_mapper`` study is still split over
        ``2 x workers`` batches: one geometry does not serialize it."""
        from repro.api import Study

        jobs = Study.from_dict({
            "systems": ["crossbar"], "networks": ["lenet5", "tiny"],
            "options": {"use_mapper": True},
        }).compile()
        plan = build_plan(jobs, EvaluationCache(), workers=2)
        assert len(plan.batches) == 4
        assert len({chunk.system_key for chunk in plan.chunks}) == 1

    def test_unhashable_config_is_its_own_group(self, small_network,
                                                listed_system):
        """A config that cannot be hashed has no geometry: its clock
        twin shares no batch with it, and the pooled run matches serial."""
        configs = [_ListConfig(notes=["twin"], clock_ghz=clock)
                   for clock in (4.0, 5.0)]
        assert _ListSystem(configs[0]).geometry is None
        jobs = [make_job(small_network, config, system="listed")
                for config in configs]
        plan = build_plan(jobs, EvaluationCache(), workers=2)
        assert len(plan.batches) == 2
        assert all(len(batch) == 1 for batch in plan.batches)
        serial = run_jobs(jobs, cache=EvaluationCache())
        pooled = run_jobs(jobs, workers=2, cache=EvaluationCache())
        assert [network_evaluation_to_dict(result) for result in pooled] \
            == [network_evaluation_to_dict(result) for result in serial]

    def test_reset_stats_clears_counters(self, small_network):
        cache = EvaluationCache()
        jobs = config_sweep_jobs(small_network, _small_configs(2))
        run_jobs(jobs, workers=2, cache=cache)
        assert cache.stats["layers"].lookups > 0
        assert cache.planner.planned > 0
        entries_before = len(cache)
        cache.reset_stats()
        assert len(cache) == entries_before  # entries untouched
        assert cache.planner.planned == 0
        assert cache.planner.phase1_tasks == 0
        assert all(stats.hits == 0 and stats.misses == 0
                   for stats in cache.stats.values())

    def test_contains_and_peek_do_not_count(self, small_network):
        cache = EvaluationCache()
        run_job(make_job(small_network, AlbireoConfig()), cache)
        cache.reset_stats()
        key = next(iter(cache.snapshot()["layers"]))
        assert cache.contains("layers", key)
        assert cache.peek("layers", key) is not None
        assert not cache.contains("layers", "missing")
        assert cache.peek("layers", "missing") is None
        assert cache.stats["layers"].lookups == 0

    def test_default_grid_jobs_covers_registered_systems(self,
                                                         small_network):
        from repro.systems.registry import system_names

        jobs = default_grid_jobs(small_network)
        assert {job.system for job in jobs} == set(system_names())
        assert all(job.tag("system") == job.system for job in jobs)
        only = default_grid_jobs(small_network, systems=("albireo",))
        assert {job.system for job in only} == {"albireo"}


class TestShapeKeyedLayerEntries:
    """Layer entries are keyed by shape; every reader attaches its own
    layer, so sharing an entry never leaks another layer's tags."""

    def test_shared_entries_are_stored_once(self):
        """In-process runs compute each shape once and read same-shape
        layers from its one stored entry, each under its own name."""
        network = _repeated_geometry_network()
        cache = EvaluationCache()
        results = run_jobs([make_job(network, config)
                            for config in _small_configs(2)], cache=cache)
        # 2 shapes x 2 configs; conv1..conv3 read conv0's entry.
        assert cache.size("layers") == 4
        assert cache.stats["layers"].misses == 4  # each computed once
        names = [entry.layer.name for entry in network.entries]
        for evaluation in results:
            assert [layer_eval.layer.name
                    for layer_eval, _count in evaluation.layers] == names

    def test_each_layer_keeps_its_own_name_and_kind(self):
        from repro.workloads import ConvLayer
        from repro.workloads.network import LayerRepetition, Network

        shape = dict(m=8, c=8, p=16, q=16, r=3, s=3)
        layers = [ConvLayer(name=name, kind=kind, **shape)
                  for name, kind in (("first", "conv"), ("second", "fc"),
                                     ("third", "pointwise"))]
        network = Network(name="TagNet", entries=tuple(
            LayerRepetition(layer=layer,
                            consumes_previous_output=(index > 0))
            for index, layer in enumerate(layers)))
        jobs = [make_job(network, config) for config in _small_configs(2)]

        serial = run_jobs(jobs, cache=EvaluationCache())
        pooled_cache = EvaluationCache()
        pooled = run_jobs(jobs, workers=2, cache=pooled_cache)
        assert pooled_cache.planner.phase1_tasks == 2  # one per config
        # Warm replays: whole results, and layer entries alone (every
        # layer read comes from the entry the pool stored).
        replayed = run_jobs(jobs, cache=pooled_cache)
        layers_only = EvaluationCache()
        layers_only.merge({"layers": pooled_cache.snapshot()["layers"]})
        rebuilt = run_jobs(jobs, cache=layers_only)

        paths = {"serial": serial, "pooled": pooled,
                 "replayed": replayed, "rebuilt": rebuilt}
        for path, results in paths.items():
            for evaluation in results:
                got = [layer_eval.layer for layer_eval, _count
                       in evaluation.layers]
                # ``ConvLayer.__eq__`` ignores ``kind``: compare each tag.
                assert [layer.name for layer in got] \
                    == [layer.name for layer in layers], path
                assert [layer.kind for layer in got] \
                    == [layer.kind for layer in layers], path
        reference = [network_evaluation_to_dict(result) for result in serial]
        for path, results in paths.items():
            assert [network_evaluation_to_dict(result)
                    for result in results] == reference, path


@dataclasses.dataclass(frozen=True)
class _FailingConfig(AlbireoConfig):
    """Config for the fault-injection system (module level: worker
    payloads pickle it by reference)."""


class _FailingSystem(AlbireoSystem):
    """Raises on every layer evaluation — exercises worker error paths."""

    name = "failing"
    config_type = _FailingConfig

    def evaluate_layer(self, *args, **kwargs):
        raise ValueError("injected failure")


class _TaskDroppingSystem(AlbireoSystem):
    """Plans no sub-tasks, so assembly finds its entries missing."""

    name = "dropping"
    config_type = _FailingConfig

    def enumerate_sub_tasks(self, *args, **kwargs):
        return []


@dataclasses.dataclass(frozen=True)
class _ListConfig(AlbireoConfig):
    """An Albireo config holding a list, so it cannot be hashed (module
    level: worker payloads pickle it by reference)."""

    notes: object = None


class _ListSystem(AlbireoSystem):
    name = "listed"
    config_type = _ListConfig


def _registered(system_type, description):
    """Register an Albireo-derived test system for one test."""
    from repro.systems import registry
    from repro.systems.albireo import SYSTEM_BUCKETS

    entry = registry.register_system(registry.SystemEntry(
        name=system_type.name,
        config_type=system_type.config_type,
        system_type=system_type,
        build_architecture=system_type.build_architecture,
        build_energy_table=system_type.build_energy_table,
        buckets=SYSTEM_BUCKETS,
        description=description,
    ))
    try:
        yield entry
    finally:
        registry._REGISTRY.pop(system_type.name, None)


@pytest.fixture
def listed_system():
    yield from _registered(_ListSystem,
                           "test-only system with an unhashable config")


@pytest.fixture
def failing_system():
    yield from _registered(_FailingSystem, "test-only fault-injection system")


@pytest.fixture
def dropping_system():
    yield from _registered(_TaskDroppingSystem,
                           "test-only system whose seams drop its tasks")


@pytest.mark.skipif(sys.platform == "win32",
                    reason="fault injection relies on fork inheritance")
class TestFailurePaths:
    """Satellite: run_jobs must fail loudly and leave caches valid."""

    def _failing_jobs(self, network, count=3):
        return [make_job(network, _FailingConfig(), system="failing",
                         label=f"fail{i}", tags={"i": i})
                for i in range(count)]

    def test_worker_error_propagates_in_planner_path(self, small_network,
                                                     failing_system):
        jobs = self._failing_jobs(small_network)
        with pytest.raises(ValueError, match="injected failure"):
            run_jobs(jobs, workers=2, cache=EvaluationCache())

    def test_serial_error_propagates(self, small_network, failing_system):
        with pytest.raises(ValueError, match="injected failure"):
            run_jobs(self._failing_jobs(small_network), workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unplanned_entry_names_the_job_and_key(self, small_network,
                                                   dropping_system,
                                                   workers):
        """Assembly never evaluates behind the planner's back: an entry
        the seams did not plan is an error naming the job and the key."""
        from repro.exceptions import SpecError

        jobs = [make_job(small_network, _FailingConfig(), system="dropping",
                         label=f"dropped{i}") for i in range(2)]
        with pytest.raises(SpecError, match=r"dropped0: layer entry \S+ "
                                            r"was planned but never"):
            run_jobs(jobs, workers=workers)

    def test_planner_phase_failure_leaves_disk_image_valid(
            self, small_network, failing_system, tmp_path):
        good_job = make_job(small_network, AlbireoConfig())
        cache = EvaluationCache(str(tmp_path))
        run_job(good_job, cache)
        cache.save()
        store_dir = tmp_path / "store"
        snapshot = {p.name: p.read_bytes()
                    for p in store_dir.iterdir() if p.is_file()}

        batch = [make_job(small_network, AlbireoConfig(clusters=32))] \
            + self._failing_jobs(small_network)
        with pytest.raises(ValueError, match="injected failure"):
            run_jobs(batch, workers=2, cache=EvaluationCache(str(tmp_path)))
        # Atomic persistence: the failed run never touched the store.
        after = {p.name: p.read_bytes()
                 for p in store_dir.iterdir() if p.is_file()}
        assert after == snapshot
        reloaded = EvaluationCache(str(tmp_path))
        assert reloaded.get_result(good_job.key) is not None

    def test_no_silent_none_on_partial_failure(self, small_network,
                                               failing_system):
        """A batch mixing good and failing jobs raises rather than
        returning a results list with holes."""
        batch = [make_job(small_network, AlbireoConfig())] \
            + self._failing_jobs(small_network, count=2)
        with pytest.raises(ValueError, match="injected failure"):
            run_jobs(batch, workers=2, cache=EvaluationCache())


class TestSweepBuilders:
    def test_parameter_grid_order(self):
        grid = parameter_grid(a=(1, 2), b=("x", "y"))
        assert grid == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                        {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_memory_sweep_sizes_fused_buffer(self, small_network):
        from repro.energy import AGGRESSIVE

        jobs = memory_sweep_jobs(small_network, AlbireoConfig(),
                                 scenarios=(AGGRESSIVE,), batch_sizes=(1,))
        by_fused = {job.tag("fused"): job for job in jobs}
        assert set(by_fused) == {False, True}
        assert (by_fused[True].config.global_buffer_kib
                >= by_fused[False].config.global_buffer_kib)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_reuse_jobs_match_dse_points(self, small_network):
        """The engine path returns the same grid the legacy loop produced."""
        from repro.systems import sweep_reuse_factors

        points = sweep_reuse_factors(
            small_network, AlbireoConfig(),
            output_reuse_values=(3, 9), input_reuse_values=(9,),
            weight_lane_variants=(("Original", 1),),
        )
        combos = [(p.output_reuse, p.input_reuse, p.variant) for p in points]
        assert combos == [(3, 9, "Original"), (9, 9, "Original")]


class TestParetoFrontier:
    def test_matches_brute_force_2d(self):
        import random

        rng = random.Random(7)
        points = [(rng.randrange(20), rng.randrange(20)) for _ in range(200)]
        assert pareto_frontier(points, lambda p: p) \
            == _brute_force(points, lambda p: p)

    def test_matches_brute_force_3d(self):
        import random

        rng = random.Random(11)
        points = [tuple(rng.randrange(8) for _ in range(3))
                  for _ in range(120)]
        assert pareto_frontier(points, lambda p: p) \
            == _brute_force(points, lambda p: p)

    def test_duplicates_all_survive(self):
        points = [(1, 1), (2, 0), (1, 1), (0, 2)]
        frontier = pareto_frontier(points, lambda p: p)
        assert frontier == points

    def test_input_order_preserved(self):
        points = [(3, 1), (1, 3), (2, 2)]
        assert pareto_frontier(points, lambda p: p) == points

    def test_mismatched_objective_width_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier([(1, 2), (1,)], lambda p: p)


def _brute_force(points, objectives):
    costs = [tuple(objectives(p)) for p in points]
    keep = []
    for i, point in enumerate(points):
        dominated = any(
            all(o <= c for o, c in zip(other, costs[i]))
            and any(o < c for o, c in zip(other, costs[i]))
            for j, other in enumerate(costs) if j != i)
        if not dominated:
            keep.append(point)
    return keep


class TestOnRecordSeam:
    """run_jobs(on_record=...): exactly one call per job, at final-
    outcome time, on every execution path (the streaming seam the
    service and the CLI progress printer are built on)."""

    def _jobs(self):
        from repro.systems import CrossbarConfig

        return [make_job(tiny_cnn(),
                         CrossbarConfig(global_buffer_kib=kib))
                for kib in (256, 512, 1024)]

    def _collect(self, **kwargs):
        calls = []
        results = run_jobs(
            self._jobs(),
            on_record=lambda index, job, outcome:
                calls.append((index, job.key, outcome)),
            **kwargs)
        return calls, results

    def test_serial_fires_once_per_job_with_final_outcome(self):
        calls, results = self._collect()
        assert sorted(index for index, _, _ in calls) == [0, 1, 2]
        for index, key, outcome in calls:
            assert outcome is results[index]
            assert key == self._jobs()[index].key

    def test_serial_record_streams_before_the_next_job_runs(
            self, monkeypatch):
        """In-process, each job is assembled as soon as its own tasks
        ran: the first record streams before the second configuration's
        layers are evaluated (what keeps a study's first record early)."""
        from repro.systems.base import PhotonicSystem

        evaluated = []
        evaluate_layer = PhotonicSystem.evaluate_layer

        def counting(system, *args, **kwargs):
            evaluated.append(system.config)
            return evaluate_layer(system, *args, **kwargs)

        monkeypatch.setattr(PhotonicSystem, "evaluate_layer", counting)
        jobs = self._jobs()[:2]
        at_first = []
        run_jobs(jobs, on_record=lambda index, job, outcome:
                 at_first or at_first.append(list(evaluated)))
        assert at_first[0]
        assert set(at_first[0]) == {jobs[0].config}
        assert len(evaluated) == 2 * len(at_first[0])

    def test_cache_hits_still_fire(self, tmp_path):
        cache = EvaluationCache(str(tmp_path))
        first, _ = self._collect(cache=cache)
        warm, results = self._collect(cache=cache)
        assert len(warm) == 3  # pure-hit run streams every record
        key = lambda call: call[0]
        assert [outcome.total_cycles
                for _, _, outcome in sorted(warm, key=key)] \
            == [outcome.total_cycles
                for _, _, outcome in sorted(first, key=key)]
        assert all(outcome is results[index]
                   for index, _, outcome in warm)

    def test_parallel_paths_fire_once_per_job(self):
        serial = run_jobs(self._jobs())
        calls, results = self._collect(workers=2)
        assert sorted(index for index, _, _ in calls) == [0, 1, 2]
        for a, b in zip(results, serial):
            assert _evaluations_identical(a, b)
        assert all(outcome is results[index]
                   for index, _, outcome in calls)

    def test_failures_fire_with_job_failure_outcome(self):
        from repro.engine import FailurePolicy, JobFailure

        jobs = self._jobs()
        calls = []
        results = run_jobs(
            jobs, failure_policy=FailurePolicy(on_error="skip"),
            inject=[{"match": "crossbar:*:job", "action": "raise",
                     "attempt": -1}],
            on_record=lambda index, job, outcome:
                calls.append((index, outcome)))
        assert len(calls) == len(jobs)
        assert all(isinstance(outcome, JobFailure)
                   for _, outcome in calls)
        assert all(outcome is results[index] for index, outcome in calls)

    def test_retry_fires_only_on_the_final_outcome(self):
        """Under retry, intermediate failed attempts do not stream; the
        single call per job carries the eventually-successful result."""
        from repro.engine import FailurePolicy, JobFailure

        calls = []
        results = run_jobs(
            self._jobs(),
            failure_policy=FailurePolicy(on_error="retry",
                                         max_retries=2, backoff=0.0),
            inject=[{"match": "crossbar:*:job", "action": "raise",
                     "attempt": 0}],  # first attempt only
            on_record=lambda index, job, outcome:
                calls.append((index, outcome)))
        assert len(calls) == 3
        assert not any(isinstance(outcome, JobFailure)
                       for _, outcome in calls)
        assert all(outcome is results[index] for index, outcome in calls)

    def test_on_record_exception_aborts_the_run(self):
        class StopStreaming(RuntimeError):
            pass

        def explode(index, job, outcome):
            raise StopStreaming("caller cancelled")

        with pytest.raises(StopStreaming):
            run_jobs(self._jobs(), on_record=explode)
