"""System conformance suite: the contract every registered system obeys.

Runs against every entry in :mod:`repro.systems.registry` — including
systems added later — so a new accelerator is contract-tested by
registering, with no new test code:

* the registry bundle is well-formed (types, builders, buckets, sweep);
* reference mappings validate for convolution, FC, strided, and awkward
  shapes;
* evaluations produce finite positive energy/latency and exact MAC
  accounting;
* the engine cache round-trips (warm second run is a pure hit with a
  bit-identical result);
* in-process and pooled runs match the store-less object path
  (``evaluate_network``) bit for bit, with or without DRAM and fusion,
  plan the same tasks, and leave byte-identical cache entries;
* the duck-typed ``store`` seam memoizes mapper searches and layer
  evaluations;
* the sub-task seams agree with the evaluation path: enumerated tasks
  warm exactly the entries ``evaluate_network`` looks up, and layer
  names never change the numbers (the contract that lets same-shape
  layers share one shape-keyed store entry);
* reference candidates never read the clock or the scaling scenario, so
  configurations that differ only in those share their action counts
  within one run or pool batch, with records identical to running each
  job alone; configurations that differ in any other field (even one no
  node carries) share nothing, and no counts outlive the run or batch.
"""

import copy
import dataclasses
import json
import math

import pytest

from repro.api import Study
from repro.energy import AGGRESSIVE, CONSERVATIVE
from repro.engine import (
    EvaluationCache,
    build_plan,
    make_job,
    run_job,
    run_jobs,
)
from repro.engine.cache import SystemStore
from repro.engine.codec import (
    layer_evaluation_to_dict,
    network_evaluation_to_dict,
)
from repro.engine.pool import _run_wire_batch
from repro.mapping.analysis import NestAnalyzer
from repro.mapping.mapping import Mapping
from repro.model.results import NetworkEvaluation
from repro.systems.base import PhotonicSystem, SubTask, layer_shape_key
from repro.systems.registry import system_entries
from repro.workloads import (
    ConvLayer,
    Network,
    alexnet,
    dense_layer,
    resnet18,
    tiny_cnn,
)

ENTRIES = system_entries()

LAYERS = (
    ConvLayer(name="conv3x3", m=64, c=32, p=14, q=14, r=3, s=3),
    dense_layer("fc", 256, 512),
    ConvLayer(name="strided", m=32, c=16, p=16, q=16, r=5, s=5,
              stride_h=2, stride_w=2),
    ConvLayer(name="awkward", m=13, c=7, p=5, q=3, r=2, s=2),
)


@pytest.fixture(params=sorted(ENTRIES), ids=sorted(ENTRIES))
def entry(request):
    return ENTRIES[request.param]


class TestRegistryBundle:
    def test_entry_well_formed(self, entry):
        assert issubclass(entry.system_type, PhotonicSystem)
        assert entry.system_type.name == entry.name
        assert entry.system_type.config_type is entry.config_type
        assert entry.description
        config = entry.config_type()  # default-constructible
        assert entry.name.split("_")[0] in config.describe().lower()
        assert config.peak_macs_per_cycle >= 1

    def test_builders_are_the_system_hooks(self, entry):
        # The registry's builders must be the very functions the system
        # class uses — job-identity hashing and system construction must
        # agree (and share the build cache).
        assert entry.system_type.build_architecture \
            is entry.build_architecture
        assert entry.system_type.build_energy_table \
            is entry.build_energy_table

    def test_energy_table_prices_every_component(self, entry):
        config = entry.config_type()
        architecture = entry.build_architecture(config)
        table = entry.build_energy_table(config)
        for component in architecture.component_names():
            assert component in table, (
                f"{entry.name}: component {component!r} unpriced")

    def test_buckets_align_for_cross_system_figures(self, entry):
        assert "DRAM" in entry.buckets.order
        assert "Weight DE/AE, AE/AO" in entry.buckets.order

    def test_default_sweep_builds_own_configs(self, entry):
        configs = list(entry.default_sweep())
        assert configs
        assert all(isinstance(config, entry.config_type)
                   for config in configs)
        for header, getter in entry.sweep_columns:
            assert header
            getter(configs[0])  # resolvable on every grid point

    def test_register_rejects_non_photonic_system(self):
        """The engine drives every registered system through the
        PhotonicSystem store and sub-task seams, with no fallback path,
        so registration refuses any other system type."""
        from repro.exceptions import SpecError
        from repro.systems import registry

        class PlainSystem:
            def __init__(self, config=None, store=None):
                self.config = config

        entry = dataclasses.replace(ENTRIES["albireo"], name="plain",
                                    system_type=PlainSystem)
        with pytest.raises(SpecError, match="PhotonicSystem"):
            registry.register_system(entry)
        assert "plain" not in registry.system_entries()


class TestReferenceMappings:
    @pytest.mark.parametrize("layer", LAYERS, ids=[l.name for l in LAYERS])
    def test_valid_for_shape(self, entry, layer):
        system = entry.system_type()
        mapping = system.reference_mapping(layer)
        assert isinstance(mapping, Mapping)
        target = system.analysis_layer(layer)
        mapping.validate(system.architecture, target)

    def test_candidates_priced_deterministically(self, entry):
        layer = LAYERS[0]
        first = entry.system_type().reference_mapping(layer)
        second = entry.system_type().reference_mapping(layer)
        assert repr(first) == repr(second)


class TestEvaluation:
    @pytest.mark.parametrize("layer", LAYERS, ids=[l.name for l in LAYERS])
    def test_layer_energy_and_latency_finite(self, entry, layer):
        evaluation = entry.system_type().evaluate_layer(layer)
        assert math.isfinite(evaluation.energy_pj)
        assert evaluation.energy_pj > 0
        assert evaluation.cycles >= 1
        assert 0 < evaluation.utilization <= 1.0

    def test_network_mac_accounting_exact(self, entry):
        network = tiny_cnn()
        evaluation = entry.system_type().evaluate_network(network)
        assert evaluation.total_macs == network.total_macs
        assert math.isfinite(evaluation.energy_pj)

    def test_mapper_search_not_worse_than_reference(self, entry):
        system = entry.system_type()
        layer = LAYERS[0]
        reference = system.evaluate_layer(layer).energy_pj
        result = system.search_mapping(layer, max_evaluations=80, seed=1)
        assert result.cost <= reference * (1 + 1e-9)


class TestEngineIntegration:
    def test_cache_round_trip_bit_identical(self, entry, tmp_path):
        cache = EvaluationCache(str(tmp_path))
        job = make_job(tiny_cnn(), entry.config_type())
        assert job.system == entry.name
        cold = run_job(job, cache=cache)
        cache.save()
        warm_cache = EvaluationCache(str(tmp_path))
        warm = run_job(job, cache=warm_cache)
        assert warm_cache.stats["results"].hits == 1
        assert warm_cache.stats["results"].misses == 0
        assert network_evaluation_to_dict(warm) \
            == network_evaluation_to_dict(cold)

    def test_serial_equals_parallel(self, entry):
        configs = list(entry.default_sweep())[:2]
        jobs = [make_job(tiny_cnn(), config) for config in configs]
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=2)
        assert [network_evaluation_to_dict(e) for e in serial] \
            == [network_evaluation_to_dict(e) for e in parallel]

    @pytest.mark.parametrize("include_dram", (True, False),
                             ids=("dram", "no-dram"))
    @pytest.mark.parametrize("fused", (False, True), ids=("plain", "fused"))
    def test_serial_equals_planned_parallel(self, entry, fused,
                                            include_dram):
        """In-process and pooled runs, with and without a cache, match
        the store-less object path bit for bit, and both plan alike."""
        network = tiny_cnn()
        configs = list(entry.default_sweep())[:3]
        jobs = [make_job(network, config, fused=fused,
                         include_dram=include_dram) for config in configs]
        reference = []
        for config in configs:
            spec = network_evaluation_to_dict(
                entry.system_type(config).evaluate_network(network,
                                                           fused=fused))
            if not include_dram:
                for layer, _count in spec["layers"]:
                    layer["energy"] = [row for row in layer["energy"]
                                       if row[0] != "DRAM"]
            reference.append(spec)
        caches = {"serial": EvaluationCache(), "planned": EvaluationCache()}
        runs = {
            "serial": run_jobs(jobs, workers=1, cache=caches["serial"]),
            "planned": run_jobs(jobs, workers=2, cache=caches["planned"]),
            "serial cacheless": run_jobs(jobs, workers=1),
            "planned cacheless": run_jobs(jobs, workers=2),
        }
        for path, results in runs.items():
            assert [network_evaluation_to_dict(e) for e in results] \
                == reference, path
        serial, planned = (caches[path].planner.to_dict()
                           for path in ("serial", "planned"))
        assert planned["phase1_tasks"] > 0
        assert serial["batches"] == 0 < planned["batches"]
        del serial["batches"], planned["batches"]
        assert serial == planned

    def test_pooled_entries_are_byte_identical_to_serial(self, entry):
        """A pool worker's entries reach the parent's cache unchanged:
        the same keys, and each value's JSON text (field order included)
        equal to the in-process run's."""

        def entries(workers):
            cache = EvaluationCache()
            for use_mapper in (False, True):
                (Study().systems(entry.name).networks("tiny")
                 .fusion(False, True).options(use_mapper=use_mapper)
                 .run(workers=workers, cache=cache))
            return cache.snapshot()

        serial, pooled = entries(1), entries(2)
        for namespace in ("layers", "mappings"):
            assert serial[namespace], namespace
            assert pooled[namespace].keys() == serial[namespace].keys()
            for key, value in serial[namespace].items():
                assert json.dumps(pooled[namespace][key]) \
                    == json.dumps(value), (namespace, key)

    def test_planner_warm_cache_replays_without_tasks(self, entry, tmp_path):
        """A warmed cache replays the planned sweep as pure hits: the
        planner schedules zero phase-1 work the second time."""
        cache_dir = str(tmp_path / "sweep")
        configs = list(entry.default_sweep())[:3]
        jobs = [make_job(tiny_cnn(), config) for config in configs]
        run_jobs(jobs, workers=2, cache=cache_dir)
        warm = EvaluationCache(cache_dir)
        run_jobs(jobs, workers=2, cache=warm)
        assert warm.stats["results"].hits == len(jobs)
        assert warm.stats["results"].misses == 0
        assert warm.planner.phase1_tasks == 0

    def test_store_seam_memoizes(self, entry):
        cache = EvaluationCache()
        store = SystemStore(cache, "contract-" + entry.name)
        system = entry.system_type(entry.config_type(), store=store)
        layer = LAYERS[0]

        first = system.search_mapping(layer, max_evaluations=60, seed=3)
        hits_before = cache.stats["mappings"].hits
        second = system.search_mapping(layer, max_evaluations=60, seed=3)
        assert cache.stats["mappings"].hits == hits_before + 1
        assert repr(second.mapping) == repr(first.mapping)
        assert second.cost == first.cost

        eval_first = system.evaluate_layer(layer)
        layer_hits = cache.stats["layers"].hits
        eval_second = system.evaluate_layer(layer)
        assert cache.stats["layers"].hits == layer_hits + 1
        assert eval_second.energy_pj == eval_first.energy_pj

    def test_every_system_reaches_full_cache_reuse(self, entry, tmp_path):
        """The satellite claim: warmed-cache sweeps for *every* system."""
        cache_dir = str(tmp_path / "sweep")
        configs = list(entry.default_sweep())[:3]
        jobs = [make_job(tiny_cnn(), config) for config in configs]
        run_jobs(jobs, cache=cache_dir)
        warm = EvaluationCache(cache_dir)
        run_jobs(jobs, cache=warm)
        assert warm.stats["results"].hits == len(jobs)
        assert warm.stats["results"].misses == 0


class TestSubTaskSeams:
    """The planner's contract with every registered system."""

    @pytest.mark.parametrize("fused", (False, True), ids=("plain", "fused"))
    def test_enumerated_tasks_warm_exactly_what_evaluation_reads(
            self, entry, fused):
        """Computing the enumerated sub-tasks first makes the subsequent
        network evaluation a pure store hit — proving the enumeration
        and the evaluation path agree on coverage and on keys."""
        network = tiny_cnn()
        cache = EvaluationCache()
        store = SystemStore(cache, "seam-" + entry.name)
        system = entry.system_type(entry.config_type(), store=store)
        tasks = system.enumerate_sub_tasks(network, fused=fused)
        assert tasks
        assert all(task.kind == "layer" for task in tasks)  # no mapper
        keys = [system.sub_task_store_key(task) for task in tasks]
        assert len(set(keys)) == len(keys)  # enumeration pre-deduplicated
        for task in tasks:
            system.compute_sub_task(task)
        misses_before = cache.stats["layers"].misses
        warmed = system.evaluate_network(network, fused=fused)
        assert cache.stats["layers"].misses == misses_before
        plain = entry.system_type(entry.config_type()).evaluate_network(
            network, fused=fused)
        assert network_evaluation_to_dict(warmed) \
            == network_evaluation_to_dict(plain)

    def test_mapper_tasks_precede_their_consumers(self, entry):
        system = entry.system_type(entry.config_type())
        tasks = system.enumerate_sub_tasks(tiny_cnn(), use_mapper=True)
        kinds = [task.kind for task in tasks]
        assert "mapper" in kinds
        assert kinds.index("layer") > kinds.index("mapper")
        last_mapper = max(i for i, kind in enumerate(kinds)
                          if kind == "mapper")
        assert all(kind == "layer" for kind in kinds[last_mapper + 1:])

    def test_layer_name_does_not_affect_numbers(self, entry):
        """The shape-keyed store contract: two layers differing only in
        name evaluate to dicts identical in everything but that name, so
        they may share one store entry."""
        layer_a = LAYERS[0]
        layer_b = dataclasses.replace(layer_a, name="renamed")
        system = entry.system_type(entry.config_type())
        dict_a = layer_evaluation_to_dict(system.evaluate_layer(layer_a))
        dict_b = layer_evaluation_to_dict(system.evaluate_layer(layer_b))
        dict_b["layer"]["name"] = layer_a.name
        assert dict_a == dict_b
        assert system.sub_task_store_key(SubTask(kind="layer",
                                                 layer=layer_a)) \
            == system.sub_task_store_key(SubTask(kind="layer",
                                                 layer=layer_b))


# ---------------------------------------------------------------------------
# Count once per geometry, price per configuration
# ---------------------------------------------------------------------------

#: Every DRAM-flag pair, fused blocks first: pricing them must leave the
#: shared counts intact for the unfused block that comes last.
DRAM_FLAGS = ((False, False), (True, False), (False, True), (True, True))


def _with_buffer(config, kib):
    """``config`` with ``global_buffer_kib=kib``, where it has the field."""
    if "global_buffer_kib" not in {f.name for f in dataclasses.fields(config)}:
        return config
    return dataclasses.replace(config, global_buffer_kib=kib)


def _second_clock(config):
    return dataclasses.replace(config, clock_ghz=config.clock_ghz * 0.8)


def _second_scenario(config):
    """``config`` under the other scaling scenario (None without one)."""
    if not hasattr(config, "scenario"):
        return None
    other = AGGRESSIVE if config.scenario != AGGRESSIVE else CONSERVATIVE
    return dataclasses.replace(config, scenario=other)


def _energy_variants(config):
    """``config`` at two clocks and, where it has one, two scenarios."""
    variants = [config, _second_clock(config)]
    if _second_scenario(config) is not None:
        variants += [_second_scenario(variant) for variant in variants]
    return variants


def _node_preserving_variants(entry):
    """The default config with one numeric field other than ``clock_ghz``
    changed, for each such field whose change leaves the architecture's
    nodes equal (a crossbar's ``hold_cycles``, say).  The candidates may
    read these fields, so configs that differ in them share no counts.
    """
    config = entry.config_type()
    nodes = entry.build_architecture(config).nodes
    variants = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name == "clock_ghz" or type(value) not in (int, float):
            continue
        changed = max(1, value // 64) if type(value) is int else value * 2
        variant = dataclasses.replace(config, **{field.name: changed})
        if variant != config \
                and entry.build_architecture(variant).nodes == nodes:
            variants.append(variant)
    return variants


def _count_analyses(monkeypatch, run):
    """Call ``run()`` and return how many nest analyses it ran."""
    calls = [0]
    analyze = NestAnalyzer.analyze

    def counting(self):
        calls[0] += 1
        return analyze(self)

    monkeypatch.setattr(NestAnalyzer, "analyze", counting)
    try:
        run()
    finally:
        monkeypatch.setattr(NestAnalyzer, "analyze", analyze)
    return calls[0]


def _twin_batch(entry):
    """The first planned batch of a 2-geometry x 2-clock ResNet18 study
    at ``workers=2``: one geometry's two clock twins."""
    geometries = [_with_buffer(entry.config_type(), kib)
                  for kib in (1024, 2048)]
    jobs = [make_job(resnet18(), config)
            for base in geometries for config in (base, _second_clock(base))]
    return build_plan(jobs, EvaluationCache(), workers=2).batches[0]


def _run_batch(chunks):
    """Run ``chunks`` as one pool batch, in this process."""
    return _run_wire_batch((0, None, [
        (chunk.system, chunk.config, chunk.system_key, chunk.deps,
         chunk.tasks) for chunk in chunks], None, 0))


class TestGeometrySharing:
    """The :meth:`PhotonicSystem.mapping_candidates` contract and the
    run-scoped counts memo that relies on it."""

    def test_energy_variants_share_geometry_and_candidates(self, entry):
        systems = [entry.system_type(config)
                   for config in _energy_variants(entry.config_type())]
        nodes = systems[0].architecture.nodes
        assert all(system.architecture.nodes == nodes for system in systems)
        for layer in LAYERS:
            targets = {layer_shape_key(system.analysis_layer(layer))
                       for system in systems}
            assert len(targets) == 1, layer.name
            keys = {tuple(mapping.canonical_key() for mapping in
                          system.mapping_candidates(
                              system.analysis_layer(layer)))
                    for system in systems}
            assert len(keys) == 1, layer.name

    def test_one_run_matches_each_job_alone(self, entry):
        networks = (tiny_cnn(), Network.from_layers("contract", LAYERS))
        jobs = [make_job(network, config, fused=fused,
                         include_dram=include_dram)
                for config in _energy_variants(entry.config_type())
                for network in networks
                for fused in (False, True)
                for include_dram in (True, False)]
        shared = run_jobs(jobs, cache=EvaluationCache())
        for job, evaluation in zip(jobs, shared):
            [alone] = run_jobs([job], cache=EvaluationCache())
            assert network_evaluation_to_dict(evaluation) \
                == network_evaluation_to_dict(alone), job.describe()

    def test_node_preserving_variants_keep_their_own_counts(self, entry):
        """Equal nodes are not enough to share: a field the nodes do not
        carry may still choose the candidates."""
        configs = [entry.config_type()] + _node_preserving_variants(entry)
        jobs = [make_job(network, config, fused=fused)
                for config in configs
                for network in (tiny_cnn(), resnet18())
                for fused in (False, True)]
        shared = run_jobs(jobs, cache=EvaluationCache())
        for job, evaluation in zip(jobs, shared):
            [alone] = run_jobs([job], cache=EvaluationCache())
            assert network_evaluation_to_dict(evaluation) \
                == network_evaluation_to_dict(alone), job.describe()

    @pytest.mark.parametrize("system", ["crossbar", "wdm_delay"])
    def test_hold_cycles_grid_matches_each_config_alone(self, system):
        """``hold_cycles`` is in no node, but it bounds the weight-bank
        budget the reference candidates are built from."""
        def records(hold_cycles):
            return Study.from_dict({
                "systems": [system], "networks": ["resnet18"],
                "grid": {"hold_cycles": hold_cycles},
            }).run(cache=EvaluationCache()).to_records()

        together = records([4096, 64])
        assert together == records([4096]) + records([64])
        assert together[0]["energy_pj"] != together[1]["energy_pj"]

    def test_energy_only_studies_analyze_no_more(self, entry, monkeypatch):
        """Clock and scenario change only prices, and fused blocks price
        an elided copy of the unfused counts: none of them analyzes."""
        # At 8 MiB ResNet18 and AlexNet fit the fusion capacity check on
        # every built-in system, so the fused arm runs.
        base = _with_buffer(entry.config_type(), 8192)
        networks = (resnet18(), alexnet())

        def analyses(configs, fused=(False,)):
            jobs = [make_job(network, config, fused=arm)
                    for config in configs for network in networks
                    for arm in fused]
            return _count_analyses(
                monkeypatch,
                lambda: run_jobs(jobs, cache=EvaluationCache()))

        one_clock = analyses([base])
        assert one_clock > 0
        assert analyses([base, _second_clock(base)]) == one_clock
        if _second_scenario(base) is not None:
            assert analyses([base, _second_scenario(base)]) == one_clock
        assert analyses([base], fused=(False, True)) == one_clock

    def test_worker_batch_analyzes_once_per_geometry(self, entry,
                                                     monkeypatch):
        """The planner packs a geometry's clock twins into one pool batch,
        whose segments share one counts memo: the twins together analyze
        no more than one of them alone."""
        batch = _twin_batch(entry)
        assert len(batch) == 2
        assert batch[1].config == _second_clock(batch[0].config)
        twins = _count_analyses(monkeypatch, lambda: _run_batch(batch))
        alone = _count_analyses(monkeypatch, lambda: _run_batch(batch[:1]))
        assert alone > 0
        assert twins == alone

    def test_pooled_energy_only_study_matches_serial(self):
        study = Study.from_dict({
            "systems": sorted(ENTRIES), "networks": ["resnet18"],
            "scenarios": ["conservative", "aggressive"],
            "grid": {"clock_ghz": [4.0, 5.0],
                     "global_buffer_kib": [1024, 2048]},
        })
        serial = study.run(cache=EvaluationCache())
        pooled = study.run(workers=2, cache=EvaluationCache())
        assert pooled.to_records() == serial.to_records()

    def test_dram_elision_leaves_its_input_unchanged(self, entry):
        system = entry.system_type()
        for layer in LAYERS:
            target = system.analysis_layer(layer)
            counts = system.model.counts(target,
                                         system.reference_mapping(layer))
            before = copy.deepcopy(counts)
            for flags in DRAM_FLAGS[:3]:
                elided = system.model._apply_dram_elision(counts, target,
                                                          *flags)
                assert elided is not counts
                assert elided != before
            assert counts == before, layer.name

    def test_shared_counts_price_like_fresh_evaluations(self, entry):
        memo = {}
        for config in _energy_variants(entry.config_type()):
            system = entry.system_type(config, store=SystemStore(
                EvaluationCache(), "contract", memo))
            for layer in LAYERS:
                for input_dram, output_dram in DRAM_FLAGS:
                    shared = system.evaluate_layer(
                        layer, input_from_dram=input_dram,
                        output_to_dram=output_dram)
                    fresh = entry.system_type(config).evaluate_layer(
                        layer, input_from_dram=input_dram,
                        output_to_dram=output_dram)
                    assert layer_evaluation_to_dict(shared) \
                        == layer_evaluation_to_dict(fresh)
        assert len(memo) == 1  # one geometry


class TestCountsLifetime:
    """Shared counts live for one run, or one pool batch: never on the
    cache, never in the process.  A daemon's long-lived cache must stay
    bounded, and a benchmark's fresh studies must start equally cold."""

    @staticmethod
    def _study(clocks):
        return Study.from_dict({
            "name": "lifetime",
            "systems": sorted(ENTRIES),
            "networks": ["resnet18", "alexnet"],
            "grid": {"clock_ghz": list(clocks)},
        })

    def test_runs_on_one_long_lived_cache(self, monkeypatch):
        cache = EvaluationCache()
        first = _count_analyses(
            monkeypatch, lambda: self._study((4.0, 4.5)).run(cache=cache))
        second = _count_analyses(
            monkeypatch, lambda: self._study((5.0, 5.5)).run(cache=cache))
        assert first > 0
        assert second == first

    def test_runs_on_fresh_caches(self, monkeypatch):
        first = _count_analyses(
            monkeypatch,
            lambda: self._study((4.0, 4.5)).run(cache=EvaluationCache()))
        second = _count_analyses(
            monkeypatch,
            lambda: self._study((5.0, 5.5)).run(cache=EvaluationCache()))
        assert first > 0
        assert second == first

    def test_worker_batches_start_cold(self, monkeypatch):
        """A pool batch's memo dies with it: the same payload run twice
        in one process analyzes as much the second time."""
        for entry in ENTRIES.values():
            batch = _twin_batch(entry)
            first = _count_analyses(monkeypatch, lambda: _run_batch(batch))
            second = _count_analyses(monkeypatch, lambda: _run_batch(batch))
            assert first > 0, entry.name
            assert second == first, entry.name
