"""Tests for the shared SearchContext and the mapper's hot-path protocols.

Covers the context construction cache, the process-wide geometry tables
(a new configuration must not grow the heap), the cheap early capacity
check (which must agree exactly with the analyzer's CapacityError
behaviour), the check-once protocol, and the search-efficiency
counters.
"""

import gc
import pickle

import pytest

from repro.exceptions import CapacityError, MappingError
from repro.mapping import Mapper
from repro.mapping.analysis import NestAnalyzer, SearchContext, analyze
from repro.mapping.mapping import (
    FanoutMapping,
    LevelMapping,
    Mapping,
    TemporalLoop,
)
from repro.systems.albireo import (
    AlbireoConfig,
    AlbireoSystem,
    albireo_constraints,
    albireo_mapping_candidates,
)
from repro.workloads import ConvLayer
from repro.workloads.dims import Dim

LAYER = ConvLayer(name="ctx-conv", m=64, c=64, p=14, q=14, r=3, s=3)


@pytest.fixture(scope="module")
def system():
    return AlbireoSystem(AlbireoConfig())


class TestContextConstruction:
    def test_for_layer_reuses_instances(self, system):
        a = SearchContext.for_layer(system.architecture, LAYER)
        b = SearchContext.for_layer(system.architecture, LAYER)
        assert a is b

    def test_layers_sharing_geometry_share_contexts(self, system):
        other = ConvLayer(name="other", m=32, c=16, p=7, q=7, r=3, s=3)
        a = SearchContext.for_layer(system.architecture, LAYER)
        b = SearchContext.for_layer(system.architecture, other)
        assert a is b  # same strides and datatype widths

    def test_different_strides_get_distinct_contexts(self, system):
        strided = ConvLayer(name="strided", m=32, c=16, p=7, q=7, r=3, s=3,
                            stride_h=2, stride_w=2)
        a = SearchContext.for_layer(system.architecture, LAYER)
        b = SearchContext.for_layer(system.architecture, strided)
        assert a is not b

    def test_geometry_tables_shared_across_configurations(self):
        """Contexts of two configurations share the fill-event table and,
        per stride pair, the tile-size table; the amortization memo reads
        the fanouts, so it stays per context."""
        strided = ConvLayer(name="strided", m=32, c=16, p=7, q=7, r=3, s=3,
                            stride_h=2, stride_w=2)
        first = AlbireoSystem(AlbireoConfig(clock_ghz=3.0)).architecture
        second = AlbireoSystem(AlbireoConfig(clock_ghz=4.0)).architecture
        a = SearchContext.for_layer(first, LAYER)
        b = SearchContext.for_layer(second, LAYER)
        c = SearchContext.for_layer(second, strided)
        assert a is not b
        assert a._fill_memo is b._fill_memo is c._fill_memo
        assert a._tile_memo is b._tile_memo
        assert c._tile_memo is not a._tile_memo
        assert a._amort_memo is not b._amort_memo

    def test_incompatible_context_rejected(self, system):
        strided = ConvLayer(name="strided", m=32, c=16, p=7, q=7, r=3, s=3,
                            stride_h=2, stride_w=2)
        context = SearchContext.for_layer(system.architecture, strided)
        mapping = system.reference_mapping(LAYER)
        with pytest.raises(MappingError):
            NestAnalyzer(system.architecture, LAYER, mapping,
                         context=context)

    def test_context_analysis_matches_fresh_analysis(self, system):
        context = SearchContext.for_layer(system.architecture, LAYER)
        for mapping in albireo_mapping_candidates(system.config, LAYER):
            fresh = analyze(system.architecture, LAYER, mapping)
            shared = analyze(system.architecture, LAYER, mapping,
                             context=context)
            assert fresh.storage["DRAM"].reads \
                == shared.storage["DRAM"].reads
            assert fresh.conversions == shared.conversions
            assert fresh.occupancy_bits == shared.occupancy_bits


class TestEarlyCapacityCheck:
    def _over_capacity_mapping(self):
        """A heavily padded single GlobalBuffer tile: over its capacity.

        512 x 512 x 3 x 3 weights alone need ~18.9 Mbit against the 8.6
        Mbit (1 MiB) default buffer.
        """
        return Mapping(
            levels=(
                LevelMapping("DRAM", ()),
                LevelMapping("GlobalBuffer", (
                    TemporalLoop(Dim.M, 512), TemporalLoop(Dim.C, 512),
                    TemporalLoop(Dim.P, 14), TemporalLoop(Dim.Q, 14),
                    TemporalLoop(Dim.R, 3), TemporalLoop(Dim.S, 3))),
                LevelMapping("AEIntegrator", ()),
            ),
            spatials=tuple(
                FanoutMapping(name, {}) for name in
                ("clusters", "weight_lanes", "star_coupler",
                 "window_sites", "wavelengths")),
        )

    def test_agrees_with_analyzer_rejection(self, system):
        context = SearchContext.for_layer(system.architecture, LAYER)
        mapping = self._over_capacity_mapping()
        assert context.capacity_violation(mapping) == "GlobalBuffer"
        with pytest.raises(CapacityError):
            analyze(system.architecture, LAYER, mapping)

    def test_agrees_with_analyzer_acceptance(self, system):
        context = SearchContext.for_layer(system.architecture, LAYER)
        for mapping in albireo_mapping_candidates(system.config, LAYER):
            violation = context.capacity_violation(mapping)
            if violation is None:
                analyze(system.architecture, LAYER, mapping)  # must not raise
            else:
                with pytest.raises(CapacityError):
                    analyze(system.architecture, LAYER, mapping)


class TestValidateOnceProtocol:
    def test_candidates_validated_exactly_once(self, system, monkeypatch):
        """With a batch-pricing cost fn, each candidate is checked once.

        A seeded Mapping runs Mapping.validate once; a generated row runs
        the mapper's row check once, and the spatial-only rules run once
        per spatial group; the analyzers validate nothing (the
        pre-overhaul code validated twice per candidate)."""
        from repro.mapping import analysis, mapper as mapper_module

        seeds = tuple(albireo_mapping_candidates(system.config, LAYER))[:2]
        validated, row_checks, group_checks, analyzer_flags = [], [], [], []
        original_validate = Mapping.validate
        original_row = Mapper._row_failure
        original_group = mapper_module.spatial_failure
        original_batch = analysis.BatchNestAnalyzer.__init__

        def counting_validate(self, architecture, layer):
            validated.append(self)
            return original_validate(self, architecture, layer)

        def counting_row(self, row, required):
            row_checks.append(row)
            return original_row(self, row, required)

        def counting_group(group, architecture):
            group_checks.append(group)
            return original_group(group, architecture)

        def recording_batch(self, *args, **kwargs):
            analyzer_flags.append(kwargs.get("validate", True))
            return original_batch(self, *args, **kwargs)

        def no_scalar_analyzer(self, *args, **kwargs):
            raise AssertionError("a batch search built a scalar analyzer")

        monkeypatch.setattr(Mapping, "validate", counting_validate)
        monkeypatch.setattr(Mapper, "_row_failure", counting_row)
        monkeypatch.setattr(mapper_module, "spatial_failure", counting_group)
        monkeypatch.setattr(analysis.BatchNestAnalyzer, "__init__",
                            recording_batch)
        monkeypatch.setattr(analysis.NestAnalyzer, "__init__",
                            no_scalar_analyzer)
        mapper = Mapper(
            system.architecture,
            cost_fn=system.model.energy_cost_fn(LAYER),
            constraints=albireo_constraints(system.config, LAYER),
        )
        result = mapper.search(LAYER, max_evaluations=40, seed=0,
                               extra_candidates=seeds)
        assert result.valid > 0
        assert [id(m) for m in validated] == [id(m) for m in seeds]
        assert len(row_checks) == result.evaluated - len(seeds)
        assert len({id(row) for row in row_checks}) == len(row_checks)
        # The spatial-only rules ran once per spatial group, covering the
        # group of every checked row.
        checked_groups = [id(group) for group in group_checks]
        assert len(set(checked_groups)) == len(checked_groups)
        assert {id(row.group) for row in row_checks} <= set(checked_groups)
        assert analyzer_flags == [False]

    def test_pickled_mapping_drops_validation_memo(self, system):
        mapping = system.reference_mapping(LAYER)
        mapping.validate(system.architecture, LAYER)
        clone = pickle.loads(pickle.dumps(mapping))
        assert "_validated_cache" not in clone.__dict__
        assert clone.padded_dims() == mapping.padded_dims()


class TestCanonicalKeyConsistency:
    def test_spec_keys_equal_materialized_canonical_keys(self, system):
        """The mapper's spec-side key format must track Mapping.canonical_key.

        Dedup against seeded candidates compares keys built from candidate
        specs (before materialization) with keys from Mapping objects; if
        the two formats ever drift apart, duplicates get priced twice and
        nothing else fails.  This pins their equivalence.
        """
        import random

        from repro.mapping.mapper import _materialize

        mapper = Mapper(
            system.architecture,
            cost_fn=system.model.energy_cost_fn(LAYER),
            constraints=albireo_constraints(system.config, LAYER),
        )
        seen = set()
        specs, _ = mapper._generate_specs(LAYER, random.Random(0), seen, 60)
        assert specs
        for spec in specs:
            assert _materialize(spec).canonical_key() in seen


class TestSearchCounters:
    def test_duplicates_are_skipped_and_counted(self, system):
        """A tiny problem collapses many specs onto the same schedule."""
        tiny = ConvLayer(name="tiny", m=2, c=2, p=1, q=1)
        result = system.search_mapping(tiny, max_evaluations=2000, seed=0)
        assert result.deduplicated > 0
        assert result.valid > 0

    def test_early_pruning_counts_capacity_rejections(self):
        """A small global buffer makes many candidates prunable."""
        system = AlbireoSystem(AlbireoConfig(global_buffer_kib=16))
        layer = ConvLayer(name="big", m=96, c=96, p=14, q=14, r=3, s=3)
        result = system.search_mapping(layer, max_evaluations=150, seed=0)
        assert result.pruned_early > 0
        # Pruned candidates are evaluated-but-invalid, exactly as the full
        # analysis would have classified them.
        assert result.valid + result.pruned_early <= result.evaluated

    def test_pruning_never_changes_the_outcome(self, system):
        """Search with and without the context fast path agrees.

        A cost function without ``supports_context`` takes the legacy
        path (validate + full analysis, no pruning); the result must
        match the accelerated path bit-for-bit.
        """
        legacy_fn = system.model.energy_cost_fn(LAYER)
        legacy_fn.supports_context = False
        fast = Mapper(
            system.architecture,
            cost_fn=system.model.energy_cost_fn(LAYER),
            constraints=albireo_constraints(system.config, LAYER),
        ).search(LAYER, max_evaluations=80, seed=3)
        legacy = Mapper(
            system.architecture,
            cost_fn=legacy_fn,
            constraints=albireo_constraints(system.config, LAYER),
        ).search(LAYER, max_evaluations=80, seed=3)
        assert fast.cost == legacy.cost
        assert fast.mapping == legacy.mapping
        assert fast.evaluated == legacy.evaluated
        assert fast.valid == legacy.valid


class TestBoundedHeap:
    def test_new_configurations_leave_the_heap_flat(self):
        """Serial use_mapper studies, each on a new configuration (a new
        clock), must not leave per-configuration geometry tables behind:
        the GC-tracked object count stays nearly flat after the first.

        Per-configuration tables would add ~19k tracked objects per
        study, mostly memo-key tuples; a study's own architecture and
        energy-table builds add a few hundred."""
        from repro.api import Study

        counts = []
        for index in range(6):
            (Study().systems("crossbar").networks("tiny")
             .grid(clock_ghz=[2.0 + 0.37 * index])
             .options(use_mapper=True).run())
            gc.collect()
            counts.append(len(gc.get_objects()))
        per_study = (counts[-1] - counts[0]) / (len(counts) - 1)
        assert per_study < 2000, (per_study, counts)
