"""The Study facade: composition, spec validation, engine execution, and
the prebuilt lattices."""

import dataclasses
import json
import warnings

import pytest

from repro.api import Study, comparison_study
from repro.energy.scaling import CONSERVATIVE
from repro.engine import network_evaluation_to_dict
from repro.exceptions import SpecError, WorkloadError
from repro.systems import CrossbarConfig
from repro.workloads import tiny_cnn


class TestStudyComposition:
    def test_lattice_size_and_order(self):
        jobs = (Study()
                .systems("albireo", "crossbar")
                .networks("tiny")
                .scenarios("conservative", "aggressive")
                .grid(global_buffer_kib=(512, 1024))
                .compile())
        assert len(jobs) == 2 * 2 * 2
        # Row-major: source -> scenario -> grid point.
        assert [job.system for job in jobs] == ["albireo"] * 4 \
            + ["crossbar"] * 4
        assert [job.config.scenario.name for job in jobs[:4]] \
            == ["conservative"] * 2 + ["aggressive"] * 2
        assert [job.config.global_buffer_kib for job in jobs[:2]] \
            == [512, 1024]

    def test_tags_carry_coordinates(self):
        job = (Study().systems("albireo").networks("tiny")
               .scenarios("aggressive").grid(clusters=(8,)).compile())[0]
        tags = job.tags_dict
        assert tags["system"] == "albireo"
        assert tags["network"] == "TinyCNN"
        assert tags["scenario"] == "aggressive"
        assert tags["clusters"] == 8
        assert tags["fused"] is False and tags["batch"] == 1

    def test_configs_source_with_tags(self):
        config = CrossbarConfig(tiles=4)
        job = (Study().configs((config, {"variant": "small"}))
               .networks(tiny_cnn()).compile())[0]
        assert job.system == "crossbar"
        assert job.config is config
        assert job.tags_dict["variant"] == "small"

    def test_batches_and_fusion_axes(self):
        jobs = (Study().systems("albireo").networks("tiny")
                .fusion(False, True).batches(1, 4).compile())
        assert [(job.fused, job.network.entries[0].layer.n)
                for job in jobs] \
            == [(False, 1), (False, 4), (True, 1), (True, 4)]

    def test_transform_hook_sees_point(self):
        seen = []

        def widen(config, point):
            seen.append((point.system, point.fused, point.batch))
            return dataclasses.replace(config, clusters=point.batch)

        jobs = (Study().systems("albireo").networks("tiny")
                .batches(2, 4).transform(widen).compile())
        assert [job.config.clusters for job in jobs] == [2, 4]
        assert seen == [("albireo", False, 2), ("albireo", False, 4)]

    def test_grid_key_applies_where_supported(self):
        """A key missing from one system's config applies to the others
        and leaves that system's config untouched."""
        jobs = (Study().systems("albireo", "crossbar").networks("tiny")
                .grid(clusters=(4,)).compile())
        assert jobs[0].config.clusters == 4          # albireo has it
        assert not hasattr(jobs[1].config, "clusters")  # crossbar doesn't

    def test_grid_tags_only_applied_overrides(self):
        """A record never claims a grid coordinate its evaluation
        ignored: unsupported keys are untagged, and points that collapse
        to the same config for a source are emitted once."""
        jobs = (Study().systems("albireo", "crossbar").networks("tiny")
                .grid(clusters=(4, 8)).compile())
        by_system = {}
        for job in jobs:
            by_system.setdefault(job.system, []).append(job)
        # Albireo sweeps the axis; both points tagged with their value.
        assert [job.tags_dict["clusters"]
                for job in by_system["albireo"]] == [4, 8]
        # Crossbar has no `clusters` field: one job, no misleading tag.
        assert len(by_system["crossbar"]) == 1
        assert "clusters" not in by_system["crossbar"][0].tags_dict

    def test_partially_supported_grid_keeps_distinct_points(self):
        """Points still differing in a supported key are all kept for a
        source that ignores the other axis."""
        jobs = (Study().systems("albireo", "crossbar").networks("tiny")
                .grid(clusters=(4, 8), tiles=(2, 4)).compile())
        albireo = [job for job in jobs if job.system == "albireo"]
        crossbar = [job for job in jobs if job.system == "crossbar"]
        # Albireo ignores `tiles`: the 2x2 grid collapses to 2 points.
        assert [job.config.clusters for job in albireo] == [4, 8]
        # Crossbar ignores `clusters`: collapses to the 2 tiles points.
        assert [job.config.tiles for job in crossbar] == [2, 4]
        assert all("clusters" not in job.tags_dict for job in crossbar)

    def test_parameter_grid_order(self):
        from repro.api.study import parameter_grid

        grid = parameter_grid(a=(1, 2), b=("x", "y"))
        assert grid == [{"a": 1, "b": "x"}, {"a": 1, "b": "y"},
                        {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]

    def test_compile_is_pure_and_repeatable(self):
        study = Study().systems("albireo").networks("tiny")
        first, second = study.compile(), study.compile()
        assert [job.key for job in first] == [job.key for job in second]


class TestStudyValidation:
    def test_unknown_system_lists_options(self):
        with pytest.raises(SpecError, match="albireo"):
            Study().systems("warpdrive")

    def test_unknown_network_lists_options(self):
        with pytest.raises(WorkloadError, match="resnet18"):
            Study().networks("imagenet99")

    def test_unknown_scenario_rejected(self):
        from repro.exceptions import CalibrationError

        with pytest.raises(CalibrationError, match="conservative"):
            Study().scenarios("optimistic")

    def test_empty_study_rejected(self):
        with pytest.raises(SpecError, match="systems or configs"):
            Study().networks("tiny").compile()
        with pytest.raises(SpecError, match="networks"):
            Study().systems("albireo").compile()

    def test_grid_key_matching_no_system_rejected(self):
        with pytest.raises(SpecError, match="starships"):
            (Study().systems("albireo").networks("tiny")
             .grid(starships=(1,)).compile())

    def test_unregistered_config_type_rejected(self):
        with pytest.raises(SpecError, match="infer"):
            Study().configs(object())


class TestStudySpec:
    SPEC = {
        "name": "spec-study",
        "systems": ["albireo", "crossbar"],
        "networks": ["tiny"],
        "scenarios": ["conservative"],
        "grid": {"global_buffer_kib": [512, 1024]},
        "options": {"use_mapper": False},
    }

    def test_from_dict_compiles(self):
        study = Study.from_dict(self.SPEC)
        assert study.name == "spec-study"
        assert len(study.compile()) == 4

    def test_from_dict_round_trips(self):
        study = Study.from_dict(self.SPEC)
        assert Study.from_dict(study.to_dict()).to_dict() \
            == study.to_dict()

    def test_programmatic_study_has_no_dict_form(self):
        with pytest.raises(SpecError, match="programmatically"):
            Study().systems("albireo").to_dict()

    def test_from_json_text_and_path(self, tmp_path):
        text = json.dumps(self.SPEC)
        assert len(Study.from_json(text).compile()) == 4
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert len(Study.from_json(str(path)).compile()) == 4

    def test_from_json_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="JSON"):
            Study.from_json("{not json")

    def test_unknown_spec_key_lists_options(self):
        with pytest.raises(SpecError, match="grid"):
            Study.from_dict({"systems": ["albireo"], "networks": ["tiny"],
                             "gird": {}})

    def test_unknown_option_key_rejected(self):
        with pytest.raises(SpecError, match="use_mapper"):
            Study.from_dict({"systems": ["albireo"], "networks": ["tiny"],
                             "options": {"turbo": True}})

    def test_string_option_values_rejected(self):
        """The JSON string "false" must error, not silently enable."""
        with pytest.raises(SpecError, match="boolean"):
            Study.from_dict({"systems": ["albireo"], "networks": ["tiny"],
                             "options": {"use_mapper": "false"}})
        with pytest.raises(SpecError, match="boolean"):
            Study.from_dict({"systems": ["albireo"], "networks": ["tiny"],
                             "fused": ["false"]})

    def test_unknown_system_in_spec_lists_options(self):
        with pytest.raises(SpecError, match="albireo"):
            Study.from_dict({"systems": ["warpdrive"],
                             "networks": ["tiny"]})

    def test_unknown_network_in_spec_lists_options(self):
        with pytest.raises(WorkloadError, match="tiny"):
            Study.from_dict({"systems": ["albireo"],
                             "networks": ["hal9000"]})

    def test_spec_batches_and_fused(self):
        study = Study.from_dict({
            "systems": ["albireo"], "networks": ["tiny"],
            "batches": [1, 2], "fused": [False, True],
        })
        assert len(study.compile()) == 4


class TestStudyExecution:
    def test_run_returns_tagged_records(self):
        results = (Study().systems("crossbar").networks("tiny")
                   .run())
        assert len(results) == 1
        record = results[0]
        assert record.tags["system"] == "crossbar"
        assert record.evaluation is not None
        assert record.metrics["energy_per_mac_pj"] > 0

    def test_mixed_system_grid_parallel_cached_bit_identical(self, tmp_path):
        """The acceptance lattice: albireo + crossbar + wdm_delay in one
        grid, parallel + cached results bit-identical to serial."""
        study = (Study()
                 .systems("albireo", "crossbar", "wdm_delay")
                 .networks("tiny")
                 .scenarios("conservative", "aggressive")
                 .grid(global_buffer_kib=(512, 1024)))
        serial = study.run(workers=1)
        parallel = study.run(workers=2, cache=str(tmp_path / "cache"))
        assert len(serial) == 12
        for left, right in zip(serial, parallel):
            assert left.tags == right.tags
            assert network_evaluation_to_dict(left.evaluation) \
                == network_evaluation_to_dict(right.evaluation)
        # And a warm re-run replays everything from the cache.
        from repro.engine import EvaluationCache

        cache = EvaluationCache(str(tmp_path / "cache"))
        warm = study.run(workers=2, cache=cache)
        assert cache.stats["results"].hits == 12
        for left, right in zip(serial, warm):
            assert network_evaluation_to_dict(left.evaluation) \
                == network_evaluation_to_dict(right.evaluation)

    def test_report_over_live_run(self):
        results = (Study().systems("crossbar").networks("tiny").run())
        report = results.report(mark_pareto=True)
        assert "crossbar" in report and "pJ/MAC" in report


class TestPrebuiltStudies:
    def test_comparison_study_covers_lattice(self):
        study = comparison_study((tiny_cnn(),), ("albireo", "crossbar"),
                                 CONSERVATIVE)
        jobs = study.compile()
        assert [job.system for job in jobs] == ["albireo", "crossbar"]
        assert all(job.config.scenario.name == "conservative"
                   for job in jobs)


class TestComparisonShell:
    def test_duplicate_system_names_yield_duplicate_rows(self):
        """Repeated names in the request still produce one row each (the
        pre-facade per-instance behavior), not an ambiguity error."""
        from repro.experiments import system_comparison

        result = system_comparison.run(networks=(tiny_cnn(),),
                                       systems=["albireo", "albireo"])
        assert [row.system for row in result.rows] \
            == ["albireo", "albireo"]

    def test_duplicate_network_names_pair_positionally(self):
        from repro.experiments import system_comparison

        result = system_comparison.run(
            networks=(tiny_cnn(), tiny_cnn(batch=2)),  # same .name
            systems=["crossbar"])
        assert len(result.rows) == 2
        first, second = result.rows
        assert first.evaluation.total_macs \
            < second.evaluation.total_macs  # batch-2 twin came second


class TestExperimentsStayWarningFree:
    def test_fig4_fig5_do_not_emit_deprecation_warnings(self):
        """The figure experiments go through the Study facade directly
        and emit no deprecation warnings."""
        from repro.experiments import fig4_memory, fig5_reuse

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            fig4_memory.run(network=tiny_cnn(), scenarios=(CONSERVATIVE,),
                            batch_sizes=(1,))
            fig5_reuse.run(network=tiny_cnn(),
                           output_reuse_values=(3,),
                           input_reuse_values=(9,))


class TestStudyOnRecord:
    """Study.run(on_record=...): the record-level streaming seam —
    one call per point, with live done/total counters, on every path."""

    def _study(self):
        return (Study()
                .systems("crossbar")
                .networks("tiny")
                .scenarios("conservative")
                .grid(global_buffer_kib=(256, 512, 1024)))

    def test_streams_every_record_with_counters(self):
        seen = []
        results = self._study().run(
            on_record=lambda record, done, total:
                seen.append((record, done, total)))
        assert [done for _, done, _ in seen] == [1, 2, 3]
        assert all(total == 3 for _, _, total in seen)
        # The streamed records are the run's records (serial execution
        # completes in input order).
        assert [record for record, _, _ in seen] == list(results)

    def test_streams_on_the_parallel_path(self):
        seen = []
        results = self._study().run(
            workers=2,
            on_record=lambda record, done, total:
                seen.append(record))
        assert sorted(record.tags["global_buffer_kib"]
                      for record in seen) == [256, 512, 1024]
        assert len(seen) == len(results)

    def test_streams_failed_records_under_skip_policy(self):
        from repro.engine import FailurePolicy

        seen = []
        results = self._study().run(
            failure_policy=FailurePolicy(on_error="skip"),
            inject=[{"match": "crossbar:*:job", "action": "raise",
                     "attempt": -1}],
            on_record=lambda record, done, total: seen.append(record))
        assert len(seen) == 3
        assert all(record.failed for record in seen)
        assert len(results.failures) == 3
