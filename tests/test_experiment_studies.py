"""The rewired experiments against the direct evaluation loops they
replaced: fig2, sensitivity and calibration read one best-case study,
fig3 and batching one study over their networks, and each returns the
same numbers as calling ``evaluate_layer``/``evaluate_network`` point by
point.  A best-case study analyzes its layer once for every scenario."""

import dataclasses

import pytest

from repro.energy.scaling import AGGRESSIVE, CONSERVATIVE, SCENARIOS
from repro.engine.codec import network_evaluation_to_dict
from repro.experiments import (
    batching,
    calibration,
    fig2_validation,
    fig3_throughput,
    sensitivity,
)
from repro.experiments.reported import FIG3_REPORTED
from repro.mapping.analysis import NestAnalyzer
from repro.systems.albireo import (
    AlbireoConfig,
    AlbireoSystem,
    FIG2_BUCKETS,
    albireo_best_case_layer,
)
from repro.workloads import lenet5, resnet18, tiny_cnn


def _direct_best_case(config):
    """The best-case layer evaluated directly (the pre-Study loop)."""
    system = AlbireoSystem(config)
    return system.evaluate_layer(albireo_best_case_layer(system.config))


def _direct_buckets(config):
    evaluation = _direct_best_case(config)
    grouped = evaluation.energy.per_mac(
        evaluation.real_macs).grouped(FIG2_BUCKETS)
    return {bucket: grouped.get(bucket, 0.0)
            for bucket in fig2_validation.BUCKET_ORDER}


def _direct_accelerator_pj_per_mac(scenario):
    evaluation = _direct_best_case(AlbireoConfig(scenario=scenario))
    dram = evaluation.energy.component_total("DRAM")
    return (evaluation.energy_pj - dram) / evaluation.real_macs


@pytest.fixture
def analyses(monkeypatch):
    """Counts ``NestAnalyzer.analyze`` calls made after it is taken."""
    calls = []
    analyze = NestAnalyzer.analyze

    def counting(self, *args, **kwargs):
        calls.append(1)
        return analyze(self, *args, **kwargs)

    monkeypatch.setattr(NestAnalyzer, "analyze", counting)
    return calls


class TestBestCaseStudy:
    def test_fig2_equals_direct_evaluation(self):
        result = fig2_validation.run()
        assert [v.scenario for v in result.validations] \
            == [scenario.name for scenario in SCENARIOS]
        for validation, scenario in zip(result.validations, SCENARIOS):
            assert validation.modeled \
                == _direct_buckets(AlbireoConfig(scenario=scenario))

    @pytest.mark.parametrize("scenario", [CONSERVATIVE, AGGRESSIVE],
                             ids=lambda scenario: scenario.name)
    def test_sensitivity_equals_direct_evaluation(self, scenario):
        result = sensitivity.run(scenario)
        baseline = _direct_accelerator_pj_per_mac(scenario)
        expected = tuple(
            sensitivity.SensitivityEntry(
                field=field,
                baseline_pj_per_mac=baseline,
                low_pj_per_mac=_direct_accelerator_pj_per_mac(
                    sensitivity._perturbed(scenario, field, 0.8)),
                high_pj_per_mac=_direct_accelerator_pj_per_mac(
                    sensitivity._perturbed(scenario, field, 1.2)))
            for field in sensitivity.PERTURBED_FIELDS)
        assert result.entries == expected

    def test_calibration_equals_direct_evaluation(self):
        config = AlbireoConfig(clusters=8, output_reuse=9, clock_ghz=4.0)
        assert calibration.modeled_buckets(AGGRESSIVE, config) \
            == _direct_buckets(dataclasses.replace(config,
                                                   scenario=AGGRESSIVE))

    def test_fig2_runs_one_nest_analysis(self, analyses):
        fig2_validation.run()
        assert len(analyses) == 1

    def test_sensitivity_runs_one_nest_analysis(self, analyses):
        sensitivity.run()
        assert len(analyses) == 1

    def test_sensitivity_scenarios_carry_distinct_names(self, monkeypatch):
        """Each perturbation is its own named scenario, so the study's
        records can tell the 17 points apart."""
        from repro.api import study

        priced = []
        run_jobs = study.run_jobs

        def recording(jobs, **kwargs):
            priced.extend(job.config.scenario.name for job in jobs)
            return run_jobs(jobs, **kwargs)

        monkeypatch.setattr(study, "run_jobs", recording)
        sensitivity.run()
        assert len(priced) == len(set(priced)) == 17
        assert priced[0] == CONSERVATIVE.name


class TestNetworkStudies:
    @pytest.mark.parametrize("use_mapper", [False, True],
                             ids=["reference", "mapper"])
    def test_fig3_equals_direct_evaluation(self, use_mapper):
        networks = (tiny_cnn(), lenet5())
        config = AlbireoConfig()
        result = fig3_throughput.run(networks=networks,
                                     use_mapper=use_mapper)
        system = AlbireoSystem(config)
        assert [t.network for t in result.throughputs] \
            == [network.name for network in networks]
        for throughput, network in zip(result.throughputs, networks):
            direct = system.evaluate_network(network, use_mapper=use_mapper)
            reported = FIG3_REPORTED.get(network.name, {})
            assert throughput.modeled == direct.macs_per_cycle
            assert throughput.ideal == float(
                reported.get("ideal", config.peak_macs_per_cycle))
            assert network_evaluation_to_dict(throughput.evaluation) \
                == network_evaluation_to_dict(direct)

    def test_batching_equals_direct_evaluation(self):
        result = batching.run(batch_sizes=(1, 4))
        system = AlbireoSystem(AlbireoConfig().with_scenario(AGGRESSIVE))
        expected = []
        for batch in (1, 4):
            evaluation = system.evaluate_network(resnet18(batch=batch))
            weight_dram = sum(
                value for (component, dataspace), value
                in evaluation.total_energy.entries().items()
                if component == "DRAM"
                and dataspace is not None and dataspace.value == "Weights")
            expected.append(batching.BatchPoint(
                batch=batch,
                energy_uj_per_inference=evaluation.energy_pj / 1e6 / batch,
                latency_ms_per_request=evaluation.latency_ns / 1e6,
                weight_dram_pj_per_mac=weight_dram / evaluation.total_macs))
        assert result.points == tuple(expected)
