"""Tests for the extension features: optical DRAM I/O (DO domain),
static power accounting, Pareto DSE helpers, and the MobileNetV1 workload.
"""

import pytest

from repro.api import config_study, pareto_frontier
from repro.systems import AlbireoConfig, AlbireoSystem
from repro.systems.albireo import (
    OPTICAL_IO_DRAM_CORE_PJ_PER_BIT,
    OPTICAL_LINK_RX_PJ_PER_BIT,
    OPTICAL_LINK_TX_PJ_PER_BIT,
)
from repro.workloads import ConvLayer, DataSpace, mobilenet_v1, tiny_cnn

W, I, O = DataSpace.WEIGHTS, DataSpace.INPUTS, DataSpace.OUTPUTS


class TestOpticalDramIo:
    def test_architecture_gains_link_stages(self):
        system = AlbireoSystem(AlbireoConfig(optical_dram_io=True))
        names = {c.name for c in system.architecture.converters}
        assert {"DramLinkTx", "DramLinkRx", "OutputLinkTx",
                "OutputLinkRx"} <= names

    def test_link_stages_are_do_domain(self):
        system = AlbireoSystem(AlbireoConfig(optical_dram_io=True))
        tx = system.architecture.node_named("DramLinkTx")
        assert tx.conversion.label == "DE/DO"
        rx = system.architecture.node_named("DramLinkRx")
        assert rx.conversion.label == "DO/DE"

    def test_baseline_has_no_links(self):
        system = AlbireoSystem(AlbireoConfig())
        names = {c.name for c in system.architecture.converters}
        assert "DramLinkTx" not in names

    def test_link_events_match_dram_traffic(self):
        from repro.mapping.analysis import analyze

        system = AlbireoSystem(AlbireoConfig(optical_dram_io=True))
        layer = ConvLayer(name="c", m=64, c=64, p=14, q=14, r=3, s=3)
        mapping = system.reference_mapping(layer)
        counts = analyze(system.architecture, layer, mapping)
        dram = counts.storage["DRAM"]
        tx_events = counts.conversions["DramLinkTx"]
        assert tx_events[W] == dram.reads[W]
        assert tx_events[I] == dram.reads[I]
        out_events = counts.conversions["OutputLinkTx"]
        assert out_events[O] == dram.writes[O]

    def test_optical_io_cuts_memory_energy(self):
        """Core 6 + link 2 pJ/bit beats the 16 pJ/bit DDR interface."""
        layer = ConvLayer(name="c", m=64, c=64, p=56, q=56, r=3, s=3)
        electrical = AlbireoSystem(AlbireoConfig()).evaluate_layer(layer)
        optical = AlbireoSystem(
            AlbireoConfig(optical_dram_io=True)).evaluate_layer(layer)

        def memory_energy(evaluation):
            return sum(
                value for (component, _), value
                in evaluation.energy.entries().items()
                if component == "DRAM" or "Link" in component)

        assert memory_energy(optical) < 0.7 * memory_energy(electrical)
        expected_ratio = (
            OPTICAL_IO_DRAM_CORE_PJ_PER_BIT
            + OPTICAL_LINK_TX_PJ_PER_BIT + OPTICAL_LINK_RX_PJ_PER_BIT
        ) / 16.0
        measured_ratio = memory_energy(optical) / memory_energy(electrical)
        assert measured_ratio == pytest.approx(expected_ratio, rel=0.05)

    def test_fusion_elides_link_events_too(self):
        system = AlbireoSystem(AlbireoConfig(optical_dram_io=True))
        layer = ConvLayer(name="c", m=64, c=64, p=14, q=14, r=3, s=3)
        fused = system.evaluate_layer(layer, input_from_dram=False,
                                      output_to_dram=False)
        for (component, dataspace), value in fused.energy.entries().items():
            if component in ("DramLinkTx", "DramLinkRx") and dataspace == I:
                assert value == 0.0
            if "OutputLink" in component:
                assert value == 0.0

    def test_fig2_buckets_fold_links_into_dram(self):
        from repro.systems import FIG2_BUCKETS

        assert FIG2_BUCKETS.bucket_of("DramLinkTx", W) == "DRAM"


class TestStaticPower:
    def test_albireo_static_power_positive_with_tuning(self):
        import dataclasses

        from repro.energy import estimate
        from repro.model import AcceleratorModel
        from repro.systems import build_albireo_architecture, \
            build_albireo_energy_table

        config = AlbireoConfig()
        table = build_albireo_energy_table(config)
        # Give the ring modulators a thermal tuning budget.
        table.replace(estimate("mrr", "weight_modulator",
                               {"energy_pj": 0.6, "tuning_mw": 0.01}))
        model = AcceleratorModel(build_albireo_architecture(config), table)
        powers = model.static_power_mw()
        assert powers["WeightModulator"] > 0
        # Positional instance count: the drive stage sits above the
        # weight-lane/star/site fanouts, so 16 cluster-level stages at
        # 10 uW each (the per-ring undercount is documented in DESIGN.md).
        assert powers["WeightModulator"] == pytest.approx(0.16, rel=0.01)

    def test_leakage_from_buffer(self):
        system = AlbireoSystem(AlbireoConfig())
        powers = system.model.static_power_mw()
        # The 1 MiB SRAM leaks (1 mW per Mbit in the model).
        assert powers.get("GlobalBuffer", 0) == pytest.approx(8.0, rel=0.01)


class TestParetoFrontier:
    def test_simple_frontier(self):
        points = [(1, 5), (2, 2), (3, 3)]
        assert pareto_frontier(points, lambda p: p) == [(1, 5), (2, 2)]

    def test_all_nondominated(self):
        points = [(1, 3), (2, 2), (3, 1)]
        assert pareto_frontier(points, lambda p: p) == points

    def test_single_point(self):
        assert pareto_frontier([(1, 1)], lambda p: p) == [(1, 1)]

    def test_duplicates_survive(self):
        points = [(1, 1), (1, 1)]
        assert len(pareto_frontier(points, lambda p: p)) == 2

    def test_configuration_sweep_pareto(self):
        network = tiny_cnn()
        configs = [AlbireoConfig(clusters=c) for c in (4, 8, 16)]
        results = config_study(network, configs).run()
        frontier = pareto_frontier(
            results,
            lambda record: (record["energy_pj"], record["total_cycles"]))
        assert 1 <= len(frontier) <= len(results)
        # More clusters always cuts cycles here, so the largest config is
        # on the frontier.
        assert any(record.config.clusters == 16 for record in frontier)


class TestMobileNet:
    def test_reference_macs(self):
        assert mobilenet_v1().total_macs == pytest.approx(0.569e9, rel=0.01)

    def test_reference_params(self):
        params = mobilenet_v1().total_weight_bits / 8
        assert params == pytest.approx(4.21e6, rel=0.02)

    def test_width_multiplier(self):
        full = mobilenet_v1().total_macs
        half = mobilenet_v1(width_multiplier=0.5).total_macs
        assert half < 0.4 * full

    def test_depthwise_layers_present(self):
        depthwise = [e.layer for e in mobilenet_v1()
                     if e.layer.is_depthwise]
        assert len(depthwise) == 13

    def test_albireo_hates_mobilenet(self):
        """Depthwise + pointwise layers should utilize Albireo far worse
        than ResNet18 — the broadcast fabric has nothing to broadcast."""
        from repro.workloads import resnet18

        system = AlbireoSystem(AlbireoConfig())
        mobile = system.evaluate_network(mobilenet_v1())
        resnet = system.evaluate_network(resnet18())
        assert mobile.utilization < 0.5 * resnet.utilization
