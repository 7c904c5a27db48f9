"""The paper's exploration lattices (:mod:`repro.api.studies`): the
Fig. 5 reuse grid and the Fig. 4 memory-system grid, run through
:meth:`repro.api.Study.run`, and the physics each must show."""

import pytest

from repro.api import memory_study, reuse_study
from repro.api.studies import next_power_of_two_kib
from repro.energy import AGGRESSIVE, CONSERVATIVE
from repro.experiments.fig4_memory import memory_points
from repro.experiments.fig5_reuse import reuse_points
from repro.systems import AlbireoConfig
from repro.workloads import tiny_cnn


@pytest.fixture(scope="module")
def small_network():
    return tiny_cnn()


def _reuse(network, **kwargs):
    return reuse_points(reuse_study(
        network, AlbireoConfig(scenario=AGGRESSIVE), **kwargs).run())


def _memory(network, config=None, **kwargs):
    return memory_points(memory_study(
        network, config or AlbireoConfig(), **kwargs).run())


class TestReuseStudy:
    def test_grid_complete(self, small_network):
        points = _reuse(small_network,
                        output_reuse_values=(3, 9), input_reuse_values=(9, 27),
                        weight_lane_variants=(("Original", 1),))
        assert len(points) == 4
        combos = {(p.output_reuse, p.input_reuse) for p in points}
        assert combos == {(3, 9), (3, 27), (9, 9), (9, 27)}

    def test_dram_excluded_by_default(self, small_network):
        points = _reuse(small_network,
                        output_reuse_values=(3,), input_reuse_values=(9,),
                        weight_lane_variants=(("Original", 1),))
        entries = points[0].evaluation.total_energy.entries()
        assert all(component != "DRAM" for component, _ in entries)

    def test_dram_included_on_request(self, small_network):
        points = _reuse(small_network,
                        output_reuse_values=(3,), input_reuse_values=(9,),
                        weight_lane_variants=(("Original", 1),),
                        include_dram=True)
        entries = points[0].evaluation.total_energy.entries()
        assert any(component == "DRAM" for component, _ in entries)

    def test_more_or_reduces_energy(self, small_network):
        points = _reuse(small_network,
                        output_reuse_values=(3, 9), input_reuse_values=(9,),
                        weight_lane_variants=(("Original", 1),))
        by_or = {p.output_reuse: p.energy_per_mac_pj for p in points}
        assert by_or[9] < by_or[3]

    def test_weight_lanes_reduce_energy(self, small_network):
        points = _reuse(small_network,
                        output_reuse_values=(3,), input_reuse_values=(9,),
                        weight_lane_variants=(("Original", 1), ("MWR", 3)))
        by_variant = {p.variant: p.energy_per_mac_pj for p in points}
        assert by_variant["MWR"] < by_variant["Original"]

    def test_lattice_order(self, small_network):
        """Variant, then IR, then OR, as the figure lists them."""
        jobs = reuse_study(
            small_network, AlbireoConfig(),
            output_reuse_values=(3, 9), input_reuse_values=(9,),
            weight_lane_variants=(("Original", 1),)).compile()
        combos = [(job.tag("output_reuse"), job.tag("input_reuse"),
                   job.tag("variant")) for job in jobs]
        assert combos == [(3, 9, "Original"), (9, 9, "Original")]


class TestMemoryStudy:
    def test_grid_complete(self, small_network):
        points = _memory(small_network, scenarios=[AGGRESSIVE],
                         batch_sizes=(1, 4), fusion_options=(False, True))
        assert len(points) == 4
        labels = {p.label for p in points}
        assert len(labels) == 4

    def test_batching_reduces_energy_per_mac(self, small_network):
        points = _memory(small_network, scenarios=[AGGRESSIVE],
                         batch_sizes=(1, 4), fusion_options=(False,))
        by_batch = {p.batch: p.energy_per_mac_pj for p in points}
        assert by_batch[4] < by_batch[1]

    def test_fusion_reduces_energy_per_mac(self, small_network):
        points = _memory(small_network, scenarios=[AGGRESSIVE],
                         batch_sizes=(1,), fusion_options=(False, True))
        by_fused = {p.fused: p.energy_per_mac_pj for p in points}
        assert by_fused[True] < by_fused[False]

    def test_fused_buffer_auto_sizing(self):
        from repro.workloads import resnet18

        points = _memory(resnet18(), AlbireoConfig(global_buffer_kib=512),
                         scenarios=[AGGRESSIVE], batch_sizes=(1,),
                         fusion_options=(True,))
        # Fusion needed ~1 MB resident; the buffer must have grown.
        assert points, "study returned nothing"

    def test_fused_points_size_their_buffer(self, small_network):
        jobs = memory_study(small_network, AlbireoConfig(),
                            scenarios=(AGGRESSIVE,),
                            batch_sizes=(1,)).compile()
        by_fused = {job.tag("fused"): job for job in jobs}
        assert set(by_fused) == {False, True}
        assert (by_fused[True].config.global_buffer_kib
                >= by_fused[False].config.global_buffer_kib)

    def test_conservative_less_sensitive_to_dram(self, small_network):
        both = _memory(small_network, scenarios=[CONSERVATIVE, AGGRESSIVE],
                       batch_sizes=(1, 4), fusion_options=(False,))

        def reduction(name):
            pts = [p for p in both if p.scenario.name == name]
            by_batch = {p.batch: p.energy_per_mac_pj for p in pts}
            return 1 - by_batch[4] / by_batch[1]

        assert reduction("aggressive") > reduction("conservative")


class TestHelpers:
    def test_next_power_of_two(self):
        assert next_power_of_two_kib(8192 * 100) == 128
        assert next_power_of_two_kib(8192) == 1
        assert next_power_of_two_kib(0) == 1

    def test_next_power_of_two_rounds_up_at_boundaries(self):
        """Regression: footprints just above a KiB boundary must round UP.

        The original ``int(bits / 8192)`` floored, so a fused-buffer
        footprint of e.g. 1 KiB + 1 bit sized a 1 KiB buffer that could
        not hold the resident tensors.
        """
        assert next_power_of_two_kib(8193) == 2
        assert next_power_of_two_kib(2 * 8192 + 1) == 4
        assert next_power_of_two_kib(4 * 8192 + 1) == 8
        # Just below a boundary still fits in the boundary's power.
        assert next_power_of_two_kib(2 * 8192 - 1) == 2
