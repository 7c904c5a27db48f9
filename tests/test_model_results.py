"""Tests for energy breakdowns and evaluation result containers."""

import dataclasses
import math

import pytest

from repro.model.buckets import BucketScheme, component_rule
from repro.model.results import (
    EnergyBreakdown,
    LayerEvaluation,
    NetworkEvaluation,
    NetworkTotals,
)
from repro.workloads import ConvLayer, DataSpace

W, I, O = DataSpace.WEIGHTS, DataSpace.INPUTS, DataSpace.OUTPUTS


def _breakdown():
    breakdown = EnergyBreakdown()
    breakdown.add("adc", O, 10.0)
    breakdown.add("dac", W, 5.0)
    breakdown.add("dac", I, 3.0)
    breakdown.add("laser", None, 2.0)
    return breakdown


class TestEnergyBreakdown:
    def test_total(self):
        assert _breakdown().total_pj == 20.0

    def test_add_accumulates(self):
        breakdown = _breakdown()
        breakdown.add("adc", O, 1.0)
        assert breakdown.entries()[("adc", O)] == 11.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _breakdown().add("adc", O, -1.0)

    def test_component_total(self):
        assert _breakdown().component_total("dac") == 8.0

    def test_dataspace_total(self):
        assert _breakdown().dataspace_total(W) == 5.0
        assert _breakdown().dataspace_total(None) == 2.0

    def test_addition(self):
        combined = _breakdown() + _breakdown()
        assert combined.total_pj == 40.0

    def test_scaled(self):
        assert _breakdown().scaled(0.5).total_pj == 10.0

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            _breakdown().scaled(-1.0)

    def test_per_mac(self):
        assert _breakdown().per_mac(10).total_pj == 2.0

    def test_per_mac_rejects_zero(self):
        with pytest.raises(ValueError):
            _breakdown().per_mac(0)

    def test_grouped(self):
        scheme = BucketScheme(
            name="t",
            rules=(component_rule("adc", "converters"),
                   component_rule("dac", "converters")),
            default="other",
            order=("converters", "other"),
        )
        grouped = _breakdown().grouped(scheme)
        assert grouped == {"converters": 18.0, "other": 2.0}
        assert list(grouped) == ["converters", "other"]

    def test_top_contributors(self):
        top = _breakdown().top_contributors(2)
        assert top[0] == (("adc", O), 10.0)
        assert len(top) == 2

    def test_describe_contains_total(self):
        assert "TOTAL" in _breakdown().describe()

    def test_equal_entries_in_equal_order_compare_equal(self):
        assert _breakdown() == _breakdown()
        assert _breakdown() != _breakdown().scaled(2.0)
        assert _breakdown() != "not a breakdown"


class TestOrderedTotals:
    """Energy totals add left to right from 0, as ``sum()`` did before
    Python 3.12, whose ``sum()`` of floats is compensated: a record has
    the same bits on every interpreter."""

    #: 1.0 absorbs each 1e-16 alone, but not their sum.
    VALUES = (1.0, 1e-16, 1e-16)

    @staticmethod
    def _left_fold(values):
        total = 0.0
        for value in values:
            total += value
        return total

    def test_the_values_tell_compensated_from_naive_sums(self):
        assert self._left_fold(self.VALUES) == 1.0
        assert math.fsum(self.VALUES) > 1.0

    def test_breakdown_totals_fold_left(self):
        expected = self._left_fold(self.VALUES).hex()
        breakdown = EnergyBreakdown(dict(zip(
            [("dac", W), ("dac", I), ("dac", O)], self.VALUES)))
        assert breakdown.total_pj.hex() == expected
        assert breakdown.component_total("dac").hex() == expected
        by_dataspace = EnergyBreakdown(dict(zip(
            [("adc", W), ("dac", W), ("laser", W)], self.VALUES)))
        assert by_dataspace.dataspace_total(W).hex() == expected

    def test_network_totals_fold_left(self):
        layers = [({("dac", W): 1.0}, 1, 1, 1),
                  ({("adc", W): 1e-16}, 1, 1, 1),
                  ({("laser", None): 1e-16}, 1, 1, 1)]
        assert NetworkTotals.of(layers).energy_pj.hex() \
            == self._left_fold(self.VALUES).hex()


class TestValueEquality:
    """Evaluations with bit-identical numbers compare equal, entry order
    included: totals sum in entry order."""

    @staticmethod
    def _evaluation():
        from repro.systems.albireo import AlbireoSystem

        return AlbireoSystem().evaluate_layer(
            ConvLayer(name="conv", m=64, c=32, p=14, q=14, r=3, s=3))

    def test_separate_evaluations_compare_equal(self):
        assert self._evaluation() == self._evaluation()

    def test_one_changed_entry_compares_unequal(self):
        evaluation = self._evaluation()
        entries = evaluation.energy.entries()
        key = next(iter(entries))
        entries[key] *= 2.0
        changed = dataclasses.replace(evaluation,
                                      energy=EnergyBreakdown(entries))
        assert changed != evaluation

    def test_reordered_entries_compare_unequal(self):
        evaluation = self._evaluation()
        entries = list(evaluation.energy.entries().items())
        assert len(entries) > 1
        reordered = dataclasses.replace(
            evaluation, energy=EnergyBreakdown(dict(reversed(entries))))
        assert reordered.energy.entries() == evaluation.energy.entries()
        assert reordered != evaluation


def _layer_eval(cycles=100, real=3200, padded=3200):
    return LayerEvaluation(
        layer=ConvLayer(name="l", m=4, c=2, p=20, q=20),
        energy=_breakdown(),
        cycles=cycles,
        real_macs=real,
        padded_macs=padded,
        peak_parallelism=64,
        clock_ghz=2.0,
    )


class TestLayerEvaluation:
    def test_energy_per_mac(self):
        assert _layer_eval().energy_per_mac_pj == pytest.approx(20.0 / 3200)

    def test_macs_per_cycle(self):
        assert _layer_eval().macs_per_cycle == 32.0

    def test_utilization(self):
        assert _layer_eval().utilization == pytest.approx(0.5)

    def test_latency(self):
        assert _layer_eval().latency_ns == pytest.approx(50.0)

    def test_describe(self):
        assert "MACs/cycle" in _layer_eval().describe()


class TestNetworkEvaluation:
    def _network_eval(self):
        return NetworkEvaluation(
            name="net",
            layers=((_layer_eval(), 2), (_layer_eval(cycles=50), 1)),
            clock_ghz=2.0,
            peak_parallelism=64,
        )

    def test_totals_respect_counts(self):
        evaluation = self._network_eval()
        assert evaluation.total_cycles == 250
        assert evaluation.total_macs == 3 * 3200
        assert evaluation.energy_pj == pytest.approx(60.0)

    def test_aggregate_rates(self):
        evaluation = self._network_eval()
        assert evaluation.macs_per_cycle == pytest.approx(9600 / 250)
        assert evaluation.energy_per_mac_pj == pytest.approx(60.0 / 9600)
        assert 0 < evaluation.utilization <= 1.0

    def test_describe_lists_layers(self):
        assert "x2" in self._network_eval().describe()
