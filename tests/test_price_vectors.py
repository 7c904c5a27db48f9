"""Bit-identity of flat-vector pricing and network totals.

``AcceleratorModel`` prices through one ordered list of price terms, and
``NetworkTotals.of`` adds one dense vector per layer.  Both must give the
same bits, in the same key order, as the straightforward forms they
replace: a walk of the architecture's nodes that adds each action's
energy as it goes, and a keyed fold that adds ``value * count`` layer by
layer.  Both reference forms are kept here.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.hierarchy import ComputeLevel, ConverterStage, StorageLevel
from repro.energy import AGGRESSIVE, CONSERVATIVE
from repro.energy.table import EnergyEntry, EnergyTable
from repro.exceptions import EstimationError, MappingError
from repro.mapping import FanoutMapping, LevelMapping, Mapping, TemporalLoop
from repro.mapping.analysis import StorageCounts
from repro.model import AcceleratorModel
from repro.model.results import EnergyBreakdown, NetworkTotals
from repro.systems.base import layer_shape_key
from repro.systems.registry import get_system, system_names
from repro.workloads import ConvLayer, DataSpace
from repro.workloads.dims import Dim
from repro.workloads.models import network_by_name, network_names

# ---------------------------------------------------------------------------
# Network totals
# ---------------------------------------------------------------------------


def naive_totals(layers):
    """The keyed fold: each key accumulates ``value * count`` in layer
    order, starting from ``0.0``."""
    energy = {}
    cycles = macs = 0
    for entries, layer_cycles, layer_macs, count in layers:
        for key, value in entries.items():
            energy[key] = energy.get(key, 0.0) + value * count
        cycles += layer_cycles * count
        macs += layer_macs * count
    return energy, sum(energy.values()), cycles, macs


def bits(value):
    return type(value).__name__, float(value).hex()


def assert_same_totals(totals, expected):
    energy, energy_pj, cycles, macs = expected
    assert list(totals.energy) == list(energy)
    assert [bits(v) for v in totals.energy.values()] \
        == [bits(v) for v in energy.values()]
    assert bits(totals.energy_pj) == bits(energy_pj)
    assert (totals.cycles, totals.macs) == (cycles, macs)


KEYS = [(f"level{index}", dataspace) for index in range(3)
        for dataspace in (DataSpace.INPUTS, DataSpace.OUTPUTS, None)]
SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.0, 0.1,
           1e16, 3.0e-300]
values = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(-1e6, 1e6, allow_nan=False))
entry_dicts = st.dictionaries(st.sampled_from(KEYS), values, max_size=6)


@st.composite
def layer_lists(draw):
    """Layers drawing their entries from a small pool of dicts, so that
    several layers share one dict (as same-shape layers share one entry)
    and later dicts bring keys earlier ones lack; or, as results read
    back from disk, each layer with a dict of its own."""
    size = draw(st.integers(1, 12))
    if draw(st.booleans()):
        pool = draw(st.lists(entry_dicts, min_size=1, max_size=4))
        picks = [pool[draw(st.integers(0, len(pool) - 1))]
                 for _ in range(size)]
    else:
        picks = [draw(entry_dicts) for _ in range(size)]
    return [(entries, draw(st.integers(0, 10**6)),
             draw(st.integers(0, 10**9)), draw(st.integers(1, 4)))
            for entries in picks]


A = {KEYS[0]: 1e16}
B = {KEYS[0]: 1.0, KEYS[1]: 0.5}
C = {KEYS[1]: 2.0, KEYS[2]: -0.0}


class TestNetworkTotals:
    @settings(max_examples=400, deadline=None)
    @given(layer_lists())
    # A shared dict whose copies a later dict separates: summing per
    # distinct dict times its multiplicity rounds differently.
    @example([(A, 1, 1, 1), (B, 2, 2, 1), (A, 3, 3, 1), (B, 4, 4, 3)])
    # The key set grows after the first dict.
    @example([(B, 1, 1, 1), (C, 1, 1, 2), (B, 1, 1, 4)])
    def test_equals_the_keyed_fold(self, layers):
        assert_same_totals(NetworkTotals.of(layers), naive_totals(layers))

    def test_accepts_a_generator_and_nothing(self):
        layers = [(A, 1, 2, 2), (C, 3, 4, 1)]
        assert_same_totals(NetworkTotals.of(iter(layers)),
                           naive_totals(layers))
        assert_same_totals(NetworkTotals.of([]), naive_totals([]))

    def test_negative_zero_and_subnormals_keep_their_bits(self):
        tiny = 5e-324
        layers = [({KEYS[0]: -0.0}, 1, 1, 1),
                  ({KEYS[1]: tiny}, 1, 1, 3),
                  ({KEYS[0]: -0.0, KEYS[1]: tiny}, 1, 1, 1)]
        totals = NetworkTotals.of(layers)
        assert_same_totals(totals, naive_totals(layers))
        assert totals.energy[KEYS[0]].hex() == "0x0.0p+0"
        assert totals.energy[KEYS[1]] == 4 * tiny


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------


def node_walk(model, counts):
    """Pricing as a walk of the nodes, each action's energy fetched from
    the table where the counts use it."""
    breakdown = EnergyBreakdown()
    table = model.energy_table
    for node in model.architecture.nodes:
        if isinstance(node, StorageLevel):
            level = counts.storage[node.name]
            for dataspace, reads in level.reads.items():
                breakdown.add(node.name, dataspace,
                              reads * table.energy(node.component, "read"))
            for dataspace, writes in level.writes.items():
                breakdown.add(node.name, dataspace,
                              writes * table.energy(node.component, "write"))
        elif isinstance(node, ConverterStage):
            for dataspace, events in counts.conversions[node.name].items():
                breakdown.add(node.name, dataspace,
                              events * table.energy(node.component,
                                                    "convert"))
        elif isinstance(node, ComputeLevel):
            for action in node.actions:
                events = counts.padded_macs * action.events_per_mac
                breakdown.add(action.component, None,
                              events * table.energy(action.component,
                                                    action.action))
    return breakdown


def entry_bits(breakdown):
    return [(key, bits(value)) for key, value in breakdown.entries().items()]


#: The synthetic geometries of the ``deep`` benchmark workload.
DEEP_SHAPES = (
    ConvLayer(name="deep0", m=64, c=64, p=32, q=32, r=3, s=3),
    ConvLayer(name="deep1", m=48, c=32, p=14, q=14, r=3, s=3),
    ConvLayer(name="deep2", m=128, c=64, p=8, q=8, r=3, s=3),
)


def distinct_layers():
    layers = [entry.layer for name in network_names()
              for entry in network_by_name(name).entries]
    shapes = {layer_shape_key(layer): layer
              for layer in layers + list(DEEP_SHAPES)}
    return list(shapes.values())


@pytest.mark.parametrize("system_name", system_names())
def test_selection_and_term_walk_match_the_node_walk(system_name):
    """Every reference candidate of every shipped and ``deep`` layer
    shape, at two buffer sizes and two scenarios: ``_price`` (plain and
    fusion-elided counts) is the node walk, the selection price is
    ``price(...).energy_pj``, and the reference mapping is the first
    candidate with the least ``price(...).energy_pj``."""
    entry = get_system(system_name)
    layers = distinct_layers()
    priced = 0
    for kib in (256, 2048):
        for scenario in (CONSERVATIVE, AGGRESSIVE):
            config = dataclasses.replace(entry.system_type.config_type(),
                                         global_buffer_kib=kib,
                                         scenario=scenario)
            system = entry.system_type(config)
            model = system.model
            for layer in layers:
                target = system.analysis_layer(layer)
                candidates = list(system.mapping_candidates(target))
                best, best_cost = None, float("inf")
                for mapping in candidates:
                    try:
                        counts = model.counts(target, mapping)
                    except MappingError:
                        continue
                    cost = model.price(target, counts).energy_pj
                    assert model._price(counts).scaled(target.groups) \
                        .total_pj.hex() == cost.hex()
                    if cost < best_cost:
                        best, best_cost = mapping, cost
                    assert entry_bits(model._price(counts)) \
                        == entry_bits(node_walk(model, counts))
                    elided = model._apply_dram_elision(counts, target,
                                                       False, False)
                    assert entry_bits(model._price(elided)) \
                        == entry_bits(node_walk(model, elided))
                    priced += 1
                if len(candidates) > 1:
                    assert system.reference_mapping(layer) == best
    assert priced > 100


class TestMissingActions:
    def test_an_action_is_looked_up_only_when_counts_use_it(
            self, converter_arch, toy_energy_table):
        """A table may lack an action the counts never use (here the
        buffer's ``write`` and the weight DAC's ``convert``); pricing
        counts that do use it raises, as the node walk does."""
        table = EnergyTable(toy_energy_table)
        table.replace(EnergyEntry(
            "sram", {"read": toy_energy_table.energy("sram", "read")}))
        table.replace(EnergyEntry("dac_w", {}))
        model = AcceleratorModel(converter_arch, table)
        layer = ConvLayer(name="t", m=8, c=4, p=2, q=2)
        counts = model.counts(layer, Mapping(
            levels=(LevelMapping("DRAM", ()),
                    LevelMapping("GB", (TemporalLoop(Dim.C, 4),
                                        TemporalLoop(Dim.P, 2),
                                        TemporalLoop(Dim.Q, 2)))),
            spatials=(FanoutMapping("array", {Dim.M: 8}),)))
        with pytest.raises(EstimationError, match="'write'"):
            model._price(counts)
        buffer = counts.storage["GB"]
        unused = dataclasses.replace(
            counts,
            storage={**counts.storage,
                     "GB": StorageCounts(dict(buffer.reads), {})})
        with pytest.raises(EstimationError, match="'convert'"):
            model._price(unused)
        unused.conversions = {**counts.conversions, "WDAC": {}}
        assert entry_bits(model._price(unused)) \
            == entry_bits(node_walk(model, unused))
