"""Golden equivalence: the rewritten analyzer vs the original algorithm.

The mapper hot-path overhaul rewrote :class:`repro.mapping.analysis.
NestAnalyzer` as a single incremental inner-to-outer pass with shared
per-search caches.  Nothing about the *model* changed, so every field of
:class:`AccessCounts` must stay bit-identical — energy numbers in the
paper's figures are built from these counts and may not drift by a ULP.

``_ReferenceNestAnalyzer`` below is a verbatim copy of the pre-overhaul
implementation (the O(levels^2) ``_loops_above`` / per-call
``_cumulative_bounds`` version).  The tests run both analyzers over the
full ResNet18 layer set under several mapping families — the system's
reference mappings, mapper-found mappings, and adversarial padded
mappings — and assert exact equality, floats included.
"""

from dataclasses import replace
from typing import Dict, List, Sequence

import pytest

from repro.arch.hierarchy import (
    ComputeLevel,
    ConverterStage,
    SpatialFanout,
    StorageLevel,
)
from repro.exceptions import CapacityError, MappingError
from repro.mapping import analysis
from repro.mapping.analysis import (
    HAVE_NUMPY,
    AccessCounts,
    BatchNestAnalyzer,
    NestAnalyzer,
    SearchContext,
    analyze,
    compute_traffic,
)
from repro.mapping.mapping import (
    FanoutMapping,
    LevelMapping,
    Mapping,
    TemporalLoop,
)
from repro.systems.albireo import (
    AlbireoConfig,
    AlbireoSystem,
    albireo_mapping_candidates,
)
from repro.workloads import lenet5, resnet18
from repro.workloads.dataspace import (
    ALL_DATASPACES,
    DataSpace,
    dataspace_tile_size,
    reduction_dims,
    relevant_dims,
)
from repro.workloads.dims import ALL_DIMS, Dim
from repro.workloads.layer import ConvLayer


# ---------------------------------------------------------------------------
# Reference implementation (verbatim pre-overhaul analyzer)
# ---------------------------------------------------------------------------

def _loop_is_transparent(loop: TemporalLoop) -> bool:
    return loop.bound <= 1


def _fill_events(loops_above_innermost_first: Sequence[TemporalLoop],
                 dataspace: DataSpace) -> int:
    relevant = relevant_dims(dataspace)
    events = 1
    seen_relevant = False
    for loop in loops_above_innermost_first:
        if _loop_is_transparent(loop):
            continue
        if not seen_relevant and loop.dim not in relevant:
            continue  # initial irrelevant run: perfect temporal reuse
        seen_relevant = True
        events *= loop.bound
    return events


class _ReferenceNestAnalyzer:
    """The pre-overhaul analyzer, kept as the semantic golden master."""

    def __init__(self, architecture, layer, mapping, check_capacity=True):
        mapping.validate(architecture, layer)
        self.architecture = architecture
        self.layer = layer
        self.mapping = mapping
        self.check_capacity = check_capacity
        self._loops_by_storage = {
            level.storage: level.loops for level in mapping.levels
        }
        self._factors_by_fanout = {
            spatial.fanout: dict(spatial.factors)
            for spatial in mapping.spatials
        }
        self._storage_order = [s.name for s in architecture.storage_levels]

    def _loops_above(self, storage_name):
        loops = []
        for name in self._storage_order:
            if name == storage_name:
                break
            loops.extend(self._loops_by_storage[name])
        return loops[::-1]

    def _cumulative_bounds(self, node_index):
        bounds = {dim: 1 for dim in ALL_DIMS}
        for node in self.architecture.nodes[node_index:]:
            if isinstance(node, StorageLevel):
                for loop in self._loops_by_storage[node.name]:
                    bounds[loop.dim] *= loop.bound
            elif isinstance(node, SpatialFanout):
                for dim, factor in self._factors_by_fanout[node.name].items():
                    bounds[dim] *= factor
        return bounds

    def _instances_above(self, node_index):
        product = 1
        for node in self.architecture.nodes[:node_index]:
            if isinstance(node, SpatialFanout):
                for factor in self._factors_by_fanout[node.name].values():
                    product *= factor
        return product

    def _tile_elements(self, node_index, dataspace):
        bounds = self._cumulative_bounds(node_index)
        return dataspace_tile_size(dataspace, bounds, self.layer.strides)

    def _boundary_amortization(self, fanout, dataspace):
        factors = self._factors_by_fanout[fanout.name]
        if dataspace in fanout.multicast:
            product = 1
            for dim, factor in factors.items():
                if dim not in relevant_dims(dataspace):
                    product *= factor
            return float(product)
        if dataspace in fanout.reduction:
            product = 1
            for dim, factor in factors.items():
                if dim in reduction_dims(dataspace):
                    product *= factor
            if fanout.reduction_limit is not None:
                product = min(product, fanout.reduction_limit)
            return float(product)
        return 1.0

    def analyze(self):
        from repro.mapping.analysis import StorageCounts

        architecture = self.architecture
        padded_macs = self.mapping.padded_macs()
        cycles = self.mapping.total_temporal_product
        if padded_macs != cycles * self.mapping.total_spatial_product:
            raise MappingError(
                "internal inconsistency: padded MACs != cycles x spatial"
            )

        storage_counts = {
            name: StorageCounts() for name in self._storage_order
        }
        conversions = {
            stage.name: {} for stage in architecture.converters
        }
        occupancy = {}
        instances = {}

        outermost = {
            dataspace: self.architecture.storage_for(dataspace)[0].name
            for dataspace in ALL_DATASPACES
        }

        flow = {ds: float(padded_macs) for ds in ALL_DATASPACES}

        for node_index in range(len(architecture.nodes) - 1, -1, -1):
            node = architecture.nodes[node_index]
            if isinstance(node, ComputeLevel):
                continue
            if isinstance(node, SpatialFanout):
                for dataspace in ALL_DATASPACES:
                    flow[dataspace] /= self._boundary_amortization(
                        node, dataspace)
                continue
            if isinstance(node, ConverterStage):
                for dataspace in node.dataspaces:
                    bucket = conversions[node.name]
                    bucket[dataspace] = bucket.get(dataspace, 0.0) \
                        + flow[dataspace]
                continue

            assert isinstance(node, StorageLevel)
            counts = storage_counts[node.name]
            level_instances = self._instances_above(node_index)
            instances[node.name] = level_instances
            occupancy[node.name] = self._occupancy_bits(node_index, node)
            if (self.check_capacity and node.capacity_bits is not None
                    and occupancy[node.name] > node.capacity_bits):
                raise CapacityError(
                    f"storage {node.name!r}: mapping needs "
                    f"{occupancy[node.name]:.0f} bits per instance but "
                    f"capacity is {node.capacity_bits:.0f}"
                )
            for dataspace in node.dataspaces:
                if dataspace is DataSpace.OUTPUTS:
                    flow[dataspace] = self._visit_output_storage(
                        node, node_index, counts, flow[dataspace],
                        is_outermost=(node.name == outermost[dataspace]),
                    )
                else:
                    flow[dataspace] = self._visit_read_storage(
                        node, node_index, counts, flow[dataspace],
                        dataspace,
                        is_outermost=(node.name == outermost[dataspace]),
                    )

        real_macs = self._grouped_real_macs()
        traffic_bits, bandwidth_cycles = compute_traffic(
            self.architecture, self.layer, storage_counts, instances)
        return AccessCounts(
            storage=storage_counts,
            conversions=conversions,
            padded_macs=padded_macs,
            real_macs=real_macs,
            cycles=cycles,
            occupancy_bits=occupancy,
            instances=instances,
            padding_utilization=(real_macs / padded_macs
                                 if padded_macs else 0.0),
            bandwidth_cycles=bandwidth_cycles,
            traffic_bits=traffic_bits,
        )

    def _visit_read_storage(self, node, node_index, counts, incoming_demand,
                            dataspace, is_outermost):
        counts.reads[dataspace] = counts.reads.get(dataspace, 0.0) \
            + incoming_demand
        if is_outermost:
            return 0.0
        fills = (
            _fill_events(self._loops_above(node.name), dataspace)
            * self._tile_elements(node_index, dataspace)
            * self._instances_above(node_index)
        )
        counts.writes[dataspace] = counts.writes.get(dataspace, 0.0) + fills
        return float(fills)

    def _visit_output_storage(self, node, node_index, counts, updates_in,
                              is_outermost):
        writebacks = float(
            _fill_events(self._loops_above(node.name), DataSpace.OUTPUTS)
            * self._tile_elements(node_index, DataSpace.OUTPUTS)
            * self._instances_above(node_index)
        )
        if node.max_accumulation_depth is not None:
            writebacks = max(writebacks,
                             updates_in / node.max_accumulation_depth)
        if updates_in + 1e-9 < writebacks:
            raise MappingError(
                f"storage {node.name!r}: output residencies ({writebacks}) "
                f"exceed incoming updates ({updates_in}); mapping is "
                f"structurally inconsistent"
            )
        counts.writes[DataSpace.OUTPUTS] = counts.writes.get(
            DataSpace.OUTPUTS, 0.0) + updates_in
        if is_outermost:
            rmw_reads = updates_in - writebacks
            counts.reads[DataSpace.OUTPUTS] = counts.reads.get(
                DataSpace.OUTPUTS, 0.0) + rmw_reads
            return 0.0
        counts.reads[DataSpace.OUTPUTS] = counts.reads.get(
            DataSpace.OUTPUTS, 0.0) + updates_in
        return float(writebacks)

    def _occupancy_bits(self, node_index, node):
        bits = 0.0
        for dataspace in node.dataspaces:
            width = (self.layer.bits_per_weight
                     if dataspace is DataSpace.WEIGHTS
                     else self.layer.bits_per_activation)
            bits += self._tile_elements(node_index, dataspace) * width
        return bits

    def _grouped_real_macs(self):
        layer = self.layer
        return (layer.n * (layer.m // layer.groups)
                * (layer.c // layer.groups)
                * layer.p * layer.q * layer.r * layer.s)


# ---------------------------------------------------------------------------
# Comparison plumbing
# ---------------------------------------------------------------------------

def _counts_equal(a: AccessCounts, b: AccessCounts) -> List[str]:
    """Field-by-field exact comparison; returns mismatch descriptions."""
    mismatches = []
    if set(a.storage) != set(b.storage):
        mismatches.append("storage level sets differ")
    for name in a.storage:
        for kind in ("reads", "writes"):
            left = getattr(a.storage[name], kind)
            right = getattr(b.storage[name], kind)
            if left != right:
                mismatches.append(
                    f"storage[{name}].{kind}: {left} != {right}")
    if a.conversions != b.conversions:
        mismatches.append(f"conversions: {a.conversions} != {b.conversions}")
    for scalar in ("padded_macs", "real_macs", "cycles",
                   "padding_utilization"):
        if getattr(a, scalar) != getattr(b, scalar):
            mismatches.append(
                f"{scalar}: {getattr(a, scalar)} != {getattr(b, scalar)}")
    for mapping_field in ("occupancy_bits", "instances", "bandwidth_cycles",
                          "traffic_bits"):
        if getattr(a, mapping_field) != getattr(b, mapping_field):
            mismatches.append(
                f"{mapping_field}: {getattr(a, mapping_field)} != "
                f"{getattr(b, mapping_field)}")
    return mismatches


def _assert_equivalent(architecture, layer, mapping):
    try:
        expected = _ReferenceNestAnalyzer(architecture, layer,
                                          mapping).analyze()
        expected_error = None
    except (MappingError, CapacityError) as error:
        expected, expected_error = None, type(error)
    try:
        actual = analyze(architecture, layer, mapping)
        actual_error = None
    except (MappingError, CapacityError) as error:
        actual, actual_error = None, type(error)
    assert expected_error == actual_error, (
        f"rejection behaviour diverged: reference {expected_error}, "
        f"rewritten {actual_error}")
    if expected is None:
        return
    mismatches = _counts_equal(expected, actual)
    assert not mismatches, "\n".join(mismatches)


def _unique_layers():
    seen = set()
    layers = []
    for entry in resnet18().entries:
        layer = entry.layer
        key = (layer.n, layer.m, layer.c, layer.p, layer.q, layer.r,
               layer.s, layer.stride_h, layer.stride_w, layer.groups)
        if key not in seen:
            seen.add(key)
            layers.append(layer)
    return layers


RESNET_LAYERS = _unique_layers()


@pytest.fixture(scope="module")
def system():
    return AlbireoSystem(AlbireoConfig())


# ---------------------------------------------------------------------------
# Golden tests
# ---------------------------------------------------------------------------

class TestResNet18Equivalence:
    @pytest.mark.parametrize(
        "layer", RESNET_LAYERS, ids=[l.name for l in RESNET_LAYERS])
    def test_reference_mapping_candidates(self, system, layer):
        """All reference-mapping variants of every unique ResNet18 layer."""
        target = system.analysis_layer(layer)
        for mapping in albireo_mapping_candidates(system.config, target):
            _assert_equivalent(system.architecture, target, mapping)

    def test_mapper_found_mappings(self, system):
        """Mappings the search actually returns (several seeds)."""
        layer = RESNET_LAYERS[3]
        target = system.analysis_layer(layer)
        for seed in (0, 1, 2):
            result = system.search_mapping(layer, max_evaluations=60,
                                           seed=seed)
            _assert_equivalent(system.architecture, target, result.mapping)

    def test_adversarial_padded_mappings(self, system):
        """Heavily padded, deliberately awkward hand-built mappings."""
        layer = ConvLayer(name="awkward", m=127, c=63, p=13, q=13, r=3, s=3)
        target = system.analysis_layer(layer)
        mappings = [
            # Everything temporal at DRAM, heavy padding on M and C.
            Mapping(
                levels=(
                    LevelMapping("DRAM", (
                        TemporalLoop(Dim.M, 128), TemporalLoop(Dim.C, 64),
                        TemporalLoop(Dim.P, 13), TemporalLoop(Dim.Q, 13),
                        TemporalLoop(Dim.R, 3), TemporalLoop(Dim.S, 3))),
                    LevelMapping("GlobalBuffer", ()),
                    LevelMapping("AEIntegrator", ()),
                ),
                spatials=(
                    FanoutMapping("clusters", {}),
                    FanoutMapping("weight_lanes", {}),
                    FanoutMapping("star_coupler", {}),
                    FanoutMapping("window_sites", {}),
                    FanoutMapping("wavelengths", {}),
                ),
            ),
            # Split across levels with transparent (bound-1) loops and
            # spatial padding on the star coupler.
            Mapping(
                levels=(
                    LevelMapping("DRAM", (
                        TemporalLoop(Dim.C, 16), TemporalLoop(Dim.M, 8),
                        TemporalLoop(Dim.N, 1), TemporalLoop(Dim.P, 13))),
                    LevelMapping("GlobalBuffer", (
                        TemporalLoop(Dim.Q, 13), TemporalLoop(Dim.C, 4),
                        TemporalLoop(Dim.M, 2), TemporalLoop(Dim.R, 1))),
                    LevelMapping("AEIntegrator", (TemporalLoop(Dim.R, 3),)),
                ),
                spatials=(
                    FanoutMapping("clusters", {Dim.M: 8}),
                    FanoutMapping("weight_lanes", {}),
                    FanoutMapping("star_coupler", {Dim.M: 1}),
                    FanoutMapping("window_sites", {Dim.S: 3}),
                    FanoutMapping("wavelengths", {Dim.C: 1}),
                ),
            ),
        ]
        for mapping in mappings:
            _assert_equivalent(system.architecture, target, mapping)

    def test_strided_and_grouped_layers(self, system):
        """Stride/group handling flows through identically."""
        strided = ConvLayer(name="strided", m=64, c=64, p=14, q=14,
                            r=3, s=3, stride_h=2, stride_w=2)
        grouped = ConvLayer(name="grouped", m=32, c=32, p=7, q=7,
                            groups=4)
        for layer in (strided, grouped):
            target = system.analysis_layer(layer)
            for mapping in albireo_mapping_candidates(system.config,
                                                      target)[:4]:
                _assert_equivalent(system.architecture, target, mapping)

    def test_tables_warmed_by_other_configurations(self, system):
        """The fill-event and tile-size tables are process-wide (one
        tile table per stride pair).  Entries written while analyzing a
        second configuration, and a strided twin of every layer, must
        serve this configuration exactly as the memo-free reference
        computes.  The tables start empty, so every entry the checked
        analyses read back was written by the warm-up."""
        layers = [system.analysis_layer(layer)
                  for layer in (RESNET_LAYERS[1], RESNET_LAYERS[3])]
        checked = [(layer, albireo_mapping_candidates(system.config, layer))
                   for layer in layers]
        checked[1][1].append(system.search_mapping(
            layers[1], max_evaluations=60, seed=0).mapping)
        for table in (analysis._FILL_MEMO, *analysis._TILE_MEMOS.values()):
            table.clear()
        other = AlbireoSystem(AlbireoConfig(clock_ghz=3.0,
                                            global_buffer_kib=512))
        for layer, mappings in checked:
            twin = replace(layer, stride_h=2, stride_w=2)
            for mapping in mappings:
                for target in (twin, layer):
                    analyze(other.architecture, target, mapping,
                            check_capacity=False)
        for layer, mappings in checked:
            for mapping in mappings:
                _assert_equivalent(system.architecture, layer, mapping)

    def test_capacity_rejection_matches(self, system):
        """Over-capacity mappings raise CapacityError in both paths."""
        layer = ConvLayer(name="huge", m=512, c=512, p=56, q=56, r=3, s=3)
        target = system.analysis_layer(layer)
        mapping = Mapping(
            levels=(
                LevelMapping("DRAM", ()),
                LevelMapping("GlobalBuffer", tuple(
                    TemporalLoop(dim, bound) for dim, bound in (
                        (Dim.M, 512), (Dim.C, 512), (Dim.P, 56),
                        (Dim.Q, 56), (Dim.R, 3), (Dim.S, 3)))),
                LevelMapping("AEIntegrator", ()),
            ),
            spatials=(
                FanoutMapping("clusters", {}),
                FanoutMapping("weight_lanes", {}),
                FanoutMapping("star_coupler", {}),
                FanoutMapping("window_sites", {}),
                FanoutMapping("wavelengths", {}),
            ),
        )
        _assert_equivalent(system.architecture, target, mapping)


# ---------------------------------------------------------------------------
# Batched (candidate-axis) analyzer vs the scalar analyzer
# ---------------------------------------------------------------------------

def _assert_batch_equivalent(system, target, mappings):
    """Batch-analyze ``mappings`` and compare every candidate — counts,
    priced energy, and rejection behaviour — bitwise against the scalar
    path."""
    architecture = system.architecture
    valid = []
    for mapping in mappings:
        try:
            mapping.validate(architecture, target)
        except MappingError:
            continue
        valid.append(mapping)
    assert valid, "candidate family produced no structurally valid mapping"
    context = SearchContext.for_layer(architecture, target)
    batch = BatchNestAnalyzer(architecture, target, valid,
                              context=context, validate=False).analyze()
    costs = system.model.batch_energy_pj(target, valid, context)
    assert len(costs) == len(valid)
    for index, mapping in enumerate(valid):
        try:
            scalar = NestAnalyzer(architecture, target, mapping,
                                  context=context,
                                  validate=False).analyze()
            scalar_error = None
        except (MappingError, CapacityError) as error:
            scalar, scalar_error = None, error
        if scalar_error is not None:
            assert not batch.ok(index), (
                f"scalar raised {type(scalar_error).__name__} but the "
                f"batch accepted candidate {index}")
            assert costs[index] is None
            with pytest.raises(type(scalar_error)) as caught:
                batch.counts_for(index)
            assert str(caught.value) == str(scalar_error)
            continue
        assert batch.ok(index), (
            f"batch flagged candidate {index} "
            f"(capacity={batch.capacity_level[index]!r}, "
            f"inconsistent={bool(batch.inconsistent[index])}) but the "
            f"scalar analyzer accepted it")
        mismatches = _counts_equal(scalar, batch.counts_for(index))
        assert not mismatches, "\n".join(mismatches)
        expected = system.model.evaluate_layer(
            target, mapping, context=context, validated=True).energy_pj
        assert costs[index] == expected, (
            f"candidate {index}: batch cost {costs[index]!r} != scalar "
            f"energy {expected!r}")


def _mapper_candidate_pool(system, target, budget=150, seed=0):
    """Deduplicated materialized mapper candidates (the search's pool)."""
    import random

    from repro.mapping.mapper import Mapper, _materialize

    mapper = Mapper(system.architecture,
                    system.model.energy_cost_fn(target),
                    constraints=system.constraints(target))
    specs, _ = mapper._generate_specs(target, random.Random(seed), set(),
                                      budget)
    return [_materialize(spec) for spec in specs]


#: Systems and layers of the row-vs-scalar mapper search comparison.
SEARCH_SYSTEMS = [
    ("albireo", {}),
    ("crossbar", {}),
    ("wdm_delay", {}),
    ("crossbar-hold-4", {"hold_cycles": 4, "integration_depth": 1}),
    ("crossbar-gb-16", {"global_buffer_kib": 16}),
]
SEARCH_LAYERS = [
    lenet5().entries[1].layer,
    ConvLayer(name="wide", m=256, c=256, p=28, q=28, r=3, s=3),
    ConvLayer(name="stride2", m=64, c=32, p=14, q=14, r=3, s=3,
              stride_h=2, stride_w=2),
    ConvLayer(name="primes", m=67, c=31, p=13, q=11, r=3, s=3),
]


@pytest.mark.skipif(not HAVE_NUMPY, reason="batched analyzer needs numpy")
class TestBatchedAnalyzerEquivalence:
    """The vectorized candidate-axis analyzer is bit-identical to the
    scalar analyzer over every mapping family the system exercises."""

    @pytest.mark.parametrize(
        "layer", RESNET_LAYERS[:6], ids=[l.name for l in RESNET_LAYERS[:6]])
    def test_reference_candidates(self, system, layer):
        target = system.analysis_layer(layer)
        _assert_batch_equivalent(
            system, target,
            list(albireo_mapping_candidates(system.config, target)))

    def test_mapper_candidate_pools(self, system):
        for layer in RESNET_LAYERS[2:5]:
            target = system.analysis_layer(layer)
            _assert_batch_equivalent(
                system, target, _mapper_candidate_pool(system, target))

    def test_adversarial_padded_mappings(self, system):
        layer = ConvLayer(name="awkward", m=127, c=63, p=13, q=13, r=3, s=3)
        target = system.analysis_layer(layer)
        mappings = [
            Mapping(
                levels=(
                    LevelMapping("DRAM", (
                        TemporalLoop(Dim.M, 128), TemporalLoop(Dim.C, 64),
                        TemporalLoop(Dim.P, 13), TemporalLoop(Dim.Q, 13),
                        TemporalLoop(Dim.R, 3), TemporalLoop(Dim.S, 3))),
                    LevelMapping("GlobalBuffer", ()),
                    LevelMapping("AEIntegrator", ()),
                ),
                spatials=(
                    FanoutMapping("clusters", {}),
                    FanoutMapping("weight_lanes", {}),
                    FanoutMapping("star_coupler", {}),
                    FanoutMapping("window_sites", {}),
                    FanoutMapping("wavelengths", {}),
                ),
            ),
            Mapping(
                levels=(
                    LevelMapping("DRAM", (
                        TemporalLoop(Dim.C, 16), TemporalLoop(Dim.M, 8),
                        TemporalLoop(Dim.N, 1), TemporalLoop(Dim.P, 13))),
                    LevelMapping("GlobalBuffer", (
                        TemporalLoop(Dim.Q, 13), TemporalLoop(Dim.C, 4),
                        TemporalLoop(Dim.M, 2), TemporalLoop(Dim.R, 1))),
                    LevelMapping("AEIntegrator", (TemporalLoop(Dim.R, 3),)),
                ),
                spatials=(
                    FanoutMapping("clusters", {Dim.M: 8}),
                    FanoutMapping("weight_lanes", {}),
                    FanoutMapping("star_coupler", {Dim.M: 1}),
                    FanoutMapping("window_sites", {Dim.S: 3}),
                    FanoutMapping("wavelengths", {Dim.C: 1}),
                ),
            ),
        ]
        _assert_batch_equivalent(system, target, mappings)

    def test_capacity_rejection_reproduced(self, system):
        """Over-capacity candidates are flagged, priced as None, and
        counts_for raises the scalar CapacityError verbatim."""
        layer = ConvLayer(name="huge", m=512, c=512, p=56, q=56, r=3, s=3)
        target = system.analysis_layer(layer)
        mapping = Mapping(
            levels=(
                LevelMapping("DRAM", ()),
                LevelMapping("GlobalBuffer", tuple(
                    TemporalLoop(dim, bound) for dim, bound in (
                        (Dim.M, 512), (Dim.C, 512), (Dim.P, 56),
                        (Dim.Q, 56), (Dim.R, 3), (Dim.S, 3)))),
                LevelMapping("AEIntegrator", ()),
            ),
            spatials=(
                FanoutMapping("clusters", {}),
                FanoutMapping("weight_lanes", {}),
                FanoutMapping("star_coupler", {}),
                FanoutMapping("window_sites", {}),
                FanoutMapping("wavelengths", {}),
            ),
        )
        _assert_batch_equivalent(system, target, [mapping])

    @pytest.mark.parametrize("budget", [60, 1000, 5000])
    @pytest.mark.parametrize("layer", SEARCH_LAYERS,
                             ids=[layer.name for layer in SEARCH_LAYERS])
    @pytest.mark.parametrize("system_name, config", SEARCH_SYSTEMS,
                             ids=[name for name, _ in SEARCH_SYSTEMS])
    def test_search_batched_equals_scalar(self, system_name, config, layer,
                                          budget):
        """Full Mapper.search: the row path (checked rows, batch pricing)
        vs the scalar path (a Mapping per survivor, priced one by one)
        produce the same winner, cost bits, and counters.

        Budgets 60 and 1000 draw candidate indices; 5000 composes every
        candidate of the Albireo and most WDM-delay pools.  ``hold-4``
        fails about half the candidates on ``max_temporal_product``;
        ``gb-16`` makes capacity pruning fire.
        """
        from repro.mapping.mapper import Mapper
        from repro.systems.registry import create_system, get_system

        name = system_name.split("-")[0]
        system = create_system(name, get_system(name).config_type(**config))
        target = system.analysis_layer(layer)
        seed = system.reference_mapping(layer)
        results = []
        for strip_batch in (False, True):
            cost_fn = system.model.energy_cost_fn(target)
            if strip_batch:
                assert hasattr(cost_fn, "batch")
                del cost_fn.batch
            mapper = Mapper(system.architecture, cost_fn,
                            constraints=system.constraints(target))
            result = mapper.search(target, max_evaluations=budget,
                                   extra_candidates=(seed,))
            results.append((result.mapping.structure_key(),
                            result.cost.hex(), result.evaluated,
                            result.valid, result.deduplicated,
                            result.pruned_early))
        assert results[0] == results[1]
