"""The accelerator model: price mapped layers and whole networks.

:class:`AcceleratorModel` binds an :class:`~repro.arch.hierarchy.Architecture`
to an :class:`~repro.energy.table.EnergyTable` and evaluates workloads:

* :meth:`evaluate_layer` — :meth:`counts` (the access-count analysis of
  one mapping), then :meth:`price` (fusion's DRAM elision, then per-action
  energies): CiMLoop's split, so a clock or scenario sweep re-prices.
* :meth:`evaluate_network` — evaluate every (unique) layer of a network with
  caller-supplied mappings, applying the system-level options the paper's
  Fig. 4 explores: **batching** (amortize weight DRAM traffic over the
  batch; expressed in the workload via ``Network.with_batch``) and
  **fusion** (keep inter-layer activations in the global buffer instead of
  round-tripping DRAM, at the cost of buffer capacity).

Grouped convolutions are evaluated on the per-group problem and scaled by
the group count, which is exact for energy and cycles on architectures
without native group support.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.hierarchy import (
    Architecture,
    ComputeLevel,
    ConverterStage,
    StorageLevel,
)
from repro.energy.table import EnergyTable
from repro.exceptions import CapacityError, SpecError
from repro.mapping.analysis import (
    HAVE_NUMPY,
    AccessCounts,
    BatchNestAnalyzer,
    NestAnalyzer,
    SearchContext,
    StorageCounts,
    compute_traffic,
)
from repro.mapping.mapping import Mapping
from repro.model.results import (
    EnergyBreakdown,
    LayerEvaluation,
    NetworkEvaluation,
)
from repro.workloads.dataspace import DataSpace
from repro.workloads.layer import ConvLayer
from repro.workloads.network import Network

#: Produces a mapping for a layer (a reference-mapping generator or a
#: mapper-search closure).
MappingProvider = Callable[[ConvLayer], Mapping]

#: The counts a price term reads (see ``AcceleratorModel._price_terms``).
_READS, _WRITES, _CONVERTS, _MACS = "reads", "writes", "conversions", "macs"


def fusion_blocks(entry, is_last_entry: bool, fused: bool):
    """DRAM-traffic flags for the repetitions of one network entry.

    Returns ``[(input_from_dram, output_to_dram, count), ...]`` covering
    the entry's ``count`` repetitions.  Unfused execution round-trips DRAM
    everywhere.  Under fusion, only the first repetition may read external
    input (and only if the entry itself does), and only the final
    repetition of the network's final entry writes its output to DRAM —
    chained repetitions pass activations through the on-chip buffer.
    """
    if not fused:
        return [(True, True, entry.count)]
    first_input = not entry.consumes_previous_output
    blocks = []
    remaining = entry.count
    if first_input and not (is_last_entry and entry.count == 1):
        blocks.append((True, False, 1))
        remaining -= 1
    elif first_input:  # single-repetition entry that is also last
        return [(True, True, 1)]
    middle = remaining - (1 if is_last_entry else 0)
    if middle > 0:
        blocks.append((False, False, middle))
        remaining -= middle
    if remaining > 0:
        blocks.append((False, True, remaining))
    return blocks


@dataclass(frozen=True)
class NetworkOptions:
    """System-level execution options for whole-network evaluation."""

    #: Keep inter-layer activations in the innermost DE buffer (global
    #: buffer) instead of spilling to DRAM.
    fused: bool = False
    #: Verify that the global buffer can actually hold the resident
    #: activations fusion requires (on by default; disable only for
    #: what-if studies).
    check_fusion_capacity: bool = True


class AcceleratorModel:
    """Evaluates workloads on one architecture with one energy table.

    The model copies the table's per-action energies into its price
    terms the first time it prices anything, so the table must not be
    changed (:meth:`EnergyTable.replace`) after that.
    """

    def __init__(self, architecture: Architecture,
                 energy_table: EnergyTable) -> None:
        missing = [name for name in architecture.component_names()
                   if name not in energy_table]
        if missing:
            raise SpecError(
                f"energy table lacks entries for components {missing}"
            )
        self.architecture = architecture
        self.energy_table = energy_table

    # ------------------------------------------------------------------
    # Layer evaluation
    # ------------------------------------------------------------------
    def evaluate_layer(
        self,
        layer: ConvLayer,
        mapping: Mapping,
        input_from_dram: bool = True,
        output_to_dram: bool = True,
        check_capacity: bool = True,
        analysis_layer: Optional[ConvLayer] = None,
        context: Optional[SearchContext] = None,
        validated: bool = False,
    ) -> LayerEvaluation:
        """Analyze and price one layer: :meth:`price` of :meth:`counts`.

        ``input_from_dram=False`` / ``output_to_dram=False`` implement
        fusion: the corresponding DRAM traffic (and the matching buffer
        fill/drain traffic) is removed because the tensor stays on chip.

        ``analysis_layer`` lets a system model evaluate a *transformed*
        workload (e.g. a strided convolution expanded to all unit-stride
        windows, most of which the hardware discards) while reporting
        per-MAC energy and utilization against the original layer's real
        work.
        """
        target = analysis_layer if analysis_layer is not None else layer
        counts = self.counts(target, mapping, check_capacity=check_capacity,
                             context=context, validated=validated)
        return self.price(layer, counts, input_from_dram, output_to_dram,
                          analysis_layer=analysis_layer)

    def counts(self, layer: ConvLayer, mapping: Mapping,
               check_capacity: bool = True,
               context: Optional[SearchContext] = None,
               validated: bool = False) -> AccessCounts:
        """The action counts of ``layer`` (the executed workload) under
        ``mapping`` with every tensor crossing DRAM; independent of the
        energy table and the clock.

        ``context`` shares a :class:`~repro.mapping.analysis.SearchContext`
        (memoized nest geometry) across evaluations of the same
        architecture/layer geometry; ``validated=True`` additionally skips
        re-validating a mapping the caller has already validated against
        the analysis target (the mapper's check-once protocol).
        """
        analyzer = NestAnalyzer(self.architecture, layer, mapping,
                                check_capacity=check_capacity,
                                context=context,
                                validate=not validated)
        return analyzer.analyze()

    def price(self, layer: ConvLayer, counts: AccessCounts,
              input_from_dram: bool = True, output_to_dram: bool = True,
              analysis_layer: Optional[ConvLayer] = None) -> LayerEvaluation:
        """Price :meth:`counts` (read only) for the reported ``layer``,
        eliding fusion's DRAM traffic from a copy; pass ``analysis_layer``
        when they count a transformed workload."""
        counts = self._apply_dram_elision(
            counts, analysis_layer if analysis_layer is not None else layer,
            input_from_dram, output_to_dram)
        energy = self._price(counts)
        groups = layer.groups
        real_macs = layer.macs if analysis_layer is not None \
            else counts.real_macs * groups
        effective_cycles = int(-(-counts.effective_cycles // 1))
        return LayerEvaluation(
            layer=layer,
            energy=energy.scaled(groups),
            cycles=effective_cycles * groups,
            real_macs=real_macs,
            padded_macs=counts.padded_macs * groups,
            peak_parallelism=self.architecture.peak_parallelism,
            clock_ghz=self.architecture.clock_ghz,
            occupancy_bits=dict(counts.occupancy_bits),
            compute_cycles=counts.cycles * groups,
            bandwidth_bound_level=counts.bandwidth_bound_level,
        )

    def energy_cost_fn(
        self,
        layer: ConvLayer,
        input_from_dram: bool = True,
        output_to_dram: bool = True,
    ) -> Callable[..., float]:
        """Cost function (total energy, pJ) for the mapper.

        Participates in the mapper's shared-context protocol: when the
        search passes its :class:`SearchContext`, the candidate has been
        validated once already and analysis reuses the context's memoized
        geometry.  A candidate's cost is
        ``evaluate_layer(...).energy_pj``, summed without building the
        :class:`LayerEvaluation`.
        """
        groups = layer.groups

        def cost(mapping: Mapping,
                 context: Optional[SearchContext] = None) -> float:
            counts = self._apply_dram_elision(
                self.counts(layer, mapping, context=context,
                            validated=context is not None),
                layer, input_from_dram, output_to_dram)
            return self._price(counts).scaled(groups).total_pj

        cost.supports_context = True
        if input_from_dram and output_to_dram and HAVE_NUMPY:
            # DRAM elision is the identity under both-True flags, so the
            # batched analyzer prices exactly what evaluate_layer would;
            # the mapper uses this to evaluate candidate blocks in one
            # vectorized pass.
            def batch(mappings, context):
                return self.batch_energy_pj(layer, mappings, context)

            cost.batch = batch
        return cost

    def batch_energy_pj(
        self,
        layer: ConvLayer,
        mappings,
        context: SearchContext,
    ) -> List[Optional[float]]:
        """Total energy (pJ) per candidate of a *checked* block of mappings
        or mapper candidate rows.

        Vectorized twin of ``price(layer, counts).energy_pj`` for each
        mapping (full DRAM round-trips, no elision): one batched nest
        analysis, then array pricing over the candidate axis, walking the
        same :attr:`_price_terms` as :meth:`_price`.  Candidates the scalar
        path would reject (capacity violation, structural inconsistency)
        yield ``None``.  Results are bit-identical to the scalar path:
        every integer is converted to float64 once and every energy entry
        is accumulated, scaled by the group count, and summed in exactly
        the scalar :class:`EnergyBreakdown` insertion order.
        """
        import numpy as np

        batch = BatchNestAnalyzer(self.architecture, layer, mappings,
                                  context=context,
                                  validate=False).analyze()
        n = batch.n
        if n == 0:
            return []
        # Ordered (component, dataspace) -> per-candidate pJ arrays,
        # mirroring EnergyBreakdown's insertion-ordered accumulation.
        entries: Dict[Tuple[str, Optional[DataSpace]], "np.ndarray"] = {}

        def add(component, dataspace, pj):
            key = (component, dataspace)
            held = entries.get(key)
            entries[key] = pj if held is None else held + pj

        energy = self.energy_table.energy
        padded_f = None
        for source, name, per_mac, pj, lookup in self._price_terms:
            if source is _MACS:
                if isinstance(per_mac, int):
                    # Scalar computes an exact int product, then one
                    # int->float conversion at pricing time.
                    events = np.array(
                        [float(p * per_mac) for p in batch.padded_macs],
                        dtype=np.float64)
                else:
                    if padded_f is None:
                        padded_f = np.array(
                            [float(p) for p in batch.padded_macs],
                            dtype=np.float64)
                    events = padded_f * per_mac
                rows = ((None, events),)
            elif source is _CONVERTS:
                rows = batch.conv_entries[name]
            else:
                rows = (batch.reads_entries if source is _READS
                        else batch.writes_entries).get(name, ())
            for dataspace, events in rows:
                if pj is None:
                    pj = energy(*lookup)  # raises
                add(name, dataspace, events * pj)
        # scaled(groups).total_pj: scale each entry, then left-fold in
        # insertion order (sum() starts at 0; 0.0 + x == x).
        groups = layer.groups
        total = np.zeros(n, dtype=np.float64)
        for value in entries.values():
            total = total + value * groups
        return [float(total[i]) if batch.ok(i) else None for i in range(n)]

    def edp_cost_fn(self, layer: ConvLayer) -> Callable[..., float]:
        """Cost function (energy x delay) for the mapper."""

        def cost(mapping: Mapping,
                 context: Optional[SearchContext] = None) -> float:
            evaluation = self.evaluate_layer(
                layer, mapping, context=context,
                validated=context is not None)
            return evaluation.energy_pj * evaluation.latency_ns

        cost.supports_context = True
        return cost

    # ------------------------------------------------------------------
    # Network evaluation
    # ------------------------------------------------------------------
    def evaluate_network(
        self,
        network: Network,
        mapping_provider: MappingProvider,
        options: NetworkOptions = NetworkOptions(),
    ) -> NetworkEvaluation:
        """Evaluate a whole network.

        Under fusion, a layer's inputs are read from the on-chip buffer when
        they were produced by the previous layer, and its outputs go to DRAM
        only if it is the network's last layer.  Repeated layers (count > 1)
        chain into each other, so their intermediates stay on chip too.
        """
        if options.fused:
            self._check_fusion_capacity(network, options)
        evaluations: List[Tuple[LayerEvaluation, int]] = []
        entries = network.entries
        for index, entry in enumerate(entries):
            is_last = index == len(entries) - 1
            mapping = mapping_provider(entry.layer)
            for input_dram, output_dram, count in fusion_blocks(
                    entry, is_last, options.fused):
                evaluation = self.evaluate_layer(
                    entry.layer, mapping,
                    input_from_dram=input_dram,
                    output_to_dram=output_dram,
                )
                evaluations.append((evaluation, count))
        return NetworkEvaluation(
            name=network.name,
            layers=tuple(evaluations),
            clock_ghz=self.architecture.clock_ghz,
            peak_parallelism=self.architecture.peak_parallelism,
        )

    # ------------------------------------------------------------------
    # Area
    # ------------------------------------------------------------------
    def area_um2(self) -> Dict[str, float]:
        """Approximate per-component area, scaled by instance count.

        Instance counts derive from the fanout products above each node;
        converter stages below additional (unmapped) parallelism are counted
        at their architectural position, an undercount documented in
        DESIGN.md.
        """
        areas: Dict[str, float] = {}
        instances = 1
        for node in self.architecture.nodes:
            if hasattr(node, "size"):
                instances *= node.size  # SpatialFanout
                continue
            component = getattr(node, "component", None)
            if component is None:
                continue
            entry = self.energy_table.entry(component)
            areas[node.name] = entry.area_um2 * instances
            if isinstance(node, ComputeLevel):
                for action in node.actions:
                    action_entry = self.energy_table.entry(action.component)
                    areas[action.component] = areas.get(
                        action.component, 0.0) + action_entry.area_um2
        return areas

    def static_power_mw(self) -> Dict[str, float]:
        """Approximate per-component static power (leakage, ring tuning).

        Uses the same instance accounting as :meth:`area_um2`.  Static
        energy for a run is ``sum(static_power_mw) * latency_ns`` pJ
        (the unit system makes mW x ns = pJ directly).
        """
        powers: Dict[str, float] = {}
        instances = 1
        for node in self.architecture.nodes:
            if hasattr(node, "size"):
                instances *= node.size
                continue
            component = getattr(node, "component", None)
            if component is None:
                continue
            entry = self.energy_table.entry(component)
            if entry.static_power_mw:
                powers[node.name] = entry.static_power_mw * instances
        return powers

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @functools.cached_property
    def _price_terms(self) -> List[Tuple]:
        """``(source, name, events_per_mac, pj, (component, action))`` per
        priced action in node order, built on first use: a snapshot of the
        energy table (see the class docstring).  ``source`` names the
        counts priced: a level's reads or writes, a converter's events, or
        a compute action's padded MACs (``name`` is then its component).
        ``pj`` is ``None`` for an action the table lacks, looked up (and
        raised) only when the counts use it, as a node walk would."""
        terms = []

        def term(source, name, component, action, per_mac=None):
            pj = self.energy_table.entry(component) \
                .energy_per_action_pj.get(action)
            terms.append((source, name, per_mac, pj, (component, action)))

        for node in self.architecture.nodes:
            if isinstance(node, StorageLevel):
                term(_READS, node.name, node.component, "read")
                term(_WRITES, node.name, node.component, "write")
            elif isinstance(node, ConverterStage):
                term(_CONVERTS, node.name, node.component, "convert")
            elif isinstance(node, ComputeLevel):
                for action in node.actions:
                    term(_MACS, action.component, action.component,
                         action.action, action.events_per_mac)
        return terms

    def _price(self, counts: AccessCounts) -> EnergyBreakdown:
        """Per-action energies of ``counts``: one
        :meth:`EnergyBreakdown.add` per (term, dataspace), in
        :attr:`_price_terms` order, so entry order, every float and the
        negative-energy check match a walk of the nodes."""
        breakdown = EnergyBreakdown()
        add = breakdown.add
        for source, name, per_mac, pj, lookup in self._price_terms:
            if source is _MACS:
                events = ((None, counts.padded_macs * per_mac),)
            elif source is _CONVERTS:
                events = counts.conversions[name].items()
            else:
                level = counts.storage[name]
                events = (level.reads if source is _READS
                          else level.writes).items()
            for dataspace, value in events:
                if pj is None:
                    pj = self.energy_table.energy(*lookup)  # raises
                add(name, dataspace, value * pj)
        return breakdown

    def _apply_dram_elision(
        self,
        counts: AccessCounts,
        layer: ConvLayer,
        input_from_dram: bool,
        output_to_dram: bool,
    ) -> AccessCounts:
        """Remove DRAM round-trips for on-chip inter-layer tensors.

        The elided traffic is symmetric: DRAM reads of inputs equal the
        buffer's input fills (they are the same transfers), and DRAM writes
        of outputs equal the buffer's outgoing writeback reads.
        ``counts`` may be shared, so the result is a new object.
        """
        if input_from_dram and output_to_dram:
            return counts
        outer_name = self.architecture.storage_levels[0].name
        inner_de = self._innermost_de_buffer()
        storage = dict(counts.storage)
        for name in (outer_name, inner_de):
            storage[name] = StorageCounts(dict(storage[name].reads),
                                          dict(storage[name].writes))
        outer, buffer_counts = storage[outer_name], storage[inner_de]
        conversions = dict(counts.conversions)
        if not input_from_dram:
            elided = outer.reads.pop(DataSpace.INPUTS, 0.0)
            fills = buffer_counts.writes.get(DataSpace.INPUTS, 0.0)
            buffer_counts.writes[DataSpace.INPUTS] = max(0.0, fills - elided)
            self._elide_interface_conversions(conversions, inner_de,
                                              DataSpace.INPUTS)
        if not output_to_dram:
            elided = outer.writes.pop(DataSpace.OUTPUTS, 0.0)
            outer.reads.pop(DataSpace.OUTPUTS, None)
            drains = buffer_counts.reads.get(DataSpace.OUTPUTS, 0.0)
            buffer_counts.reads[DataSpace.OUTPUTS] = max(0.0, drains - elided)
            self._elide_interface_conversions(conversions, inner_de,
                                              DataSpace.OUTPUTS)
        # Traffic changed; refresh the bandwidth picture.
        traffic_bits, bandwidth_cycles = compute_traffic(
            self.architecture, layer, storage, counts.instances)
        return replace(counts, storage=storage, conversions=conversions,
                       traffic_bits=traffic_bits,
                       bandwidth_cycles=bandwidth_cycles)

    def _elide_interface_conversions(
            self, conversions: Dict[str, Dict[DataSpace, float]],
            buffer_name: str, dataspace: DataSpace) -> None:
        """Zero converter events above the on-chip buffer for a dataspace.

        When fusion keeps a tensor on chip, memory-interface converters
        (e.g. digital-optical DRAM links) between the backing store and the
        buffer see no traffic for it either.
        """
        buffer_index = self.architecture.index_of(buffer_name)
        for index, node in enumerate(self.architecture.nodes):
            if index >= buffer_index:
                break
            if isinstance(node, ConverterStage) \
                    and dataspace in node.dataspaces:
                conversions[node.name] = dict(conversions[node.name])
                conversions[node.name][dataspace] = 0.0

    def _innermost_de_buffer(self) -> str:
        """The buffer that holds fused inter-layer activations."""
        candidates = [
            level for level in self.architecture.storage_levels[1:]
            if DataSpace.INPUTS in level.dataspaces
            and DataSpace.OUTPUTS in level.dataspaces
        ]
        if not candidates:
            raise SpecError(
                "fusion requires an on-chip buffer holding both inputs and "
                "outputs"
            )
        return candidates[0].name

    def _check_fusion_capacity(self, network: Network,
                               options: NetworkOptions) -> None:
        if not options.check_fusion_capacity:
            return
        buffer_name = self._innermost_de_buffer()
        level = self.architecture.node_named(buffer_name)
        assert isinstance(level, StorageLevel)
        if level.capacity_bits is None:
            return
        required = network.max_activation_bits
        if required > level.capacity_bits:
            raise CapacityError(
                f"fusion needs {required:.0f} bits resident in "
                f"{buffer_name!r} but capacity is "
                f"{level.capacity_bits:.0f}; enlarge the buffer to fuse "
                f"this network"
            )
