"""Exact access-count analysis of a mapped loop nest.

Given (architecture, layer, mapping), :class:`NestAnalyzer` computes the
quantities every result in the paper is built from:

* per storage level and dataspace: reads, writes (fills / update traffic);
* per converter stage: conversion events (the paper's central cost);
* compute events, cycles, per-level occupancy, and utilization.

The method is the analytical dataflow model of Timeloop, reimplemented from
its defining equations:

**Temporal reuse (fills).**  A storage level holds one tile of each of its
dataspaces.  Walking the temporal loops *above* the level from innermost to
outermost, the tile stays resident across the initial contiguous run of
loops irrelevant to the dataspace (pure temporal reuse); the first relevant
loop changes the tile, and every loop outside that point — relevant or not —
multiplies the number of times the tile must be (re)fetched, because an
intervening relevant sweep evicts it.  Loops of bound 1 are transparent.

**Spatial behaviour (multicast / reduction).**  Crossing a fanout boundary,
traffic for a dataspace is divided by the product of spatial factors on
dimensions *irrelevant* to it — if and only if the boundary declares
multicast capability for that dataspace (a star coupler broadcasting inputs,
a DE network forking weights).  For outputs the dual operation is spatial
reduction over reduction-dimension factors (photodiodes summing wavelengths,
analog summation trees), optionally capped by ``reduction_limit``.

**Output accumulation.**  Outputs flow inward-to-outward.  At each level,
incoming partial-sum updates are absorbed by read-modify-write until the
tile's accumulation (the initial run of reduction loops above the level)
completes; each residency then writes back once.  Reduction loops above the
first output-relevant loop force mid-accumulation writebacks (spills) whose
merging happens at the parent via RMW — the accumulate-at-parent policy real
designs use, which needs no downward partial-sum path.

Every element-copy crossing a converter stage's position costs one
conversion event; multicast boundaries below a converter therefore amortize
it, which is exactly the "convert once, reuse spatially" lever the paper's
Fig. 5 explores.

Search-context design (the mapper hot path)
-------------------------------------------

Mapping search evaluates thousands of candidates against the *same*
(architecture, layer) pair, so everything that depends only on that pair is
hoisted into a shared :class:`SearchContext`:

* a flattened **node plan** (innermost-first) with each node's kind,
  dataspace list, capacity, and converter wiring pre-resolved — the walk
  never touches ``isinstance`` or frozensets;
* **memo tables** for fill events (keyed by the loop-above signature) and
  tile sizes (keyed by cumulative bounds), shared across every candidate of
  a search — most candidates differ in only one or two levels, so these hit
  constantly.  Neither reads the architecture, so they are process-wide:
  one fill-event table, and one tile-size table per stride pair, serve
  every configuration;
* a **check-once protocol**: :class:`Mapper` checks each candidate exactly
  once — a seeded ``Mapping`` with :meth:`Mapping.validate`, a generated
  candidate row with the same rules — and the analyzers, built with
  ``validate=False``, read rows through the accessors they use on a
  ``Mapping``, so only the search's winner is ever materialized;
* a cheap **early capacity check** (:meth:`SearchContext.
  capacity_violation`) that bounds per-level occupancy before full analysis
  and pricing.

:meth:`NestAnalyzer.analyze` itself is a single inner-to-outer pass that
maintains the cumulative per-dimension bounds, the spatial-instance product,
and the loops-above signature incrementally, instead of rebuilding
``_loops_above`` (O(levels^2)) and per-node cumulative-bound dictionaries
(O(nodes x dims)) for every tile-size query.  Results are bit-identical to
the original formulation (see ``tests/test_analysis_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping as TMapping, Optional, Sequence, Tuple

try:  # numpy powers the batched candidate-axis analysis; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

#: True when the vectorized batch analyzer is available.  Callers fall
#: back to per-candidate scalar evaluation when it is not.
HAVE_NUMPY = _np is not None

from repro.arch.hierarchy import (
    Architecture,
    ComputeLevel,
    ConverterStage,
    SpatialFanout,
    StorageLevel,
)
from repro.exceptions import CapacityError, MappingError
from repro.mapping.mapping import Mapping
from repro.obs import current_tracer
from repro.workloads.dataspace import (
    ALL_DATASPACES,
    DataSpace,
    dataspace_tile_size,
    reduction_dims,
    relevant_dims,
)
from repro.workloads.dims import ALL_DIMS, Dim
from repro.workloads.layer import ConvLayer

_DIM_INDEX: Dict[Dim, int] = {dim: index for index, dim in enumerate(ALL_DIMS)}
_N, _M, _C, _P, _Q, _R, _S = (_DIM_INDEX[d] for d in
                              (Dim.N, Dim.M, Dim.C, Dim.P, Dim.Q,
                               Dim.R, Dim.S))


@dataclass
class StorageCounts:
    """Access counts for one storage level, split by dataspace."""

    reads: Dict[DataSpace, float] = field(default_factory=dict)
    writes: Dict[DataSpace, float] = field(default_factory=dict)

    @property
    def total_reads(self) -> float:
        return sum(self.reads.values())

    @property
    def total_writes(self) -> float:
        return sum(self.writes.values())


@dataclass
class AccessCounts:
    """Everything the evaluation layer needs to price a mapped layer."""

    #: Per storage-level access counts (element granularity).
    storage: Dict[str, StorageCounts]
    #: Per converter-stage, per dataspace conversion events.
    conversions: Dict[str, Dict[DataSpace, float]]
    #: Scheduled MAC iterations including padding (energy accounting basis).
    padded_macs: int
    #: Real MAC operations of the layer (throughput accounting basis).
    real_macs: int
    #: Total cycles (product of all temporal loop bounds).
    cycles: int
    #: Per storage-level occupancy in bits (per instance).
    occupancy_bits: Dict[str, float]
    #: Per storage-level instance counts.
    instances: Dict[str, int]
    #: Padding-induced compute utilization (real/padded, <= 1).
    padding_utilization: float
    #: Per storage-level cycles needed to move the level's traffic through
    #: its bandwidth (only levels that declare a bandwidth appear here).
    bandwidth_cycles: Dict[str, float] = field(default_factory=dict)
    #: Per storage-level total traffic in bits (reads + writes).
    traffic_bits: Dict[str, float] = field(default_factory=dict)

    def converter_events(self, name: str) -> float:
        return sum(self.conversions.get(name, {}).values())

    @property
    def effective_cycles(self) -> float:
        """Cycles including memory-bandwidth stalls (>= compute cycles)."""
        slowest = max(self.bandwidth_cycles.values(), default=0.0)
        return max(float(self.cycles), slowest)

    @property
    def bandwidth_bound_level(self) -> Optional[str]:
        """The level that limits throughput, or None if compute-bound."""
        if not self.bandwidth_cycles:
            return None
        name, cycles = max(self.bandwidth_cycles.items(),
                           key=lambda item: item[1])
        return name if cycles > self.cycles else None


# ---------------------------------------------------------------------------
# Node-plan records (plain classes with __slots__: attribute access in the
# analysis walk is the hottest code in the whole mapper)
# ---------------------------------------------------------------------------

#: Plan-record kind tags (cheaper to branch on than isinstance in the walk).
_KIND_STORAGE, _KIND_FANOUT, _KIND_CONVERTER = 0, 1, 2

#: Entry cap per memo table.  The fill-event and tile-size tables are
#: process-wide and shared by every context (and contexts, with their
#: amortization memos, are cached too), so without a bound the tables
#: would grow monotonically across searches; past the cap a table simply
#: resets (correctness is unaffected — entries are pure functions).
_MEMO_LIMIT = 1 << 17

#: (loops-above signature, dataspace) -> fill events.  Fill events depend
#: on nothing but the key, so one table serves every context.
_FILL_MEMO: Dict[Tuple, int] = {}

#: (stride_h, stride_w) -> {(dataspace, cumulative bounds) -> tile
#: elements}.  Only input tiles read the strides, so a table is shared by
#: every context whose layers have the same strides.
_TILE_MEMOS: Dict[Tuple[int, int], Dict[Tuple, int]] = {}

#: flow-vector index per dataspace (ALL_DATASPACES order: W, I, O).
_FLOW_INDEX: Dict[DataSpace, int] = {
    ds: index for index, ds in enumerate(ALL_DATASPACES)
}


class _StoragePlan:
    __slots__ = ("name", "ds_widths", "visits", "capacity_bits",
                 "max_accumulation_depth", "outermost_for")

    def __init__(self, node: StorageLevel, layer: ConvLayer,
                 outermost: Dict[DataSpace, str]) -> None:
        self.name = node.name
        # Canonical ALL_DATASPACES order, never the frozenset's: that
        # follows PYTHONHASHSEED, and so would the order of the energy
        # entries and of the float sums over them.
        ds_list = [ds for ds in ALL_DATASPACES if ds in node.dataspaces]
        self.ds_widths = [
            (ds, layer.bits_per_weight if ds is DataSpace.WEIGHTS
             else layer.bits_per_activation)
            for ds in ds_list
        ]
        self.capacity_bits = node.capacity_bits
        self.max_accumulation_depth = node.max_accumulation_depth
        self.outermost_for = frozenset(
            ds for ds in ds_list if outermost[ds] == node.name)
        #: (dataspace, flow index, is outputs, is outermost) per dataspace.
        self.visits = [
            (ds, _FLOW_INDEX[ds], ds is DataSpace.OUTPUTS,
             ds in self.outermost_for)
            for ds in ds_list
        ]


class _FanoutPlan:
    __slots__ = ("name", "multicast", "reduction", "reduction_limit")

    def __init__(self, node: SpatialFanout) -> None:
        self.name = node.name
        self.multicast = node.multicast
        self.reduction = node.reduction
        self.reduction_limit = node.reduction_limit


class _ConverterPlan:
    __slots__ = ("name", "visits")

    def __init__(self, node: ConverterStage) -> None:
        self.name = node.name
        self.visits = [(ds, _FLOW_INDEX[ds]) for ds in ALL_DATASPACES
                       if ds in node.dataspaces]


class SearchContext:
    """Shared per-(architecture, layer-geometry) state for mapping search.

    Built once per :meth:`Mapper.search` (or on demand for standalone
    analyses) and reused across every candidate evaluation.  Holds the
    flattened node plan, the fanout amortization memo (it reads the
    fanouts' multicast and reduction sets, so it is per context) and
    references to the process-wide fill-event and tile-size tables.
    Those two are keyed purely by loop/bound signatures and never read
    the architecture, so every context shares one fill-event table and
    one tile-size table per stride pair: a new configuration starts warm
    instead of growing tables of its own.
    """

    __slots__ = ("architecture", "stride_h", "stride_w", "bits_per_weight",
                 "bits_per_activation", "storage_order", "plan",
                 "converter_names", "traffic_plan", "_fill_memo",
                 "_tile_memo", "_amort_memo", "_capacity_checks")

    def __init__(self, architecture: Architecture, layer: ConvLayer) -> None:
        self.architecture = architecture
        self.stride_h, self.stride_w = layer.strides
        self.bits_per_weight = layer.bits_per_weight
        self.bits_per_activation = layer.bits_per_activation
        self.storage_order = [s.name for s in architecture.storage_levels]
        outermost = {
            dataspace: architecture.storage_for(dataspace)[0].name
            for dataspace in ALL_DATASPACES
        }
        #: Innermost-first tagged node plan (the walk order of analyze()).
        self.plan: List[Tuple[int, object]] = []
        for node in reversed(architecture.nodes):
            if isinstance(node, ComputeLevel):
                continue
            if isinstance(node, SpatialFanout):
                self.plan.append((_KIND_FANOUT, _FanoutPlan(node)))
            elif isinstance(node, ConverterStage):
                self.plan.append((_KIND_CONVERTER, _ConverterPlan(node)))
            else:
                self.plan.append(
                    (_KIND_STORAGE, _StoragePlan(node, layer, outermost)))
        self.converter_names = [stage.name
                                for stage in architecture.converters]
        #: (name, per-dataspace widths, bandwidth) per storage level in
        #: outer-to-inner order, for the inline traffic computation.
        self.traffic_plan = [
            (level.name,
             tuple(layer.bits_per_weight if ds is DataSpace.WEIGHTS
                   else layer.bits_per_activation for ds in ALL_DATASPACES),
             level.bandwidth_bits_per_cycle)
            for level in architecture.storage_levels
        ]
        #: (loops-above signature, dataspace) -> fill events (shared).
        self._fill_memo = _FILL_MEMO
        #: (dataspace, cumulative bounds) -> tile elements (shared by
        #: every context with these strides).
        self._tile_memo = _TILE_MEMOS.setdefault(layer.strides, {})
        #: (fanout name, factors signature) -> per-dataspace flow divisors.
        self._amort_memo: Dict[Tuple, Tuple[float, ...]] = {}
        #: Capacity-limited storage plans, for the early rejection check.
        self._capacity_checks = [record for kind, record in self.plan
                                 if kind == _KIND_STORAGE
                                 and record.capacity_bits is not None]

    # ------------------------------------------------------------------
    # Construction cache
    # ------------------------------------------------------------------
    #: (id(architecture), strides, widths) -> (architecture, context).
    #: The architecture reference keeps the id stable for the cache's
    #: lifetime; entries are few (one per architecture geometry in use).
    _instances: Dict[Tuple, Tuple[Architecture, "SearchContext"]] = {}

    @classmethod
    def for_layer(cls, architecture: Architecture,
                  layer: ConvLayer) -> "SearchContext":
        """A (cached) context compatible with ``layer`` on ``architecture``.

        Contexts are shareable across layers with the same strides and
        datatype widths, which is what the memo tables key on.
        """
        key = (id(architecture), layer.stride_h, layer.stride_w,
               layer.bits_per_weight, layer.bits_per_activation)
        entry = cls._instances.get(key)
        if entry is None:
            if len(cls._instances) >= 128:
                # FIFO-bound the cache (long-lived sweep processes touch
                # many architecture geometries); evicting also releases
                # the keep-alive reference to the architecture.
                cls._instances.pop(next(iter(cls._instances)))
            entry = (architecture, cls(architecture, layer))
            cls._instances[key] = entry
        return entry[1]

    def compatible_with(self, architecture: Architecture,
                        layer: ConvLayer) -> bool:
        return (self.architecture is architecture
                and (self.stride_h, self.stride_w) == layer.strides
                and self.bits_per_weight == layer.bits_per_weight
                and self.bits_per_activation == layer.bits_per_activation)

    # ------------------------------------------------------------------
    # Memoized geometry
    # ------------------------------------------------------------------
    def tile_elements(self, dataspace: DataSpace,
                      bounds: Tuple[int, ...]) -> int:
        """Distinct elements of ``dataspace`` in a tile of ``bounds``.

        ``bounds`` is the cumulative per-dimension extent in ``ALL_DIMS``
        order.  Identical arithmetic to :func:`repro.workloads.dataspace.
        dataspace_tile_size`, inlined and memoized.
        """
        key = (dataspace, bounds)
        memo = self._tile_memo
        tile = memo.get(key)
        if tile is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()  # soft cap: tables live process-long
            if dataspace is DataSpace.WEIGHTS:
                tile = bounds[_M] * bounds[_C] * bounds[_R] * bounds[_S]
            elif dataspace is DataSpace.OUTPUTS:
                tile = bounds[_N] * bounds[_M] * bounds[_P] * bounds[_Q]
            else:
                height = (bounds[_P] - 1) * self.stride_h + bounds[_R]
                width = (bounds[_Q] - 1) * self.stride_w + bounds[_S]
                tile = bounds[_N] * bounds[_C] * height * width
            memo[key] = tile
        return tile

    def fill_events(self, signature: Tuple[Tuple[Dim, int], ...],
                    dataspace: DataSpace) -> int:
        """How many times a level's tile of ``dataspace`` is
        (re)instantiated, memoized per loop signature.

        ``signature`` lists the (dim, bound) pairs of every bound>1 loop
        above the level, innermost first (bound-1 loops are transparent).
        The initial run of loops irrelevant to ``dataspace`` reuses the
        tile; every loop from the first relevant one outward multiplies
        the fill count by its bound (the module docstring's reuse rule).
        """
        key = (signature, dataspace)
        memo = self._fill_memo
        events = memo.get(key)
        if events is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()  # soft cap: tables live process-long
            relevant = relevant_dims(dataspace)
            events = 1
            seen_relevant = False
            for dim, bound in signature:
                if not seen_relevant and dim not in relevant:
                    continue
                seen_relevant = True
                events *= bound
            memo[key] = events
        return events

    def amortizations(self, record: _FanoutPlan,
                      factors: TMapping[Dim, int]) -> Tuple[float, ...]:
        """Per-dataspace flow divisors for one fanout under ``factors``.

        Memoized on the factor assignment: searches revisit the same few
        spatial assignments for every temporal variant.
        """
        key = (record.name, tuple(factors.items()))
        memo = self._amort_memo
        divisors = memo.get(key)
        if divisors is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()  # soft cap: contexts live process-long
            divisors = tuple(
                _boundary_amortization(record, factors, dataspace)
                for dataspace in ALL_DATASPACES
            )
            memo[key] = divisors
        return divisors

    # ------------------------------------------------------------------
    # Early rejection
    # ------------------------------------------------------------------
    def capacity_violation(self, mapping: Mapping) -> Optional[str]:
        """Name of the first over-capacity storage level, or None.

        Computes exactly the per-instance occupancy the full analysis
        would, but nothing else — a cheap pre-filter that lets the mapper
        skip analysis and pricing for candidates the analyzer is certain
        to reject with :class:`CapacityError`.
        """
        if not self._capacity_checks:
            return None
        loops_by_storage = mapping.loops_by_storage()
        factors_by_fanout = mapping.factors_by_fanout()
        bounds = [1] * len(ALL_DIMS)
        dim_index = _DIM_INDEX
        for kind, record in self.plan:
            if kind == _KIND_CONVERTER:
                continue
            if kind == _KIND_FANOUT:
                for dim, factor in factors_by_fanout[record.name].items():
                    bounds[dim_index[dim]] *= factor
                continue
            for dim, bound in loops_by_storage[record.name]:
                bounds[dim_index[dim]] *= bound
            if record.capacity_bits is None:
                continue
            bounds_key = tuple(bounds)
            occupancy = 0.0
            for dataspace, width in record.ds_widths:
                occupancy += self.tile_elements(dataspace, bounds_key) * width
            if occupancy > record.capacity_bits:
                return record.name
        return None


class NestAnalyzer:
    """Computes :class:`AccessCounts` for one (architecture, layer, mapping).

    The constructor validates the mapping (unless ``validate=False`` — the
    mapper's check-once protocol, for candidates it has already checked)
    and binds a :class:`SearchContext`; :meth:`analyze` runs the
    inner-to-outer traffic walk.  ``check_capacity`` controls whether
    occupancy violations raise :class:`CapacityError` (mappers search with
    this on; diagnostic callers may disable it).
    """

    def __init__(
        self,
        architecture: Architecture,
        layer: ConvLayer,
        mapping: Mapping,
        check_capacity: bool = True,
        context: Optional[SearchContext] = None,
        validate: bool = True,
    ) -> None:
        if validate:
            mapping.validate(architecture, layer)
        if context is None:
            context = SearchContext.for_layer(architecture, layer)
        elif not context.compatible_with(architecture, layer):
            raise MappingError(
                "SearchContext was built for a different architecture or "
                "layer geometry (strides / datatype widths)"
            )
        self.architecture = architecture
        self.layer = layer
        self.mapping = mapping
        self.check_capacity = check_capacity
        self._context = context

    # ------------------------------------------------------------------
    # Main walk
    # ------------------------------------------------------------------
    def analyze(self) -> AccessCounts:
        # Far too hot for a per-call span (tens of microseconds, up to
        # ~1e5 calls under a mapper search): enabled tracing folds the
        # walk into one aggregate tick counter instead.
        tracer = current_tracer()
        if not tracer.enabled:
            return self._analyze()
        start = time.perf_counter()
        try:
            return self._analyze()
        finally:
            tracer.tick("analyzer.analyze", time.perf_counter() - start)

    def _analyze(self) -> AccessCounts:
        context = self._context
        mapping = self.mapping
        padded_macs = mapping.padded_macs()
        cycles = mapping.total_temporal_product
        total_spatial = mapping.total_spatial_product
        if padded_macs != cycles * total_spatial:
            raise MappingError(
                "internal inconsistency: padded MACs != cycles x spatial"
            )  # pragma: no cover - structural invariant

        loops_by_storage = mapping.loops_by_storage()
        factors_by_fanout = mapping.factors_by_fanout()

        # Loops-above signatures (innermost first, transparent loops
        # dropped), built in one outer-to-inner sweep.
        signatures: Dict[str, Tuple[Tuple[Dim, int], ...]] = {}
        accumulated: Tuple[Tuple[Dim, int], ...] = ()
        for name in context.storage_order:
            signatures[name] = accumulated[::-1]
            accumulated = accumulated + tuple(
                loop for loop in loops_by_storage[name] if loop[1] > 1)

        storage_counts: Dict[str, StorageCounts] = {
            name: StorageCounts() for name in context.storage_order
        }
        conversions: Dict[str, Dict[DataSpace, float]] = {
            name: {} for name in context.converter_names
        }
        occupancy: Dict[str, float] = {}
        instances: Dict[str, int] = {}

        # Element-copies per layer currently crossing the walk position,
        # flowing downward for W/I (read demand) and upward for O (updates);
        # indexed in ALL_DATASPACES order.
        flow: List[float] = [float(padded_macs)] * len(ALL_DATASPACES)

        bounds = [1] * len(ALL_DIMS)
        dim_index = _DIM_INDEX
        spatial_inside = 1
        check_capacity = self.check_capacity
        fill_events = context.fill_events
        tile_elements = context.tile_elements

        for kind, record in context.plan:
            if kind == _KIND_FANOUT:
                factors = factors_by_fanout[record.name]
                if factors:
                    for dim, factor in factors.items():
                        bounds[dim_index[dim]] *= factor
                        spatial_inside *= factor
                    divisors = context.amortizations(record, factors)
                    for index, divisor in enumerate(divisors):
                        if divisor != 1.0:
                            flow[index] /= divisor
                continue
            if kind == _KIND_CONVERTER:
                bucket = conversions[record.name]
                for dataspace, index in record.visits:
                    bucket[dataspace] = bucket.get(dataspace, 0.0) \
                        + flow[index]
                continue

            # Storage level: its own loops are inside its tile.
            name = record.name
            for dim, bound in loops_by_storage[name]:
                bounds[dim_index[dim]] *= bound
            bounds_key = tuple(bounds)
            level_instances = total_spatial // spatial_inside
            instances[name] = level_instances

            level_occupancy = 0.0
            for dataspace, width in record.ds_widths:
                level_occupancy += tile_elements(dataspace, bounds_key) \
                    * width
            occupancy[name] = level_occupancy
            if (check_capacity and record.capacity_bits is not None
                    and level_occupancy > record.capacity_bits):
                raise CapacityError(
                    f"storage {name!r}: mapping needs "
                    f"{level_occupancy:.0f} bits per instance but "
                    f"capacity is {record.capacity_bits:.0f}"
                )

            counts = storage_counts[name]
            signature = signatures[name]
            for dataspace, index, is_outputs, is_outermost in record.visits:
                if is_outputs:
                    flow[index] = self._visit_output_storage(
                        record, counts, flow[index],
                        fill_events(signature, dataspace)
                        * tile_elements(dataspace, bounds_key)
                        * level_instances,
                        is_outermost,
                    )
                elif is_outermost:
                    # Backing store: tensors are resident; nothing fills it.
                    counts.reads[dataspace] = counts.reads.get(
                        dataspace, 0.0) + flow[index]
                    flow[index] = 0.0
                else:
                    fills = (fill_events(signature, dataspace)
                             * tile_elements(dataspace, bounds_key)
                             * level_instances)
                    counts.reads[dataspace] = counts.reads.get(
                        dataspace, 0.0) + flow[index]
                    counts.writes[dataspace] = counts.writes.get(
                        dataspace, 0.0) + fills
                    flow[index] = float(fills)

        real_macs = self._grouped_real_macs()
        traffic_bits, bandwidth_cycles = self._traffic(context,
                                                       storage_counts,
                                                       instances)
        return AccessCounts(
            storage=storage_counts,
            conversions=conversions,
            padded_macs=padded_macs,
            real_macs=real_macs,
            cycles=cycles,
            occupancy_bits=occupancy,
            instances=instances,
            padding_utilization=(real_macs / padded_macs if padded_macs else 0.0),
            bandwidth_cycles=bandwidth_cycles,
            traffic_bits=traffic_bits,
        )

    # ------------------------------------------------------------------
    # Per-storage visitors
    # ------------------------------------------------------------------
    def _visit_output_storage(
        self,
        record: _StoragePlan,
        counts: StorageCounts,
        updates_in: float,
        residencies: int,
        is_outermost: bool,
    ) -> float:
        """Outputs: absorb updates by RMW, write back once per residency."""
        writebacks = float(residencies)
        if record.max_accumulation_depth is not None:
            # An accumulation-depth-limited level (analog integrator) must
            # write back at least once per `depth` absorbed updates; the
            # extra writebacks are mid-accumulation spills merged upstream.
            writebacks = max(writebacks,
                             updates_in / record.max_accumulation_depth)
        if updates_in + 1e-9 < writebacks:
            raise MappingError(
                f"storage {record.name!r}: output residencies ({writebacks}) "
                f"exceed incoming updates ({updates_in}); mapping is "
                f"structurally inconsistent"
            )  # pragma: no cover - structural invariant
        counts.writes[DataSpace.OUTPUTS] = counts.writes.get(
            DataSpace.OUTPUTS, 0.0) + updates_in
        if is_outermost:
            # Final tensor: RMW reads only for partial-sum merges; the data
            # is not read out again.
            rmw_reads = updates_in - writebacks
            counts.reads[DataSpace.OUTPUTS] = counts.reads.get(
                DataSpace.OUTPUTS, 0.0) + rmw_reads
            return 0.0
        # RMW reads (updates beyond each residency's first write) plus one
        # outgoing read per written-back element.
        counts.reads[DataSpace.OUTPUTS] = counts.reads.get(
            DataSpace.OUTPUTS, 0.0) + updates_in
        return float(writebacks)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _traffic(
        context: SearchContext,
        storage_counts: Dict[str, StorageCounts],
        instances: Dict[str, int],
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Inline :func:`compute_traffic` over the context's traffic plan."""
        traffic_bits: Dict[str, float] = {}
        bandwidth_cycles: Dict[str, float] = {}
        for name, widths, bandwidth in context.traffic_plan:
            counts = storage_counts[name]
            reads, writes = counts.reads, counts.writes
            bits = 0.0
            for dataspace, width in zip(ALL_DATASPACES, widths):
                bits += (reads.get(dataspace, 0.0)
                         + writes.get(dataspace, 0.0)) * width
            traffic_bits[name] = bits
            if bandwidth is not None:
                bandwidth_cycles[name] = bits / (bandwidth * instances[name])
        return traffic_bits, bandwidth_cycles

    def _grouped_real_macs(self) -> int:
        """Real MACs of the per-group problem the mapping covers."""
        layer = self.layer
        return (layer.n * (layer.m // layer.groups)
                * (layer.c // layer.groups)
                * layer.p * layer.q * layer.r * layer.s)


def _boundary_amortization(record: _FanoutPlan,
                           factors: TMapping[Dim, int],
                           dataspace: DataSpace) -> float:
    """Traffic division factor for ``dataspace`` crossing a fanout."""
    if dataspace in record.multicast:
        product = 1
        relevant = relevant_dims(dataspace)
        for dim, factor in factors.items():
            if dim not in relevant:
                product *= factor
        return float(product)
    if dataspace in record.reduction:
        product = 1
        reduction = reduction_dims(dataspace)
        for dim, factor in factors.items():
            if dim in reduction:
                product *= factor
        if record.reduction_limit is not None:
            product = min(product, record.reduction_limit)
        return float(product)
    return 1.0


def compute_traffic(
    architecture: Architecture,
    layer: ConvLayer,
    storage_counts: Dict[str, StorageCounts],
    instances: Dict[str, int],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-level traffic (bits) and bandwidth-limited cycle counts.

    Factored out of the analyzer so callers that adjust counts after
    analysis (fusion's DRAM elision) can refresh the bandwidth picture.
    """
    traffic_bits: Dict[str, float] = {}
    bandwidth_cycles: Dict[str, float] = {}
    for level in architecture.storage_levels:
        counts = storage_counts[level.name]
        bits = 0.0
        for dataspace in ALL_DATASPACES:
            width = (layer.bits_per_weight
                     if dataspace is DataSpace.WEIGHTS
                     else layer.bits_per_activation)
            bits += (counts.reads.get(dataspace, 0.0)
                     + counts.writes.get(dataspace, 0.0)) * width
        traffic_bits[level.name] = bits
        if level.bandwidth_bits_per_cycle is not None:
            available = (level.bandwidth_bits_per_cycle
                         * instances[level.name])
            bandwidth_cycles[level.name] = bits / available
    return traffic_bits, bandwidth_cycles


def analyze(
    architecture: Architecture,
    layer: ConvLayer,
    mapping: Mapping,
    check_capacity: bool = True,
    context: Optional[SearchContext] = None,
) -> AccessCounts:
    """Convenience wrapper around :class:`NestAnalyzer`."""
    return NestAnalyzer(architecture, layer, mapping,
                        check_capacity=check_capacity,
                        context=context).analyze()


# ---------------------------------------------------------------------------
# Batched (candidate-axis) analysis
# ---------------------------------------------------------------------------


class BatchAccessCounts:
    """Access counts for a *block* of candidate mappings of one layer.

    Column-major twin of :class:`AccessCounts`: every storage read/write,
    conversion, and occupancy figure is a float64 array over the
    candidate axis, in exactly the entry order the scalar walk would
    have inserted — which is what lets the batched pricing in
    :meth:`repro.model.accelerator.AcceleratorModel` reproduce scalar
    energies bit for bit.  :meth:`counts_for` materializes one
    candidate's ordinary :class:`AccessCounts` (raising the same
    :class:`CapacityError` / :class:`MappingError` the scalar analyzer
    would have raised for it).
    """

    def __init__(self, mappings, layer, context, check_capacity):
        self.mappings = mappings
        self.layer = layer
        self.check_capacity = check_capacity
        self._context = context
        n = len(mappings)
        self.n = n
        #: First over-capacity level name per candidate (None = fits).
        self.capacity_level: List[Optional[str]] = [None] * n
        #: Structural-inconsistency mask (the conditions the scalar walk
        #: turns into MappingError).
        self.inconsistent = _np.zeros(n, dtype=bool)
        self.padded_macs: List[int] = []
        self.cycles: List[int] = []
        self.real_macs = 0
        #: level name -> ordered [(dataspace, float64 array)], in scalar
        #: dict-insertion order; dict iteration order is the walk order.
        self.reads_entries: Dict[str, list] = {}
        self.writes_entries: Dict[str, list] = {}
        self.conv_entries: Dict[str, list] = {
            name: [] for name in context.converter_names}
        #: (name, array / list) pairs in walk (innermost-first) order.
        self.occupancy: List[Tuple[str, Any]] = []
        self.instances: List[Tuple[str, List[int]]] = []

    def ok(self, index: int) -> bool:
        """True when the scalar path would have produced a result (no
        capacity violation, no structural inconsistency)."""
        return (self.capacity_level[index] is None
                and not bool(self.inconsistent[index]))

    def counts_for(self, index: int) -> AccessCounts:
        """Materialize candidate ``index`` as a scalar AccessCounts.

        Failure candidates delegate to the scalar analyzer so the
        exception (type, message) is exactly what a scalar caller saw.
        """
        if (not self.ok(index)
                and (self.check_capacity
                     or bool(self.inconsistent[index]))):
            return NestAnalyzer(
                self._context.architecture, self.layer,
                self.mappings[index], check_capacity=self.check_capacity,
                context=self._context, validate=False).analyze()
        storage = {name: StorageCounts()
                   for name in self._context.storage_order}
        for name, entries in self.reads_entries.items():
            reads = storage[name].reads
            for dataspace, values in entries:
                reads[dataspace] = float(values[index])
        for name, entries in self.writes_entries.items():
            writes = storage[name].writes
            for dataspace, values in entries:
                writes[dataspace] = float(values[index])
        conversions: Dict[str, Dict[DataSpace, float]] = {
            name: {} for name in self._context.converter_names}
        for name, entries in self.conv_entries.items():
            bucket = conversions[name]
            for dataspace, values in entries:
                bucket[dataspace] = float(values[index])
        occupancy = {name: float(values[index])
                     for name, values in self.occupancy}
        instances = {name: values[index]
                     for name, values in self.instances}
        traffic_bits, bandwidth_cycles = NestAnalyzer._traffic(
            self._context, storage, instances)
        padded = self.padded_macs[index]
        return AccessCounts(
            storage=storage,
            conversions=conversions,
            padded_macs=padded,
            real_macs=self.real_macs,
            cycles=self.cycles[index],
            occupancy_bits=occupancy,
            instances=instances,
            padding_utilization=(self.real_macs / padded if padded else 0.0),
            bandwidth_cycles=bandwidth_cycles,
            traffic_bits=traffic_bits,
        )


class BatchNestAnalyzer:
    """Vectorized :class:`NestAnalyzer` over a block of candidates.

    One inner-to-outer walk evaluates *every* mapping of the block: the
    per-candidate integer geometry (cumulative bounds, tile sizes, fill
    events — exact Python ints through the shared context's memos) is
    gathered once per plan record, and the floating-point pipeline (flow
    division at fanouts, occupancy, output read-modify-write, per-level
    fills) runs as numpy float64 array operations over the candidate
    axis.

    Bit-identity with the scalar walk rests on three facts: every
    integer is converted to float64 exactly once (matching the scalar
    ``float(int)``), ``x / 1.0 == x`` and ``0.0 + x == x`` hold bitwise
    for the non-negative finite values involved (so unconditional array
    ops match the scalar's skip-if-trivial branches), and arrays are
    combined in exactly the scalar accumulation order.  The golden
    master for all of this is ``tests/test_analysis_equivalence.py``.

    Candidates that the scalar analyzer would reject are *flagged*, not
    raised: ``capacity_level`` names the first over-capacity storage
    level (the scalar ``CapacityError``), ``inconsistent`` marks
    structural ``MappingError`` conditions.  Requires numpy
    (:data:`HAVE_NUMPY`); callers gate on it and fall back to scalar
    evaluation.
    """

    def __init__(
        self,
        architecture: Architecture,
        layer: ConvLayer,
        mappings: Sequence[Mapping],
        check_capacity: bool = True,
        context: Optional[SearchContext] = None,
        validate: bool = True,
    ) -> None:
        if _np is None:  # pragma: no cover - callers gate on HAVE_NUMPY
            raise MappingError("batched analysis requires numpy")
        if validate:
            for mapping in mappings:
                mapping.validate(architecture, layer)
        if context is None:
            context = SearchContext.for_layer(architecture, layer)
        elif not context.compatible_with(architecture, layer):
            raise MappingError(
                "SearchContext was built for a different architecture or "
                "layer geometry (strides / datatype widths)"
            )
        self.layer = layer
        self.mappings = list(mappings)
        self.check_capacity = check_capacity
        self._context = context

    def analyze(self) -> BatchAccessCounts:
        tracer = current_tracer()
        if not tracer.enabled:
            return self._analyze()
        start = time.perf_counter()
        try:
            return self._analyze()
        finally:
            tracer.tick("analyzer.batch", time.perf_counter() - start)

    def _analyze(self) -> BatchAccessCounts:
        np = _np
        context = self._context
        mappings = self.mappings
        n = len(mappings)
        batch = BatchAccessCounts(mappings, self.layer, context,
                                  self.check_capacity)
        layer = self.layer
        batch.real_macs = (layer.n * (layer.m // layer.groups)
                          * (layer.c // layer.groups)
                          * layer.p * layer.q * layer.r * layer.s)
        if n == 0:
            return batch

        padded = [m.padded_macs() for m in mappings]
        cycles = [m.total_temporal_product for m in mappings]
        spatial = [m.total_spatial_product for m in mappings]
        batch.padded_macs = padded
        batch.cycles = cycles
        for i in range(n):
            if padded[i] != cycles[i] * spatial[i]:  # pragma: no cover
                batch.inconsistent[i] = True

        loops = [m.loops_by_storage() for m in mappings]
        fanouts = [m.factors_by_fanout() for m in mappings]

        # Loops-above signatures per (candidate, level), innermost first
        # with transparent loops dropped — the scalar sweep, per row.
        signatures: List[Dict[str, tuple]] = []
        for i in range(n):
            accumulated: tuple = ()
            row: Dict[str, tuple] = {}
            for name in context.storage_order:
                row[name] = accumulated[::-1]
                accumulated = accumulated + tuple(
                    loop for loop in loops[i][name] if loop[1] > 1)
            signatures.append(row)

        # float64 copy of each candidate's padded MACs, converted once —
        # exactly the scalar ``flow = [float(padded_macs)] * 3``.
        padded_f = np.array([float(p) for p in padded], dtype=np.float64)
        flow = np.repeat(padded_f[:, None], len(ALL_DATASPACES), axis=1)

        bounds = [[1] * len(ALL_DIMS) for _ in range(n)]
        spatial_inside = [1] * n
        dim_index = _DIM_INDEX
        tile_elements = context.tile_elements
        fill_events = context.fill_events
        capacity_level = batch.capacity_level

        def fills_array(record_name, dataspace, tiles, insts):
            # fill * tile * instances as an exact Python int per
            # candidate, converted to float64 once — the scalar's single
            # ``float(fills)`` — so values beyond 2**53 round identically.
            return np.array(
                [float(fill_events(signatures[i][record_name], dataspace)
                       * tiles[i] * insts[i]) for i in range(n)],
                dtype=np.float64)

        for kind, record in context.plan:
            if kind == _KIND_FANOUT:
                divisors = None
                for i in range(n):
                    factors = fanouts[i][record.name]
                    if not factors:
                        continue
                    row_bounds = bounds[i]
                    inside = spatial_inside[i]
                    for dim, factor in factors.items():
                        row_bounds[dim_index[dim]] *= factor
                        inside *= factor
                    spatial_inside[i] = inside
                    row = context.amortizations(record, factors)
                    if divisors is None:
                        divisors = np.ones_like(flow)
                    divisors[i, :] = row
                if divisors is not None:
                    flow /= divisors  # x / 1.0 == x bitwise
                continue
            if kind == _KIND_CONVERTER:
                bucket = batch.conv_entries[record.name]
                for dataspace, index in record.visits:
                    bucket.append((dataspace, flow[:, index].copy()))
                continue

            # Storage level.
            name = record.name
            for i in range(n):
                row_bounds = bounds[i]
                for dim, bound in loops[i][name]:
                    row_bounds[dim_index[dim]] *= bound
            bounds_keys = [tuple(bounds[i]) for i in range(n)]
            insts = [spatial[i] // spatial_inside[i] for i in range(n)]
            batch.instances.append((name, insts))

            occupancy = np.zeros(n, dtype=np.float64)
            tiles_by_ds: Dict[DataSpace, List[int]] = {}
            for dataspace, width in record.ds_widths:
                tiles = [tile_elements(dataspace, bounds_keys[i])
                         for i in range(n)]
                tiles_by_ds[dataspace] = tiles
                occupancy = occupancy + np.array(
                    [float(tile * width) for tile in tiles],
                    dtype=np.float64)
            batch.occupancy.append((name, occupancy))
            if record.capacity_bits is not None:
                violated = occupancy > record.capacity_bits
                if violated.any():
                    for i in np.nonzero(violated)[0]:
                        i = int(i)
                        if capacity_level[i] is None:
                            capacity_level[i] = name

            level_reads = batch.reads_entries.setdefault(name, [])
            level_writes = batch.writes_entries.setdefault(name, [])
            for dataspace, index, is_outputs, is_outermost in record.visits:
                if is_outputs:
                    updates = flow[:, index].copy()
                    writebacks = fills_array(name, dataspace,
                                             tiles_by_ds[dataspace], insts)
                    depth = record.max_accumulation_depth
                    if depth is not None:
                        writebacks = np.maximum(writebacks, updates / depth)
                    batch.inconsistent |= (updates + 1e-9) < writebacks
                    level_writes.append((dataspace, updates))
                    if is_outermost:
                        level_reads.append((dataspace, updates - writebacks))
                        flow[:, index] = 0.0
                    else:
                        level_reads.append((dataspace, updates.copy()))
                        flow[:, index] = writebacks
                elif is_outermost:
                    level_reads.append((dataspace, flow[:, index].copy()))
                    flow[:, index] = 0.0
                else:
                    fills = fills_array(name, dataspace,
                                        tiles_by_ds[dataspace], insts)
                    level_reads.append((dataspace, flow[:, index].copy()))
                    level_writes.append((dataspace, fills))
                    flow[:, index] = fills
        return batch
