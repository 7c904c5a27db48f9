"""Mapping search: find low-cost schedules for a layer on an architecture.

The mapper enumerates candidate mappings — spatial factor assignments per
fanout, temporal tilings per storage level, and loop-permutation templates —
evaluates each through a caller-supplied cost function (typically total
energy or energy-delay product priced by the model layer), and returns the
best valid mapping.

The search is deliberately structured like practical Timeloop usage:

* **Spatial candidates** are built inner-fanout-first with greedy "fill the
  hardware" preference plus alternates, since inner photonic fanouts are
  rigidly wired (window sites, wavelengths) while outer ones (clusters) are
  flexible.
* **Temporal candidates** split each dimension's leftover between the
  innermost constrained levels (analog accumulators take reduction loops up
  to their budget), a middle buffer tile, and the backing store.
* **Permutation templates** order each level's loops to protect one chosen
  dataspace from refetch (weights / inputs / outputs), the orderings that
  matter in practice.

Candidates beyond ``max_evaluations`` are sampled with a seeded RNG so runs
are reproducible, across processes too: every enumeration order comes from
``ALL_DIMS`` / ``ALL_DATASPACES`` or a sort, never from set iteration
(frozensets of str enums iterate in ``PYTHONHASHSEED`` order).  Invalid
candidates (capacity violations, constraint breaches) are skipped and
counted.

Hot-path structure
------------------

Candidates are *rows*, not :class:`Mapping` objects: the generators
produce (spatial group, per-level factor dicts, permutation template)
specs, and each composed candidate becomes a :class:`CandidateRow` holding
its per-level ``(dim, bound)`` loops (the tuples its dedup key is made
of), its group's spatial factors and its padded, temporal and spatial
products.  Rows are deduplicated by canonical mapping key and sampled,
then checked against every rule of :meth:`Mapping.validate` and
:meth:`MappingConstraints.check` — the rules that read only the spatial
group run once per group — early-rejected by the capacity bound, and
priced in one batched analyzer pass.  The capacity check, the analyzer and
the pricing read a row through the accessors they use on a ``Mapping``,
and only the winner is materialized: building tens of thousands of
``TemporalLoop`` dataclasses for candidates the search throws away used
to dominate search time.  Evaluation shares one
:class:`~repro.mapping.analysis.SearchContext` across every candidate
(memoized geometry); the ``deduplicated`` / ``pruned_early`` counters on
:class:`MapperResult` surface dedup and early rejection.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.arch.hierarchy import Architecture, SpatialFanout, StorageLevel
from repro.exceptions import CapacityError, MappingError
from repro.mapping.analysis import _DIM_INDEX, SearchContext
from repro.mapping.constraints import MappingConstraints
from repro.mapping.factorization import ceil_div, tile_candidates
from repro.mapping.mapping import (
    Failure,
    FanoutMapping,
    LevelMapping,
    Mapping,
    TemporalLoop,
    problem_dims,
    spatial_failure,
    temporal_failure,
)
from repro.workloads.dataspace import ALL_DATASPACES, relevant_dims
from repro.workloads.dims import ALL_DIMS, Dim
from repro.workloads.layer import ConvLayer

#: Cost function: maps a structurally valid mapping to a scalar cost.
#: May raise MappingError/CapacityError to reject a candidate.  Cost
#: functions that set a truthy ``supports_context`` attribute are called
#: as ``cost_fn(mapping, context=...)`` with the search's shared
#: :class:`SearchContext`; they promise to price with capacity checking
#: on, which also lets the mapper early-reject over-capacity candidates.
CostFn = Callable[[Mapping], float]


@dataclass
class MapperResult:
    """Outcome of a mapping search."""

    mapping: Mapping
    cost: float
    evaluated: int
    valid: int
    #: Generated candidates dropped because an identical schedule (same
    #: canonical mapping key) was already in the pool.
    deduplicated: int = 0
    #: Candidates skipped before pricing by the cheap occupancy bound.
    pruned_early: int = 0

    @property
    def validity_rate(self) -> float:
        return self.valid / self.evaluated if self.evaluated else 0.0


#: Loop-permutation templates: for each, the listed dims go OUTERMOST at the
#: level (in order), protecting the named dataspace's tiles below from
#: refetch by keeping its irrelevant dims innermost.
_PERMUTATION_TEMPLATES: Dict[str, Tuple[Dim, ...]] = {
    # Weight-irrelevant dims (N, P, Q) innermost: weights below fetched once.
    "protect_weights": (Dim.C, Dim.M, Dim.R, Dim.S, Dim.Q, Dim.P, Dim.N),
    # Input-irrelevant dim (M) innermost: inputs below fetched once.
    "protect_inputs": (Dim.R, Dim.S, Dim.C, Dim.Q, Dim.P, Dim.N, Dim.M),
    # Reduction dims innermost: outputs fully accumulate before eviction.
    "protect_outputs": (Dim.N, Dim.M, Dim.P, Dim.Q, Dim.C, Dim.R, Dim.S),
}

#: Template tuple in enumeration order (indexable by candidate index).
_TEMPLATE_LIST: Tuple[Tuple[Dim, ...], ...] = tuple(
    _PERMUTATION_TEMPLATES.values())


class Mapper:
    """Searches the mapping space of one architecture."""

    def __init__(
        self,
        architecture: Architecture,
        cost_fn: CostFn,
        constraints: Optional[MappingConstraints] = None,
        spatial_combo_limit: int = 64,
        temporal_combo_limit: int = 48,
    ) -> None:
        self.architecture = architecture
        self.cost_fn = cost_fn
        self.constraints = constraints or MappingConstraints()
        self.spatial_combo_limit = spatial_combo_limit
        self.temporal_combo_limit = temporal_combo_limit

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def search(
        self,
        layer: ConvLayer,
        max_evaluations: int = 2000,
        seed: int = 0,
        extra_candidates: Sequence[Mapping] = (),
    ) -> MapperResult:
        """Return the lowest-cost valid mapping found for ``layer``.

        ``extra_candidates`` seeds the search with known-good mappings
        (e.g. a system's reference mapping); they are always evaluated.
        Generated candidates that duplicate an extra candidate's schedule
        (or each other's) are dropped, so no schedule is ever priced twice.
        """
        with obs.span("mapper.search", layer=layer.name) as search_span:
            rng = random.Random(seed)
            seeded = list(extra_candidates)
            seen = {mapping.canonical_key() for mapping in seeded}
            budget = max(0, max_evaluations - len(seeded))
            rows, deduplicated = self._generate_specs(layer, rng, seen,
                                                      budget)
            evaluated = len(seeded) + len(rows)

            context = SearchContext.for_layer(self.architecture, layer)
            # Only cost functions that opt in receive the shared context;
            # they promise to price with capacity checking on, which
            # licenses the cheap occupancy pre-filter below.
            supports_context = bool(getattr(self.cost_fn,
                                            "supports_context", False))
            survivors: List = []
            pruned_early = 0
            for mapping in seeded:
                try:
                    mapping.validate(self.architecture, layer)
                    self.constraints.check(mapping)
                except MappingError:
                    continue
                survivors.append(mapping)
            required = tuple(problem_dims(layer).values())
            survivors.extend(row for row in rows
                             if self._row_failure(row, required) is None)
            if supports_context:
                kept = [candidate for candidate in survivors
                        if context.capacity_violation(candidate) is None]
                pruned_early = len(survivors) - len(kept)
                survivors = kept

            # The block path prices every survivor in one batched analyzer
            # pass; candidates scalar pricing would reject come back as
            # None.  Other cost functions price a materialized Mapping.
            batch_fn = (getattr(self.cost_fn, "batch", None)
                        if supports_context else None)
            if batch_fn is not None:
                costs = batch_fn(survivors, context)
            else:
                survivors = [_materialize(row) for row in survivors]
                costs = [self._scalar_cost(mapping, context, supports_context)
                         for mapping in survivors]
            best = None
            best_cost = float("inf")
            best_key = (float("inf"), float("inf"))
            valid = 0
            for candidate, cost in zip(survivors, costs):
                if cost is None:
                    continue
                valid += 1
                # Tie-break equal-cost mappings by latency (fewer temporal
                # steps = more spatial parallelism).
                key = (cost, candidate.total_temporal_product)
                if key < best_key:
                    best_key = key
                    best_cost = cost
                    best = candidate
            search_span.set("evaluated", evaluated)
            search_span.set("valid", valid)
            search_span.set("deduplicated", deduplicated)
            search_span.set("pruned_early", pruned_early)
            if best is None:
                raise MappingError(
                    f"mapper found no valid mapping for layer "
                    f"{layer.name!r} after {evaluated} candidates; check "
                    f"constraints and buffer capacities"
                )
        return MapperResult(mapping=_materialize(best), cost=best_cost,
                            evaluated=evaluated, valid=valid,
                            deduplicated=deduplicated,
                            pruned_early=pruned_early)

    def _row_failure(self, row: "CandidateRow",
                     required: Tuple[int, ...]) -> Failure:
        """The first rule of :meth:`Mapping.validate` or
        :meth:`MappingConstraints.check` that ``row`` breaks, or None.

        The spatial-only rules ran once for the row's group."""
        return (row.group.failure
                or temporal_failure(row, self.architecture, required)
                or self.constraints.temporal_failure(row))

    def _scalar_cost(self, mapping: Mapping, context: SearchContext,
                     supports_context: bool) -> Optional[float]:
        """``cost_fn`` on one checked candidate; None if it rejects it."""
        try:
            if supports_context:
                return self.cost_fn(mapping, context=context)
            return self.cost_fn(mapping)
        except (MappingError, CapacityError):
            return None

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _generate_specs(
        self,
        layer: ConvLayer,
        rng: random.Random,
        seen: set,
        budget: int,
    ) -> Tuple[List["CandidateRow"], int]:
        """Up to ``budget`` deduplicated candidate rows (+ duplicate count).

        Enumerates only the candidate *structure* — spatial assignments,
        holder-loop combos, buffer tilings — then composes per-level factor
        dicts and canonical keys lazily:

        * pool comfortably within budget: every candidate is composed,
          deduplicated by canonical key, and (if still over budget)
          sampled;
        * pool much larger than budget: candidate indices are drawn
          uniformly with the seeded RNG and duplicate schedules are
          rejected and redrawn, so composition work scales with the
          evaluation budget instead of the pool size.

        Either way the returned rows contain no duplicate schedules and
        none that match a key already in ``seen`` (which is extended in
        place).
        """
        if budget <= 0:
            return [], 0
        dims = problem_dims(layer)
        groups: List[_SpatialGroup] = []
        group_starts: List[int] = []
        total = 0
        for spatials, remaining in self._spatial_candidates(dims, rng):
            structure = self._temporal_structure(layer, remaining, rng)
            if structure.count == 0:
                continue
            group = _SpatialGroup(spatials, structure)
            group.failure = (spatial_failure(group, self.architecture)
                             or self.constraints.spatial_failure(group))
            groups.append(group)
            group_starts.append(total)
            total += structure.count

        rows: List[CandidateRow] = []
        duplicates = 0
        if total <= 2 * budget:
            # Small pool: compose everything, dedup, sample the overflow.
            for group in groups:
                for index in range(group.structure.count):
                    row, key = _compose(group, index)
                    if key in seen:
                        duplicates += 1
                        continue
                    seen.add(key)
                    rows.append(row)
            if len(rows) > budget:
                rows = rng.sample(rows, budget)
            return rows, duplicates

        # Large pool: draw indices, compose only the winners.  Duplicate
        # schedules are rejected and redrawn (budget <= total/2, so the
        # rejection loop terminates quickly).
        drawn = set()
        while len(rows) < budget and len(drawn) < total:
            index = rng.randrange(total)
            if index in drawn:
                continue
            drawn.add(index)
            group_index = bisect.bisect_right(group_starts, index) - 1
            row, key = _compose(groups[group_index],
                                index - group_starts[group_index])
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            rows.append(row)
        return rows, duplicates

    def _spatial_candidates(
        self, dims: Dict[Dim, int], rng: random.Random
    ) -> List[Tuple[List[FanoutMapping], Dict[Dim, int]]]:
        """Candidate spatial assignments, inner fanouts chosen first."""
        fanouts = self.architecture.fanouts
        # Work inner-to-outer; remember arch order for the final mapping.
        combos: List[Tuple[Dict[str, Dict[Dim, int]], Dict[Dim, int]]] = [
            ({}, dict(dims))
        ]
        for fanout in reversed(fanouts):
            grown: List[Tuple[Dict[str, Dict[Dim, int]], Dict[Dim, int]]] = []
            for assignment, remaining in combos:
                for factors in self._fanout_options(fanout, remaining):
                    new_remaining = dict(remaining)
                    for dim, factor in factors.items():
                        new_remaining[dim] = ceil_div(new_remaining[dim],
                                                      factor)
                    new_assignment = dict(assignment)
                    new_assignment[fanout.name] = factors
                    grown.append((new_assignment, new_remaining))
            if len(grown) > self.spatial_combo_limit:
                grown = rng.sample(grown, self.spatial_combo_limit)
            combos = grown
        results = []
        for assignment, remaining in combos:
            spatials = [
                FanoutMapping(fanout=f.name,
                              factors=assignment.get(f.name, {}))
                for f in fanouts
            ]
            results.append((spatials, remaining))
        return results

    def _fanout_options(
        self, fanout: SpatialFanout, remaining: Dict[Dim, int]
    ) -> List[Dict[Dim, int]]:
        """A few factor assignments for one fanout: greedy fill + alternates."""
        constraint = self.constraints.fanout(fanout.name)
        size_cap = fanout.size
        if constraint.max_instances is not None:
            size_cap = min(size_cap, constraint.max_instances)
        usable_dims = [
            dim for dim in ALL_DIMS
            if dim in fanout.allowed_dims
            and dim not in constraint.forbidden_dims
            and remaining.get(dim, 1) > 1
        ]
        if not usable_dims or size_cap == 1:
            return [{}]

        def cap_for(dim: Dim) -> int:
            cap = constraint.max_factor.get(dim, size_cap)
            return min(cap, size_cap)

        options: List[Dict[Dim, int]] = [{}]
        # Greedy fills in a few dimension priority orders.
        orders = [usable_dims, usable_dims[::-1]]
        for order in orders:
            factors: Dict[Dim, int] = {}
            budget = size_cap
            for dim in order:
                if budget <= 1:
                    break
                factor = min(remaining[dim], cap_for(dim), budget)
                factor = _largest_fitting_factor(remaining[dim], factor)
                if factor > 1:
                    factors[dim] = factor
                    budget //= factor
            if factors and factors not in options:
                options.append(factors)
        # Single-dimension fills.
        for dim in usable_dims:
            factor = _largest_fitting_factor(
                remaining[dim], min(remaining[dim], cap_for(dim)))
            candidate = {dim: factor} if factor > 1 else {}
            if candidate not in options:
                options.append(candidate)
        return options

    def _temporal_structure(
        self, layer: ConvLayer, leftover: Dict[Dim, int], rng: random.Random
    ) -> "_TemporalStructure":
        """Enumerate the temporal-candidate structure for one leftover state.

        Produces holder-loop combos and buffer tilings but defers composing
        per-level factor dicts to :meth:`_TemporalStructure.compose`, so a
        budget-limited search only pays for the candidates it draws.
        """
        storages = self.architecture.storage_levels
        if len(storages) == 1:
            return _TemporalStructure.single(storages[0].name, dict(leftover))

        # Constrained inner levels (e.g. analog integrators) first.
        inner_assignments, leftover = self._assign_constrained_inner(
            storages, leftover)

        outer = storages[0]          # backing store (DRAM)
        middle = storages[1:]        # buffers between DRAM and the inner
        middle = [s for s in middle if s.name not in inner_assignments]

        # Stationary holders: middle buffers storing a strict subset of the
        # dataspaces (an analog weight bank, an output accumulator SRAM)
        # get loops over their dataspaces' relevant dims up to capacity —
        # the weight/output-stationary schedules real designs use.
        general = [s for s in middle if len(s.dataspaces) == 3]
        holders = [s for s in middle if len(s.dataspaces) < 3]
        target_buffers = general if general else middle[:1]
        holder_option_sets = [
            (holder, self._stationary_options(holder, layer, leftover))
            for holder in holders
        ]

        holder_combos: List[Dict[str, Dict[Dim, int]]] = [{}]
        for holder, options in holder_option_sets:
            grown = []
            for combo in holder_combos:
                for option in options:
                    extended = dict(combo)
                    extended[holder.name] = option
                    grown.append(extended)
            holder_combos = grown

        entries = []
        for holder_assignment in holder_combos:
            remaining = dict(leftover)
            for factors in holder_assignment.values():
                for dim, factor in factors.items():
                    remaining[dim] = ceil_div(remaining[dim], factor)
            tilings = self._buffer_tilings(target_buffers, remaining, rng)
            entries.append((holder_assignment, remaining, tilings))
        return _TemporalStructure(
            storage_names=[storage.name for storage in storages],
            outer_name=outer.name,
            target_name=(target_buffers[-1].name if target_buffers
                         else None),
            inner_assignments=inner_assignments,
            entries=entries,
        )

    def _stationary_options(
        self,
        storage: StorageLevel,
        layer: ConvLayer,
        leftover: Dict[Dim, int],
    ) -> List[Dict[Dim, int]]:
        """Loop options for a single-dataspace holder buffer.

        Offers "pass-through" (no loops) and "fill to capacity" over the
        dims relevant to the stored dataspaces, so the search can discover
        stationary dataflows without enumerating every tile size.
        """
        # Canonical orders, never set iteration: frozensets of str enums
        # iterate in string-hash order, which changes between processes.
        usable: List[Dim] = []
        for dataspace in ALL_DATASPACES:
            if dataspace not in storage.dataspaces:
                continue
            relevant = relevant_dims(dataspace)
            for dim in ALL_DIMS:
                if (dim in relevant and dim not in usable
                        and leftover.get(dim, 1) > 1):
                    usable.append(dim)
        options: List[Dict[Dim, int]] = [{}]
        if not usable:
            return options
        element_bits = max(layer.bits_per_weight, layer.bits_per_activation)
        budget = (int(storage.capacity_bits // element_bits)
                  if storage.capacity_bits is not None else 10 ** 9)
        if budget <= 1:
            return options
        fill: Dict[Dim, int] = {}
        for dim in usable:
            if budget <= 1:
                break
            factor = _largest_fitting_factor(
                leftover[dim], min(leftover[dim], budget))
            if factor > 1:
                fill[dim] = factor
                budget //= factor
        if fill:
            options.append(fill)
            if len(fill) > 1:
                # A half-filled variant leaves room for other dataspaces'
                # working sets at shared levels below.
                first_dim = next(iter(fill))
                half = dict(fill)
                half[first_dim] = max(1, fill[first_dim] // 2)
                options.append({d: f for d, f in half.items() if f > 1})
        return options

    def _assign_constrained_inner(
        self, storages: Sequence[StorageLevel], leftover: Dict[Dim, int]
    ) -> Tuple[Dict[str, Dict[Dim, int]], Dict[Dim, int]]:
        """Give dim-restricted inner levels their loops up to budget."""
        assignments: Dict[str, Dict[Dim, int]] = {}
        leftover = dict(leftover)
        for storage in reversed(storages[1:]):
            if storage.allowed_temporal_dims is None:
                continue
            constraint = self.constraints.storage(storage.name)
            budget = constraint.max_temporal_product
            if budget is None:
                budget = 10 ** 9
            factors: Dict[Dim, int] = {}
            # Stable sort from ALL_DIMS order, so ties never fall back on
            # the frozenset's (hash-seeded) iteration order.
            allowed = [dim for dim in ALL_DIMS
                       if dim in storage.allowed_temporal_dims]
            for dim in sorted(allowed, key=lambda d: -leftover.get(d, 1)):
                if budget <= 1:
                    break
                factor = _largest_fitting_factor(
                    leftover.get(dim, 1), min(leftover.get(dim, 1), budget))
                if factor > 1:
                    factors[dim] = factor
                    leftover[dim] = ceil_div(leftover[dim], factor)
                    budget //= factor
            assignments[storage.name] = factors
        return assignments, leftover

    def _buffer_tilings(
        self,
        buffers: Sequence[StorageLevel],
        leftover: Dict[Dim, int],
        rng: random.Random,
    ) -> List[Dict[Dim, int]]:
        """Candidate tile factors for the innermost general-purpose buffer.

        Buffers between DRAM and the target pass through untiled, so only
        the target's factor dict is returned per candidate.  Per-dimension
        candidates are the full leftover (maximum reuse), 1 (stream
        through), and a couple of intermediate divisor-ish tiles;
        combinations are capped and sampled.
        """
        if not buffers:
            return [{}]
        per_dim_options: Dict[Dim, List[int]] = {}
        for dim in ALL_DIMS:
            size = leftover.get(dim, 1)
            if size <= 1:
                per_dim_options[dim] = [1]
                continue
            options = {1, size}
            ladder = [c for c in tile_candidates(size) if 1 < c < size]
            if ladder:
                options.add(ladder[len(ladder) // 2])
                options.add(ladder[-1])
            per_dim_options[dim] = sorted(options)
        dims_order = list(ALL_DIMS)
        all_choices = [per_dim_options[dim] for dim in dims_order]
        total = 1
        for choices in all_choices:
            total *= len(choices)
        product_iter: Iterable[Tuple[int, ...]] = itertools.product(
            *all_choices)
        if total > self.temporal_combo_limit:
            chosen = set()
            # Always include the two extreme tilings.
            chosen.add(tuple(options[-1] for options in all_choices))
            chosen.add(tuple(options[0] for options in all_choices))
            while len(chosen) < self.temporal_combo_limit:
                chosen.add(tuple(rng.choice(options)
                                 for options in all_choices))
            product_iter = sorted(chosen)
        return [
            {dim: factor
             for dim, factor in zip(dims_order, combo) if factor > 1}
            for combo in product_iter
        ]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

class _TemporalStructure:
    """Temporal candidates for one leftover-dims state, composed on demand.

    ``entries`` holds (holder assignment, remaining dims after holders,
    buffer tilings) triples; flat candidate index order is holder combo,
    then tiling, then permutation template — matching the historical
    enumeration order.
    """

    __slots__ = ("storage_names", "outer_name", "target_name",
                 "inner_assignments", "entries", "entry_starts", "count",
                 "single_leftover")

    def __init__(self, storage_names, outer_name, target_name,
                 inner_assignments, entries):
        self.storage_names = storage_names
        self.outer_name = outer_name
        self.target_name = target_name
        self.inner_assignments = inner_assignments
        self.entries = entries
        self.single_leftover = None
        self.entry_starts = []
        count = 0
        templates = len(_TEMPLATE_LIST)
        for _, _, tilings in entries:
            self.entry_starts.append(count)
            count += len(tilings) * templates
        self.count = count

    @classmethod
    def single(cls, storage_name: str,
               leftover: Dict[Dim, int]) -> "_TemporalStructure":
        """The degenerate single-storage-level architecture."""
        structure = cls([storage_name], storage_name, None, {}, [])
        structure.single_leftover = leftover
        structure.count = 1
        return structure

    def compose(
        self, index: int
    ) -> Tuple[Tuple[Tuple[str, Dict[Dim, int]], ...], Tuple[Dim, ...]]:
        """(per-level (storage, factors), template) for one flat index."""
        if self.single_leftover is not None:
            return (((self.storage_names[0], self.single_leftover),),
                    _PERMUTATION_TEMPLATES["protect_outputs"])
        entry_index = bisect.bisect_right(self.entry_starts, index) - 1
        holder_assignment, remaining, tilings = self.entries[entry_index]
        offset = index - self.entry_starts[entry_index]
        tiling_index, template_index = divmod(offset, len(_TEMPLATE_LIST))
        target_factors = tilings[tiling_index]
        dram_factors = {
            dim: -(-remaining[dim] // target_factors.get(dim, 1))
            for dim in ALL_DIMS
        }
        inner_assignments = self.inner_assignments
        level_factors = []
        for name in self.storage_names:
            if name == self.outer_name:
                factors = dram_factors
            elif name in inner_assignments:
                factors = inner_assignments[name]
            elif name in holder_assignment:
                factors = holder_assignment[name]
            elif name == self.target_name:
                factors = target_factors
            else:
                factors = {}
            level_factors.append((name, factors))
        return tuple(level_factors), _TEMPLATE_LIST[template_index]


class _SpatialGroup:
    """One spatial assignment and its temporal candidates; answers the
    accessors the spatial-only rules read, so they run once per group."""

    __slots__ = ("spatials", "structure", "factors", "key", "padded",
                 "product", "storage_names", "fanout_names", "failure")

    def __init__(self, spatials: List[FanoutMapping],
                 structure: "_TemporalStructure") -> None:
        self.spatials = tuple(spatials)
        self.structure = structure
        self.factors = {spatial.fanout: spatial.factors
                        for spatial in spatials}
        #: The spatial half of a candidate's canonical key.
        self.key = tuple(
            (spatial.fanout,
             tuple(sorted((dim.value, factor)
                          for dim, factor in spatial.factors.items())))
            for spatial in spatials
        )
        padded = [1] * len(ALL_DIMS)
        for spatial in spatials:
            for dim, factor in spatial.factors.items():
                padded[_DIM_INDEX[dim]] *= factor
        self.padded = padded
        self.product = math.prod(padded)
        self.storage_names = structure.storage_names
        self.fanout_names = tuple(spatial.fanout for spatial in spatials)
        self.failure: Failure = None

    def factors_by_fanout(self) -> Dict[str, Dict[Dim, int]]:
        return self.factors


class CandidateRow:
    """A generated candidate, checked and priced without a :class:`Mapping`.

    Holds the per-level ``(dim, bound)`` loops in template order (the
    levels half of its canonical key), its spatial group, and the padded,
    temporal and spatial products, behind the accessors the per-row rules,
    the capacity pre-filter and the batched analyzer use on a ``Mapping``.
    """

    __slots__ = ("levels", "level_factors", "template", "group", "_loops",
                 "_padded", "total_temporal_product", "total_spatial_product")

    def __init__(self, levels, level_factors, template,
                 group: _SpatialGroup) -> None:
        self.levels = levels
        self.level_factors = level_factors
        self.template = template
        self.group = group
        self._loops = dict(levels)
        padded = group.padded[:]
        temporal = 1
        for _, loops in levels:
            for dim, bound in loops:
                padded[_DIM_INDEX[dim]] *= bound
                temporal *= bound
        self._padded = tuple(padded)
        self.total_temporal_product = temporal
        self.total_spatial_product = group.product

    def loops_by_storage(self) -> Dict[str, Tuple[Tuple[Dim, int], ...]]:
        return self._loops

    def factors_by_fanout(self) -> Dict[str, Dict[Dim, int]]:
        return self.group.factors

    def padded_totals(self) -> Tuple[int, ...]:
        return self._padded

    def padded_macs(self) -> int:
        return self.total_temporal_product * self.total_spatial_product


def _compose(group: _SpatialGroup,
             index: int) -> Tuple[CandidateRow, Tuple]:
    """Candidate ``index`` of one spatial group, and its canonical key."""
    level_factors, template = group.structure.compose(index)
    levels = tuple(
        (name, tuple((dim, factors[dim]) for dim in template
                     if factors.get(dim, 1) > 1))
        for name, factors in level_factors
    )
    return (CandidateRow(levels, level_factors, template, group),
            (levels, group.key))


def _materialize(candidate) -> Mapping:
    """The :class:`Mapping` a candidate row stands for (a seeded Mapping is
    returned as is)."""
    if isinstance(candidate, Mapping):
        return candidate
    return Mapping(
        levels=tuple(
            LevelMapping(storage=name,
                         loops=_ordered_loops(factors, candidate.template))
            for name, factors in candidate.level_factors
        ),
        spatials=candidate.group.spatials,
    )


@lru_cache(maxsize=65536)
def _largest_fitting_factor(size: int, cap: int) -> int:
    """Best spatial/tiling factor <= cap for a dimension of ``size``.

    Chooses the factor that minimizes the remaining iteration count
    ``ceil(size / f)`` (i.e. maximizes throughput), breaking ties by the
    smallest padded total ``f * ceil(size / f)`` (i.e. least idle work).
    A full-cap split therefore wins unless a smaller factor covers the
    dimension in the same number of steps with less padding.

    Instead of scanning every factor in ``1..cap`` (O(cap)), only the
    smallest factor of each distinct-step block is examined: for a fixed
    step count ``s = ceil(size / f)``, the padded total ``s * f`` grows
    with ``f``, so the block's smallest factor dominates the rest.  There
    are O(sqrt(size)) such blocks, walked with the standard ceil-division
    block step.  Cached: the mapper asks for the same few (size, cap)
    pairs thousands of times per search.
    """
    if cap <= 1:
        return 1
    if size <= cap:
        return size
    best_factor = 1
    best_key = (size, size)  # (steps, padded total) for f = 1
    factor = 1
    while factor <= cap:
        steps = -(-size // factor)
        key = (steps, steps * factor)
        if key < best_key:
            best_key = key
            best_factor = factor
        if steps <= 1:
            break
        # Largest factor with the same ceil(size / f), then step past it.
        factor = (size - 1) // (steps - 1) + 1
    return best_factor


def _ordered_loops(factors: Dict[Dim, int],
                   outer_order: Tuple[Dim, ...]) -> Tuple[TemporalLoop, ...]:
    """Loops for ``factors`` ordered by a permutation template."""
    loops = []
    for dim in outer_order:
        bound = factors.get(dim, 1)
        if bound > 1:
            loops.append(TemporalLoop(dim=dim, bound=bound))
    return tuple(loops)
