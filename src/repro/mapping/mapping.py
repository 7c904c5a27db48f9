"""Mapping representation: how a layer's loops are scheduled onto hardware.

A :class:`Mapping` assigns:

* to every **storage level** of the architecture, an ordered list of
  temporal loops (:class:`LevelMapping`) — the level's tiling factors and
  their permutation, listed *outermost first*;
* to every **fanout boundary**, a dict of spatial factors
  (:class:`FanoutMapping`) — how many hardware instances each problem
  dimension spreads across.

The product of all factors of a dimension (temporal and spatial) is the
mapping's *padded* size for that dimension and must be at least the layer's
size; any excess is idle padding that shows up as utilization < 1.

Validation is strict and early: a mapping that refers to unknown levels,
violates a fanout's allowed dimensions or size, or under-covers the layer
raises :class:`~repro.exceptions.MappingError` with a precise message, so
mapper bugs surface at construction rather than as silently wrong energy.
The rules (:func:`spatial_failure`, :func:`temporal_failure`) read only
accessors a mapper's candidate rows share with :class:`Mapping`, so the
mapper checks a candidate without building it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping as TMapping, Optional,
                    Tuple)

from repro.arch.hierarchy import Architecture
from repro.exceptions import MappingError
from repro.workloads.dims import ALL_DIMS, Dim
from repro.workloads.layer import ConvLayer


@dataclass(frozen=True)
class TemporalLoop:
    """One temporal loop: iterate ``dim`` ``bound`` times."""

    dim: Dim
    bound: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, Dim):
            object.__setattr__(self, "dim", Dim(self.dim))
        if self.bound < 1:
            raise MappingError(
                f"temporal loop over {self.dim} must have bound >= 1, got "
                f"{self.bound}"
            )

    def __repr__(self) -> str:
        return f"for {self.dim.value} in 0..{self.bound}"


@dataclass(frozen=True)
class LevelMapping:
    """Temporal loops attached to one storage level, outermost first."""

    storage: str
    loops: Tuple[TemporalLoop, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "loops", tuple(self.loops))

    @property
    def factor_product(self) -> int:
        product = 1
        for loop in self.loops:
            product *= loop.bound
        return product

    def factors(self) -> Dict[Dim, int]:
        """Combined factor per dimension at this level."""
        result: Dict[Dim, int] = {}
        for loop in self.loops:
            result[loop.dim] = result.get(loop.dim, 1) * loop.bound
        return result


@dataclass(frozen=True)
class FanoutMapping:
    """Spatial factors mapped onto one fanout boundary."""

    fanout: str
    factors: TMapping[Dim, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized = {}
        for dim, factor in self.factors.items():
            factor = int(factor)
            if factor < 1:
                raise MappingError(
                    f"fanout {self.fanout!r}: spatial factor for {dim} must "
                    f"be >= 1, got {factor}"
                )
            if factor > 1:
                normalized[Dim(dim)] = factor
        object.__setattr__(self, "factors", normalized)

    @property
    def factor_product(self) -> int:
        product = 1
        for factor in self.factors.values():
            product *= factor
        return product


@dataclass(frozen=True)
class Mapping:
    """A complete schedule of one layer onto one architecture."""

    levels: Tuple[LevelMapping, ...]
    spatials: Tuple[FanoutMapping, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "spatials", tuple(self.spatials))

    def __getstate__(self):
        # The validation memo holds an Architecture reference; shipping it
        # (or the derived index dicts) with every pickled mapping would
        # bloat worker payloads.
        state = dict(self.__dict__)
        for cache_attr in ("_validated_cache", "_loops_index_cache",
                           "_factors_index_cache"):
            state.pop(cache_attr, None)
        return state

    @property
    def storage_names(self) -> Tuple[str, ...]:
        return tuple(level.storage for level in self.levels)

    @property
    def fanout_names(self) -> Tuple[str, ...]:
        return tuple(spatial.fanout for spatial in self.spatials)

    def loops_by_storage(self) -> Dict[str, Tuple[Tuple[Dim, int], ...]]:
        """Storage name -> (dim, bound) loops, outermost first; cached
        (mappings are immutable).

        The analysis walk and the mapper's capacity pre-filter both index
        levels by name for every candidate; treat the result as read-only.
        """
        cached = getattr(self, "_loops_index_cache", None)
        if cached is None:
            cached = {level.storage: tuple((loop.dim, loop.bound)
                                           for loop in level.loops)
                      for level in self.levels}
            object.__setattr__(self, "_loops_index_cache", cached)
        return cached

    def factors_by_fanout(self) -> Dict[str, TMapping[Dim, int]]:
        """Fanout name -> spatial factors, cached; treat as read-only."""
        cached = getattr(self, "_factors_index_cache", None)
        if cached is None:
            cached = {spatial.fanout: spatial.factors
                      for spatial in self.spatials}
            object.__setattr__(self, "_factors_index_cache", cached)
        return cached

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def level_for(self, storage: str) -> LevelMapping:
        for level in self.levels:
            if level.storage == storage:
                return level
        raise MappingError(f"mapping has no level entry for {storage!r}")

    def spatial_for(self, fanout: str) -> FanoutMapping:
        for spatial in self.spatials:
            if spatial.fanout == fanout:
                return spatial
        raise MappingError(f"mapping has no spatial entry for {fanout!r}")

    def padded_totals(self) -> Tuple[int, ...]:
        """Per-dimension padded totals in ``ALL_DIMS`` order, cached.

        Mappings are immutable, and the search hot path asks for these
        aggregates several times per candidate (analysis, validation,
        tie-breaking), so they are computed once per instance.
        """
        cached = getattr(self, "_padded_cache", None)
        if cached is None:
            totals = {dim: 1 for dim in ALL_DIMS}
            for level in self.levels:
                for loop in level.loops:
                    totals[loop.dim] *= loop.bound
            for spatial in self.spatials:
                for dim, factor in spatial.factors.items():
                    totals[dim] *= factor
            cached = tuple(totals[dim] for dim in ALL_DIMS)
            object.__setattr__(self, "_padded_cache", cached)
        return cached

    def padded_dims(self) -> Dict[Dim, int]:
        """Per-dimension product of every temporal and spatial factor."""
        return dict(zip(ALL_DIMS, self.padded_totals()))

    @property
    def total_temporal_product(self) -> int:
        """Total cycles implied by the temporal loops (one step per cycle)."""
        cached = getattr(self, "_temporal_cache", None)
        if cached is None:
            cached = 1
            for level in self.levels:
                cached *= level.factor_product
            object.__setattr__(self, "_temporal_cache", cached)
        return cached

    @property
    def total_spatial_product(self) -> int:
        cached = getattr(self, "_spatial_cache", None)
        if cached is None:
            cached = 1
            for spatial in self.spatials:
                cached *= spatial.factor_product
            object.__setattr__(self, "_spatial_cache", cached)
        return cached

    def padded_macs(self) -> int:
        product = 1
        for total in self.padded_totals():
            product *= total
        return product

    def canonical_key(self) -> Tuple:
        """Hashable identity of the *schedule* this mapping expresses.

        Two mappings with the same key produce identical analysis results:
        the key records, per level, the ordered non-unit loops (bound-1
        loops are transparent to the analyzer) and, per fanout, the sorted
        spatial factors (factor order within a fanout has no semantic
        meaning).  The mapper uses this to deduplicate candidates.
        """
        return (
            tuple(
                (level.storage,
                 tuple((loop.dim, loop.bound) for loop in level.loops
                       if loop.bound > 1))
                for level in self.levels
            ),
            tuple(
                (spatial.fanout,
                 tuple(sorted((dim.value, factor)
                              for dim, factor in spatial.factors.items())))
                for spatial in self.spatials
            ),
        )

    def structure_key(self) -> Tuple:
        """Hashable identity of the mapping's exact *structure*.

        Unlike :meth:`canonical_key` nothing is normalized away: bound-1
        loops, loop order, and fanout-factor insertion order all
        distinguish — two mappings share a structure key iff they are
        field-for-field identical (the discrimination ``repr`` gives,
        built without rendering strings).  No reference-mapping candidate
        list holds two mappings with one structure key: the builders
        enumerate by decision, so they never build a duplicate.
        """
        return (
            tuple(
                (level.storage,
                 tuple((loop.dim, loop.bound) for loop in level.loops))
                for level in self.levels
            ),
            tuple(
                (spatial.fanout, tuple(spatial.factors.items()))
                for spatial in self.spatials
            ),
        )

    def utilization_vs(self, layer: ConvLayer) -> float:
        """Fraction of scheduled iterations that are real work (<= 1)."""
        padded = self.padded_macs()
        real = problem_macs(layer)
        return real / padded if padded else 0.0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, architecture: Architecture, layer: ConvLayer) -> None:
        """Raise :class:`MappingError` unless this mapping is well-formed.

        Checks structural agreement with the architecture (one level entry
        per storage level, one spatial entry per fanout, in order), fanout
        size and allowed-dimension limits, storage temporal-dimension
        restrictions, and full coverage of the layer's (per-group) loop
        bounds.

        The outcome is memoized per (architecture, problem size): mappings
        are immutable, so re-validating the same mapping against the same
        target — which search loops and repeated analyses do constantly —
        is a no-op after the first success.
        """
        required = tuple(problem_dims(layer).values())
        memo_key = (architecture, required)
        cached = getattr(self, "_validated_cache", None)
        if cached is not None \
                and cached[0] is memo_key[0] and cached[1] == memo_key[1]:
            return
        failure = (spatial_failure(self, architecture)
                   or temporal_failure(self, architecture, required))
        if failure is not None:
            raise MappingError(failure())
        object.__setattr__(self, "_validated_cache", memo_key)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Timeloop-style loop-nest rendering, outermost level first."""
        lines: List[str] = []
        indent = 0
        spatial_by_name = {s.fanout: s for s in self.spatials}
        for level in self.levels:
            lines.append("  " * indent + f"[{level.storage}]")
            for loop in level.loops:
                lines.append("  " * (indent + 1)
                             + f"for {loop.dim.value} in [0:{loop.bound})")
            indent += 1
        for name, spatial in spatial_by_name.items():
            if spatial.factors:
                rendered = ", ".join(
                    f"{dim.value}:{factor}"
                    for dim, factor in sorted(spatial.factors.items())
                )
                lines.append("  " * indent + f"spatial[{name}] {rendered}")
        return "\n".join(lines)


#: A broken rule: call it for the :class:`MappingError` message, which is
#: formatted only when someone reads it.
Failure = Optional[Callable[[], str]]


def spatial_failure(row, architecture: Architecture) -> Failure:
    """The first broken rule that reads no temporal loop: one level entry
    per storage level and one spatial entry per fanout, in architecture
    order; each fanout's factors on allowed dimensions and within its
    size.  A mapper runs it once per spatial group."""
    storage_names = [s.name for s in architecture.storage_levels]
    mapped_names = list(row.storage_names)
    if mapped_names != storage_names:
        return lambda: (f"mapping levels {mapped_names} do not match "
                        f"architecture storage levels {storage_names}")
    fanout_names = [f.name for f in architecture.fanouts]
    mapped_fanouts = list(row.fanout_names)
    if mapped_fanouts != fanout_names:
        return lambda: (f"mapping spatials {mapped_fanouts} do not match "
                        f"architecture fanouts {fanout_names}")
    factors_by_fanout = row.factors_by_fanout()
    for fanout in architecture.fanouts:
        factors = factors_by_fanout[fanout.name]
        illegal = [dim for dim in factors if dim not in fanout.allowed_dims]
        if illegal:
            return lambda: (
                f"fanout {fanout.name!r}: dimensions "
                f"{sorted(d.value for d in illegal)} may not map here "
                f"(allowed: {sorted(d.value for d in fanout.allowed_dims)})")
        product = math.prod(factors.values())
        if product > fanout.size:
            return lambda: (f"fanout {fanout.name!r}: mapped {product} "
                            f"instances but hardware provides {fanout.size}")
    return None


def temporal_failure(row, architecture: Architecture,
                     required: Tuple[int, ...]) -> Failure:
    """The first broken per-candidate rule, once :func:`spatial_failure`
    passed: storage levels' temporal-dimension restrictions, then coverage
    of ``required`` (the per-group loop bounds in ``ALL_DIMS`` order)."""
    loops_by_storage = row.loops_by_storage()
    for storage in architecture.storage_levels:
        allowed = storage.allowed_temporal_dims
        if allowed is None:
            continue
        for dim, bound in loops_by_storage[storage.name]:
            if bound > 1 and dim not in allowed:
                return lambda: (
                    f"storage {storage.name!r}: temporal iteration over "
                    f"{dim.value} not allowed (allowed: "
                    f"{sorted(d.value for d in allowed)})")
    for dim, size, padded in zip(ALL_DIMS, required, row.padded_totals()):
        if padded < size:
            return lambda: (f"mapping covers only {padded} of dimension "
                            f"{dim.value} (layer needs {size})")
    return None


def problem_dims(layer: ConvLayer) -> Dict[Dim, int]:
    """Loop bounds a mapping must cover: the per-group problem.

    Grouped convolutions are mapped per group (the standard approach for
    architectures without native group support); the evaluation layer scales
    results by the group count.
    """
    return {
        Dim.N: layer.n,
        Dim.M: layer.m // layer.groups,
        Dim.C: layer.c // layer.groups,
        Dim.P: layer.p,
        Dim.Q: layer.q,
        Dim.R: layer.r,
        Dim.S: layer.s,
    }


def problem_macs(layer: ConvLayer) -> int:
    """MACs of the per-group problem a mapping covers."""
    product = 1
    for size in problem_dims(layer).values():
        product *= size
    return product
