"""Shared toolkit for building deterministic reference mappings.

Every modeled system ships a hand-derived "reference mapping" mirroring
its natural dataflow (the mappings a designer would publish), built from
the same handful of moves: greedily *take* factors of the remaining
problem dimensions into spatial fanouts and accumulation budgets, size a
buffer tile by *occupancy* and shrink it until it fits, push the residue
to DRAM, and emit temporal *loops* in a protection-ordered permutation.
This module is the single home of those moves — previously copy-pasted
between :mod:`~repro.systems.albireo` and :mod:`~repro.systems.crossbar`
— so a new system's reference mapping is a short declarative script over
the toolkit rather than a 100-line re-derivation.

A system pricing several variants builds each distinct one once: it
finishes a mode only when the mode changes a factor it takes, and
assembles one mapping per :func:`distinct_dram_protections` entry.

The helpers are exact ports of the originals: systems built on them
produce byte-identical mappings (and therefore byte-identical figure
outputs) to the pre-toolkit code.
"""

from __future__ import annotations

from typing import Dict, List, Mapping as TMapping, Sequence, Tuple

from repro.mapping.factorization import ceil_div, largest_divisor_at_most
from repro.mapping.mapper import _largest_fitting_factor
from repro.mapping.mapping import TemporalLoop, problem_dims
from repro.workloads.dataspace import DataSpace, dataspace_tile_size
from repro.workloads.dims import Dim
from repro.workloads.layer import ConvLayer

_W = DataSpace.WEIGHTS
_I = DataSpace.INPUTS
_O = DataSpace.OUTPUTS

#: Default shrink preference when a buffer tile exceeds capacity: halve
#: the largest non-kernel dimension (kernel dims are small and usually
#: pinned to spatial hardware).
DEFAULT_SHRINK_ORDER: Tuple[Dim, ...] = (Dim.N, Dim.M, Dim.C, Dim.P, Dim.Q)


class FactorTaker:
    """Greedy factor allocation over a layer's remaining problem dims.

    Starts from :func:`~repro.mapping.mapping.problem_dims` and hands out
    factors to spatial fanouts / accumulation budgets, ceil-dividing the
    remainder so the residual nest always covers the problem.

    ``mode="fill"`` pads for parallelism (largest factor whose padded
    product fits the cap); ``mode="divisor"`` takes the largest exact
    divisor (no idle iterations).
    """

    def __init__(self, layer: ConvLayer) -> None:
        self.dims = problem_dims(layer)
        self.remaining: Dict[Dim, int] = dict(self.dims)

    def take(self, dim: Dim, cap: int, mode: str = "fill") -> int:
        """Allocate a factor of ``dim`` up to ``cap``; shrink the residue."""
        cap = min(self.remaining[dim], cap)
        if mode == "divisor":
            factor = largest_divisor_at_most(self.remaining[dim], cap)
        else:
            factor = _largest_fitting_factor(self.remaining[dim], cap)
        self.remaining[dim] = ceil_div(self.remaining[dim], factor)
        return factor

    def take_budgeted(
        self,
        order: Sequence[Dim],
        budget: int,
        mode: str = "fill",
    ) -> Dict[Dim, int]:
        """Fill a shared budget (a fanout size, an accumulation depth)
        across several dimensions in preference order.

        Each taken factor divides the remaining budget; factors of 1 are
        omitted from the result (loop-transparent).
        """
        factors: Dict[Dim, int] = {}
        for dim in order:
            if budget <= 1:
                break
            factor = self.take(dim, budget, mode=mode)
            if factor > 1:
                factors[dim] = factor
                budget //= factor
        return factors

    def residual_after(
            self, inner_factors: TMapping[Dim, int]) -> Dict[Dim, int]:
        """Residue left for an outer level once ``inner_factors`` (taken
        from the current remainder) are placed at an inner one."""
        return {dim: ceil_div(self.remaining[dim],
                              inner_factors.get(dim, 1))
                for dim in self.dims}


def combined_bounds(dims: TMapping[Dim, int],
                    *factor_maps: TMapping[Dim, int]) -> Dict[Dim, int]:
    """Per-dimension tile bounds: the product of several factor maps."""
    bounds: Dict[Dim, int] = {}
    for dim in dims:
        product = 1
        for factors in factor_maps:
            product *= factors.get(dim, 1)
        bounds[dim] = product
    return bounds


def tile_occupancy_bits(layer: ConvLayer,
                        bounds: TMapping[Dim, int]) -> float:
    """Bits a buffer holding one tile of every dataspace must provide."""
    bits = 0.0
    for dataspace in (_W, _I, _O):
        width = (layer.bits_per_weight if dataspace is _W
                 else layer.bits_per_activation)
        bits += dataspace_tile_size(dataspace, bounds,
                                    layer.strides) * width
    return bits


def shrink_to_fit(
    layer: ConvLayer,
    dims: TMapping[Dim, int],
    gb_factors: Dict[Dim, int],
    capacity_bits: float,
    *inner_factor_maps: TMapping[Dim, int],
    shrink_order: Tuple[Dim, ...] = DEFAULT_SHRINK_ORDER,
    max_rounds: int = 256,
) -> Dict[Dim, int]:
    """Halve the largest buffer-tile factor until the tile fits.

    ``inner_factor_maps`` are the spatial/accumulation factors below the
    buffer, which multiply into the tile's bounds.  Mutates and returns
    ``gb_factors``.
    """
    for _ in range(max_rounds):
        bounds = combined_bounds(dims, gb_factors, *inner_factor_maps)
        if tile_occupancy_bits(layer, bounds) <= capacity_bits:
            break
        largest = max(shrink_order, key=lambda d: gb_factors.get(d, 1))
        if gb_factors.get(largest, 1) <= 1:
            break
        gb_factors[largest] = ceil_div(gb_factors[largest], 2)
    return gb_factors


def temporal_loops(factors: TMapping[Dim, int],
                   order: Tuple[Dim, ...]) -> Tuple[TemporalLoop, ...]:
    """Loops for ``factors`` in ``order``, dropping transparent bound-1s."""
    return tuple(TemporalLoop(dim, factors[dim])
                 for dim in order if factors.get(dim, 1) > 1)


def dram_order_protecting(layer: ConvLayer,
                          protects: str = "auto") -> Tuple[Dim, ...]:
    """The DRAM loop permutation keeping one tensor resident.

    ``"weights"`` / ``"inputs"`` keep the named tensor's irrelevant dims
    innermost so its tiles below are fetched once; ``"outputs"`` keeps
    reduction dims innermost so output tiles finish accumulating before
    eviction (no partial-sum spills).  ``"auto"`` protects the larger of
    weights and inputs — the heuristic every reference mapping started
    from.
    """
    if protects == "auto":
        protects = ("weights" if layer.weight_bits >= layer.input_bits
                    else "inputs")
    if protects == "weights":
        return (Dim.C, Dim.M, Dim.R, Dim.S, Dim.Q, Dim.P, Dim.N)
    if protects == "outputs":
        return (Dim.N, Dim.P, Dim.Q, Dim.M, Dim.C, Dim.R, Dim.S)
    return (Dim.R, Dim.S, Dim.C, Dim.Q, Dim.P, Dim.N, Dim.M)


def distinct_dram_protections(layer: ConvLayer,
                              dram_factors: TMapping[Dim, int]) -> List[str]:
    """The DRAM protections whose loop nests differ, in ``"weights"``,
    ``"inputs"``, ``"outputs"`` order.  Orders that differ only in bound-1
    dims emit the same loops, so assembling one mapping per returned
    protection builds each distinct DRAM variant exactly once."""
    nests: Dict[Tuple[Dim, ...], str] = {}
    for protects in ("weights", "inputs", "outputs"):
        order = dram_order_protecting(layer, protects)
        nests.setdefault(tuple(dim for dim in order
                               if dram_factors.get(dim, 1) > 1), protects)
    return list(nests.values())


#: The buffer-level permutation every system uses: reduction dims
#: innermost so outputs finish accumulating before eviction.
GB_ORDER: Tuple[Dim, ...] = (Dim.N, Dim.M, Dim.P, Dim.Q, Dim.C, Dim.R, Dim.S)
