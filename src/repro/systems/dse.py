"""Design-space exploration drivers for the paper's Figs. 4 and 5.

.. deprecated::
    The ``sweep_*`` functions are thin, deprecated shells over the
    declarative Study facade (:mod:`repro.api`) — new code should build
    a :class:`repro.api.Study` (or use the prebuilt lattices in
    :mod:`repro.api.studies`) and slice the returned
    :class:`~repro.api.ResultSet` directly.  The shims keep their exact
    historical signatures and return the same structured point lists,
    byte-identical to the pre-facade implementations, so existing
    callers keep working while emitting a :class:`DeprecationWarning`.

This module also remains the home of the figure-point dataclasses
(:class:`MemoryExplorationPoint`, :class:`ReuseExplorationPoint`) and
their ResultSet assemblers, which the Fig. 4/5 experiments use without
deprecation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.api.results import ResultSet
from repro.api.studies import config_study, memory_study, reuse_study
from repro.engine.executor import CacheLike
from repro.engine.sweeps import next_power_of_two_kib, pareto_frontier
from repro.energy.scaling import ScalingScenario
from repro.model.results import NetworkEvaluation
from repro.systems.albireo import AlbireoConfig
from repro.workloads.network import Network

__all__ = [
    "MemoryExplorationPoint",
    "ReuseExplorationPoint",
    "memory_points",
    "pareto_frontier",
    "reuse_points",
    "sweep_configurations",
    "sweep_memory_options",
    "sweep_reuse_factors",
]


def _deprecated(name: str) -> None:
    warnings.warn(
        f"repro.systems.dse.{name} is deprecated; build a repro.api.Study "
        f"(see repro.api.studies) and use ResultSet instead",
        DeprecationWarning, stacklevel=3)


@dataclass(frozen=True)
class ReuseExplorationPoint:
    """One (OR, IR, variant) point of the Fig. 5 reuse exploration."""

    output_reuse: int
    input_reuse: int
    weight_lanes: int
    variant: str
    evaluation: NetworkEvaluation

    @property
    def energy_per_mac_pj(self) -> float:
        return self.evaluation.energy_per_mac_pj


def reuse_points(results: ResultSet) -> List[ReuseExplorationPoint]:
    """Figure-point view of a :func:`repro.api.studies.reuse_study` run."""
    return [
        ReuseExplorationPoint(
            output_reuse=record.tags["output_reuse"],
            input_reuse=record.tags["input_reuse"],
            weight_lanes=record.tags["weight_lanes"],
            variant=record.tags["variant"],
            evaluation=record.evaluation,
        )
        for record in results
    ]


def sweep_reuse_factors(
    network: Network,
    base_config: AlbireoConfig,
    output_reuse_values: Sequence[int] = (3, 9, 15),
    input_reuse_values: Sequence[int] = (9, 27, 45),
    weight_lane_variants: Sequence[Tuple[str, int]] = (
        ("Original", 1), ("More Weight Reuse", 3),
    ),
    include_dram: bool = False,
    use_mapper: bool = False,
    workers: int = 1,
    cache: CacheLike = None,
) -> List[ReuseExplorationPoint]:
    """Evaluate ``network`` across the paper's Fig. 5 reuse grid.

    .. deprecated:: use :func:`repro.api.studies.reuse_study`.
    """
    _deprecated("sweep_reuse_factors")
    study = reuse_study(
        network, base_config,
        output_reuse_values=output_reuse_values,
        input_reuse_values=input_reuse_values,
        weight_lane_variants=weight_lane_variants,
        include_dram=include_dram,
        use_mapper=use_mapper,
    )
    return reuse_points(study.run(workers=workers, cache=cache))


@dataclass(frozen=True)
class MemoryExplorationPoint:
    """One (scaling, batching, fusion) point of the Fig. 4 exploration."""

    scenario: ScalingScenario
    batch: int
    fused: bool
    evaluation: NetworkEvaluation

    @property
    def label(self) -> str:
        batching = "Batched" if self.batch > 1 else "Non-Batched"
        fusion = "Fused" if self.fused else "Not Fused"
        return f"{self.scenario.name}/{fusion}/{batching}"

    @property
    def energy_per_mac_pj(self) -> float:
        return self.evaluation.energy_per_mac_pj


def memory_points(results: ResultSet) -> List[MemoryExplorationPoint]:
    """Figure-point view of a :func:`repro.api.studies.memory_study`
    run (the scenario object is read back off each record's config)."""
    return [
        MemoryExplorationPoint(
            scenario=record.config.scenario,
            batch=record.tags["batch"],
            fused=record.tags["fused"],
            evaluation=record.evaluation,
        )
        for record in results
    ]


def sweep_memory_options(
    network: Network,
    base_config: AlbireoConfig,
    scenarios: Sequence[ScalingScenario],
    batch_sizes: Sequence[int] = (1, 8),
    fusion_options: Sequence[bool] = (False, True),
    fused_buffer_kib: Optional[int] = None,
    use_mapper: bool = False,
    workers: int = 1,
    cache: CacheLike = None,
) -> List[MemoryExplorationPoint]:
    """Evaluate ``network`` across the paper's Fig. 4 memory-system grid.

    .. deprecated:: use :func:`repro.api.studies.memory_study`.
    """
    _deprecated("sweep_memory_options")
    study = memory_study(
        network, base_config, scenarios,
        batch_sizes=batch_sizes,
        fusion_options=fusion_options,
        fused_buffer_kib=fused_buffer_kib,
        use_mapper=use_mapper,
    )
    return memory_points(study.run(workers=workers, cache=cache))


def sweep_configurations(
    network: Network,
    configs: Sequence[Any],
    use_mapper: bool = False,
    workers: int = 1,
    cache: CacheLike = None,
) -> List[Tuple[Any, NetworkEvaluation]]:
    """Evaluate ``network`` on every configuration (generic DSE driver).

    .. deprecated:: use :func:`repro.api.studies.config_study`.
    """
    _deprecated("sweep_configurations")
    study = config_study(network, configs, use_mapper=use_mapper)
    results = study.run(workers=workers, cache=cache)
    return [(record.config, record.evaluation) for record in results]


def _next_power_of_two_kib(bits: float) -> int:
    """Backward-compatible alias for
    :func:`repro.engine.sweeps.next_power_of_two_kib`."""
    return next_power_of_two_kib(bits)
