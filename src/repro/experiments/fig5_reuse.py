"""Fig. 5 — architecture exploration: spatial reuse vs converter energy.

Sweeps the aggressively-scaled Albireo over output-reuse OR in {3, 9, 15},
input-reuse IR in {9, 27, 45}, and the Original / More-Weight-Reuse multiply
block variants, evaluating ResNet18 accelerator energy (DRAM excluded, as
in the figure).  The paper's finding: added reuse cuts data-converter
energy by 42% and accelerator energy by 31%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.results import ResultSet
from repro.api.studies import reuse_study
from repro.energy.scaling import AGGRESSIVE, ScalingScenario
from repro.experiments.reported import (
    FIG5_CLAIMS,
    FIG5_INPUT_REUSE,
    FIG5_OUTPUT_REUSE,
    FIG5_VARIANTS,
)
from repro.model.results import NetworkEvaluation
from repro.report.ascii import format_table, stacked_bar_chart
from repro.systems.albireo import AlbireoConfig, SYSTEM_BUCKETS
from repro.workloads.models import resnet18
from repro.workloads.network import Network

#: Buckets counted as "data converter energy" for the paper's claim.
CONVERTER_BUCKETS = (
    "Weight DE/AE, AE/AO",
    "Input DE/AE, AE/AO",
    "Output AO/AE, AE/DE",
)


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


@dataclass(frozen=True)
class Fig5Result:
    points: Tuple[ReuseExplorationPoint, ...]

    # ------------------------------------------------------------------
    # Metric extraction
    # ------------------------------------------------------------------
    def point(self, variant: str, output_reuse: int,
              input_reuse: int) -> ReuseExplorationPoint:
        for point in self.points:
            if (point.variant == variant
                    and point.output_reuse == output_reuse
                    and point.input_reuse == input_reuse):
                return point
        raise KeyError((variant, output_reuse, input_reuse))

    def buckets_per_mac(self,
                        point: ReuseExplorationPoint) -> Dict[str, float]:
        evaluation = point.evaluation
        return evaluation.total_energy.per_mac(
            evaluation.total_macs).grouped(SYSTEM_BUCKETS)

    def converter_energy(self, point: ReuseExplorationPoint) -> float:
        buckets = self.buckets_per_mac(point)
        return sum(buckets.get(name, 0.0) for name in CONVERTER_BUCKETS)

    @property
    def baseline(self) -> ReuseExplorationPoint:
        variants = [p.variant for p in self.points]
        first_variant = variants[0]
        return self.point(first_variant, min(p.output_reuse
                                             for p in self.points),
                          min(p.input_reuse for p in self.points))

    @property
    def best(self) -> ReuseExplorationPoint:
        return min(self.points, key=lambda p: p.energy_per_mac_pj)

    @property
    def converter_reduction(self) -> float:
        return 1.0 - (self.converter_energy(self.best)
                      / self.converter_energy(self.baseline))

    @property
    def accelerator_reduction(self) -> float:
        return 1.0 - (self.best.energy_per_mac_pj
                      / self.baseline.energy_per_mac_pj)

    @property
    def meets_paper_claims(self) -> bool:
        """Reuse must deliver reductions of the paper's order (42%/31%)."""
        return (self.converter_reduction
                >= 0.7 * FIG5_CLAIMS["converter_reduction"]
                and self.accelerator_reduction
                >= 0.7 * FIG5_CLAIMS["accelerator_reduction"])

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def table(self) -> str:
        rows: List[Tuple] = []
        chart_rows = []
        for point in self.points:
            buckets = self.buckets_per_mac(point)
            rows.append((
                point.variant,
                point.output_reuse,
                point.input_reuse,
                round(point.energy_per_mac_pj, 4),
                round(self.converter_energy(point), 4),
            ))
            chart_rows.append((
                f"{'Orig' if point.weight_lanes == 1 else 'MWR '}"
                f" OR={point.output_reuse:<2d} IR={point.input_reuse:<2d}",
                buckets,
            ))
        table = format_table(
            ("variant", "OR", "IR", "pJ/MAC", "converter pJ/MAC"),
            rows, align_right=[False, True, True, True, True])
        chart = stacked_bar_chart(chart_rows, width=40)
        return (
            "Fig. 5 — ResNet18 accelerator energy vs reuse "
            "(aggressive scaling, DRAM excluded)\n" + table + "\n\n"
            + chart + "\n\n"
            + f"best point: {self.best.variant} OR={self.best.output_reuse} "
              f"IR={self.best.input_reuse}\n"
            + f"converter energy reduction: {self.converter_reduction:.0%} "
              f"(paper: 42%)\n"
            + f"accelerator energy reduction: "
              f"{self.accelerator_reduction:.0%} (paper: 31%)"
        )


def run(
    network: Optional[Network] = None,
    scenario: ScalingScenario = AGGRESSIVE,
    output_reuse_values: Sequence[int] = FIG5_OUTPUT_REUSE,
    input_reuse_values: Sequence[int] = FIG5_INPUT_REUSE,
    config: Optional[AlbireoConfig] = None,
    use_mapper: bool = False,
    workers: int = 1,
    cache=None,
) -> Fig5Result:
    network = network or resnet18()
    config = (config or AlbireoConfig()).with_scenario(scenario)
    study = reuse_study(
        network, config,
        output_reuse_values=output_reuse_values,
        input_reuse_values=input_reuse_values,
        weight_lane_variants=FIG5_VARIANTS,
        include_dram=False,
        use_mapper=use_mapper,
    )
    results = study.run(workers=workers, cache=cache)
    return Fig5Result(points=tuple(reuse_points(results)))
