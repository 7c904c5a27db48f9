"""Fig. 4 — full-system (accelerator + DRAM) memory exploration.

ResNet18 energy under {conservative, aggressive} scaling x {non-batched,
batched} x {not fused, fused}, with per-bucket breakdowns normalized within
each scaling (the figure's presentation).  The paper's findings:

* conservatively-scaled Albireo: DRAM is a small share of system energy;
* aggressively-scaled Albireo: DRAM consumes ~75% of system energy;
* batching + fusion together cut aggressive-system energy by 67% (3x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.results import ResultSet
from repro.api.studies import memory_study
from repro.energy.scaling import AGGRESSIVE, CONSERVATIVE, ScalingScenario
from repro.experiments.reported import FIG4_CLAIMS
from repro.model.results import NetworkEvaluation
from repro.report.ascii import format_table, stacked_bar_chart
from repro.systems.albireo import AlbireoConfig, SYSTEM_BUCKETS
from repro.workloads.models import resnet18
from repro.workloads.network import Network


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


@dataclass(frozen=True)
class Fig4Result:
    points: Tuple[MemoryExplorationPoint, ...]

    # ------------------------------------------------------------------
    # Metric extraction
    # ------------------------------------------------------------------
    def point(self, scenario: str, batch: int,
              fused: bool) -> MemoryExplorationPoint:
        for point in self.points:
            if (point.scenario.name == scenario
                    and point.batch == batch and point.fused == fused):
                return point
        raise KeyError((scenario, batch, fused))

    def buckets_per_mac(self,
                        point: MemoryExplorationPoint) -> Dict[str, float]:
        evaluation = point.evaluation
        return evaluation.total_energy.per_mac(
            evaluation.total_macs).grouped(SYSTEM_BUCKETS)

    def dram_share(self, scenario: str, batch: int = 1,
                   fused: bool = False) -> float:
        buckets = self.buckets_per_mac(self.point(scenario, batch, fused))
        total = sum(buckets.values())
        return buckets.get("DRAM", 0.0) / total

    def combined_reduction(self, scenario: str = "aggressive") -> float:
        """Energy saved by batching + fusion together vs the baseline."""
        baseline = self.point(scenario, batch=1, fused=False)
        optimized = self.point(scenario,
                               batch=max(p.batch for p in self.points),
                               fused=True)
        return 1.0 - (optimized.energy_per_mac_pj
                      / baseline.energy_per_mac_pj)

    @property
    def meets_paper_claims(self) -> bool:
        """Shape targets: dominant aggressive DRAM, small conservative
        DRAM, and a combined optimization factor near 3x."""
        scenarios = {p.scenario.name for p in self.points}
        checks = []
        if "aggressive" in scenarios:
            checks.append(self.dram_share("aggressive") >= 0.5)
            checks.append(self.combined_reduction("aggressive") >= 0.5)
        if "conservative" in scenarios:
            checks.append(
                self.dram_share("conservative")
                <= FIG4_CLAIMS["conservative_dram_share_max"])
        return all(checks) and bool(checks)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def table(self) -> str:
        rows: List[Tuple] = []
        chart_rows = []
        scenario_max: Dict[str, float] = {}
        for point in self.points:
            scenario_max.setdefault(point.scenario.name, 0.0)
            scenario_max[point.scenario.name] = max(
                scenario_max[point.scenario.name], point.energy_per_mac_pj)
        for point in self.points:
            buckets = self.buckets_per_mac(point)
            total = sum(buckets.values())
            normalizer = scenario_max[point.scenario.name]
            rows.append((
                point.scenario.name,
                "fused" if point.fused else "not-fused",
                f"N={point.batch}",
                round(total, 4),
                round(total / normalizer, 3),
                f"{buckets.get('DRAM', 0.0) / total:.0%}",
            ))
            chart_rows.append((
                f"{point.scenario.name[:4]}/"
                f"{'F' if point.fused else 'nf'}/N{point.batch}",
                {name: value / normalizer
                 for name, value in buckets.items()},
            ))
        table = format_table(
            ("scaling", "fusion", "batch", "pJ/MAC",
             "normalized", "DRAM share"),
            rows, align_right=[False, False, False, True, True, True])
        chart = stacked_bar_chart(chart_rows, width=44)
        claims = []
        for scenario in sorted({p.scenario.name for p in self.points}):
            claims.append(
                f"{scenario}: DRAM share (baseline) = "
                f"{self.dram_share(scenario):.0%}, combined batching+fusion "
                f"reduction = {self.combined_reduction(scenario):.0%}"
            )
        return (
            "Fig. 4 — ResNet18 full-system energy "
            "(normalized per scaling)\n" + table + "\n\n" + chart + "\n\n"
            + "\n".join(claims)
            + "\n(paper: aggressive DRAM share 75%; batching+fusion "
              "reduce aggressive energy 67% = 3x)"
        )


def run(
    network: Optional[Network] = None,
    scenarios: Sequence[ScalingScenario] = (CONSERVATIVE, AGGRESSIVE),
    batch_sizes: Sequence[int] = (1, 8),
    config: Optional[AlbireoConfig] = None,
    use_mapper: bool = False,
    workers: int = 1,
    cache=None,
) -> Fig4Result:
    network = network or resnet18()
    config = config or AlbireoConfig()
    study = memory_study(
        network, config, scenarios,
        batch_sizes=batch_sizes,
        fusion_options=(False, True),
        use_mapper=use_mapper,
    )
    results = study.run(workers=workers, cache=cache)
    return Fig4Result(points=tuple(memory_points(results)))
