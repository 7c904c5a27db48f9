"""Batching study: the energy-latency trade the paper notes in passing.

Paper §III.3: batching amortizes weight movement energy but "increases
latency."  This experiment quantifies both sides on ResNet18: per-inference
energy falls toward an asymptote (the batch-independent activation and
compute terms) while a request's latency grows linearly with the batch it
waits for.  The knee of the curve is the useful operating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.api.study import Study
from repro.energy.scaling import AGGRESSIVE, ScalingScenario
from repro.report.ascii import bar, format_table
from repro.systems.albireo import AlbireoConfig
from repro.workloads.models import resnet18


@dataclass(frozen=True)
class BatchPoint:
    batch: int
    energy_uj_per_inference: float
    latency_ms_per_request: float
    weight_dram_pj_per_mac: float


@dataclass(frozen=True)
class BatchingResult:
    scenario: str
    points: Tuple[BatchPoint, ...]

    @property
    def energy_floor_uj(self) -> float:
        """Per-inference energy at the largest evaluated batch."""
        return self.points[-1].energy_uj_per_inference

    @property
    def amortization_saturated(self) -> bool:
        """True once doubling the batch saves < 5% more energy."""
        if len(self.points) < 2:
            return False
        last, prev = self.points[-1], self.points[-2]
        return (prev.energy_uj_per_inference
                - last.energy_uj_per_inference) \
            < 0.05 * prev.energy_uj_per_inference

    def table(self) -> str:
        max_energy = max(p.energy_uj_per_inference for p in self.points)
        rows = []
        for point in self.points:
            rows.append((
                point.batch,
                f"{point.energy_uj_per_inference:.1f}",
                f"{point.latency_ms_per_request:.2f}",
                f"{point.weight_dram_pj_per_mac:.4f}",
                bar(point.energy_uj_per_inference, max_energy, width=24),
            ))
        return (
            f"Batching on ResNet18 ({self.scenario} scaling): energy "
            f"amortizes, latency compounds\n"
            + format_table(
                ("batch", "energy uJ/inf", "latency ms/req",
                 "weight-DRAM pJ/MAC", ""),
                rows, align_right=[True, True, True, True, False])
        )


def run(
    scenario: ScalingScenario = AGGRESSIVE,
    batch_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32),
    config: Optional[AlbireoConfig] = None,
) -> BatchingResult:
    config = (config or AlbireoConfig()).with_scenario(scenario)
    results = (Study("batching").configs(config).networks(resnet18())
               .batches(*batch_sizes).run())
    points: List[BatchPoint] = []
    for batch, record in zip(batch_sizes, results):
        evaluation = record.evaluation
        weight_dram = sum(
            value for (component, dataspace), value
            in evaluation.total_energy.entries().items()
            if component == "DRAM"
            and dataspace is not None and dataspace.value == "Weights")
        points.append(BatchPoint(
            batch=batch,
            energy_uj_per_inference=evaluation.energy_pj / 1e6 / batch,
            latency_ms_per_request=evaluation.latency_ns / 1e6,
            weight_dram_pj_per_mac=weight_dram / evaluation.total_macs,
        ))
    return BatchingResult(scenario=scenario.name, points=tuple(points))
