"""Fig. 2 — energy-breakdown validation.

Models the best-case (fully utilized, unstrided) Albireo workload under the
three device-scaling scenarios and compares the per-MAC component breakdown
{MRR, MZM, Laser, AO/AE, DE/AE, AE/DE, Cache} against the reported values.
The paper's headline: average overall energy error of 0.4%.

The three scenarios are one :func:`repro.api.studies.best_case_study`
run, which analyzes the layer once and prices it per scenario; the
sensitivity analysis and the calibration round trip read the same
lattice through :func:`best_case_evaluations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.studies import best_case_study
from repro.energy.scaling import SCENARIOS, ScalingScenario
from repro.experiments.reported import FIG2_CLAIMS, FIG2_REPORTED
from repro.model.results import LayerEvaluation
from repro.report.ascii import format_table, stacked_bar_chart
from repro.systems.albireo import AlbireoConfig, FIG2_BUCKETS

#: The accelerator-side buckets the figure shows (DRAM is excluded: the
#: figure validates the accelerator + laser, DRAM enters in Fig. 4).
BUCKET_ORDER = ("MRR", "MZM", "Laser", "AO/AE", "DE/AE", "AE/DE", "Cache")


@dataclass(frozen=True)
class ScenarioValidation:
    """Modeled vs reported breakdown for one scaling scenario."""

    scenario: str
    modeled: Dict[str, float]
    reported: Dict[str, float]

    @property
    def modeled_total(self) -> float:
        return sum(self.modeled.values())

    @property
    def reported_total(self) -> float:
        return sum(self.reported.values())

    @property
    def total_error(self) -> float:
        """Relative error of the overall pJ/MAC."""
        return abs(self.modeled_total - self.reported_total) \
            / self.reported_total


@dataclass(frozen=True)
class Fig2Result:
    """All three scenario validations plus the headline error metric."""

    validations: Tuple[ScenarioValidation, ...]

    @property
    def average_error(self) -> float:
        return sum(v.total_error for v in self.validations) \
            / len(self.validations)

    @property
    def meets_paper_claim(self) -> bool:
        """Paper: 0.4% average error.  Allow transcription headroom (1%)."""
        return self.average_error <= max(
            0.01, 2.5 * FIG2_CLAIMS["average_error_max"])

    def table(self) -> str:
        rows: List[Tuple] = []
        for validation in self.validations:
            for source, values in (("reported", validation.reported),
                                   ("modeled", validation.modeled)):
                rows.append(
                    (validation.scenario, source)
                    + tuple(round(values.get(bucket, 0.0), 4)
                            for bucket in BUCKET_ORDER)
                    + (round(sum(values.values()), 4),)
                )
        headers = ("scaling", "source") + BUCKET_ORDER + ("total",)
        table = format_table(headers, rows,
                             align_right=[False, False] + [True] * 8)
        chart_rows = []
        for validation in self.validations:
            chart_rows.append((f"{validation.scenario[:7]}/rep",
                               validation.reported))
            chart_rows.append((f"{validation.scenario[:7]}/mod",
                               validation.modeled))
        chart = stacked_bar_chart(chart_rows, width=46)
        return (
            f"Fig. 2 — Best-case energy breakdown (pJ/MAC)\n{table}\n\n"
            f"{chart}\n\n"
            f"average overall energy error: {self.average_error:.2%} "
            f"(paper: 0.4%)"
        )


def best_case_evaluations(
        config: AlbireoConfig,
        scenarios: Sequence[ScalingScenario]) -> List[LayerEvaluation]:
    """The best-case layer's evaluation under each scenario, in order."""
    return [record.evaluation.layers[0][0]
            for record in best_case_study(config, scenarios).run()]


def fig2_buckets(evaluation: LayerEvaluation) -> Dict[str, float]:
    """The figure's per-MAC buckets of one evaluation (DRAM and the
    integrator's "Other" residue fall in no bucket)."""
    grouped = evaluation.energy.per_mac(
        evaluation.real_macs).grouped(FIG2_BUCKETS)
    return {bucket: grouped.get(bucket, 0.0) for bucket in BUCKET_ORDER}


def run(scenarios: Optional[Tuple[ScalingScenario, ...]] = None) -> Fig2Result:
    """Run the validation for all (or the given) scaling scenarios."""
    scenarios = scenarios or SCENARIOS
    evaluations = best_case_evaluations(AlbireoConfig(), scenarios)
    return Fig2Result(validations=tuple(
        ScenarioValidation(
            scenario=scenario.name,
            modeled=fig2_buckets(evaluation),
            reported=dict(FIG2_REPORTED[scenario.name]),
        )
        for scenario, evaluation in zip(scenarios, evaluations)))
