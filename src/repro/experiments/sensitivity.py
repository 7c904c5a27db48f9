"""Sensitivity analysis: which device parameters move the answer?

One-at-a-time perturbation of every optical-device parameter in a scaling
scenario (default +-20%), measuring the change in best-case accelerator
energy.  The resulting tornado table shows which calibration inputs the
paper's conclusions actually depend on — the analysis reviewers ask for
when a model is calibrated rather than measured (see EXPERIMENTS.md's
threats-to-validity section).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.energy.scaling import CONSERVATIVE, ScalingScenario
from repro.experiments.fig2_validation import best_case_evaluations
from repro.model.results import LayerEvaluation
from repro.report.ascii import bar, format_table
from repro.systems.albireo import AlbireoConfig

#: The scenario fields perturbed (all device energies/efficiencies).
PERTURBED_FIELDS: Tuple[str, ...] = (
    "mzm_pj",
    "mrr_drive_pj",
    "photodiode_pj",
    "dac_pj_at_8bit",
    "adc_fom_fj_per_step",
    "detector_fj",
    "laser_wall_plug_efficiency",
    "fixed_loss_db",
)


@dataclass(frozen=True)
class SensitivityEntry:
    """Energy response to one parameter's perturbation."""

    field: str
    baseline_pj_per_mac: float
    low_pj_per_mac: float   # parameter scaled down
    high_pj_per_mac: float  # parameter scaled up

    @property
    def swing(self) -> float:
        """Total relative energy swing across the perturbation range."""
        return (self.high_pj_per_mac - self.low_pj_per_mac) \
            / self.baseline_pj_per_mac

    @property
    def magnitude(self) -> float:
        return abs(self.swing)


@dataclass(frozen=True)
class SensitivityResult:
    scenario: str
    entries: Tuple[SensitivityEntry, ...]

    @property
    def ranked(self) -> List[SensitivityEntry]:
        return sorted(self.entries, key=lambda e: -e.magnitude)

    @property
    def most_sensitive(self) -> str:
        return self.ranked[0].field

    def table(self) -> str:
        maximum = max(entry.magnitude for entry in self.entries) or 1.0
        rows = []
        for entry in self.ranked:
            rows.append((
                entry.field,
                f"{entry.low_pj_per_mac:.4f}",
                f"{entry.high_pj_per_mac:.4f}",
                f"{entry.swing:+.1%}",
                bar(entry.magnitude, maximum, width=24),
            ))
        return (
            f"Sensitivity of best-case energy to +-20% device "
            f"perturbations ({self.scenario} scaling)\n"
            + format_table(
                ("parameter", "-20%", "+20%", "swing", ""),
                rows, align_right=[False, True, True, True, False])
        )


def _perturbed(scenario: ScalingScenario, field: str,
               factor: float) -> ScalingScenario:
    value = getattr(scenario, field) * factor
    if field == "laser_wall_plug_efficiency":
        value = min(value, 1.0)
    name = f"{scenario.name}:{field}x{factor:g}"
    return dataclasses.replace(scenario, name=name, **{field: value})


def _accelerator_pj_per_mac(evaluation: LayerEvaluation) -> float:
    """Accelerator-side energy (DRAM excluded, as in the paper's Fig. 2)."""
    dram = evaluation.energy.component_total("DRAM")
    return (evaluation.energy_pj - dram) / evaluation.real_macs


def run(
    scenario: ScalingScenario = CONSERVATIVE,
    perturbation: float = 0.2,
    fields: Sequence[str] = PERTURBED_FIELDS,
) -> SensitivityResult:
    """Perturb each device field by +-``perturbation`` and measure.

    The baseline and every perturbed scenario are one best-case study:
    the layer is analyzed once and priced per scenario."""
    scenarios = [scenario]
    for field in fields:
        scenarios.append(_perturbed(scenario, field, 1.0 - perturbation))
        scenarios.append(_perturbed(scenario, field, 1.0 + perturbation))
    baseline, *perturbed = [
        _accelerator_pj_per_mac(evaluation)
        for evaluation in best_case_evaluations(AlbireoConfig(), scenarios)]
    entries = tuple(
        SensitivityEntry(
            field=field,
            baseline_pj_per_mac=baseline,
            low_pj_per_mac=low,
            high_pj_per_mac=high,
        )
        for field, low, high in zip(fields, perturbed[0::2],
                                    perturbed[1::2]))
    return SensitivityResult(scenario=scenario.name, entries=entries)
