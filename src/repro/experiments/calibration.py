"""Executable calibration: derive device parameters from figure targets.

The scaling scenarios in :mod:`repro.energy.scaling` were fitted so the
modeled Fig. 2 breakdown matches the paper.  This module makes that
fitting *executable and testable* instead of a story in a comment: given
per-MAC bucket targets and an Albireo configuration, it inverts the
fabric's conversion-rate model to per-device energies, and a round-trip
test confirms the full pipeline reproduces the targets.

The inversion uses the closed-form best-case rates (per MAC):

====================  =======================================
bucket                composition
====================  =======================================
``MRR``               mrr_drive / WR
``MZM``               mzm / IR
``AO/AE``             photodiode / wavelengths
``DE/AE``             dac x (1/WR + 1/IR)
``AE/DE``             adc / (wavelengths x OR)
``Laser``             detector-driven link budget (inverted
                      for ``detector_fj`` at fixed losses)
====================  =======================================
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.energy.photonic import link_loss_db
from repro.energy.scaling import ScalingScenario
from repro.exceptions import CalibrationError
from repro.experiments.fig2_validation import (
    best_case_evaluations,
    fig2_buckets,
)
from repro.systems.albireo import AlbireoConfig
from repro.units import db_to_linear

#: ADC estimator speed penalty at the Albireo symbol rate (see
#: repro.energy.converters: (rate / 1 GS/s) ** 0.5 above the corner).
def _adc_speed_penalty(clock_ghz: float) -> float:
    return max(1.0, clock_ghz ** 0.5)


def derive_scenario(
    name: str,
    bucket_targets: Mapping[str, float],
    config: AlbireoConfig,
    wall_plug_efficiency: float,
    fixed_loss_db: float,
) -> ScalingScenario:
    """Invert per-MAC bucket targets to a :class:`ScalingScenario`.

    ``bucket_targets`` uses the paper's Fig. 2 labels (MRR, MZM, Laser,
    AO/AE, DE/AE, AE/DE).  The laser's efficiency and fixed losses are
    free technology choices supplied by the caller; ``detector_fj`` is
    derived to hit the Laser bucket through the link budget.
    """
    required = {"MRR", "MZM", "Laser", "AO/AE", "DE/AE", "AE/DE"}
    missing = required - set(bucket_targets)
    if missing:
        raise CalibrationError(
            f"calibration targets missing buckets {sorted(missing)}")
    wr = config.weight_lanes
    ir = config.star_ports
    wavelengths = config.wavelengths

    mrr = bucket_targets["MRR"] * wr
    mzm = bucket_targets["MZM"] * ir
    photodiode = bucket_targets["AO/AE"] * wavelengths
    dac = bucket_targets["DE/AE"] / (1.0 / wr + 1.0 / ir)
    adc_pj = bucket_targets["AE/DE"] * wavelengths * config.output_reuse
    adc_fom = adc_pj * 1000.0 / (2 ** config.bits) \
        / _adc_speed_penalty(config.clock_ghz)
    loss = db_to_linear(link_loss_db(fixed_loss_db, ir))
    detector_fj = (bucket_targets["Laser"] * 1000.0
                   * wall_plug_efficiency / loss)
    return ScalingScenario(
        name=name,
        mzm_pj=mzm,
        mrr_drive_pj=mrr,
        photodiode_pj=photodiode,
        dac_pj_at_8bit=dac,
        adc_fom_fj_per_step=adc_fom,
        detector_fj=detector_fj,
        laser_wall_plug_efficiency=wall_plug_efficiency,
        fixed_loss_db=fixed_loss_db,
    )


def modeled_buckets(scenario: ScalingScenario,
                    config: AlbireoConfig) -> Dict[str, float]:
    """Run the full pipeline and return the Fig. 2 buckets per MAC."""
    evaluation, = best_case_evaluations(config, (scenario,))
    return fig2_buckets(evaluation)


def calibration_error(
    targets: Mapping[str, float],
    scenario: ScalingScenario,
    config: AlbireoConfig,
) -> float:
    """Worst-case relative bucket error of a derived scenario."""
    modeled = modeled_buckets(scenario, config)
    worst = 0.0
    for bucket, target in targets.items():
        if bucket not in modeled or target == 0:
            continue
        worst = max(worst, abs(modeled[bucket] - target) / target)
    return worst
