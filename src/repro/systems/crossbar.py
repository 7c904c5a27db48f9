"""A weight-stationary photonic WDM crossbar accelerator.

The second full system modeled by this library (after Albireo),
representative of the microring weight-bank family the paper cites
(ADEPT-style electro-photonic accelerators, PCNNA/DEAP-class crossbars).
Modeling two systems with one component library is the paper's
"comparison between systems" use case.

Organization — ``tiles`` × (``rows`` × ``cols``) ring crossbars:

* **Weights** are converted *once per tile residency*: DRAM → global
  buffer → **DE/AE DAC** → an analog sample-and-hold **weight bank**
  holding ``rows x cols`` values that bias the rings while inputs stream.
  This is the weight-stationary contrast to Albireo's streamed weights:
  weight conversion energy amortizes over the whole pixel sweep instead
  of paying per MAC.
* **Inputs** stream every cycle: DAC → **AE/AO MZM** per row, and each
  row's light crosses all ``cols`` columns (optical broadcast along the
  row waveguide — the input-reuse fanout).
* **Outputs**: each column's photodiode (**AO/AE**) sums the ``rows``
  contributions optically; an analog integrator accumulates
  ``integration_depth`` symbols before the column ADC (**AE/DE**) fires.

Trade-offs this structure exposes against Albireo (and which the model
reproduces): near-zero weight-conversion energy and no window-geometry
restrictions (FC layers map well), against sample-and-hold refresh limits
(``hold_cycles``), per-cycle input DACs on every row, and no
locally-connected window reuse for convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.arch.domains import Conversion, Domain
from repro.arch.hierarchy import (
    Architecture,
    ComputeAction,
    ComputeLevel,
    ConverterStage,
    SpatialFanout,
    StorageLevel,
)
from repro.energy.estimator import ComponentSpec, build_table
from repro.energy.scaling import (
    AGGRESSIVE,
    CONSERVATIVE,
    ScalingScenario,
)
from repro.energy.table import EnergyTable
from repro.exceptions import SpecError
from repro.mapping.constraints import MappingConstraints, StorageConstraint
from repro.mapping.mapping import FanoutMapping, LevelMapping, Mapping
from repro.model.buckets import BucketScheme, component_rule
from repro.systems.base import PhotonicSystem
from repro.systems.refmap import (
    GB_ORDER,
    FactorTaker,
    dram_order_protecting,
    shrink_to_fit,
    temporal_loops,
)
from repro.systems.registry import SystemEntry, register_system
from repro.units import KIBIBYTE
from repro.workloads.dataspace import DataSpace
from repro.workloads.dims import Dim
from repro.workloads.layer import ConvLayer

_W = DataSpace.WEIGHTS
_I = DataSpace.INPUTS
_O = DataSpace.OUTPUTS


@dataclass(frozen=True)
class CrossbarConfig:
    """Parameters of one WDM-crossbar instance.

    Defaults give 16 x 16 x 16 = 4096 MACs/cycle at 5 GHz — a similar
    silicon budget to the default Albireo for fair comparison.
    """

    scenario: ScalingScenario = CONSERVATIVE
    tiles: int = 16
    rows: int = 16
    cols: int = 16
    #: Analog integration depth before each column ADC fires.
    integration_depth: int = 4
    #: Symbols a sample-and-hold weight survives before re-conversion
    #: (droop limit).  Bounds the weight-stationary amortization.
    hold_cycles: int = 4096
    clock_ghz: float = 5.0
    global_buffer_kib: int = 1024
    global_buffer_banks: int = 16
    dram_technology: str = "ddr4"
    bits: int = 8

    def __post_init__(self) -> None:
        for name in ("tiles", "rows", "cols", "integration_depth",
                     "hold_cycles", "global_buffer_kib",
                     "global_buffer_banks", "bits"):
            if getattr(self, name) < 1:
                raise SpecError(f"CrossbarConfig.{name} must be >= 1")

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.tiles * self.rows * self.cols

    @property
    def global_buffer_bits(self) -> float:
        return float(self.global_buffer_kib * KIBIBYTE)

    @property
    def bank_bits(self) -> float:
        """Per-tile weight bank capacity: one weight per ring."""
        return float(self.rows * self.cols * self.bits)

    def with_scenario(self, scenario: ScalingScenario) -> "CrossbarConfig":
        return replace(self, scenario=scenario)

    def describe(self) -> str:
        return (
            f"Crossbar[{self.scenario.name}] {self.tiles} tiles x "
            f"{self.rows}x{self.cols} rings = {self.peak_macs_per_cycle} "
            f"MACs/cycle @ {self.clock_ghz:g} GHz; integration depth "
            f"{self.integration_depth}, GB={self.global_buffer_kib} KiB"
        )


def build_crossbar_architecture(config: CrossbarConfig) -> Architecture:
    """The crossbar node list; see the module docstring for the layout."""
    nodes = (
        StorageLevel(
            name="DRAM", component="dram", domain=Domain.DE,
            dataspaces={_W, _I, _O}, capacity_bits=None,
        ),
        StorageLevel(
            name="GlobalBuffer", component="global_buffer", domain=Domain.DE,
            dataspaces={_W, _I, _O}, capacity_bits=config.global_buffer_bits,
        ),
        SpatialFanout(
            name="tiles", size=config.tiles,
            allowed_dims={Dim.N, Dim.M, Dim.C, Dim.P, Dim.Q},
            multicast={_W, _I},
        ),
        ConverterStage(
            name="WeightDAC", component="weight_dac",
            conversion=Conversion(Domain.DE, Domain.AE), dataspaces={_W},
        ),
        StorageLevel(
            name="WeightBank", component="weight_bank", domain=Domain.AE,
            dataspaces={_W}, capacity_bits=config.bank_bits,
        ),
        ConverterStage(
            name="InputDAC", component="input_dac",
            conversion=Conversion(Domain.DE, Domain.AE), dataspaces={_I},
        ),
        ConverterStage(
            name="InputModulator", component="input_modulator",
            conversion=Conversion(Domain.AE, Domain.AO), dataspaces={_I},
        ),
        SpatialFanout(
            name="columns", size=config.cols,
            allowed_dims={Dim.M},
            multicast={_I},
        ),
        ConverterStage(
            name="OutputADC", component="output_adc",
            conversion=Conversion(Domain.AE, Domain.DE), dataspaces={_O},
        ),
        StorageLevel(
            name="AEIntegrator", component="ae_integrator", domain=Domain.AE,
            dataspaces={_O}, capacity_bits=float(config.bits),
            allowed_temporal_dims={Dim.C, Dim.R, Dim.S},
            max_accumulation_depth=float(config.integration_depth),
        ),
        ConverterStage(
            name="OutputPhotodiode", component="output_photodiode",
            conversion=Conversion(Domain.AO, Domain.AE), dataspaces={_O},
        ),
        SpatialFanout(
            name="rows", size=config.rows,
            allowed_dims={Dim.C, Dim.R, Dim.S},
            reduction={_O},
        ),
        ComputeLevel(
            name="RingMAC", component="ring_mac", domain=Domain.AO,
            actions=(ComputeAction(component="laser", action="mac",
                                   events_per_mac=1.0),),
        ),
    )
    return Architecture(
        name=f"crossbar-{config.scenario.name}",
        nodes=nodes,
        clock_ghz=config.clock_ghz,
    )


def build_crossbar_energy_table(config: CrossbarConfig) -> EnergyTable:
    scenario = config.scenario
    specs = [
        ComponentSpec("dram", "dram", {
            "technology": config.dram_technology,
            "width_bits": config.bits,
        }),
        ComponentSpec("global_buffer", "sram", {
            "capacity_bits": config.global_buffer_bits,
            "width_bits": config.bits,
            "banks": config.global_buffer_banks,
        }),
        ComponentSpec("weight_dac", "dac", {
            "energy_pj_at_8bit": scenario.dac_pj_at_8bit,
            "bits": config.bits,
        }),
        # The sample-and-hold bank: charge-domain storage per ring.
        ComponentSpec("weight_bank", "analog_integrator", {}),
        ComponentSpec("input_dac", "dac", {
            "energy_pj_at_8bit": scenario.dac_pj_at_8bit,
            "bits": config.bits,
        }),
        ComponentSpec("input_modulator", "mzm", {
            "energy_pj": scenario.mzm_pj,
        }),
        ComponentSpec("output_photodiode", "photodiode", {
            "energy_pj": scenario.photodiode_pj,
        }),
        ComponentSpec("output_adc", "adc", {
            "fom_fj_per_step": scenario.adc_fom_fj_per_step,
            "bits": config.bits,
            "sample_rate_gsps": config.clock_ghz,
        }),
        ComponentSpec("ae_integrator", "analog_integrator", {}),
        ComponentSpec("laser", "laser", {
            "detector_fj": scenario.detector_fj,
            "wall_plug_efficiency": scenario.laser_wall_plug_efficiency,
            "fixed_loss_db": scenario.fixed_loss_db,
            "broadcast_ports": config.cols,
        }),
        ComponentSpec("ring_mac", "constant", {
            "energy_pj": 0.0, "actions": ("compute", "mac"),
        }),
    ]
    return build_table(specs)


#: Figure buckets matching Albireo's SYSTEM_BUCKETS for cross-system plots.
CROSSBAR_BUCKETS = BucketScheme(
    name="crossbar-system",
    rules=(
        component_rule("WeightDAC", "Weight DE/AE, AE/AO"),
        component_rule("WeightBank", "Weight DE/AE, AE/AO"),
        component_rule("InputDAC", "Input DE/AE, AE/AO"),
        component_rule("InputModulator", "Input DE/AE, AE/AO"),
        component_rule("OutputADC", "Output AO/AE, AE/DE"),
        component_rule("OutputPhotodiode", "Output AO/AE, AE/DE"),
        component_rule("laser", "Other AO"),
        component_rule("AEIntegrator", "Other AO"),
        component_rule("GlobalBuffer", "On-Chip Buffer"),
        component_rule("DRAM", "DRAM"),
    ),
    default="Other AO",
    order=("Other AO", "Weight DE/AE, AE/AO", "Input DE/AE, AE/AO",
           "Output AO/AE, AE/DE", "On-Chip Buffer", "DRAM"),
)


def crossbar_constraints(config: CrossbarConfig) -> MappingConstraints:
    """Integrator depth and sample-and-hold refresh budgets."""
    return MappingConstraints(
        storages={
            "AEIntegrator": StorageConstraint(
                max_temporal_product=config.integration_depth),
            # Loops at the weight bank sweep inputs while weights stay
            # resident; the hold limit caps that sweep length.
            "WeightBank": StorageConstraint(
                max_temporal_product=config.hold_cycles),
        },
    )


def crossbar_reference_mapping(config: CrossbarConfig,
                               layer: ConvLayer) -> Mapping:
    """Deterministic weight-stationary reference mapping.

    Spatial: C (and kernel dims) across rows, M across columns, leftovers
    of M/C/pixels across tiles.  Temporal: reduction leftovers in the
    integrator, a pixel sweep at the weight bank (weights resident),
    buffer tiles sized to capacity, remainder at DRAM protecting weights.
    """
    taker = FactorTaker(layer)

    # Rows serve the reduction dims: kernel window first, channels after.
    row_budget = config.rows
    r_sp = taker.take(Dim.R, row_budget)
    row_budget //= r_sp
    s_sp = taker.take(Dim.S, row_budget)
    row_budget //= s_sp
    c_sp = taker.take(Dim.C, row_budget)
    m_sp = taker.take(Dim.M, config.cols)

    tile_factors = taker.take_budgeted((Dim.M, Dim.C, Dim.Q, Dim.P, Dim.N),
                                       config.tiles)

    # No temporal loops at the integrator in the reference mapping: a
    # weight-stationary crossbar cannot accumulate C-chunks in analog
    # without the bank holding every chunk's weights simultaneously (the
    # bank tile would multiply by the accumulation length and blow its
    # capacity), so reduction leftovers merge digitally at the buffer.
    # The mapper may still discover legal analog accumulation for layers
    # whose weights fit (the capacity check arbitrates honestly).
    integrator_factors: Dict[Dim, int] = {}

    # Weight bank: weights stay put across the pixel/batch sweep.
    bank_factors = taker.take_budgeted((Dim.Q, Dim.P, Dim.N),
                                       config.hold_cycles)

    spatial_cum = {Dim.R: r_sp, Dim.S: s_sp, Dim.C: c_sp, Dim.M: m_sp}
    for dim, factor in tile_factors.items():
        spatial_cum[dim] = spatial_cum.get(dim, 1) * factor

    # Global buffer: everything else that fits; shrink M/C first.
    gb_factors = shrink_to_fit(
        layer, taker.dims, dict(taker.remaining),
        config.global_buffer_bits * 0.95,
        spatial_cum, integrator_factors, bank_factors,
    )
    dram_factors = taker.residual_after(gb_factors)

    dram_order = dram_order_protecting(layer, "auto")

    levels = (
        LevelMapping("DRAM", temporal_loops(dram_factors, dram_order)),
        LevelMapping("GlobalBuffer", temporal_loops(gb_factors, GB_ORDER)),
        LevelMapping("WeightBank",
                     temporal_loops(bank_factors, (Dim.N, Dim.P, Dim.Q))),
        LevelMapping("AEIntegrator",
                     temporal_loops(integrator_factors,
                                    (Dim.C, Dim.R, Dim.S))),
    )
    spatials = (
        FanoutMapping("tiles", tile_factors),
        FanoutMapping("columns", {Dim.M: m_sp} if m_sp > 1 else {}),
        FanoutMapping("rows", {d: f for d, f in
                               ((Dim.C, c_sp), (Dim.R, r_sp), (Dim.S, s_sp))
                               if f > 1}),
    )
    return Mapping(levels=levels, spatials=spatials)


class CrossbarSystem(PhotonicSystem):
    """The WDM crossbar ready to evaluate (mirrors :class:`AlbireoSystem`).

    Built on :class:`~repro.systems.base.PhotonicSystem`, so it shares the
    engine's ``store`` seam: warmed-cache parallel sweeps work exactly as
    they do for Albireo.
    """

    name = "crossbar"
    config_type = CrossbarConfig
    build_architecture = staticmethod(build_crossbar_architecture)
    build_energy_table = staticmethod(build_crossbar_energy_table)

    def constraints(self, layer: ConvLayer) -> MappingConstraints:
        return crossbar_constraints(self.config)

    def mapping_candidates(self, layer: ConvLayer) -> List[Mapping]:
        return [crossbar_reference_mapping(self.config, layer)]


# ---------------------------------------------------------------------------
# Registry entry
# ---------------------------------------------------------------------------

def crossbar_default_sweep() -> List[CrossbarConfig]:
    """The ``repro sweep --system crossbar`` grid: 2 scenarios x 3 tile
    counts x 2 row counts x 2 integration depths = 24 configurations."""
    configs = []
    for scenario in (CONSERVATIVE, AGGRESSIVE):
        for tiles in (8, 16, 32):
            for rows in (8, 16):
                for integration_depth in (2, 4):
                    configs.append(CrossbarConfig(
                        scenario=scenario,
                        tiles=tiles,
                        rows=rows,
                        integration_depth=integration_depth,
                    ))
    return configs


register_system(SystemEntry(
    name="crossbar",
    config_type=CrossbarConfig,
    system_type=CrossbarSystem,
    build_architecture=build_crossbar_architecture,
    build_energy_table=build_crossbar_energy_table,
    buckets=CROSSBAR_BUCKETS,
    description=("Weight-stationary photonic WDM crossbar "
                 "(ADEPT/PCNNA-class): analog sample-and-hold weight "
                 "banks, per-row input streaming, optical column "
                 "reduction"),
    default_sweep=crossbar_default_sweep,
    sweep_columns=(
        ("scaling", lambda config: config.scenario.name),
        ("tiles", lambda config: config.tiles),
        ("rows", lambda config: config.rows),
        ("depth", lambda config: config.integration_depth),
    ),
))
