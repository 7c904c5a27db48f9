"""A WDM delay-buffer photonic CNN accelerator.

The third full system modeled by this library, representative of the
WDM-with-delay-line convolution family (Xu et al., 2019's optical CNN
accelerator with delay buffers; the broader "time-wavelength interleaved"
photonic convolvers).  Where Albireo builds its convolution window from a
locally-connected electrical site array and the crossbar has no window
structure at all, this design builds it *in time*: spiral waveguide delay
buffers offset copies of one modulated input stream so that, at any
instant, the taps see the R x S window pixels simultaneously.

Organization — ``tiles`` x ``output_lanes`` x (``delay taps`` x
``wavelengths``) ring weight banks:

* **Weights** are converted once per residency into analog ring biases —
  weight-stationary like the crossbar: DRAM -> global buffer -> **DE/AE
  DAC** -> sample-and-hold **ring bank** of ``output_lanes x taps x
  wavelengths`` values per tile, refreshed within ``hold_cycles``.
* **Inputs** are converted once per element and reused twice over: the
  modulated WDM stream (DAC -> per-wavelength **AE/AO ring modulator**,
  one input channel per wavelength) enters the **delay-line buffer — a
  storage level in the AO domain** — whose taps feed every window
  position from one conversion, and is broadcast across all
  ``output_lanes`` (M-irrelevant, a true multicast).  This is the window
  reuse Albireo pays per-MAC modulation for and the crossbar cannot
  express.
* **Outputs**: each lane's photodiode (**AO/AE**) sums taps and
  wavelengths optically; an analog integrator accumulates up to
  ``integration_depth`` partials before the lane ADC (**AE/DE**) fires.

The structural trade-offs the model reproduces: near-zero weight
conversion energy and free window reuse, against long spiral delay lines
(priced as waveguide area and as extra optical loss charged to the
laser), sample-and-hold refresh limits, and — like any weight-stationary
design — no analog accumulation across channel chunks (the bank cannot
hold two chunks' weights at once).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

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
    combined_bounds,
    distinct_dram_protections,
    dram_order_protecting,
    shrink_to_fit,
    temporal_loops,
    tile_occupancy_bits,
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
class WdmDelayConfig:
    """Parameters of one WDM delay-buffer instance.

    Defaults give 8 x 8 x 9 x 8 = 4608 MACs/cycle at 5 GHz — between the
    default Albireo (6480) and crossbar (4096) for comparable silicon.
    """

    scenario: ScalingScenario = CONSERVATIVE
    tiles: int = 8
    #: Parallel output channels per tile; each lane has its own ring bank
    #: and receiver but shares the delayed input stream.
    output_lanes: int = 8
    #: WDM comb lines: one input channel per wavelength.
    wavelengths: int = 8
    #: Delay taps per kernel axis (3 -> a 3x3 window built in time).
    delay_taps_per_axis: int = 3
    #: Analog integration depth before each lane ADC fires.
    integration_depth: int = 4
    #: Symbols a sample-and-hold ring bias survives before re-conversion.
    hold_cycles: int = 4096
    #: Input row length (symbols) one delay spiral must buffer; sets the
    #: spiral length priced into area and the extra loss charged to the
    #: laser.
    line_buffer_symbols: int = 64
    #: Propagation loss of the delay spirals, charged on top of the
    #: scenario's fixed link loss (the design's headline tax).
    delay_loss_db: float = 1.5
    clock_ghz: float = 5.0
    global_buffer_kib: int = 1024
    global_buffer_banks: int = 16
    dram_technology: str = "ddr4"
    bits: int = 8

    def __post_init__(self) -> None:
        for name in ("tiles", "output_lanes", "wavelengths",
                     "delay_taps_per_axis", "integration_depth",
                     "hold_cycles", "line_buffer_symbols",
                     "global_buffer_kib", "global_buffer_banks", "bits"):
            if getattr(self, name) < 1:
                raise SpecError(f"WdmDelayConfig.{name} must be >= 1")
        if self.delay_loss_db < 0:
            raise SpecError("WdmDelayConfig.delay_loss_db must be >= 0")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def delay_taps(self) -> int:
        return self.delay_taps_per_axis ** 2

    @property
    def peak_macs_per_cycle(self) -> int:
        return (self.tiles * self.output_lanes * self.delay_taps
                * self.wavelengths)

    @property
    def global_buffer_bits(self) -> float:
        return float(self.global_buffer_kib * KIBIBYTE)

    @property
    def bank_bits(self) -> float:
        """Per-tile ring-bank capacity: one weight per ring, all lanes."""
        return float(self.output_lanes * self.delay_taps
                     * self.wavelengths * self.bits)

    @property
    def delay_buffer_bits(self) -> float:
        """Per-tile delay-line capacity: ``delay_taps_per_axis`` rows of
        ``line_buffer_symbols``, one symbol per wavelength per position."""
        buffered = self.delay_taps_per_axis * self.line_buffer_symbols
        return float(buffered * self.wavelengths * self.bits)

    @property
    def delay_spiral_mm(self) -> float:
        """Total spiral waveguide length per tile (area accounting).

        One symbol at ``clock_ghz`` occupies ``c / (n_g * f)`` of
        waveguide (group index ~4.2); each kernel row beyond the first
        needs a ``line_buffer_symbols``-deep spiral, each column tap a
        single-symbol stub.
        """
        mm_per_symbol = 299.792458 / 4.2 / self.clock_ghz
        # ^ c [mm/ns] / n_g / f [GHz]  ==  mm per symbol period
        row_spirals = ((self.delay_taps_per_axis - 1)
                       * self.line_buffer_symbols)
        column_stubs = (self.delay_taps_per_axis
                        * (self.delay_taps_per_axis - 1)) // 2
        return (row_spirals + column_stubs) * mm_per_symbol

    def with_scenario(self, scenario: ScalingScenario) -> "WdmDelayConfig":
        return replace(self, scenario=scenario)

    def describe(self) -> str:
        return (
            f"WdmDelay[{self.scenario.name}] {self.tiles} tiles x "
            f"{self.output_lanes} lanes x {self.delay_taps} taps x "
            f"{self.wavelengths} wavelengths = {self.peak_macs_per_cycle} "
            f"MACs/cycle @ {self.clock_ghz:g} GHz; integration depth "
            f"{self.integration_depth}, GB={self.global_buffer_kib} KiB"
        )


# ---------------------------------------------------------------------------
# Architecture
# ---------------------------------------------------------------------------


def build_wdm_delay_architecture(config: WdmDelayConfig) -> Architecture:
    """The delay-buffer node list; see the module docstring for the flow."""
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
            allowed_dims={Dim.N, Dim.M, Dim.P, Dim.Q},
            multicast={_W, _I},
        ),
        ConverterStage(
            name="WeightDAC", component="weight_dac",
            conversion=Conversion(Domain.DE, Domain.AE), dataspaces={_W},
        ),
        StorageLevel(
            name="RingBank", component="ring_bank", domain=Domain.AE,
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
        # The defining structure: a storage level in the *optical* domain.
        # One modulated stream is written once per element and read by
        # every tap below, so the input converters above amortize over the
        # whole window sweep — delay-line reuse as Timeloop semantics.
        StorageLevel(
            name="DelayLine", component="delay_line", domain=Domain.AO,
            dataspaces={_I}, capacity_bits=config.delay_buffer_bits,
            allowed_temporal_dims={Dim.N, Dim.P, Dim.Q},
        ),
        SpatialFanout(
            name="output_lanes", size=config.output_lanes,
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
            name="delay_taps", size=config.delay_taps,
            allowed_dims={Dim.R, Dim.S},
            reduction={_O},
        ),
        SpatialFanout(
            name="wavelengths", size=config.wavelengths,
            allowed_dims={Dim.C},
            reduction={_O},
        ),
        ComputeLevel(
            name="DelayMAC", component="delay_mac", domain=Domain.AO,
            actions=(ComputeAction(component="laser", action="mac",
                                   events_per_mac=1.0),),
        ),
    )
    return Architecture(
        name=f"wdm-delay-{config.scenario.name}",
        nodes=nodes,
        clock_ghz=config.clock_ghz,
    )


def build_wdm_delay_energy_table(config: WdmDelayConfig) -> EnergyTable:
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
        # The sample-and-hold ring bank: charge-domain storage per ring.
        ComponentSpec("ring_bank", "analog_integrator", {}),
        ComponentSpec("input_dac", "dac", {
            "energy_pj_at_8bit": scenario.dac_pj_at_8bit,
            "bits": config.bits,
        }),
        # Per-wavelength input ring modulator (one comb line per channel).
        ComponentSpec("input_modulator", "mrr", {
            "energy_pj": scenario.mrr_drive_pj,
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
        # The delay spirals: passive storage — free accesses, real area
        # (~10 um routing pitch, priced per tile like the waveguide
        # estimator) — whose cost is the loss charged to the laser below.
        ComponentSpec("delay_line", "constant", {
            "energy_pj": 0.0,
            "actions": ("read", "write", "update"),
            "area_um2": config.delay_spiral_mm * 1000.0 * 10.0,
        }),
        # Delay spirals tax the link budget on top of the scenario's
        # fixed loss — the design's defining cost.
        ComponentSpec("laser", "laser", {
            "detector_fj": scenario.detector_fj,
            "wall_plug_efficiency": scenario.laser_wall_plug_efficiency,
            "fixed_loss_db": scenario.fixed_loss_db + config.delay_loss_db,
            "broadcast_ports": config.output_lanes,
        }),
        ComponentSpec("delay_mac", "constant", {
            "energy_pj": 0.0, "actions": ("compute", "mac"),
        }),
    ]
    return build_table(specs)


#: Figure buckets matching Albireo's SYSTEM_BUCKETS for cross-system plots.
WDM_DELAY_BUCKETS = BucketScheme(
    name="wdm-delay-system",
    rules=(
        component_rule("WeightDAC", "Weight DE/AE, AE/AO"),
        component_rule("RingBank", "Weight DE/AE, AE/AO"),
        component_rule("InputDAC", "Input DE/AE, AE/AO"),
        component_rule("InputModulator", "Input DE/AE, AE/AO"),
        component_rule("DelayLine", "Input DE/AE, AE/AO"),
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


# ---------------------------------------------------------------------------
# Constraints and the reference mapping
# ---------------------------------------------------------------------------


def wdm_delay_constraints(config: WdmDelayConfig) -> MappingConstraints:
    """Integrator depth and sample-and-hold refresh budgets."""
    return MappingConstraints(
        storages={
            "AEIntegrator": StorageConstraint(
                max_temporal_product=config.integration_depth),
            # Loops at the ring bank sweep inputs while weights stay
            # resident; the hold limit caps that sweep length.
            "RingBank": StorageConstraint(
                max_temporal_product=config.hold_cycles),
            # A delay spiral can stream at most one buffered row segment
            # per residency.
            "DelayLine": StorageConstraint(
                max_temporal_product=config.line_buffer_symbols),
        },
    )


def wdm_delay_reference_mapping(
    config: WdmDelayConfig,
    layer: ConvLayer,
    channel_mode: str = "fill",
    dram_protects: str = "auto",
) -> Mapping:
    """Deterministic weight-stationary, window-in-time reference mapping.

    Spatial: kernel window on the delay taps, input channels on
    wavelengths, output channels across lanes, leftovers of M/pixels
    across tiles.  Temporal: a row sweep *at the delay line* (window
    overlap between adjacent output columns is served by the buffered
    stream — the structure's defining reuse), the rest of the pixel/batch
    sweep at the ring bank (weights resident), buffer tiles sized to
    capacity, remainder at DRAM.  Like the crossbar, no analog
    accumulation across channel chunks — the bank cannot hold two
    chunks' weights at once, so reduction leftovers merge digitally at
    the buffer.
    """
    return _wdm_delay_assemble(
        layer, _wdm_delay_mapping_pieces(config, layer, channel_mode),
        dram_protects)


def _wdm_delay_mapping_pieces(config: WdmDelayConfig, layer: ConvLayer,
                              channel_mode: str) -> Tuple:
    """Everything about the reference mapping that does not depend on
    ``dram_protects`` — the capacity-retry factor allocation, computed
    once and shared across the DRAM-permutation variants (see
    :func:`wdm_delay_mapping_candidates`)."""
    capacity = config.global_buffer_bits * 0.95

    def build(q_cap: int, hold_budget: int):
        taker = FactorTaker(layer)

        # --- Spatial assignment, inner structures first -----------------
        r_sp = taker.take(Dim.R, config.delay_taps_per_axis)
        s_sp = taker.take(Dim.S, config.delay_taps_per_axis)
        c_sp = taker.take(Dim.C, config.wavelengths, mode=channel_mode)
        m_lane = taker.take(Dim.M, config.output_lanes)
        tile_factors = taker.take_budgeted((Dim.M, Dim.Q, Dim.P, Dim.N),
                                           config.tiles)

        # Delay line: the output-row sweep whose input halo fits the
        # buffered row segment ((q - 1) * stride + s input columns per
        # residency).
        delay_cap = max(1, min(q_cap,
                               (config.line_buffer_symbols - s_sp)
                               // layer.stride_w + 1))
        q_delay = taker.take(Dim.Q, delay_cap)
        delay_factors = {Dim.Q: q_delay} if q_delay > 1 else {}

        # Ring bank: weights stay put across the rest of the pixel
        # sweep.  The hold budget is consumed jointly by the delay-line
        # row sweep inside the residency and the bank's own loops.
        bank_factors = taker.take_budgeted(
            (Dim.Q, Dim.P, Dim.N), max(1, hold_budget // q_delay))

        spatial_cum = {Dim.R: r_sp, Dim.S: s_sp, Dim.C: c_sp,
                       Dim.M: m_lane}
        for dim, factor in tile_factors.items():
            spatial_cum[dim] = spatial_cum.get(dim, 1) * factor

        # --- Global-buffer tile: shrink until it fits -------------------
        gb_factors = shrink_to_fit(
            layer, taker.dims, dict(taker.remaining), capacity,
            spatial_cum, bank_factors, delay_factors,
        )
        return (taker, r_sp, s_sp, c_sp, m_lane, tile_factors,
                delay_factors, bank_factors, spatial_cum, gb_factors)

    # The buffer tile floor includes the whole resident pixel sweep
    # (delay x bank); when even fully shrunk GB loops cannot fit it,
    # retry with a smaller sweep — fewer resident rows, more weight
    # refetch — until the tile fits (q_cap = hold = 1 always does:
    # the floor is then the spatial tile, which any buffer sized for
    # the array holds).
    q_cap, hold_budget = layer.q, config.hold_cycles
    for _ in range(64):
        (taker, r_sp, s_sp, c_sp, m_lane, tile_factors, delay_factors,
         bank_factors, spatial_cum, gb_factors) = build(q_cap, hold_budget)
        bounds = combined_bounds(taker.dims, gb_factors, spatial_cum,
                                 bank_factors, delay_factors)
        if tile_occupancy_bits(layer, bounds) <= capacity:
            break
        if hold_budget > 1:
            hold_budget = max(1, hold_budget // 4)
        elif q_cap > 1:
            q_cap = max(1, q_cap // 4)
        else:
            break
    dram_factors = taker.residual_after(gb_factors)

    inner_levels = (
        LevelMapping("GlobalBuffer", temporal_loops(gb_factors, GB_ORDER)),
        LevelMapping("RingBank",
                     temporal_loops(bank_factors, (Dim.N, Dim.P, Dim.Q))),
        LevelMapping("DelayLine", temporal_loops(delay_factors, (Dim.Q,))),
        LevelMapping("AEIntegrator", ()),
    )
    spatials = (
        FanoutMapping("tiles", tile_factors),
        FanoutMapping("output_lanes", {Dim.M: m_lane} if m_lane > 1 else {}),
        FanoutMapping("delay_taps",
                      {d: f for d, f in ((Dim.R, r_sp), (Dim.S, s_sp))
                       if f > 1}),
        FanoutMapping("wavelengths", {Dim.C: c_sp} if c_sp > 1 else {}),
    )
    return spatials, dram_factors, inner_levels


def _wdm_delay_assemble(layer: ConvLayer, pieces: Tuple,
                        dram_protects: str) -> Mapping:
    """Attach the DRAM permutation to the shared mapping pieces."""
    spatials, dram_factors, inner_levels = pieces
    dram_level = LevelMapping(
        "DRAM",
        temporal_loops(dram_factors,
                       dram_order_protecting(layer, dram_protects)))
    return Mapping(levels=(dram_level,) + inner_levels, spatials=spatials)


def wdm_delay_mapping_candidates(config: WdmDelayConfig,
                                 layer: ConvLayer) -> List[Mapping]:
    """The reference-mapping variants worth pricing for one layer:
    padded-vs-exact wavelength splits crossed with the DRAM protection
    choice.  The exact split is built only when it takes another
    wavelength factor, and each split is assembled once per distinct DRAM
    loop nest.  The 34 ResNet18/AlexNet/LeNet-5 layers at 1 and 2 MiB (68
    pairs) give 73 mappings: 1-2 per pair of the 6 combinations."""
    candidates: List[Mapping] = []
    channel_factors = set()
    for channel_mode in ("fill", "divisor"):
        c_sp = FactorTaker(layer).take(Dim.C, config.wavelengths,
                                       mode=channel_mode)
        if c_sp in channel_factors:
            continue
        channel_factors.add(c_sp)
        pieces = _wdm_delay_mapping_pieces(config, layer, channel_mode)
        candidates.extend(
            _wdm_delay_assemble(layer, pieces, dram_protects)
            for dram_protects in distinct_dram_protections(layer,
                                                           pieces[1]))
    return candidates


# ---------------------------------------------------------------------------
# The bundled system
# ---------------------------------------------------------------------------


class WdmDelaySystem(PhotonicSystem):
    """The WDM delay-buffer accelerator ready to evaluate.

    Entirely inherited machinery (see
    :class:`~repro.systems.base.PhotonicSystem`): this class is nothing
    but the structural hooks — the proof that onboarding a new photonic
    accelerator is a config + architecture + reference mapping, not a
    re-implementation of the pipeline.
    """

    name = "wdm_delay"
    config_type = WdmDelayConfig
    build_architecture = staticmethod(build_wdm_delay_architecture)
    build_energy_table = staticmethod(build_wdm_delay_energy_table)

    def constraints(self, layer: ConvLayer) -> MappingConstraints:
        return wdm_delay_constraints(self.config)

    def mapping_candidates(self, layer: ConvLayer) -> List[Mapping]:
        return wdm_delay_mapping_candidates(self.config, layer)


# ---------------------------------------------------------------------------
# Registry entry
# ---------------------------------------------------------------------------


def wdm_delay_default_sweep() -> List[WdmDelayConfig]:
    """The ``repro sweep --system wdm_delay`` grid: 2 scenarios x 3 tile
    counts x 2 lane counts x 2 wavelength counts = 24 configurations."""
    configs = []
    for scenario in (CONSERVATIVE, AGGRESSIVE):
        for tiles in (4, 8, 16):
            for output_lanes in (8, 16):
                for wavelengths in (4, 8):
                    configs.append(WdmDelayConfig(
                        scenario=scenario,
                        tiles=tiles,
                        output_lanes=output_lanes,
                        wavelengths=wavelengths,
                    ))
    return configs


register_system(SystemEntry(
    name="wdm_delay",
    config_type=WdmDelayConfig,
    system_type=WdmDelaySystem,
    build_architecture=build_wdm_delay_architecture,
    build_energy_table=build_wdm_delay_energy_table,
    buckets=WDM_DELAY_BUCKETS,
    description=("WDM delay-buffer photonic CNN accelerator "
                 "(Xu et al., 2019 class): weight-stationary ring banks, "
                 "per-wavelength input channels, kernel window built in "
                 "time by spiral delay lines"),
    default_sweep=wdm_delay_default_sweep,
    sweep_columns=(
        ("scaling", lambda config: config.scenario.name),
        ("tiles", lambda config: config.tiles),
        ("lanes", lambda config: config.output_lanes),
        ("WDM", lambda config: config.wavelengths),
    ),
))
