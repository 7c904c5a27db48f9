"""The Albireo photonic CNN accelerator model.

Albireo (Shiflett et al., ISCA 2021) is the system the ISPASS'24 paper
models.  Following the paper's Fig. 1, data moves:

* **Weights**: DRAM -> global buffer (DE) -> DAC (DE/AE) -> microring
  drive (AE/AO); one drive line can bias ``weight_lanes`` rings in parallel
  pixel lanes (the paper's "More Weight Reuse" variant raises this).
* **Inputs**: DRAM -> global buffer -> DAC -> Mach-Zehnder modulator
  (AE/AO) -> star coupler broadcasting to ``star_ports`` lanes (the IR
  input-reuse factor).
* **Outputs**: optical products sum over ``wavelengths`` at each photodiode
  (AO/AE); an AE summation/integration stage merges ``output_reuse`` (OR)
  partials per ADC conversion (AE/DE); results return to the global buffer
  and DRAM.

The spatial organization is ``clusters x weight_lanes x star_ports x
(window sites) x wavelengths`` MACs per cycle; the default configuration
(16 x 1 x 9 x 9 x 5 = 6480 at 5 GHz) matches the ideal-throughput bar of
the paper's Fig. 3.  A 3x3 locally-connected window-site array handles
unstrided convolutions natively; strided layers can only use one site per
strided axis and fully-connected layers use a single site — the two
under-utilization mechanisms the paper demonstrates on AlexNet.

Every number that parameterizes devices lives in
:class:`~repro.energy.scaling.ScalingScenario`; this module contributes the
*structure* (where converters sit relative to reuse fanouts), which is what
determines how many conversions a mapping implies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

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
from repro.mapping.factorization import largest_divisor_at_most
from repro.mapping.mapping import FanoutMapping, LevelMapping, Mapping
from repro.model.buckets import BucketScheme, component_rule
from repro.systems.base import PhotonicSystem
from repro.systems.refmap import (
    GB_ORDER,
    FactorTaker,
    distinct_dram_protections,
    dram_order_protecting,
    shrink_to_fit,
    temporal_loops,
)
from repro.systems.registry import SystemEntry, register_system
from repro.units import KIBIBYTE
from repro.workloads.dataspace import DataSpace
from repro.workloads.dims import Dim
from repro.workloads.layer import ConvLayer


@dataclass(frozen=True)
class AlbireoConfig:
    """Parameters of one Albireo instance.

    Defaults model the baseline ("Original") configuration; the paper's
    exploration axes are ``scenario`` (Fig. 2/4), ``star_ports`` (IR),
    ``output_reuse`` (OR), ``weight_lanes`` (WR, the "More Weight Reuse"
    variant) for Fig. 5, and ``global_buffer_kib`` for fusion (Fig. 4).
    """

    scenario: ScalingScenario = CONSERVATIVE
    clusters: int = 16
    star_ports: int = 9
    window_sites_per_axis: int = 3
    wavelengths: int = 5
    weight_lanes: int = 1
    output_reuse: int = 3
    clock_ghz: float = 5.0
    global_buffer_kib: int = 1024
    global_buffer_banks: int = 16
    dram_technology: str = "ddr4"
    #: Off-chip memory bandwidth in gigabytes per second; None models the
    #: paper's Fig. 3 convention (compute-limited throughput only).
    dram_bandwidth_gbps: Optional[float] = None
    #: Attach DRAM over digital-optical (DO) links instead of an electrical
    #: DDR interface — the TPU-v4-style option the paper mentions.  The
    #: DRAM core then costs ``OPTICAL_IO_DRAM_CORE_PJ_PER_BIT`` and each
    #: crossing pays transmitter + receiver link energy.
    optical_dram_io: bool = False
    bits: int = 8

    def __post_init__(self) -> None:
        for name in ("clusters", "star_ports", "window_sites_per_axis",
                     "wavelengths", "weight_lanes", "output_reuse",
                     "global_buffer_kib", "global_buffer_banks", "bits"):
            if getattr(self, name) < 1:
                raise SpecError(f"AlbireoConfig.{name} must be >= 1")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def window_sites(self) -> int:
        return self.window_sites_per_axis ** 2

    @property
    def peak_macs_per_cycle(self) -> int:
        return (self.clusters * self.weight_lanes * self.star_ports
                * self.window_sites * self.wavelengths)

    @property
    def or_spatial(self) -> int:
        """Spatial share of OR: AE summation fan-in after the photodiodes.

        The largest divisor of ``output_reuse`` that the window-site array
        can supply; the remainder is temporal integration depth.
        """
        return largest_divisor_at_most(self.output_reuse, self.window_sites)

    @property
    def or_temporal(self) -> int:
        """Temporal share of OR: analog integration depth before the ADC."""
        return self.output_reuse // self.or_spatial

    @property
    def global_buffer_bits(self) -> float:
        return float(self.global_buffer_kib * KIBIBYTE)

    @property
    def dram_bandwidth_bits_per_cycle(self) -> Optional[float]:
        """DRAM bandwidth in bits per accelerator cycle (None = unbounded)."""
        if self.dram_bandwidth_gbps is None:
            return None
        bits_per_ns = self.dram_bandwidth_gbps * 8.0  # GB/s == bits/ns * 8
        return bits_per_ns / self.clock_ghz

    def with_scenario(self, scenario: ScalingScenario) -> "AlbireoConfig":
        return replace(self, scenario=scenario)

    def describe(self) -> str:
        return (
            f"Albireo[{self.scenario.name}] {self.clusters} clusters x "
            f"{self.weight_lanes} lanes x IR={self.star_ports} x "
            f"{self.window_sites} sites x {self.wavelengths} wavelengths "
            f"= {self.peak_macs_per_cycle} MACs/cycle @ {self.clock_ghz:g} "
            f"GHz; OR={self.output_reuse}, GB={self.global_buffer_kib} KiB"
        )


# ---------------------------------------------------------------------------
# Architecture
# ---------------------------------------------------------------------------

_W = DataSpace.WEIGHTS
_I = DataSpace.INPUTS
_O = DataSpace.OUTPUTS

#: DRAM core energy (pJ/bit) when the DDR electrical interface is replaced
#: by optical I/O — roughly the array + minimal-interface share of a DDR4
#: access.
OPTICAL_IO_DRAM_CORE_PJ_PER_BIT = 6.0
#: Per-bit energy of each optical link endpoint (co-packaged optics).
OPTICAL_LINK_TX_PJ_PER_BIT = 1.2
OPTICAL_LINK_RX_PJ_PER_BIT = 0.8


def _optical_io_stages() -> Tuple[ConverterStage, ...]:
    """DO-link converter stages between DRAM and the global buffer."""
    return (
        ConverterStage(
            name="DramLinkTx", component="dram_link_tx",
            conversion=Conversion(Domain.DE, Domain.DO),
            dataspaces={_W, _I},
        ),
        ConverterStage(
            name="DramLinkRx", component="dram_link_rx",
            conversion=Conversion(Domain.DO, Domain.DE),
            dataspaces={_W, _I},
        ),
        ConverterStage(
            name="OutputLinkTx", component="dram_link_tx_out",
            conversion=Conversion(Domain.DE, Domain.DO),
            dataspaces={_O},
        ),
        ConverterStage(
            name="OutputLinkRx", component="dram_link_rx_out",
            conversion=Conversion(Domain.DO, Domain.DE),
            dataspaces={_O},
        ),
    )


def build_albireo_architecture(config: AlbireoConfig) -> Architecture:
    """The Albireo node list; see the module docstring for the rationale."""
    nodes = (
        StorageLevel(
            name="DRAM", component="dram", domain=Domain.DE,
            dataspaces={_W, _I, _O}, capacity_bits=None,
            bandwidth_bits_per_cycle=config.dram_bandwidth_bits_per_cycle,
        ),
    )
    if config.optical_dram_io:
        nodes = nodes + _optical_io_stages()
    nodes = nodes + (
        StorageLevel(
            name="GlobalBuffer", component="global_buffer", domain=Domain.DE,
            dataspaces={_W, _I, _O}, capacity_bits=config.global_buffer_bits,
        ),
        SpatialFanout(
            name="clusters", size=config.clusters,
            allowed_dims={Dim.N, Dim.M, Dim.P, Dim.Q},
            multicast={_W, _I},
        ),
        ConverterStage(
            name="WeightDAC", component="weight_dac",
            conversion=Conversion(Domain.DE, Domain.AE), dataspaces={_W},
        ),
        ConverterStage(
            name="InputDAC", component="input_dac",
            conversion=Conversion(Domain.DE, Domain.AE), dataspaces={_I},
        ),
        ConverterStage(
            name="WeightModulator", component="weight_modulator",
            conversion=Conversion(Domain.AE, Domain.AO), dataspaces={_W},
        ),
        SpatialFanout(
            name="weight_lanes", size=config.weight_lanes,
            allowed_dims={Dim.N, Dim.P, Dim.Q},
            multicast={_W},
        ),
        ConverterStage(
            name="InputMZM", component="input_mzm",
            conversion=Conversion(Domain.AE, Domain.AO), dataspaces={_I},
        ),
        SpatialFanout(
            name="star_coupler", size=config.star_ports,
            allowed_dims={Dim.M},
            multicast={_I},
        ),
        ConverterStage(
            name="OutputADC", component="output_adc",
            conversion=Conversion(Domain.AE, Domain.DE), dataspaces={_O},
        ),
        StorageLevel(
            name="AEIntegrator", component="ae_integrator", domain=Domain.AE,
            dataspaces={_O},
            capacity_bits=float(config.bits),
            allowed_temporal_dims={Dim.C, Dim.R, Dim.S},
            max_accumulation_depth=float(config.or_temporal),
        ),
        SpatialFanout(
            name="window_sites", size=config.window_sites,
            allowed_dims={Dim.R, Dim.S},
            reduction={_O}, reduction_limit=config.or_spatial,
        ),
        ConverterStage(
            name="OutputPhotodiode", component="output_photodiode",
            conversion=Conversion(Domain.AO, Domain.AE), dataspaces={_O},
        ),
        SpatialFanout(
            name="wavelengths", size=config.wavelengths,
            allowed_dims={Dim.C},
            reduction={_O},
        ),
        ComputeLevel(
            name="PhotonicMAC", component="photonic_mac", domain=Domain.AO,
            actions=(ComputeAction(component="laser", action="mac",
                                   events_per_mac=1.0),),
        ),
    )
    return Architecture(
        name=f"albireo-{config.scenario.name}",
        nodes=nodes,
        clock_ghz=config.clock_ghz,
    )


def build_albireo_energy_table(config: AlbireoConfig) -> EnergyTable:
    """Price Albireo's components under the config's scaling scenario."""
    scenario = config.scenario
    if config.optical_dram_io:
        dram_spec = ComponentSpec("dram", "dram", {
            "pj_per_bit": OPTICAL_IO_DRAM_CORE_PJ_PER_BIT,
            "width_bits": config.bits,
        })
    else:
        dram_spec = ComponentSpec("dram", "dram", {
            "technology": config.dram_technology,
            "width_bits": config.bits,
        })
    specs = [
        dram_spec,
        ComponentSpec("global_buffer", "sram", {
            "capacity_bits": config.global_buffer_bits,
            "width_bits": config.bits,
            "banks": config.global_buffer_banks,
        }),
        ComponentSpec("weight_dac", "dac", {
            "energy_pj_at_8bit": scenario.dac_pj_at_8bit,
            "bits": config.bits,
        }),
        ComponentSpec("input_dac", "dac", {
            "energy_pj_at_8bit": scenario.dac_pj_at_8bit,
            "bits": config.bits,
        }),
        ComponentSpec("weight_modulator", "mrr", {
            "energy_pj": scenario.mrr_drive_pj,
            "shared_lanes": config.weight_lanes,
        }),
        ComponentSpec("input_mzm", "mzm", {
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
            "broadcast_ports": config.star_ports,
        }),
        ComponentSpec("photonic_mac", "constant", {
            "energy_pj": 0.0,
            "actions": ("compute", "mac"),
        }),
        # Passive optics, priced for area accounting only.
        ComponentSpec("star_coupler", "star_coupler", {
            "ports": config.star_ports,
        }),
    ]
    if config.optical_dram_io:
        for name, per_bit in (
                ("dram_link_tx", OPTICAL_LINK_TX_PJ_PER_BIT),
                ("dram_link_rx", OPTICAL_LINK_RX_PJ_PER_BIT),
                ("dram_link_tx_out", OPTICAL_LINK_TX_PJ_PER_BIT),
                ("dram_link_rx_out", OPTICAL_LINK_RX_PJ_PER_BIT)):
            specs.append(ComponentSpec(name, "optical_link", {
                "energy_pj_per_bit": per_bit,
                "width_bits": config.bits,
            }))
    return build_table(specs)


# ---------------------------------------------------------------------------
# Figure bucket schemes
# ---------------------------------------------------------------------------

#: Fig. 2 component view: MRR, MZM, Laser, AO/AE, DE/AE, AE/DE, Cache.
FIG2_BUCKETS = BucketScheme(
    name="fig2",
    rules=(
        component_rule("WeightModulator", "MRR"),
        component_rule("InputMZM", "MZM"),
        component_rule("laser", "Laser"),
        component_rule("OutputPhotodiode", "AO/AE"),
        component_rule("WeightDAC", "DE/AE"),
        component_rule("InputDAC", "DE/AE"),
        component_rule("OutputADC", "AE/DE"),
        component_rule("GlobalBuffer", "Cache"),
        component_rule("DRAM", "DRAM"),
        component_rule("DramLinkTx", "DRAM"),
        component_rule("DramLinkRx", "DRAM"),
        component_rule("OutputLinkTx", "DRAM"),
        component_rule("OutputLinkRx", "DRAM"),
    ),
    default="Other",
    order=("MRR", "MZM", "Laser", "AO/AE", "DE/AE", "AE/DE", "Cache",
           "DRAM", "Other"),
)

#: Figs. 4-5 dataspace-conversion view.
SYSTEM_BUCKETS = BucketScheme(
    name="system",
    rules=(
        component_rule("WeightDAC", "Weight DE/AE, AE/AO"),
        component_rule("WeightModulator", "Weight DE/AE, AE/AO"),
        component_rule("InputDAC", "Input DE/AE, AE/AO"),
        component_rule("InputMZM", "Input DE/AE, AE/AO"),
        component_rule("OutputADC", "Output AO/AE, AE/DE"),
        component_rule("OutputPhotodiode", "Output AO/AE, AE/DE"),
        component_rule("laser", "Other AO"),
        component_rule("ae_integrator", "Other AO"),
        component_rule("AEIntegrator", "Other AO"),
        component_rule("GlobalBuffer", "On-Chip Buffer"),
        component_rule("DRAM", "DRAM"),
        component_rule("DramLinkTx", "DRAM"),
        component_rule("DramLinkRx", "DRAM"),
        component_rule("OutputLinkTx", "DRAM"),
        component_rule("OutputLinkRx", "DRAM"),
    ),
    default="Other AO",
    order=("Other AO", "Weight DE/AE, AE/AO", "Input DE/AE, AE/AO",
           "Output AO/AE, AE/DE", "On-Chip Buffer", "DRAM"),
)


# ---------------------------------------------------------------------------
# Constraints and the reference mapping
# ---------------------------------------------------------------------------

def albireo_constraints(config: AlbireoConfig,
                        layer: ConvLayer) -> MappingConstraints:
    """Mapping constraints for Albireo.

    The analog integrators may accumulate at most ``or_temporal`` partials;
    the window-site caps come from the architecture itself.  Strided layers
    are handled by :func:`albireo_analysis_layer` (window-discarding), not
    by constraints.
    """
    return MappingConstraints(
        storages={
            "AEIntegrator": StorageConstraint(
                max_temporal_product=config.or_temporal),
        },
    )


def albireo_analysis_layer(layer: ConvLayer) -> ConvLayer:
    """The workload Albireo physically executes for ``layer``.

    Albireo streams input rows through a locally-connected window array
    whose column taps are wired at unit pitch, so along the row it computes
    *every* contiguous window and a column-strided convolution keeps only
    one window in ``stride_w`` — the discarded windows still consume
    cycles, conversions, and laser energy.  Row strides are free: the
    streaming control simply skips emitting the intermediate window rows.
    The executed workload is therefore the layer with its Q dimension
    expanded to unit column stride.  This is the strided-convolution
    under-utilization mechanism of the paper's Fig. 3.
    """
    if layer.stride_w == 1:
        return layer
    return replace(
        layer,
        q=layer.q * layer.stride_w,
        stride_w=1,
    )


def albireo_reference_mapping(
    config: AlbireoConfig,
    layer: ConvLayer,
    channel_mode: str = "fill",
    integrator_mode: str = "divisor",
    dram_protects: str = "auto",
) -> Mapping:
    """Deterministic, capacity-aware reference mapping for one layer.

    Mirrors Albireo's natural dataflow: kernel windows on the site array,
    input channels on wavelengths, output channels across the star coupler
    and clusters, leftover output pixels across remaining clusters and
    weight lanes; reduction leftovers accumulate in the AE integrators up
    to their budget; the global buffer tiles whatever fits, DRAM iterates
    the rest with the permutation protecting the larger tensor.

    The mode arguments choose between padding-for-parallelism and exact
    divisors at the two places where the trade-off is layer-dependent:
    ``channel_mode`` for the wavelength (C) split, ``integrator_mode`` for
    the analog accumulation depth (``"off"`` disables it).
    :func:`albireo_mapping_candidates` enumerates the sensible combinations
    so a system can keep whichever prices cheapest.
    """
    allocation = _albireo_allocation(config, layer, channel_mode,
                                     integrator_mode)
    pieces = _albireo_mapping_pieces(config, layer, allocation)
    return _albireo_assemble(layer, pieces, dram_protects)


def _albireo_allocation(config: AlbireoConfig, layer: ConvLayer,
                        channel_mode: str, integrator_mode: str) -> Tuple:
    """The cheap half of the reference mapping: the greedy factor takes.
    The channel mode reaches the result only through ``c_sp`` and the
    integrator mode only through the integrator factors."""
    taker = FactorTaker(layer)

    # --- Spatial assignment, inner fanouts first -----------------------
    r_sp = taker.take(Dim.R, config.window_sites_per_axis)
    s_sp = taker.take(Dim.S, config.window_sites_per_axis)
    c_sp = taker.take(Dim.C, config.wavelengths, mode=channel_mode)
    m_star = taker.take(Dim.M, config.star_ports)
    q_lane = taker.take(Dim.Q, config.weight_lanes)

    cluster_factors = taker.take_budgeted((Dim.M, Dim.Q, Dim.P, Dim.N),
                                          config.clusters)

    # --- AE integrator accumulation up to its budget --------------------
    integrator_factors: Dict[Dim, int] = {}
    if integrator_mode != "off":
        integrator_factors = taker.take_budgeted(
            (Dim.C, Dim.R, Dim.S), config.or_temporal, mode=integrator_mode)
    return (taker, (r_sp, s_sp, c_sp, m_star, q_lane), cluster_factors,
            integrator_factors)


def _albireo_mapping_pieces(config: AlbireoConfig, layer: ConvLayer,
                            allocation: Tuple) -> Tuple:
    """The expensive half: buffer-tile shrink, residual, and the fanout
    and level objects every ``dram_protects`` variant shares."""
    (taker, (r_sp, s_sp, c_sp, m_star, q_lane), cluster_factors,
     integrator_factors) = allocation
    spatials = (
        FanoutMapping("clusters", cluster_factors),
        FanoutMapping("weight_lanes",
                      {Dim.Q: q_lane} if q_lane > 1 else {}),
        FanoutMapping("star_coupler",
                      {Dim.M: m_star} if m_star > 1 else {}),
        FanoutMapping("window_sites",
                      {d: f for d, f in ((Dim.R, r_sp), (Dim.S, s_sp))
                       if f > 1}),
        FanoutMapping("wavelengths",
                      {Dim.C: c_sp} if c_sp > 1 else {}),
    )
    spatial_cum = {
        Dim.R: r_sp, Dim.S: s_sp, Dim.C: c_sp, Dim.Q: q_lane, Dim.M: m_star,
    }
    for dim, factor in cluster_factors.items():
        spatial_cum[dim] = spatial_cum.get(dim, 1) * factor

    # --- Global-buffer tile: shrink until it fits -----------------------
    gb_factors = shrink_to_fit(
        layer, taker.dims, dict(taker.remaining),
        config.global_buffer_bits * 0.95,
        spatial_cum, integrator_factors,
    )
    dram_factors = taker.residual_after(gb_factors)

    # GB loops: reduction dims innermost so outputs finish accumulating
    # before eviction (protect outputs).
    gb_level = LevelMapping("GlobalBuffer",
                            temporal_loops(gb_factors, GB_ORDER))
    integrator_level = LevelMapping(
        "AEIntegrator",
        temporal_loops(integrator_factors, (Dim.C, Dim.R, Dim.S)))
    return spatials, dram_factors, gb_level, integrator_level


def _albireo_assemble(layer: ConvLayer, pieces: Tuple,
                      dram_protects: str) -> Mapping:
    """Attach the DRAM permutation — the loops keep the protected tensor
    resident across the other's sweep — to the shared mapping pieces."""
    spatials, dram_factors, gb_level, integrator_level = pieces
    dram_order = dram_order_protecting(layer, dram_protects)
    levels = (
        LevelMapping("DRAM", temporal_loops(dram_factors, dram_order)),
        gb_level,
        integrator_level,
    )
    return Mapping(levels=levels, spatials=spatials)


def albireo_mapping_candidates(config: AlbireoConfig,
                               layer: ConvLayer) -> List[Mapping]:
    """The reference-mapping variants worth pricing for one layer.

    Covers the layer-dependent trade-offs: padded-vs-exact wavelength
    splits, analog integration depth on/exact/full, and which tensor the
    DRAM loop order protects.  Every mode pair runs the cheap allocation;
    a pair is finished only when its (``c_sp``, integrator factors)
    decision is new, and assembled once per distinct DRAM loop nest.
    The 34 ResNet18/AlexNet/LeNet-5 layers at 1 and 2 MiB (68 pairs)
    give 124 mappings: 1-2 per pair of the 18 combinations.
    """
    candidates: List[Mapping] = []
    decisions = set()
    for channel_mode in ("fill", "divisor"):
        for integrator_mode in ("divisor", "fill", "off"):
            allocation = _albireo_allocation(config, layer, channel_mode,
                                             integrator_mode)
            _, (_, _, c_sp, _, _), _, integrator_factors = allocation
            decision = (c_sp, tuple(integrator_factors.items()))
            if decision in decisions:
                continue
            decisions.add(decision)
            pieces = _albireo_mapping_pieces(config, layer, allocation)
            candidates.extend(
                _albireo_assemble(layer, pieces, dram_protects)
                for dram_protects in distinct_dram_protections(
                    layer, pieces[1]))
    return candidates


def albireo_best_case_layer(config: Optional[AlbireoConfig] = None,
                            p: int = 32, q: int = 32) -> ConvLayer:
    """A convolution shaped to use Albireo perfectly (Fig. 2's best case).

    Output channels fill the star coupler times the clusters exactly, input
    channels are a multiple of the wavelength count, and the kernel matches
    the window-site array.
    """
    config = config or AlbireoConfig()
    sites = config.window_sites_per_axis
    return ConvLayer(
        name="albireo-best-case",
        m=config.star_ports * config.clusters,
        c=config.wavelengths * 8,
        p=p, q=q, r=sites, s=sites,
        bits_per_weight=config.bits, bits_per_activation=config.bits,
    )


# ---------------------------------------------------------------------------
# The bundled system
# ---------------------------------------------------------------------------

class AlbireoSystem(PhotonicSystem):
    """Albireo ready to evaluate: architecture + energy table + model.

    This is the main entry point users of the library interact with::

        system = AlbireoSystem(AlbireoConfig(scenario=AGGRESSIVE))
        result = system.evaluate_layer(layer)
        print(result.energy.describe(SYSTEM_BUCKETS))

    All shared machinery — the reference-mapping candidate pricing, the
    mapper-search and layer-evaluation ``store`` seam the sweep engine
    memoizes through, fusion-aware network evaluation — lives in
    :class:`~repro.systems.base.PhotonicSystem`; this class contributes
    Albireo's structure and its strided-convolution window expansion.
    """

    name = "albireo"
    config_type = AlbireoConfig
    build_architecture = staticmethod(build_albireo_architecture)
    build_energy_table = staticmethod(build_albireo_energy_table)

    def analysis_layer(self, layer: ConvLayer) -> ConvLayer:
        """The unit-stride workload Albireo physically executes."""
        return albireo_analysis_layer(layer)

    def constraints(self, layer: ConvLayer) -> MappingConstraints:
        return albireo_constraints(self.config, layer)

    def mapping_candidates(self, layer: ConvLayer) -> List[Mapping]:
        return albireo_mapping_candidates(self.config, layer)


# ---------------------------------------------------------------------------
# Registry entry
# ---------------------------------------------------------------------------

def albireo_default_sweep() -> List[AlbireoConfig]:
    """The ``repro sweep --system albireo`` grid: 2 scenarios x 3 cluster
    counts x 2 output-reuse x 2 input-reuse settings = 24 configurations."""
    configs = []
    for scenario in (CONSERVATIVE, AGGRESSIVE):
        for clusters in (8, 16, 32):
            for output_reuse in (3, 9):
                for input_reuse in (9, 27):
                    configs.append(replace(
                        AlbireoConfig(scenario=scenario),
                        clusters=clusters,
                        output_reuse=output_reuse,
                        star_ports=input_reuse,
                    ))
    return configs


register_system(SystemEntry(
    name="albireo",
    config_type=AlbireoConfig,
    system_type=AlbireoSystem,
    build_architecture=build_albireo_architecture,
    build_energy_table=build_albireo_energy_table,
    buckets=SYSTEM_BUCKETS,
    description=("Albireo silicon-photonic CNN accelerator "
                 "(Shiflett et al., ISCA 2021): streamed weights, "
                 "star-coupler input broadcast, locally-connected "
                 "window-site array"),
    default_sweep=albireo_default_sweep,
    sweep_columns=(
        ("scaling", lambda config: config.scenario.name),
        ("clusters", lambda config: config.clusters),
        ("OR", lambda config: config.output_reuse),
        ("IR", lambda config: config.star_ports),
    ),
))
