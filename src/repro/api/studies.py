"""Prebuilt studies for the paper's explorations.

Each builder returns an un-run :class:`~repro.api.study.Study`; the
figure experiments (:mod:`repro.experiments`) run them and read the
returned :class:`~repro.api.results.ResultSet`.  Callers pick the
execution knobs at :meth:`~repro.api.study.Study.run` time.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Iterable, Optional, Sequence, Tuple

from repro.api.study import Study, StudyPoint
from repro.systems.albireo import albireo_best_case_layer
from repro.workloads.network import Network


def next_power_of_two_kib(bits: float) -> int:
    """Smallest power-of-two KiB capacity holding ``bits``.

    Uses ceiling division: a footprint just above a KiB boundary rounds
    *up*, so an auto-sized fused buffer is never smaller than the
    resident tensors it must hold.

    >>> next_power_of_two_kib(8192)
    1
    >>> next_power_of_two_kib(8193)
    2
    >>> next_power_of_two_kib(3 * 8192)
    4
    """
    kib = max(1, math.ceil(bits / 8192))
    power = 1
    while power < kib:
        power *= 2
    return power


def best_case_study(config: Any, scenarios: Sequence[Any]) -> Study:
    """Fig. 2's best-case Albireo layer as a one-layer network, under
    each scaling scenario and the default options (the lattice of the
    Fig. 2 validation, the sensitivity analysis and the calibration
    round trip).  The points differ only in scenario, so a run analyzes
    the layer once and prices it per scenario."""
    layer = albireo_best_case_layer(config)
    return (Study("best-case")
            .configs(config)
            .networks(Network.from_layers(layer.name, [layer]))
            .scenarios(*scenarios))


def memory_study(
    network: Network,
    base_config: Any,
    scenarios: Sequence[Any],
    batch_sizes: Sequence[int] = (1, 8),
    fusion_options: Sequence[bool] = (False, True),
    fused_buffer_kib: Optional[int] = None,
    use_mapper: bool = False,
) -> Study:
    """The Fig. 4 memory-system lattice: scaling x fusion x batching.

    Fused points auto-size the global buffer to the largest resident
    activation footprint (power-of-two KiB with weight-tile headroom)
    unless ``fused_buffer_kib`` overrides it; bank size is held constant
    so larger buffers pay the SRAM model's H-tree growth term.
    """

    def size_fused_buffer(config: Any, point: StudyPoint) -> Any:
        if not point.fused:
            return config
        required_kib = fused_buffer_kib
        if required_kib is None:
            required_bits = point.network.max_activation_bits \
                * 1.25  # weight-tile headroom
            required_kib = next_power_of_two_kib(required_bits)
        buffer_kib = max(config.global_buffer_kib, required_kib)
        bank_kib = (config.global_buffer_kib
                    // config.global_buffer_banks)
        return replace(
            config,
            global_buffer_kib=buffer_kib,
            global_buffer_banks=max(config.global_buffer_banks,
                                    buffer_kib // bank_kib))

    return (Study("memory-exploration")
            .configs(base_config)
            .networks(network)
            .scenarios(*scenarios)
            .fusion(*fusion_options)
            .batches(*batch_sizes)
            .options(use_mapper=use_mapper, include_dram=True)
            .transform(size_fused_buffer))


def reuse_study(
    network: Network,
    base_config: Any,
    output_reuse_values: Sequence[int] = (3, 9, 15),
    input_reuse_values: Sequence[int] = (9, 27, 45),
    weight_lane_variants: Sequence[Tuple[str, int]] = (
        ("Original", 1), ("More Weight Reuse", 3),
    ),
    include_dram: bool = False,
    use_mapper: bool = False,
) -> Study:
    """The Fig. 5 reuse lattice as explicit tagged configs.

    Raising IR multiplies the broadcast width, so cluster count scales
    down to hold the MAC budget roughly constant — the paper explores
    re-wirings of the same silicon, not larger chips.
    """
    tagged = []
    for variant_name, weight_lanes in weight_lane_variants:
        for input_reuse in input_reuse_values:
            for output_reuse in output_reuse_values:
                lane_scale = (input_reuse // base_config.star_ports) \
                    * weight_lanes
                clusters = max(1, base_config.clusters // lane_scale)
                config = replace(
                    base_config,
                    star_ports=input_reuse,
                    output_reuse=output_reuse,
                    weight_lanes=weight_lanes,
                    clusters=clusters,
                )
                tagged.append((config, {
                    "variant": variant_name,
                    "output_reuse": output_reuse,
                    "input_reuse": input_reuse,
                    "weight_lanes": weight_lanes,
                }))
    return (Study("reuse-exploration")
            .configs(*tagged)
            .networks(network)
            .options(use_mapper=use_mapper, include_dram=include_dram))


def config_study(
    network: Network,
    configs: Iterable[Any],
    use_mapper: bool = False,
) -> Study:
    """One point per explicit configuration (the generic DSE driver);
    configs may belong to any mix of registered systems."""
    tagged = [(config, {"index": index})
              for index, config in enumerate(configs)]
    return (Study("config-sweep")
            .configs(*tagged)
            .networks(network)
            .options(use_mapper=use_mapper))


def comparison_study(
    networks: Sequence[Network],
    systems: Sequence[str],
    scenario: Any,
    use_mapper: bool = False,
) -> Study:
    """Every requested system's default config over every workload under
    one scaling scenario (the cross-system comparison experiment)."""
    return (Study("system-comparison")
            .systems(*systems)
            .networks(*networks)
            .scenarios(scenario)
            .options(use_mapper=use_mapper))
