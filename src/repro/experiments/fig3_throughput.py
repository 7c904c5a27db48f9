"""Fig. 3 — throughput for VGG16 and AlexNet.

Compares three series per network: *ideal* (100% compute utilization),
*reported* (Albireo's near-ideal published numbers), and *modeled* (this
tool, capturing under-utilization).  The paper's finding: VGG16 runs near
ideal, while AlexNet's fully-connected and strided convolutional layers
severely under-utilize Albireo's compute units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.study import Study
from repro.experiments.reported import FIG3_CLAIMS, FIG3_REPORTED
from repro.model.results import NetworkEvaluation
from repro.report.ascii import bar, format_table
from repro.systems.albireo import AlbireoConfig
from repro.workloads.models import alexnet, vgg16
from repro.workloads.network import Network


@dataclass(frozen=True)
class NetworkThroughput:
    """Ideal / reported / modeled MACs-per-cycle for one network."""

    network: str
    ideal: float
    reported: float
    modeled: float
    evaluation: NetworkEvaluation

    @property
    def modeled_over_ideal(self) -> float:
        return self.modeled / self.ideal

    @property
    def modeled_over_reported(self) -> float:
        return self.modeled / self.reported


@dataclass(frozen=True)
class Fig3Result:
    throughputs: Tuple[NetworkThroughput, ...]

    def for_network(self, name: str) -> NetworkThroughput:
        for throughput in self.throughputs:
            if throughput.network == name:
                return throughput
        raise KeyError(name)

    @property
    def meets_paper_claims(self) -> bool:
        """VGG16 near ideal; AlexNet far below reported."""
        vgg = self.for_network("VGG16")
        alex = self.for_network("AlexNet")
        return (
            vgg.modeled_over_ideal
            >= FIG3_CLAIMS["vgg16_modeled_over_ideal_min"]
            and alex.modeled_over_reported
            <= FIG3_CLAIMS["alexnet_modeled_over_reported_max"]
        )

    def table(self) -> str:
        maximum = max(t.ideal for t in self.throughputs)
        rows: List[Tuple] = []
        chart_lines: List[str] = []
        for throughput in self.throughputs:
            rows.append((
                throughput.network,
                round(throughput.ideal),
                round(throughput.reported),
                round(throughput.modeled),
                f"{throughput.modeled_over_ideal:.0%}",
            ))
            for label, value in (("ideal", throughput.ideal),
                                 ("reported", throughput.reported),
                                 ("modeled", throughput.modeled)):
                chart_lines.append(
                    f"{throughput.network:8s} {label:9s} "
                    f"|{bar(value, maximum, 44):44s}| {value:6.0f}"
                )
        table = format_table(
            ("network", "ideal", "reported(paper)", "modeled(this tool)",
             "modeled/ideal"),
            rows, align_right=[False, True, True, True, True])
        per_layer = []
        for throughput in self.throughputs:
            per_layer.append(f"\n{throughput.network} per-layer:")
            for evaluation, count in throughput.evaluation.layers:
                prefix = f"  x{count}" if count > 1 else "    "
                per_layer.append(
                    f"{prefix} {evaluation.layer.name:22s} "
                    f"{evaluation.macs_per_cycle:7.0f} MACs/cycle "
                    f"(util {evaluation.utilization:5.1%})"
                )
        return (
            "Fig. 3 — Throughput (MACs/cycle)\n"
            + table + "\n\n" + "\n".join(chart_lines)
            + "\n" + "\n".join(per_layer)
        )


def run(
    networks: Optional[Tuple[Network, ...]] = None,
    config: Optional[AlbireoConfig] = None,
    use_mapper: bool = False,
) -> Fig3Result:
    """Evaluate throughput for the paper's two networks (or custom ones).

    One study over every network, so same-shape layers (VGG16's and
    AlexNet's fc layers) are evaluated, or searched, once."""
    config = config or AlbireoConfig()
    networks = networks or (vgg16(), alexnet())
    results = (Study("throughput").configs(config).networks(*networks)
               .options(use_mapper=use_mapper).run())
    throughputs = []
    for network, record in zip(networks, results):
        reported = FIG3_REPORTED.get(network.name, {})
        throughputs.append(NetworkThroughput(
            network=network.name,
            ideal=float(reported.get("ideal", config.peak_macs_per_cycle)),
            reported=float(reported.get("reported",
                                        config.peak_macs_per_cycle)),
            modeled=record.evaluation.macs_per_cycle,
            evaluation=record.evaluation,
        ))
    return Fig3Result(throughputs=tuple(throughputs))
