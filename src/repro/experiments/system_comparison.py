"""Cross-system comparison over every registered photonic accelerator.

The paper's stated third use case for the modeling tool: "compare
photonic systems across a range of DNN workloads."  This experiment runs
the registered systems (resolved through
:mod:`repro.systems.registry` — by default all of them) over the
workload suite with one shared component library, so every difference
traces to *architecture* — where the converters sit relative to the
reuse structures — rather than device assumptions.

The expected (and reproduced) contrasts:

* analog weight banks (crossbar, WDM delay-buffer) all but eliminate
  weight-conversion energy, where streamed-weight Albireo pays per MAC;
* Albireo's locally-connected window fabric wins utilization on unstrided
  3x3 convolutions; the crossbar wins on fully-connected layers, which
  leave 8 of 9 Albireo window sites dark;
* all are at the mercy of DRAM for batch-1 FC weights — architecture
  cannot amortize single-use data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.studies import comparison_study
from repro.energy.scaling import AGGRESSIVE, ScalingScenario
from repro.model.results import NetworkEvaluation
from repro.report.ascii import format_table
from repro.systems.registry import get_system, system_names
from repro.workloads.models import alexnet, resnet18, vgg16
from repro.workloads.network import Network


@dataclass(frozen=True)
class SystemComparisonRow:
    """One (system, network) evaluation."""

    system: str
    network: str
    evaluation: NetworkEvaluation
    weight_conversion_pj_per_mac: float

    @property
    def energy_per_mac_pj(self) -> float:
        return self.evaluation.energy_per_mac_pj

    @property
    def macs_per_cycle(self) -> float:
        return self.evaluation.macs_per_cycle

    @property
    def utilization(self) -> float:
        return self.evaluation.utilization


@dataclass(frozen=True)
class ComparisonResult:
    rows: Tuple[SystemComparisonRow, ...]

    def row(self, system: str, network: str) -> SystemComparisonRow:
        for row in self.rows:
            if row.system == system and row.network == network:
                return row
        raise KeyError((system, network))

    @property
    def systems(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for row in self.rows:
            if row.system not in seen:
                seen.append(row.system)
        return tuple(seen)

    @property
    def expected_contrasts_hold(self) -> bool:
        """The architecture-level contrasts described above: every
        weight-stationary system beats streamed-weight Albireo's
        weight-conversion energy by at least 4x (checked for whichever
        systems are present)."""
        stationary = [name for name in self.systems
                      if name in ("crossbar", "wdm_delay")]
        if "albireo" not in self.systems or not stationary:
            return True
        checks = []
        for network in {row.network for row in self.rows}:
            albireo = self.row("albireo", network)
            for name in stationary:
                other = self.row(name, network)
                checks.append(other.weight_conversion_pj_per_mac
                              < 0.25 * albireo.weight_conversion_pj_per_mac)
        return all(checks)

    def to_records(self) -> List[Dict[str, Any]]:
        """Flat rows (for ``repro compare --json`` and downstream tools)."""
        return [
            {
                "system": row.system,
                "network": row.network,
                "energy_per_mac_pj": row.energy_per_mac_pj,
                "weight_conversion_pj_per_mac":
                    row.weight_conversion_pj_per_mac,
                "macs_per_cycle": row.macs_per_cycle,
                "utilization": row.utilization,
            }
            for row in self.rows
        ]

    def table(self) -> str:
        rows = []
        for row in self.rows:
            rows.append((
                row.network, row.system,
                f"{row.energy_per_mac_pj:.4f}",
                f"{row.weight_conversion_pj_per_mac:.4f}",
                f"{row.macs_per_cycle:.0f}",
                f"{row.utilization:.0%}",
            ))
        return (
            "System comparison (shared component library, aggressive "
            "scaling)\n"
            + format_table(
                ("network", "system", "pJ/MAC", "weight-conv pJ/MAC",
                 "MACs/cycle", "util"),
                rows,
                align_right=[False, False, True, True, True, True])
        )


def run(
    networks: Optional[Sequence[Network]] = None,
    scenario: ScalingScenario = AGGRESSIVE,
    use_mapper: bool = False,
    systems: Optional[Sequence[str]] = None,
    workers: int = 1,
    cache=None,
) -> ComparisonResult:
    """Compare ``systems`` (registry names; default: every registered
    system) over ``networks`` under one scaling scenario.

    A thin shell over :func:`repro.api.studies.comparison_study`, so the
    comparison gains ``workers``/``cache`` (the engine's pool and
    persistent memoization) for free; rows keep the historical
    network-major order.
    """
    networks = networks or (resnet18(), vgg16(), alexnet())
    names = list(systems) if systems else system_names()
    study = comparison_study(networks, names, scenario,
                             use_mapper=use_mapper)
    results = study.run(workers=workers, cache=cache)
    # Records arrive in the study's lattice order — system-major,
    # network-inner — while rows keep the historical network-major order.
    # Positional indexing (rather than tag lookup) pairs every record
    # with its (system, network) even when names repeat in either list.
    rows: List[SystemComparisonRow] = []
    for network_index, network in enumerate(networks):
        for system_index, name in enumerate(names):
            record = results[system_index * len(networks) + network_index]
            assert record.tags["system"] == name, record.tags
            evaluation = record.evaluation
            grouped = evaluation.total_energy.per_mac(
                evaluation.total_macs).grouped(get_system(name).buckets)
            rows.append(SystemComparisonRow(
                system=name,
                network=network.name,
                evaluation=evaluation,
                weight_conversion_pj_per_mac=grouped.get(
                    "Weight DE/AE, AE/AO", 0.0),
            ))
    return ComparisonResult(rows=tuple(rows))
