"""Energy tables: the priced component library an architecture evaluates with.

An :class:`EnergyEntry` records what one component costs per action (in pJ),
its area (um^2), and its static power (mW).  An :class:`EnergyTable` maps
component names to entries and is the only interface the evaluation engine
uses — it never talks to estimators directly, so tables can equally come
from the plug-in estimators, from measurement data, or from hand calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from repro.exceptions import EstimationError


@dataclass(frozen=True)
class EnergyEntry:
    """Per-action energies and physical costs of one component instance."""

    component: str
    energy_per_action_pj: Mapping[str, float]
    area_um2: float = 0.0
    static_power_mw: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "energy_per_action_pj", dict(self.energy_per_action_pj)
        )
        for action, energy in self.energy_per_action_pj.items():
            if energy < 0:
                raise EstimationError(
                    f"component {self.component!r}: action {action!r} has "
                    f"negative energy {energy}"
                )
        if self.area_um2 < 0 or self.static_power_mw < 0:
            raise EstimationError(
                f"component {self.component!r}: area and static power must "
                f"be non-negative"
            )

    def energy(self, action: str) -> float:
        """Energy in pJ for one occurrence of ``action``."""
        try:
            return self.energy_per_action_pj[action]
        except KeyError:
            raise EstimationError(
                f"component {self.component!r} has no action {action!r}; "
                f"available: {sorted(self.energy_per_action_pj)}"
            ) from None

    @property
    def actions(self) -> Iterable[str]:
        return self.energy_per_action_pj.keys()


class EnergyTable:
    """A named collection of :class:`EnergyEntry` objects."""

    def __init__(self, entries: Iterable[EnergyEntry] = ()) -> None:
        self._entries: Dict[str, EnergyEntry] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: EnergyEntry) -> None:
        if entry.component in self._entries:
            raise EstimationError(
                f"duplicate energy entry for component {entry.component!r}"
            )
        self._entries[entry.component] = entry

    def replace(self, entry: EnergyEntry) -> None:
        """Add or overwrite the entry for ``entry.component``.

        Do this before any model built on the table prices anything: an
        :class:`~repro.model.accelerator.AcceleratorModel` keeps the
        energies it read first and ignores a later overwrite.
        """
        self._entries[entry.component] = entry

    def __contains__(self, component: str) -> bool:
        return component in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def entry(self, component: str) -> EnergyEntry:
        try:
            return self._entries[component]
        except KeyError:
            raise EstimationError(
                f"no energy entry for component {component!r}; known "
                f"components: {sorted(self._entries)}"
            ) from None

    def energy(self, component: str, action: str) -> float:
        """Energy in pJ for one ``action`` of ``component``."""
        return self.entry(component).energy(action)

    def area(self, component: str) -> float:
        return self.entry(component).area_um2

    def total_area_um2(self, counts: Mapping[str, float]) -> float:
        """Total area given instance counts per component."""
        return sum(
            self.entry(component).area_um2 * count
            for component, count in counts.items()
        )

    def describe(self) -> str:
        """Aligned multi-line rendering of the table."""
        lines = [f"{'component':24s} {'action':12s} {'energy':>12s} "
                 f"{'area um^2':>10s}"]
        for entry in sorted(self._entries.values(), key=lambda e: e.component):
            for action, energy in sorted(entry.energy_per_action_pj.items()):
                lines.append(
                    f"{entry.component:24s} {action:12s} {energy:12.6f} "
                    f"{entry.area_um2:10.1f}"
                )
        return "\n".join(lines)
