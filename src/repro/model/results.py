"""Result containers: energy breakdowns and layer/network evaluations."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping as TMapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.model.buckets import BucketScheme
from repro.units import format_count, format_energy
from repro.workloads.dataspace import DataSpace
from repro.workloads.layer import ConvLayer

#: Key of one energy entry: (component instance name, dataspace or None).
EnergyKey = Tuple[str, Optional[DataSpace]]


class EnergyBreakdown:
    """Energy (pJ) attributed to (component, dataspace) pairs.

    Dataspace is ``None`` for per-compute costs (laser, MAC logic) that
    belong to no single tensor.  Breakdowns support addition and scaling so
    whole-network totals compose from per-layer results.
    """

    def __init__(self, entries: Optional[TMapping[EnergyKey, float]] = None):
        self._entries: Dict[EnergyKey, float] = dict(entries or {})

    # ------------------------------------------------------------------
    # Construction and composition
    # ------------------------------------------------------------------
    def add(self, component: str, dataspace: Optional[DataSpace],
            energy_pj: float) -> None:
        if energy_pj < 0:
            raise ValueError(
                f"negative energy for {component!r}/{dataspace}: {energy_pj}"
            )
        key = (component, dataspace)
        self._entries[key] = self._entries.get(key, 0.0) + energy_pj

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        merged = dict(self._entries)
        for key, value in other._entries.items():
            merged[key] = merged.get(key, 0.0) + value
        return EnergyBreakdown(merged)

    def __eq__(self, other: object) -> bool:
        """Equal entries in equal order: totals sum in entry order, so
        two breakdowns that differ only in order can differ in total."""
        if not isinstance(other, EnergyBreakdown):
            return NotImplemented
        return list(self._entries.items()) == list(other._entries.items())

    def scaled(self, factor: float) -> "EnergyBreakdown":
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return EnergyBreakdown(
            {key: value * factor for key, value in self._entries.items()}
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_pj(self) -> float:
        return sum(self._entries.values())

    def entries(self) -> Dict[EnergyKey, float]:
        return dict(self._entries)

    def component_total(self, component: str) -> float:
        return sum(value for (name, _), value in self._entries.items()
                   if name == component)

    def dataspace_total(self, dataspace: Optional[DataSpace]) -> float:
        return sum(value for (_, ds), value in self._entries.items()
                   if ds == dataspace)

    def grouped(self, scheme: BucketScheme) -> Dict[str, float]:
        """Sum entries into the scheme's buckets, in display order."""
        buckets: Dict[str, float] = {}
        for (component, dataspace), value in self._entries.items():
            bucket = scheme.bucket_of(component, dataspace)
            buckets[bucket] = buckets.get(bucket, 0.0) + value
        return dict(sorted(buckets.items(),
                           key=lambda item: scheme.sort_key(item[0])))

    def per_mac(self, macs: int) -> "EnergyBreakdown":
        if macs <= 0:
            raise ValueError(f"macs must be positive, got {macs}")
        return self.scaled(1.0 / macs)

    def top_contributors(self, count: int = 5) -> List[Tuple[EnergyKey, float]]:
        ranked = sorted(self._entries.items(), key=lambda item: -item[1])
        return ranked[:count]

    def describe(self, scheme: Optional[BucketScheme] = None) -> str:
        """Aligned table of the breakdown (bucketed if a scheme is given)."""
        lines = []
        total = self.total_pj
        if scheme is not None:
            rows = self.grouped(scheme).items()
            for bucket, value in rows:
                share = value / total if total else 0.0
                lines.append(f"{bucket:28s} {format_energy(value):>12s} "
                             f"{share:6.1%}")
        else:
            for (component, dataspace), value in sorted(
                    self._entries.items(), key=lambda item: -item[1]):
                label = component if dataspace is None \
                    else f"{component} [{dataspace.value}]"
                share = value / total if total else 0.0
                lines.append(f"{label:28s} {format_energy(value):>12s} "
                             f"{share:6.1%}")
        lines.append(f"{'TOTAL':28s} {format_energy(total):>12s}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LayerEvaluation:
    """Energy/performance of one layer under one mapping."""

    layer: ConvLayer
    energy: EnergyBreakdown
    #: Total cycles including memory-bandwidth stalls.
    cycles: int
    real_macs: int
    padded_macs: int
    peak_parallelism: int
    clock_ghz: float
    #: Per-storage occupancy (bits per instance), for capacity diagnostics.
    occupancy_bits: TMapping[str, float] = field(default_factory=dict)
    #: Cycles the compute alone needs (== cycles when compute-bound).
    compute_cycles: Optional[int] = None
    #: Storage level limiting throughput, or None when compute-bound.
    bandwidth_bound_level: Optional[str] = None

    @property
    def energy_pj(self) -> float:
        return self.energy.total_pj

    @property
    def energy_per_mac_pj(self) -> float:
        return self.energy.total_pj / self.real_macs

    @property
    def macs_per_cycle(self) -> float:
        return self.real_macs / self.cycles

    @property
    def utilization(self) -> float:
        """Fraction of peak compute throughput actually achieved."""
        return self.real_macs / (self.cycles * self.peak_parallelism)

    @property
    def latency_ns(self) -> float:
        return self.cycles / self.clock_ghz

    def describe(self) -> str:
        return (
            f"{self.layer.name}: {format_count(self.real_macs)} MACs, "
            f"{format_count(self.cycles)} cycles "
            f"({self.macs_per_cycle:.0f} MACs/cycle, "
            f"util {self.utilization:.1%}), "
            f"{self.energy_per_mac_pj:.3f} pJ/MAC"
        )


#: One layer's contribution to the network totals: its energy entries,
#: cycles, real MACs and repetition count.
LayerTotals = Tuple[TMapping[EnergyKey, float], int, int, int]


class NetworkTotals(NamedTuple):
    """Whole-network sums: energy per key, total energy, cycles, MACs."""

    energy: Dict[EnergyKey, float]
    energy_pj: float
    cycles: int
    macs: int

    @classmethod
    def of(cls, layers: Iterable[LayerTotals]) -> "NetworkTotals":
        """Sum the layers: each key's total is ``value * count`` added
        layer by layer, in layer order, exactly the sum of the layers'
        ``energy.scaled(count)`` breakdowns.  Float addition is not
        associative, so every form of an evaluation sums through here.

        Two passes over dense vectors: key slots by first appearance
        across the distinct entries dicts, then one vector per (dict,
        count) added per layer, so copies of one shape-keyed entry share
        theirs.  A key a layer lacks adds ``+0.0``, which changes no bit,
        as a sum from ``+0.0`` is never ``-0.0``.
        """
        layers = list(layers)
        slots: Dict[EnergyKey, int] = {}
        for entries in {id(layer[0]): layer[0] for layer in layers}.values():
            for key in entries:
                slots.setdefault(key, len(slots))
        vectors: Dict[Tuple[int, int], List[float]] = {}
        sums = [0.0] * len(slots)
        for entries, _cycles, _macs, count in layers:
            vector = vectors.get((id(entries), count))
            if vector is None:
                vector = vectors[id(entries), count] = [0.0] * len(slots)
                for key, value in entries.items():
                    vector[slots[key]] = value * count
            sums = list(map(operator.add, sums, vector))
        energy = dict(zip(slots, sums))
        cycles = sum(layer[1] * layer[3] for layer in layers)
        macs = sum(layer[2] * layer[3] for layer in layers)
        return cls(energy, sum(energy.values()), cycles, macs)


@dataclass(frozen=True)
class NetworkEvaluation:
    """Aggregate of per-layer evaluations over a whole network.

    The totals (energy breakdown, cycles, MACs) are summed in one pass the
    first time any of them is read, then kept: layer evaluations do not
    change once evaluated.  An evaluation made by :meth:`lazy` starts
    with its totals and builds ``layers`` only when it is first read.
    """

    name: str
    layers: Tuple[Tuple[LayerEvaluation, int], ...]
    clock_ghz: float
    peak_parallelism: int

    @classmethod
    def lazy(cls, name: str, clock_ghz: float, peak_parallelism: int,
             totals: NetworkTotals,
             load_layers: Callable[
                 [], Tuple[Tuple[LayerEvaluation, int], ...]],
             ) -> "NetworkEvaluation":
        """An evaluation whose ``layers`` come from ``load_layers()`` on
        first read; ``totals`` must be what those layers sum to."""
        evaluation = cls.__new__(cls)
        evaluation.__dict__.update(
            name=name, clock_ghz=clock_ghz,
            peak_parallelism=peak_parallelism,
            _totals=totals, _load_layers=load_layers)
        return evaluation

    def __getattr__(self, name: str) -> Any:
        # Only reached for attributes the instance lacks: ``layers`` of a
        # lazy evaluation before its first read.
        load = self.__dict__.get("_load_layers") if name == "layers" \
            else None
        if load is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        layers = self.__dict__["layers"] = tuple(load())
        self.__dict__.pop("_load_layers", None)
        return layers

    @cached_property
    def _totals(self) -> NetworkTotals:
        return NetworkTotals.of(
            (evaluation.energy._entries, evaluation.cycles,
             evaluation.real_macs, count)
            for evaluation, count in self.layers)

    @property
    def total_energy(self) -> EnergyBreakdown:
        return EnergyBreakdown(self._totals.energy)

    @property
    def total_cycles(self) -> int:
        return self._totals.cycles

    @property
    def total_macs(self) -> int:
        return self._totals.macs

    @property
    def energy_pj(self) -> float:
        return self._totals.energy_pj

    @property
    def energy_per_mac_pj(self) -> float:
        return self.energy_pj / self.total_macs

    @property
    def macs_per_cycle(self) -> float:
        return self.total_macs / self.total_cycles

    @property
    def utilization(self) -> float:
        return self.total_macs / (self.total_cycles * self.peak_parallelism)

    @property
    def latency_ns(self) -> float:
        return self.total_cycles / self.clock_ghz

    def describe(self) -> str:
        lines = [
            f"{self.name}: {format_count(self.total_macs)} MACs, "
            f"{self.macs_per_cycle:.0f} MACs/cycle, "
            f"{self.energy_per_mac_pj:.3f} pJ/MAC, "
            f"latency {self.latency_ns / 1e6:.3f} ms"
        ]
        for evaluation, count in self.layers:
            prefix = f"  x{count} " if count > 1 else "     "
            lines.append(prefix + evaluation.describe())
        return "\n".join(lines)
