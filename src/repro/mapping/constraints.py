"""Mapper constraints: the legal-mapping envelope for an architecture.

Architectures restrict mappings beyond what the structural validation in
:mod:`repro.mapping.mapping` enforces.  Albireo, for example, fixes its
window-site fanout to filter dimensions (and fewer of them for strided
layers), and bounds how long its analog integrators may accumulate.
:class:`MappingConstraints` carries these restrictions into the mapper; a
system builder produces one per (architecture, layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping as TMapping, Optional, Tuple

from repro.exceptions import MappingError
from repro.mapping.mapping import Mapping
from repro.workloads.dims import Dim


@dataclass(frozen=True)
class FanoutConstraint:
    """Restrictions on one fanout boundary's spatial mapping."""

    #: Hard cap on the mapped instance count (<= hardware size); models
    #: layer-dependent usability, e.g. strided layers wasting window sites.
    max_instances: Optional[int] = None
    #: Per-dimension cap on the mapped factor.
    max_factor: TMapping[Dim, int] = field(default_factory=dict)
    #: Dimensions the mapper must not map here even if the architecture
    #: nominally allows them.
    forbidden_dims: FrozenSet[Dim] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_factor",
                           {Dim(d): int(v) for d, v in self.max_factor.items()})
        object.__setattr__(self, "forbidden_dims",
                           frozenset(Dim(d) for d in self.forbidden_dims))


@dataclass(frozen=True)
class StorageConstraint:
    """Restrictions on one storage level's temporal mapping."""

    #: Cap on the product of this level's temporal loop bounds (e.g. an
    #: analog integrator's accumulation budget).
    max_temporal_product: Optional[int] = None
    #: Fraction of the hardware capacity mappings may occupy (headroom for
    #: control state / double buffering).
    capacity_fraction: float = 1.0
    #: Bits already committed at this level (e.g. resident inter-layer
    #: activations under fusion); subtracted from usable capacity.
    reserved_bits: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.capacity_fraction <= 1.0:
            raise MappingError(
                f"capacity_fraction must be in (0, 1], got "
                f"{self.capacity_fraction}"
            )
        if self.reserved_bits < 0:
            raise MappingError("reserved_bits must be >= 0")


#: Shared "no restriction" defaults for names without an entry (frozen, so
#: one instance serves every lookup instead of a fresh one per call).
_NO_FANOUT_CONSTRAINT = FanoutConstraint()
_NO_STORAGE_CONSTRAINT = StorageConstraint()


@dataclass(frozen=True)
class MappingConstraints:
    """Constraint set consumed by the mapper.

    Keys are architecture node names.  Missing entries mean "only the
    architecture's own rules apply".
    """

    fanouts: TMapping[str, FanoutConstraint] = field(default_factory=dict)
    storages: TMapping[str, StorageConstraint] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fanouts", dict(self.fanouts))
        object.__setattr__(self, "storages", dict(self.storages))

    def fanout(self, name: str) -> FanoutConstraint:
        return self.fanouts.get(name, _NO_FANOUT_CONSTRAINT)

    def storage(self, name: str) -> StorageConstraint:
        return self.storages.get(name, _NO_STORAGE_CONSTRAINT)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check(self, mapping: Mapping) -> None:
        """Raise :class:`MappingError` if ``mapping`` violates a constraint.

        Structural validity against the architecture is checked separately
        by :meth:`repro.mapping.mapping.Mapping.validate`.
        """
        for spatial in mapping.spatials:
            constraint = self.fanout(spatial.fanout)
            if (constraint.max_instances is not None
                    and spatial.factor_product > constraint.max_instances):
                raise MappingError(
                    f"fanout {spatial.fanout!r}: mapped "
                    f"{spatial.factor_product} instances, constraint allows "
                    f"{constraint.max_instances}"
                )
            for dim, factor in spatial.factors.items():
                if dim in constraint.forbidden_dims:
                    raise MappingError(
                        f"fanout {spatial.fanout!r}: dimension {dim.value} "
                        f"is forbidden by constraints"
                    )
                cap = constraint.max_factor.get(dim)
                if cap is not None and factor > cap:
                    raise MappingError(
                        f"fanout {spatial.fanout!r}: factor {factor} on "
                        f"{dim.value} exceeds constraint cap {cap}"
                    )
        for level in mapping.levels:
            constraint = self.storage(level.storage)
            if (constraint.max_temporal_product is not None
                    and level.factor_product > constraint.max_temporal_product):
                raise MappingError(
                    f"storage {level.storage!r}: temporal product "
                    f"{level.factor_product} exceeds constraint cap "
                    f"{constraint.max_temporal_product}"
                )
