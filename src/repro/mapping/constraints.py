"""Mapper constraints: the legal-mapping envelope for an architecture.

Architectures restrict mappings beyond what the structural validation in
:mod:`repro.mapping.mapping` enforces.  Albireo, for example, fixes its
window-site fanout to filter dimensions (and fewer of them for strided
layers), and bounds how long its analog integrators may accumulate.
:class:`MappingConstraints` carries these restrictions into the mapper; a
system builder produces one per (architecture, layer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Mapping as TMapping, Optional

from repro.exceptions import MappingError
from repro.mapping.mapping import Failure, Mapping
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
        failure = self.spatial_failure(mapping) or self.temporal_failure(
            mapping)
        if failure is not None:
            raise MappingError(failure())

    def spatial_failure(self, row) -> Failure:
        """The first broken fanout constraint of ``row`` (a
        :class:`Mapping` or a mapper's spatial group), or None."""
        for name, factors in row.factors_by_fanout().items():
            constraint = self.fanout(name)
            product = math.prod(factors.values())
            if (constraint.max_instances is not None
                    and product > constraint.max_instances):
                return lambda: (f"fanout {name!r}: mapped {product} "
                                f"instances, constraint allows "
                                f"{constraint.max_instances}")
            for dim, factor in factors.items():
                if dim in constraint.forbidden_dims:
                    return lambda: (f"fanout {name!r}: dimension "
                                    f"{dim.value} is forbidden by "
                                    f"constraints")
                cap = constraint.max_factor.get(dim)
                if cap is not None and factor > cap:
                    return lambda: (f"fanout {name!r}: factor {factor} on "
                                    f"{dim.value} exceeds constraint cap "
                                    f"{cap}")
        return None

    def temporal_failure(self, row) -> Failure:
        """The first broken storage constraint of ``row`` (a
        :class:`Mapping` or a mapper's candidate row), or None."""
        for name, loops in row.loops_by_storage().items():
            cap = self.storage(name).max_temporal_product
            if cap is None:
                continue
            product = math.prod(bound for _, bound in loops)
            if product > cap:
                return lambda: (f"storage {name!r}: temporal product "
                                f"{product} exceeds constraint cap {cap}")
        return None
