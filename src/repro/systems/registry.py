"""The single system registry: name -> builder bundle.

Every front-end resolves modeled systems here — the sweep engine's job
identity and worker construction (:mod:`repro.engine.jobs`,
:mod:`repro.engine.executor`), the CLI's ``--system`` flag, the
cross-system comparison experiment, and the conformance test suite — so
adding an accelerator is one :func:`register_system` call, after which it
is sweepable, cacheable, comparable, and contract-tested with no other
code changes.

Built-in systems (:mod:`~repro.systems.albireo`,
:mod:`~repro.systems.crossbar`, :mod:`~repro.systems.wdm_delay`)
self-register on import; :func:`system_entries` imports them lazily on
first use, so importing the engine never drags in (or cycles with) the
systems layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SpecError

#: Column spec for the CLI sweep table: (header, getter over the config).
SweepColumn = Tuple[str, Callable[[Any], Any]]


@dataclass(frozen=True)
class SystemEntry:
    """Everything a front-end needs to drive one modeled system by name.

    ``system_type`` must subclass
    :class:`~repro.systems.base.PhotonicSystem`, whose store and
    sub-task seams the sweep engine drives.
    ``build_architecture`` must be a pure function of the config — the
    engine hashes its output into job identities, and
    :func:`repro.systems.base.build_cached` memoizes it.
    ``buckets`` is the system's dataspace-conversion
    :class:`~repro.model.buckets.BucketScheme` whose group names align
    across systems, so cross-system figures stack comparably.
    ``default_sweep`` builds the configuration grid behind
    ``repro sweep --system <name>``; ``sweep_columns`` labels that grid's
    axes in the result table.
    """

    name: str
    config_type: type
    system_type: type
    build_architecture: Callable[[Any], Any]
    build_energy_table: Callable[[Any], Any]
    buckets: Any
    description: str = ""
    default_sweep: Optional[Callable[[], Sequence[Any]]] = None
    sweep_columns: Tuple[SweepColumn, ...] = field(default=())


_REGISTRY: Dict[str, SystemEntry] = {}
_BUILTINS = ("repro.systems.albireo", "repro.systems.crossbar",
             "repro.systems.wdm_delay")
_builtins_loaded = False


def register_system(entry: SystemEntry) -> SystemEntry:
    """Add (or replace) a system in the registry; returns the entry."""
    # Imported here: the registry must not pull the systems layer into
    # every import of the engine.
    from repro.systems.base import PhotonicSystem

    if not entry.name:
        raise SpecError("system entry must have a non-empty name")
    if not (isinstance(entry.system_type, type)
            and issubclass(entry.system_type, PhotonicSystem)):
        raise SpecError(
            f"system {entry.name!r}: system_type must subclass "
            f"PhotonicSystem, got {entry.system_type!r}")
    _REGISTRY[entry.name] = entry
    return entry


def _load_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    import importlib

    for module in _BUILTINS:
        importlib.import_module(module)
    _builtins_loaded = True


def system_entries() -> Dict[str, SystemEntry]:
    """All registered systems (built-ins loaded on first use), by name."""
    _load_builtins()
    return dict(_REGISTRY)


def system_names() -> List[str]:
    """Registered system tags, in registration order."""
    return list(system_entries())


def get_system(name: str) -> SystemEntry:
    """The registry entry for ``name``; raises SpecError when unknown."""
    entries = system_entries()
    entry = entries.get(name)
    if entry is None:
        raise SpecError(
            f"unknown system {name!r}; options: {sorted(entries)}")
    return entry


def create_system(name: str, config: Optional[Any] = None,
                  store: Optional[object] = None) -> Any:
    """Construct a ready-to-evaluate system instance by registry name."""
    return get_system(name).system_type(config, store=store)


def infer_system(config: Any) -> Optional[str]:
    """The registry tag whose config type matches ``config`` (or None)."""
    for tag, entry in system_entries().items():
        if isinstance(config, entry.config_type):
            return tag
    return None
