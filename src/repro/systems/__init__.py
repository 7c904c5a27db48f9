"""Modeled systems: concrete accelerators built from the library.

* :mod:`~repro.systems.base` — the :class:`PhotonicSystem` framework
  every accelerator plugs into (shared mapping/evaluation/store
  machinery).
* :mod:`~repro.systems.registry` — the name -> builder-bundle registry
  the engine, CLI, and experiments resolve systems through.
* :mod:`~repro.systems.refmap` — the shared reference-mapping toolkit.
* :mod:`~repro.systems.albireo` — the Albireo silicon-photonic CNN
  accelerator (Shiflett et al., ISCA 2021), the system the paper models
  and explores.
* :mod:`~repro.systems.crossbar` — a weight-stationary WDM microring
  crossbar (ADEPT/PCNNA-class).
* :mod:`~repro.systems.wdm_delay` — a WDM delay-buffer CNN accelerator
  (Xu et al., 2019 class) building its convolution window in time.

Design-space explorations over these systems are
:class:`repro.api.Study` lattices (the paper's Figs. 4-5 are
:func:`repro.api.studies.memory_study` and
:func:`repro.api.studies.reuse_study`).
"""

from repro.systems.albireo import (
    AlbireoConfig,
    AlbireoSystem,
    FIG2_BUCKETS,
    SYSTEM_BUCKETS,
    albireo_best_case_layer,
    albireo_reference_mapping,
    build_albireo_architecture,
    build_albireo_energy_table,
)
from repro.systems.base import PhotonicSystem, layer_shape_key
from repro.systems.crossbar import (
    CROSSBAR_BUCKETS,
    CrossbarConfig,
    CrossbarSystem,
    build_crossbar_architecture,
    build_crossbar_energy_table,
    crossbar_reference_mapping,
)
from repro.systems.registry import (
    SystemEntry,
    create_system,
    get_system,
    infer_system,
    register_system,
    system_entries,
    system_names,
)
from repro.systems.wdm_delay import (
    WDM_DELAY_BUCKETS,
    WdmDelayConfig,
    WdmDelaySystem,
    build_wdm_delay_architecture,
    build_wdm_delay_energy_table,
    wdm_delay_reference_mapping,
)

__all__ = [
    "CROSSBAR_BUCKETS",
    "CrossbarConfig",
    "CrossbarSystem",
    "PhotonicSystem",
    "SystemEntry",
    "WDM_DELAY_BUCKETS",
    "WdmDelayConfig",
    "WdmDelaySystem",
    "build_crossbar_architecture",
    "build_crossbar_energy_table",
    "build_wdm_delay_architecture",
    "build_wdm_delay_energy_table",
    "create_system",
    "crossbar_reference_mapping",
    "get_system",
    "infer_system",
    "layer_shape_key",
    "register_system",
    "system_entries",
    "system_names",
    "wdm_delay_reference_mapping",
    "AlbireoConfig",
    "AlbireoSystem",
    "FIG2_BUCKETS",
    "SYSTEM_BUCKETS",
    "albireo_best_case_layer",
    "albireo_reference_mapping",
    "build_albireo_architecture",
    "build_albireo_energy_table",
]
