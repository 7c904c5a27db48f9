"""repro — architecture-level modeling of photonic DNN accelerators.

A from-scratch Python reproduction of *"Architecture-Level Modeling of
Photonic Deep Neural Network Accelerators"* (Andrulis et al., ISPASS 2024):
a CiMLoop/Timeloop/Accelergy-style analytical modeling stack extended with
photonic components (microrings, Mach-Zehnder modulators, star couplers,
photodiodes, comb lasers) and applied to the Albireo silicon-photonic CNN
accelerator for full-system (accelerator + DRAM) energy, throughput, and
area estimation.

Quickstart::

    from repro import AlbireoSystem, AlbireoConfig, AGGRESSIVE, resnet18

    system = AlbireoSystem(AlbireoConfig(scenario=AGGRESSIVE))
    result = system.evaluate_network(resnet18())
    print(result.describe())

Or declaratively, for anything from one evaluation to a cross-system
design-space exploration (:class:`Study` / :class:`ResultSet`)::

    from repro import Study

    results = (Study()
               .systems("albireo", "wdm_delay")
               .networks("resnet18")
               .scenarios("conservative", "aggressive")
               .run(workers=4, cache="study-cache"))
    print(results.report(mark_pareto=True))

Layer cake (each importable on its own):

* :mod:`repro.workloads` — DNN layer/network shapes (VGG16, AlexNet,
  ResNet18, ...).
* :mod:`repro.arch` — architecture descriptions: domains (DE/AE/AO/DO),
  storage levels, converter stages, spatial fanouts.
* :mod:`repro.energy` — Accelergy-style plug-in energy/area estimators and
  the conservative/moderate/aggressive photonic scaling scenarios.
* :mod:`repro.mapping` — Timeloop-style loop-nest mappings, exact
  access-count analysis, and the mapping search.
* :mod:`repro.model` — the full-system evaluator (energy breakdowns,
  throughput, batching, fusion).
* :mod:`repro.systems` — the pluggable :class:`PhotonicSystem` framework,
  its registry, and the three modeled accelerators (Albireo, WDM
  crossbar, WDM delay-buffer).
* :mod:`repro.engine` — the parallel sweep engine: declarative evaluation
  jobs, a persistent mapping/evaluation cache, and a serial/multiprocess
  batch executor.
* :mod:`repro.api` — the declarative :class:`Study`/:class:`ResultSet`
  facade over everything below (and the ``repro run spec.json`` CLI).
* :mod:`repro.obs` — tracing and metrics: hierarchical spans over the
  engine hot path, worker-safe collection, Chrome-trace export.
* :mod:`repro.experiments` — the paper's evaluation experiments, each a
  :class:`Study` run plus a renderer over its :class:`ResultSet`.
"""

from repro.arch import (
    Architecture,
    ComputeAction,
    ComputeLevel,
    Conversion,
    ConverterStage,
    Domain,
    SpatialFanout,
    StorageLevel,
    architecture_from_dict,
    architecture_to_dict,
)
from repro.energy import (
    AGGRESSIVE,
    CONSERVATIVE,
    MODERATE,
    ComponentSpec,
    EnergyEntry,
    EnergyTable,
    ScalingScenario,
    build_table,
    scenario_by_name,
)
from repro.exceptions import (
    CapacityError,
    EstimationError,
    MappingError,
    ReproError,
    SpecError,
    WorkloadError,
)
from repro.mapping import (
    FanoutMapping,
    LevelMapping,
    Mapper,
    Mapping,
    MappingConstraints,
    TemporalLoop,
    analyze,
)
from repro.mapping.serialize import mapping_from_dict, mapping_to_dict
from repro.model.area import area_report, system_area_report
from repro.model.roofline import layer_roofline, network_roofline
from repro.validation import assert_consistent, check_consistency
from repro.model import (
    AcceleratorModel,
    BucketScheme,
    EnergyBreakdown,
    LayerEvaluation,
    NetworkEvaluation,
    NetworkOptions,
)
from repro.engine import (
    EvaluationCache,
    EvaluationJob,
    make_job,
    run_job,
    run_jobs,
)
from repro.systems import (
    AlbireoConfig,
    AlbireoSystem,
    CrossbarConfig,
    CrossbarSystem,
    FIG2_BUCKETS,
    PhotonicSystem,
    SYSTEM_BUCKETS,
    SystemEntry,
    WdmDelayConfig,
    WdmDelaySystem,
    albireo_best_case_layer,
    create_system,
    register_system,
    system_entries,
    system_names,
)
from repro.api import (
    FailedRecord,
    FailurePolicy,
    Record,
    ResultSet,
    Study,
    pareto_frontier,
)
from repro.obs import Trace, Tracer, tracing
from repro.workloads import (
    ConvLayer,
    DataSpace,
    Dim,
    Network,
    alexnet,
    dense_layer,
    lenet5,
    mobilenet_v1,
    network_by_name,
    network_names,
    resnet18,
    tiny_cnn,
    vgg16,
)

__version__ = "1.0.0"

__all__ = [
    "CrossbarSystem",
    "CrossbarConfig",
    "check_consistency",
    "assert_consistent",
    "network_roofline",
    "layer_roofline",
    "system_area_report",
    "area_report",
    "mapping_to_dict",
    "mapping_from_dict",
    "AGGRESSIVE",
    "AcceleratorModel",
    "AlbireoConfig",
    "AlbireoSystem",
    "Architecture",
    "BucketScheme",
    "CONSERVATIVE",
    "CapacityError",
    "ComponentSpec",
    "ComputeAction",
    "ComputeLevel",
    "ConvLayer",
    "Conversion",
    "ConverterStage",
    "DataSpace",
    "Dim",
    "Domain",
    "EnergyBreakdown",
    "EnergyEntry",
    "EnergyTable",
    "EstimationError",
    "EvaluationCache",
    "EvaluationJob",
    "FIG2_BUCKETS",
    "FanoutMapping",
    "LayerEvaluation",
    "LevelMapping",
    "MODERATE",
    "Mapper",
    "Mapping",
    "MappingConstraints",
    "MappingError",
    "Network",
    "NetworkEvaluation",
    "NetworkOptions",
    "PhotonicSystem",
    "FailedRecord",
    "FailurePolicy",
    "Record",
    "ReproError",
    "ResultSet",
    "Study",
    "SYSTEM_BUCKETS",
    "SystemEntry",
    "Trace",
    "Tracer",
    "WdmDelayConfig",
    "WdmDelaySystem",
    "create_system",
    "register_system",
    "system_entries",
    "system_names",
    "ScalingScenario",
    "SpatialFanout",
    "SpecError",
    "StorageLevel",
    "TemporalLoop",
    "WorkloadError",
    "albireo_best_case_layer",
    "alexnet",
    "analyze",
    "architecture_from_dict",
    "architecture_to_dict",
    "build_table",
    "dense_layer",
    "lenet5",
    "make_job",
    "mobilenet_v1",
    "network_by_name",
    "network_names",
    "pareto_frontier",
    "resnet18",
    "run_job",
    "run_jobs",
    "scenario_by_name",
    "tiny_cnn",
    "tracing",
    "vgg16",
]
