"""repro.api — the declarative Study/ResultSet facade.

One programmatic surface for every evaluation, sweep, and comparison the
library can run: build a :class:`Study` (fluently or from a JSON spec),
execute it through the parallel/cached sweep engine with
:meth:`Study.run`, and slice the returned :class:`ResultSet`::

    from repro.api import Study

    results = (Study()
               .systems("albireo", "wdm_delay")
               .networks("resnet18")
               .scenarios("conservative", "aggressive")
               .run(workers=4, cache="study-cache"))
    print(results.report(mark_pareto=True))
    best = results.best("energy_per_mac_pj")

The figure experiments (:mod:`repro.experiments`) and the CLI's
``sweep``/``compare``/``run`` commands are all thin shells over this
module; :mod:`repro.api.studies` holds the prebuilt lattices they use.
"""

from repro.api.results import (
    FAILURE_KEYS,
    METRIC_NAMES,
    FailedRecord,
    Record,
    ResultSet,
    pareto_frontier,
)
from repro.api.studies import (
    best_case_study,
    comparison_study,
    config_study,
    memory_study,
    reuse_study,
)
from repro.api.study import Study, StudyPoint
from repro.engine.executor import FailurePolicy
from repro.engine.pool import WorkerPool

__all__ = [
    "FAILURE_KEYS",
    "METRIC_NAMES",
    "FailedRecord",
    "FailurePolicy",
    "Record",
    "ResultSet",
    "Study",
    "StudyPoint",
    "WorkerPool",
    "best_case_study",
    "comparison_study",
    "config_study",
    "memory_study",
    "pareto_frontier",
    "reuse_study",
]
