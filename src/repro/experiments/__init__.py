"""The paper's evaluation experiments, one module per figure.

Each module's ``run()`` builds a :class:`repro.api.Study` (the lattices
live in :mod:`repro.api.studies`; fig2, ``sensitivity`` and
``calibration`` share the best-case one), runs it, and returns a result
object with the modeled numbers read from its
:class:`~repro.api.ResultSet`, the paper's reported numbers (from
:mod:`repro.experiments.reported`), comparison metrics, and a ``table()``
rendering.  The benchmark suite calls these; so can users::

    from repro.experiments import fig2_validation
    print(fig2_validation.run().table())
"""

from repro.experiments import (
    batching,
    calibration,
    fig2_validation,
    fig3_throughput,
    fig4_memory,
    fig5_reuse,
    reported,
    sensitivity,
    system_comparison,
)
from repro.experiments.runner import run_all

__all__ = [
    "batching",
    "calibration",
    "sensitivity",
    "fig2_validation",
    "fig3_throughput",
    "fig4_memory",
    "fig5_reuse",
    "reported",
    "system_comparison",
    "run_all",
]
