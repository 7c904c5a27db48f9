"""The :class:`Study` builder: one declarative entry point for every
evaluation, sweep, and comparison.

A study composes **systems x configs x networks x scenarios x grid
overrides x batching x fusion** into a job list for the sweep engine::

    from repro.api import Study

    results = (Study()
               .systems("albireo", "wdm_delay")
               .networks("resnet18", "vgg16")
               .scenarios("conservative", "aggressive")
               .grid(global_buffer_kib=(512, 1024))
               .run(workers=4, cache="study-cache"))
    print(results.report(mark_pareto=True))

Nothing evaluates until :meth:`Study.run`, which compiles the point
lattice into :class:`~repro.engine.jobs.EvaluationJob` specs and executes
them through the existing planner/cache/pool
(:func:`~repro.engine.executor.run_jobs`) — so every study gains
process-pool parallelism, persistent memoization, and the two-phase
scheduler for free, with results bit-identical to in-process runs.
Execution returns a :class:`~repro.api.results.ResultSet` of tagged
records.

Studies are also expressible as plain data (:meth:`Study.from_dict` /
:meth:`Study.from_json`), which is what the ``repro run spec.json`` CLI
command loads — any study can be written, versioned, and shared without
code.

Compilation order is deterministic row-major over the declared axes:
``source -> scenario -> grid point -> fused -> batch -> network``, where a
*source* is either a registry system (swept from its default config) or
an explicit config object.  Grid keys apply to every source whose config
dataclass has that field; a key matching no source raises.  Per source,
only the *applied* overrides are tagged onto the results, and grid
points that collapse to an already-emitted config (every differing key
unsupported by that source) are emitted once — a record never claims a
coordinate its evaluation ignored.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.api.results import FailedRecord, Record, ResultSet
from repro.energy.scaling import ScalingScenario, scenario_by_name
from repro.engine.executor import (
    CacheLike,
    FailurePolicy,
    JobFailure,
    run_jobs,
)
from repro.engine.pool import WorkerPool
from repro.engine.jobs import EvaluationJob, make_job
from repro.engine.sweeps import parameter_grid
from repro.exceptions import SpecError
from repro.workloads.models import network_by_name
from repro.workloads.network import Network

#: Config-rewrite hook: ``fn(config, point) -> config``, applied after
#: scenario and grid overrides (see :meth:`Study.transform`).
TransformFn = Callable[[Any, "StudyPoint"], Any]

#: Streaming callback: ``fn(record, done, total)``, invoked once per
#: study point the moment its result is assembled (completion order —
#: cache hits first, then whatever finishes next), with ``done`` the
#: number of completed points so far out of ``total``.  ``record`` is
#: the very :class:`~repro.api.results.Record` (or
#: :class:`~repro.api.results.FailedRecord`) object the final
#: :class:`~repro.api.results.ResultSet` will hold.  An exception
#: raised by the callback aborts the run — the cancellation lever
#: long-running callers (e.g. :mod:`repro.service`) rely on.
RecordFn = Callable[[Record, int, int], None]

#: Valid top-level keys of a study spec dict (``Study.from_dict``).
SPEC_KEYS = ("name", "systems", "networks", "scenarios", "grid",
             "grid_points", "batches", "fused", "options")
#: Valid keys of a spec's ``options`` object.
OPTION_KEYS = ("use_mapper", "include_dram")


@dataclass(frozen=True)
class StudyPoint:
    """One lattice point's coordinates, as seen by a transform hook.

    ``network`` is the (already batched) workload the point evaluates;
    ``overrides`` are the grid fields applied to the config; ``tags`` are
    the source's user tags.
    """

    system: str
    network: Network
    scenario: Optional[str]
    fused: bool
    batch: int
    overrides: Dict[str, Any] = field(default_factory=dict)
    tags: Dict[str, Any] = field(default_factory=dict)


class Study:
    """Fluent, declarative builder over the sweep engine (see module
    docstring).  Every axis method returns ``self`` and accumulates."""

    def __init__(self, name: str = "study"):
        self.name = name
        #: (system tag, base config, user tags) triples, in declared order.
        self._sources: List[Tuple[str, Any, Dict[str, Any]]] = []
        self._networks: List[Network] = []
        self._scenarios: List[Optional[ScalingScenario]] = []
        self._grid: List[Dict[str, Any]] = []
        self._batches: List[int] = []
        self._fused: List[bool] = []
        self._use_mapper = False
        self._include_dram = True
        self._transform: Optional[TransformFn] = None
        #: Set when the study was built purely from spec data, making
        #: :meth:`to_dict` exact.
        self._spec: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Axes
    # ------------------------------------------------------------------
    def systems(self, *names: str) -> "Study":
        """Add registry systems, each swept from its default config."""
        from repro.systems.registry import get_system

        for name in names:
            entry = get_system(name)  # raises SpecError listing options
            self._sources.append((entry.name, entry.config_type(), {}))
        self._spec = None
        return self

    def configs(self, *configs: Any) -> "Study":
        """Add explicit config objects; each may be a bare config or a
        ``(config, tags)`` pair.  The owning system is inferred from the
        config's type through the registry."""
        from repro.systems.registry import infer_system

        for item in configs:
            config, tags = (item if isinstance(item, tuple) else (item, {}))
            system = infer_system(config)
            if system is None:
                raise SpecError(
                    f"cannot infer system for config type "
                    f"{type(config).__name__}; register the system first")
            self._sources.append((system, config, dict(tags)))
        self._spec = None
        return self

    def networks(self, *networks: Union[str, Network]) -> "Study":
        """Add workloads, by object or by registry name (``resnet18``,
        ``vgg16``, ...)."""
        for network in networks:
            if isinstance(network, str):
                network = network_by_name(network)  # raises listing options
            self._networks.append(network)
        self._spec = None
        return self

    def scenarios(self, *scenarios: Union[str, ScalingScenario]) -> "Study":
        """Add scaling scenarios, by object or name; each source config is
        re-priced under each scenario."""
        for scenario in scenarios:
            if isinstance(scenario, str):
                scenario = scenario_by_name(scenario)
            self._scenarios.append(scenario)
        self._spec = None
        return self

    def grid(self, **axes: Iterable[Any]) -> "Study":
        """Cross a cartesian grid of config-field overrides into the
        study (row-major in axis declaration order)."""
        self._grid.extend(parameter_grid(**axes))
        self._spec = None
        return self

    def grid_points(self,
                    points: Iterable[Mapping[str, Any]]) -> "Study":
        """Add explicit override dicts (a non-cartesian grid)."""
        self._grid.extend(dict(point) for point in points)
        self._spec = None
        return self

    def batches(self, *sizes: int) -> "Study":
        """Add workload batch sizes (``network.with_batch``)."""
        for size in sizes:
            if int(size) < 1:
                raise SpecError(f"batch size must be >= 1, got {size!r}")
            self._batches.append(int(size))
        self._spec = None
        return self

    def fusion(self, *flags: bool) -> "Study":
        """Add layer-fusion options (evaluate unfused and/or fused)."""
        self._fused.extend(_as_bool("fusion flag", flag) for flag in flags)
        self._spec = None
        return self

    def options(self, use_mapper: Optional[bool] = None,
                include_dram: Optional[bool] = None) -> "Study":
        """Set evaluation options shared by every point."""
        if use_mapper is not None:
            self._use_mapper = _as_bool("use_mapper", use_mapper)
        if include_dram is not None:
            self._include_dram = _as_bool("include_dram", include_dram)
        self._spec = None
        return self

    def transform(self, fn: TransformFn) -> "Study":
        """Install a config-rewrite hook ``fn(config, point) -> config``,
        applied after scenario and grid overrides — the escape hatch for
        derived parameters (e.g. auto-sizing a fused buffer to the
        workload's resident footprint)."""
        self._transform = fn
        self._spec = None
        return self

    # ------------------------------------------------------------------
    # Spec form
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "Study":
        """Build a study from plain data (the ``repro run`` spec format).

        Unknown keys, systems, networks, and scenarios raise
        :class:`~repro.exceptions.SpecError` (or the matching layer
        error) with the valid choices listed.
        """
        if not isinstance(spec, Mapping):
            raise SpecError(
                f"study spec must be an object, got {type(spec).__name__}")
        unknown = sorted(set(spec) - set(SPEC_KEYS))
        if unknown:
            raise SpecError(
                f"unknown study spec keys {unknown}; "
                f"options: {sorted(SPEC_KEYS)}")
        options = dict(spec.get("options", {}))
        bad_options = sorted(set(options) - set(OPTION_KEYS))
        if bad_options:
            raise SpecError(
                f"unknown study option keys {bad_options}; "
                f"options: {sorted(OPTION_KEYS)}")
        study = cls(name=str(spec.get("name", "study")))
        study.systems(*_string_list(spec, "systems"))
        study.networks(*_string_list(spec, "networks"))
        study.scenarios(*_string_list(spec, "scenarios"))
        grid = spec.get("grid")
        if grid:
            if not isinstance(grid, Mapping):
                raise SpecError("study spec 'grid' must map field names "
                                "to value lists")
            study.grid(**{str(key): list(values)
                          for key, values in grid.items()})
        if spec.get("grid_points"):
            study.grid_points(spec["grid_points"])
        if spec.get("batches"):
            study.batches(*spec["batches"])
        if spec.get("fused") is not None:
            flags = spec["fused"]
            if isinstance(flags, bool):
                flags = [flags]
            study.fusion(*flags)
        study.options(**options)
        study._spec = _canonical_spec(spec)
        return study

    @classmethod
    def from_json(cls, source: str) -> "Study":
        """Build a study from JSON text or a ``.json`` file path."""
        text = source
        if not source.lstrip().startswith("{"):
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"study spec is not valid JSON: {error}") \
                from None
        return cls.from_dict(spec)

    def to_dict(self) -> Dict[str, Any]:
        """The spec-dict form of a study built from plain data.

        Studies holding config objects, network objects, or a transform
        hook have no data form and raise."""
        if self._spec is None:
            raise SpecError(
                "study was built programmatically (config/network objects "
                "or hooks); only from_dict/from_json studies serialize")
        return json.loads(json.dumps(self._spec))  # deep copy

    # ------------------------------------------------------------------
    # Compilation and execution
    # ------------------------------------------------------------------
    def compile(self) -> List[EvaluationJob]:
        """The study's job list, in deterministic lattice order (see
        module docstring).  Pure: compiling evaluates nothing."""
        if not self._sources:
            raise SpecError(
                "study has no systems or configs; call .systems() or "
                ".configs() first")
        if not self._networks:
            raise SpecError("study has no networks; call .networks() first")
        grid = self._grid or [{}]
        self._check_grid_keys(grid)
        scenarios = self._scenarios or [None]
        fused_flags = self._fused or [False]
        batches = self._batches or [1]
        jobs: List[EvaluationJob] = []
        for system, base_config, source_tags in self._sources:
            config_fields = {f.name
                             for f in dataclasses.fields(type(base_config))}
            for scenario in scenarios:
                scoped = base_config
                if scenario is not None:
                    scoped = (scoped.with_scenario(scenario)
                              if hasattr(scoped, "with_scenario")
                              else dataclasses.replace(scoped,
                                                       scenario=scenario))
                seen_applied = set()
                for point_overrides in grid:
                    # Only the overrides this source's config actually has
                    # are applied — and tagged: a record must never claim
                    # a coordinate its evaluation ignored.  Grid points
                    # that collapse to an already-emitted config for this
                    # source (every differing key unsupported) are
                    # skipped rather than duplicated.
                    applied = {key: value
                               for key, value in point_overrides.items()
                               if key in config_fields}
                    applied_key = tuple(sorted(
                        (key, repr(value))
                        for key, value in applied.items()))
                    if applied_key in seen_applied:
                        continue
                    seen_applied.add(applied_key)
                    config = (dataclasses.replace(scoped, **applied)
                              if applied else scoped)
                    for fused in fused_flags:
                        for batch in batches:
                            for network in self._networks:
                                jobs.append(self._make_job(
                                    system, config, network, scenario,
                                    fused, batch, applied,
                                    source_tags))
        return jobs

    def _make_job(self, system: str, config: Any, network: Network,
                  scenario: Optional[ScalingScenario], fused: bool,
                  batch: int, overrides: Dict[str, Any],
                  source_tags: Dict[str, Any]) -> EvaluationJob:
        batched = network.with_batch(batch) if batch > 1 else network
        if self._transform is not None:
            point = StudyPoint(
                system=system, network=batched,
                scenario=None if scenario is None else scenario.name,
                fused=fused, batch=batch,
                overrides=dict(overrides), tags=dict(source_tags))
            config = self._transform(config, point)
        tags: Dict[str, Any] = {
            "system": system,
            "network": batched.name,
            "scenario": (config.scenario.name
                         if hasattr(config, "scenario") else None),
            "fused": fused,
            "batch": batch,
        }
        tags.update(overrides)
        tags.update(source_tags)
        label_parts = [f"{system}:{batched.name}"]
        if hasattr(config, "scenario"):
            label_parts.append(config.scenario.name)
        if fused:
            label_parts.append("fused")
        if batch > 1:
            label_parts.append(f"N={batch}")
        label_parts.extend(f"{key}={value}"
                           for key, value in overrides.items())
        return make_job(
            batched, config, system=system,
            fused=fused, use_mapper=self._use_mapper,
            include_dram=self._include_dram,
            label=" ".join(label_parts), tags=tags)

    def _check_grid_keys(self, grid: Sequence[Dict[str, Any]]) -> None:
        all_fields = set()
        for _, config, _ in self._sources:
            all_fields.update(f.name
                              for f in dataclasses.fields(type(config)))
        grid_keys = {key for point in grid for key in point}
        unknown = sorted(grid_keys - all_fields)
        if unknown:
            raise SpecError(
                f"grid keys {unknown} match no selected system's config "
                f"fields; options: {sorted(all_fields)}")

    def run(self, workers: int = 1, cache: CacheLike = None,
            trace: Union[bool, str, "obs.Tracer", None] = None,
            pool: Optional[WorkerPool] = None,
            failure_policy: Optional[FailurePolicy] = None,
            inject: Any = None,
            on_record: Optional[RecordFn] = None) -> ResultSet:
        """Compile and execute through the engine; returns a
        :class:`~repro.api.results.ResultSet` in lattice order.

        ``workers``/``cache`` are the engine's knobs: process pool size
        and persistent :class:`~repro.engine.cache.EvaluationCache` (or
        directory path).

        ``pool`` reuses a caller-owned persistent
        :class:`~repro.engine.pool.WorkerPool` across runs: its workers
        stay warm between studies (architecture builds, search
        contexts), eliminating the per-run spawn cost.  They hold no
        cache state; each batch carries the few cached entries it reads.
        The caller closes the pool (or uses it as a context manager).

        ``trace`` turns on :mod:`repro.obs` span collection for this run:
        ``True`` collects, a string path additionally writes the Chrome
        trace JSON there, and an existing :class:`~repro.obs.Tracer`
        records into the caller's tracer.  The collected
        :class:`~repro.obs.Trace` is exposed as ``ResultSet.trace``
        (``None`` when tracing was off).

        ``failure_policy`` (a :class:`~repro.engine.executor.
        FailurePolicy`) makes the run fault-tolerant: failing points
        come back as :class:`~repro.api.results.FailedRecord` rows
        (see ``ResultSet.ok()`` / ``.failures``) instead of aborting
        the study.  ``inject`` threads a deterministic fault plan
        (:mod:`repro.engine.faults`) through for testing.

        ``on_record`` (a :data:`RecordFn`) streams each point's record
        out the moment it is assembled — ``fn(record, done, total)``,
        in completion order, on every execution path — without waiting
        for the full :class:`ResultSet`.  This is the seam the
        evaluation service uses to stream NDJSON records and the CLI
        uses for ``--progress`` lines.
        """
        engine = dict(workers=workers, cache=cache, pool=pool,
                      failure_policy=failure_policy, inject=inject)
        if trace is None or trace is False:
            return ResultSet(self._execute(self.compile(), on_record,
                                           engine))
        tracer = trace if isinstance(trace, obs.Tracer) else obs.Tracer()
        with obs.tracing(tracer):
            with obs.span("study.compile", study=self.name):
                jobs = self.compile()
            records = self._execute(jobs, on_record, engine)
        collected = tracer.trace()
        if isinstance(trace, str):
            collected.save(trace)
        return ResultSet(records, trace=collected)

    def _execute(self, jobs: Sequence[EvaluationJob],
                 on_record: Optional[RecordFn],
                 engine: Dict[str, Any]) -> List[Record]:
        """Run ``jobs`` through the engine and return their records in
        job order.  Each record is built once, the moment its outcome
        is assembled, and that same object is streamed to ``on_record``
        and kept for the result set."""
        records: List[Any] = [None] * len(jobs)
        done = 0

        def collect(index: int, job: EvaluationJob, outcome: Any) -> None:
            nonlocal done
            records[index] = self._record(job, outcome)
            done += 1
            if on_record is not None:
                on_record(records[index], done, len(jobs))

        run_jobs(jobs, on_record=collect, **engine)
        return records

    @staticmethod
    def _record(job: EvaluationJob, evaluation: Any) -> Record:
        """One outcome slot -> one record (failures included)."""
        if isinstance(evaluation, JobFailure):
            return FailedRecord.from_failure(job.tags_dict, evaluation,
                                             config=job.config)
        return Record.from_evaluation(job.tags_dict, evaluation,
                                      config=job.config)

    def __repr__(self) -> str:
        return (f"Study({self.name!r}: {len(self._sources)} sources, "
                f"{len(self._networks)} networks, "
                f"{len(self._scenarios) or 1} scenarios, "
                f"{len(self._grid) or 1} grid points)")


def _as_bool(name: str, value: Any) -> bool:
    """Strict boolean coercion: JSON/Python booleans (and 0/1) only.

    A spec author writing the *string* ``"false"`` must get an error, not
    a silently-enabled option (``bool("false")`` is True)."""
    if isinstance(value, bool):
        return value
    if value in (0, 1):
        return bool(value)
    raise SpecError(
        f"{name} must be a boolean, got {value!r}")


def _string_list(spec: Mapping[str, Any], key: str) -> List[str]:
    values = spec.get(key) or []
    if isinstance(values, str):
        values = [values]
    if not isinstance(values, (list, tuple)):
        raise SpecError(f"study spec {key!r} must be a list of names")
    return [str(value) for value in values]


def _canonical_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """A plain-data deep copy of a validated spec (stable key order)."""
    return json.loads(json.dumps(
        {key: spec[key] for key in SPEC_KEYS if key in spec}))
