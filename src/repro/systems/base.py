"""The pluggable system framework: one base class, many accelerators.

The paper's core claim is that a single architecture-level methodology —
Timeloop-style loop nests priced by a photonic component library — models
*many* photonic DNN accelerators.  :class:`PhotonicSystem` is that claim
as code: it owns the entire config → architecture → energy table →
reference mapping → evaluation pipeline once, and a concrete system
(Albireo, the WDM crossbar, the WDM delay-buffer accelerator, or a user's
own design) supplies only the parts that make it *that* system:

* ``config_type`` — a frozen dataclass of its parameters;
* :meth:`build_architecture` / :meth:`build_energy_table` — the node list
  and component pricing (pure functions of the config);
* :meth:`mapping_candidates` — the reference-mapping variants worth
  pricing for a layer;
* optionally :meth:`constraints` (mapper search limits) and
  :meth:`analysis_layer` (the workload the hardware physically executes,
  e.g. Albireo's strided-convolution window expansion).

Everything else — per-shape reference-mapping caches, the mapper-search
and layer-evaluation ``store`` seam the sweep engine memoizes through,
shared-:class:`~repro.mapping.analysis.SearchContext` candidate pricing,
fusion-aware network evaluation — is inherited, so every registered
system gets warmed-cache parallel sweeps for free.  The sweep engine
drives a system only through the sub-task seams
(:meth:`PhotonicSystem.enumerate_sub_tasks`, :meth:`compute_sub_task`)
and assembles each network's result from the entries they store;
:meth:`PhotonicSystem.evaluate_network` is the same walk as objects,
for direct callers, and the contract suite holds the two bit-identical.

Reference candidates are analyzed once per *geometry*
(:attr:`PhotonicSystem.geometry`: the system type, the architecture's
nodes and every config field but the energy-only ``clock_ghz`` and
``scenario``) and priced per configuration.  A memo handed in through
the ``store`` holds the counts: :func:`~repro.engine.executor.run_jobs`
makes one per call for the tasks it runs in-process, and a pool worker
one per batch, into which the planner packs each geometry's
configurations together.  No memo outlives its run or batch.

Architecture and energy-table builds are memoized per (builder, config)
in :func:`build_cached`: configs are frozen dataclasses, so equal configs
(across system instances, sweep jobs, and the engine's job-identity
hashing) share one immutable build instead of re-deriving it.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.arch.hierarchy import Architecture
from repro.energy.table import EnergyTable
from repro.exceptions import MappingError, SpecError
from repro.mapping.analysis import AccessCounts, SearchContext
from repro.mapping.constraints import MappingConstraints
from repro.mapping.mapper import Mapper, MapperResult
from repro.mapping.mapping import Mapping
from repro.model.accelerator import (
    AcceleratorModel,
    NetworkOptions,
    fusion_blocks,
)
from repro.model.results import LayerEvaluation, NetworkEvaluation
from repro.workloads.layer import ConvLayer
from repro.workloads.network import Network

# ---------------------------------------------------------------------------
# Build caching
# ---------------------------------------------------------------------------

#: Memoized (builder, config) -> architecture / energy table.  Bounded
#: FIFO: sweeps revisit their configuration set repeatedly, and every
#: cached value is immutable, so sharing across systems/jobs is safe.
#: Sized above the largest plausible single-sweep config grid — an
#: undersized cache thrashes here *and* breaks the identity-keyed
#: architecture-JSON memo in :mod:`repro.engine.jobs` (each rebuild is
#: a fresh object).
_BUILD_CACHE: Dict[Tuple[Any, ...], Any] = {}
_BUILD_CACHE_LIMIT = 4096

#: Config fields only the energy table may read (see the module docstring).
_ENERGY_ONLY_FIELDS = ("clock_ghz", "scenario")


def build_cached(builder: Callable[[Any], Any], config: Any) -> Any:
    """``builder(config)``, memoized when the pair is hashable.

    Used by :class:`PhotonicSystem` construction *and* the sweep engine's
    job-identity hashing (:meth:`repro.engine.jobs.EvaluationJob.to_dict`
    re-derives the architecture), so a cached sweep builds each distinct
    architecture once per process instead of once per lookup.
    """
    try:
        key = (builder, config)
        hash(key)
    except TypeError:  # unhashable custom config: build uncached
        return builder(config)
    value = _BUILD_CACHE.get(key)
    if value is None:
        value = builder(config)
        if len(_BUILD_CACHE) >= _BUILD_CACHE_LIMIT:
            _BUILD_CACHE.pop(next(iter(_BUILD_CACHE)))
        _BUILD_CACHE[key] = value
    return value


def layer_shape_key(layer: ConvLayer) -> Tuple:
    """Cache key: every layer field that affects mapping choice and
    evaluation — all but the name and the ``kind`` tag."""
    return (layer.n, layer.m, layer.c, layer.p, layer.q, layer.r, layer.s,
            layer.stride_h, layer.stride_w, layer.groups,
            layer.bits_per_weight, layer.bits_per_activation)


# ---------------------------------------------------------------------------
# Sub-tasks: the planner's unit of work
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SubTask:
    """One cacheable unit of a network evaluation.

    The sweep engine's planner (:mod:`repro.engine.planner`) expands each
    whole-network job into these, deduplicates them across a batch, and
    executes the unique remainder at task granularity.  A ``"mapper"``
    task runs one mapper search; a ``"layer"`` task evaluates one layer
    shape under one pair of DRAM-traffic flags.  Both are keyed by shape
    and persisted through the system's ``store`` seam, so computing a
    sub-task warms exactly the entries the normal evaluation path would
    look up — for every same-shape layer, whatever its name.
    """

    kind: str  # "mapper" | "layer"
    layer: ConvLayer
    use_mapper: bool = False
    input_from_dram: bool = True
    output_to_dram: bool = True


# ---------------------------------------------------------------------------
# The base system
# ---------------------------------------------------------------------------


class PhotonicSystem(abc.ABC):
    """A photonic accelerator ready to evaluate: architecture + energy
    table + model, behind the uniform interface every front-end (CLI,
    sweep engine, experiments, DSE) programs against::

        system = SomeSystem(SomeConfig(scenario=AGGRESSIVE))
        result = system.evaluate_layer(layer)
        print(result.energy.describe(buckets))

    ``store`` is an optional persistence seam used by the sweep engine
    (duck-typed; see :class:`repro.engine.cache.SystemStore`): when given,
    mapper searches and default-mapping layer evaluations are looked up
    from / saved to it, so repeat evaluations of the same (config, layer)
    pair — across jobs, processes, or sessions — skip the expensive work.
    Every subclass inherits the seam; registering a system (see
    :mod:`repro.systems.registry`) is all it takes to join warmed-cache
    parallel sweeps.
    """

    #: Registry tag; set by subclasses (matches the registry entry name).
    name: ClassVar[str] = ""
    #: The system's configuration dataclass; ``SystemType()`` constructs
    #: the default instance.
    config_type: ClassVar[type]
    #: Whether :meth:`enumerate_sub_tasks` and the sub-task key methods
    #: are pure functions of (network, fused, use_mapper) — independent
    #: of the instance's configuration.  True for the base implementation
    #: (and every built-in system: :meth:`analysis_layer` overrides are
    #: shape-only transforms).  The sweep planner shares one expansion
    #: across all configurations of a batch when this holds; a subclass
    #: whose task keys read ``self.config`` or ``self.architecture`` must
    #: set this to False.
    subtask_keys_config_free: ClassVar[bool] = True

    def __init__(self, config: Optional[Any] = None,
                 store: Optional[object] = None) -> None:
        self.config = self.config_type() if config is None else config
        self.store = store
        self.architecture: Architecture = build_cached(
            type(self).build_architecture, self.config)
        self.energy_table: EnergyTable = build_cached(
            type(self).build_energy_table, self.config)
        self.model = AcceleratorModel(self.architecture, self.energy_table)
        #: Layer shape -> (reference winner, its counts or None).
        self._mapping_cache: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @staticmethod
    @abc.abstractmethod
    def build_architecture(config: Any) -> Architecture:
        """The system's node list for one configuration (pure function)."""

    @staticmethod
    @abc.abstractmethod
    def build_energy_table(config: Any) -> EnergyTable:
        """Component pricing for one configuration (pure function)."""

    @abc.abstractmethod
    def mapping_candidates(self, layer: ConvLayer) -> Sequence[Mapping]:
        """Reference-mapping variants worth pricing for ``layer``.

        Called with the *analysis* layer (post :meth:`analysis_layer`).
        A single-element sequence short-circuits pricing; several elements
        are priced with the full model and the cheapest wins.

        Contract: like :meth:`analysis_layer`, they may not read
        ``clock_ghz`` or ``scenario``: configs of one run that differ only
        in those share the candidates and their counts.
        """

    def constraints(self, layer: ConvLayer) -> MappingConstraints:
        """Mapping constraints for mapper searches (default: none)."""
        return MappingConstraints()

    def analysis_layer(self, layer: ConvLayer) -> ConvLayer:
        """The workload the hardware physically executes for ``layer``
        (default: the layer itself)."""
        return layer

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def reference_mapping(self, layer: ConvLayer) -> Mapping:
        """The cheapest of the reference-mapping candidates for this layer.

        Candidates (tiling/permutation variants) are analyzed once per
        geometry, priced per configuration, and cached per layer shape.
        """
        return self._reference(self.analysis_layer(layer))[0]

    def _reference(self, target: ConvLayer, counted: bool = False
                   ) -> Tuple[Mapping, Optional[AccessCounts]]:
        """The winner for an analysis layer and its counts (both DRAM
        flags on).  A lone candidate is analyzed only if ``counted``."""
        key = layer_shape_key(target)
        best = self._mapping_cache.get(key) or self._select(target, key)
        if counted and best[1] is None:
            best = (best[0], self.model.counts(target, best[0]))
            if self._shared_counts is not None:
                self._shared_counts[key] = (best,)
        self._mapping_cache[key] = best
        return best

    @functools.cached_property
    def geometry(self) -> Optional[Tuple]:
        """What the reference candidates and their counts depend on: the
        system type, the architecture's nodes and every config field but
        ``clock_ghz`` and ``scenario``.  ``None`` for an unhashable
        config, which shares with nothing.  The counts memo and the
        planner's batch packing both key on it."""
        geometry = (type(self), self.architecture.nodes, tuple(
            getattr(self.config, field.name)
            for field in dataclasses.fields(self.config)
            if field.name not in _ENERGY_ONLY_FIELDS))
        try:
            hash(geometry)
        except TypeError:  # unhashable custom config
            return None
        return geometry

    @functools.cached_property
    def _shared_counts(self) -> Optional[Dict[Tuple, Tuple]]:
        """This geometry's part of the run's memo (shape -> ``((candidate,
        counts or None if invalid), ...)``), looked up on the first
        reference miss: layers that all come from the store never hash it.
        """
        memo = self.store.counts_memo if self.store is not None else None
        if memo is None or self.geometry is None:
            return None
        return memo.setdefault(self.geometry, {})

    def _select(self, target: ConvLayer,
                key: Tuple) -> Tuple[Mapping, Optional[AccessCounts]]:
        """The candidate this energy table prices cheapest (strict ``<``
        in candidate order), from the run's memo when it has the shape."""
        shared = self._shared_counts
        analyzed = shared.get(key) if shared is not None else None
        if analyzed is None:
            with obs.span("refmap.candidates", layer=target.name):
                candidates = list(self.mapping_candidates(target))
            if len(candidates) == 1:
                # Deterministic single-variant systems skip pricing.
                return candidates[0], None
        elif len(analyzed) == 1:
            return analyzed[0]
        best, best_cost = None, float("inf")
        with obs.span("refmap.select", layer=target.name,
                      candidates=len(candidates if analyzed is None
                                     else analyzed)):
            if analyzed is None:
                # One search context serves every candidate.  The entry is
                # written once all are analyzed: an interrupted shape has none.
                context = SearchContext.for_layer(self.architecture, target)
                analyzed = []
                for mapping in candidates:
                    try:
                        counts = self.model.counts(target, mapping,
                                                   context=context)
                    except MappingError:  # only an invalid candidate
                        counts = None     # is skipped; the rest propagate
                    analyzed.append((mapping, counts))
                analyzed = tuple(analyzed)
                if shared is not None:
                    shared[key] = analyzed
            for mapping, counts in analyzed:
                if counts is not None:
                    cost = self.model.price(target, counts).energy_pj
                    if cost < best_cost:
                        best, best_cost = (mapping, counts), cost
        if best is None:
            raise SpecError(
                f"no valid reference mapping for layer {target.name!r} on "
                f"{self.config.describe()}")
        return best

    def _mapper_store_key(self, layer: ConvLayer,
                          max_evaluations: int = 1000,
                          seed: int = 0) -> Tuple:
        """Structural ``store`` key of one mapper search (name-free: keyed
        by the executed workload's shape, so same-geometry layers share)."""
        return ("mapper", layer_shape_key(self.analysis_layer(layer)),
                max_evaluations, seed)

    def _layer_store_key(self, layer: ConvLayer, use_mapper: bool,
                         input_from_dram: bool,
                         output_to_dram: bool) -> Tuple:
        """Structural ``store`` key of one default-mapping layer
        evaluation: the layer's shape plus every flag that changes the
        result.  The name and ``kind`` tag change no number, so
        same-shape layers share one entry; each reader attaches its own
        layer to what it reads (:meth:`evaluate_layer` here, parent-side
        assembly in :mod:`repro.engine.executor`).  A system whose numbers
        do depend on the name must override this to include it."""
        return ("layer", layer_shape_key(layer), bool(use_mapper),
                bool(input_from_dram), bool(output_to_dram))

    def search_mapping(self, layer: ConvLayer,
                       max_evaluations: int = 1000,
                       seed: int = 0) -> MapperResult:
        """Mapper search (on the executed workload), seeded with the
        reference mapping.  Memoized through the ``store`` seam."""
        target = self.analysis_layer(layer)
        store_key = self._mapper_store_key(layer, max_evaluations, seed)
        if self.store is not None:
            cached = self.store.load_mapper_result(store_key)
            if cached is not None:
                return cached
        mapper = Mapper(
            self.architecture,
            cost_fn=self.model.energy_cost_fn(target),
            constraints=self.constraints(target),
        )
        result = mapper.search(
            target, max_evaluations=max_evaluations, seed=seed,
            extra_candidates=(self.reference_mapping(layer),),
        )
        if self.store is not None:
            self.store.save_mapper_result(store_key, result)
        return result

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_layer(
        self,
        layer: ConvLayer,
        mapping: Optional[Mapping] = None,
        use_mapper: bool = False,
        input_from_dram: bool = True,
        output_to_dram: bool = True,
    ) -> LayerEvaluation:
        target = self.analysis_layer(layer)
        store_key = None
        if self.store is not None and mapping is None:
            # Only the default-mapping path is cacheable.
            store_key = self._layer_store_key(
                layer, use_mapper, input_from_dram, output_to_dram)
            cached = self.store.load_layer(store_key)
            if cached is not None:
                # The entry may hold another same-shape layer.
                return dataclasses.replace(cached, layer=layer)
        analysis_layer = target if target is not layer else None
        with obs.span("layer.evaluate", layer=layer.name,
                      use_mapper=use_mapper):
            if mapping is None and use_mapper:
                mapping = self.search_mapping(layer).mapping
            if mapping is None:  # counted to choose it: not analyzed again
                counts = self._reference(target, counted=True)[1]
            else:
                counts = self.model.counts(target, mapping)
            # A fused block prices an elided copy of the counts.
            evaluation = self.model.price(
                layer, counts, input_from_dram, output_to_dram,
                analysis_layer=analysis_layer)
        if store_key is not None:
            self.store.save_layer(store_key, evaluation)
        return evaluation

    def evaluate_network(
        self,
        network: Network,
        fused: bool = False,
        use_mapper: bool = False,
    ) -> NetworkEvaluation:
        """Whole-network evaluation with the system's workload handling.

        Mirrors :meth:`AcceleratorModel.evaluate_network`'s fusion policy
        while routing each layer through :meth:`evaluate_layer` so
        executed-workload expansion (:meth:`analysis_layer`) and the store
        seam apply per layer.
        """
        if fused:
            self.model._check_fusion_capacity(network,
                                              NetworkOptions(fused=True))
        evaluations = []
        entries = network.entries
        for index, entry in enumerate(entries):
            is_last = index == len(entries) - 1
            for input_dram, output_dram, count in fusion_blocks(
                    entry, is_last, fused):
                evaluation = self.evaluate_layer(
                    entry.layer,
                    use_mapper=use_mapper,
                    input_from_dram=input_dram,
                    output_to_dram=output_dram,
                )
                evaluations.append((evaluation, count))
        return NetworkEvaluation(
            name=network.name,
            layers=tuple(evaluations),
            clock_ghz=self.architecture.clock_ghz,
            peak_parallelism=self.architecture.peak_parallelism,
        )

    # ------------------------------------------------------------------
    # Sub-task seams (used by the sweep engine's planner)
    # ------------------------------------------------------------------
    def enumerate_sub_tasks(self, network: Network, fused: bool = False,
                            use_mapper: bool = False) -> List[SubTask]:
        """The unique sub-tasks :meth:`evaluate_network` would compute.

        Mirrors the evaluation loop (same :func:`fusion_blocks` policy)
        without evaluating anything: one ``"layer"`` task per distinct
        (layer shape, DRAM flags) store key, preceded — when the mapper is
        on — by one ``"mapper"`` task per distinct search key, so
        executing the tasks in order warms every entry the evaluation
        will look up.
        """
        mapper_tasks: List[SubTask] = []
        layer_tasks: List[SubTask] = []
        seen = set()
        entries = network.entries
        for index, entry in enumerate(entries):
            is_last = index == len(entries) - 1
            if use_mapper:
                task = SubTask(kind="mapper", layer=entry.layer,
                               use_mapper=True)
                key = self.sub_task_store_key(task)
                if key not in seen:
                    seen.add(key)
                    mapper_tasks.append(task)
            for input_dram, output_dram, _count in fusion_blocks(
                    entry, is_last, fused):
                task = SubTask(kind="layer", layer=entry.layer,
                               use_mapper=use_mapper,
                               input_from_dram=input_dram,
                               output_to_dram=output_dram)
                key = self.sub_task_store_key(task)
                if key not in seen:
                    seen.add(key)
                    layer_tasks.append(task)
        return mapper_tasks + layer_tasks

    def sub_task_store_key(self, task: SubTask) -> Tuple:
        """The ``store`` key :meth:`compute_sub_task` reads and writes —
        exactly the key the normal evaluation path uses, so planner-warmed
        entries are pure hits afterwards."""
        if task.kind == "mapper":
            return self._mapper_store_key(task.layer)
        return self._layer_store_key(task.layer, task.use_mapper,
                                     task.input_from_dram,
                                     task.output_to_dram)

    def compute_sub_task(self, task: SubTask) -> None:
        """Execute one sub-task; its result lands in the ``store`` seam."""
        if task.kind == "mapper":
            self.search_mapping(task.layer)
        elif task.kind == "layer":
            self.evaluate_layer(task.layer, use_mapper=task.use_mapper,
                                input_from_dram=task.input_from_dram,
                                output_to_dram=task.output_to_dram)
        else:
            raise SpecError(f"unknown sub-task kind {task.kind!r}")

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def area_summary_um2(self) -> Dict[str, float]:
        return self.model.area_um2()

    def describe(self) -> str:
        return self.config.describe() + "\n" + self.architecture.describe()
