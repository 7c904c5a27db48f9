"""Declarative evaluation jobs with stable content-hash keys.

An :class:`EvaluationJob` names everything one evaluation depends on — the
modeled system, its configuration, the network, and the evaluation options
— without performing any work.  Jobs are frozen (hashable, picklable)
values, so they can be generated in bulk (by
:meth:`repro.api.Study.compile`), shipped to worker processes by the executor
(:mod:`repro.engine.executor`), and keyed into the persistent cache
(:mod:`repro.engine.cache`).

The cache key is a SHA-256 content hash over the job's canonical dict
form, which embeds the raw configuration (scenario parameters price the
energy table) *and* the derived architecture (via
:func:`repro.arch.spec.architecture_to_dict`): any change to either —
a scenario parameter, a buffer size, a fanout — produces a new key, so
a cache entry can never be served for a job that would evaluate
differently.  Presentation metadata (``label``, ``tags``) is
deliberately excluded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.engine.codec import (
    canonical_json,
    config_to_dict,
    network_to_dict,
)
from repro.exceptions import SpecError
from repro.workloads.network import Network

# ---------------------------------------------------------------------------
# Identity-fragment memos
#
# A sweep hashes hundreds of jobs that share one network object and a
# per-config architecture object.  Canonical JSON composes: a dict's
# canonical text embeds its values' canonical texts verbatim (sorting is
# per-object), so the job key can be hashed from cached fragments without
# re-serializing the network for every job — producing byte-identical
# text, and therefore identical keys, to hashing the full identity dict.
# The memos key on object identity and hold a strong reference, so a
# recycled id can never alias a dead object.
# ---------------------------------------------------------------------------

_FRAGMENT_MEMO_LIMIT = 4096
_NETWORK_JSON_MEMO: Dict[int, Tuple[Any, str]] = {}
_ARCH_JSON_MEMO: Dict[int, Tuple[Any, str]] = {}
_CONFIG_JSON_MEMO: Dict[int, Tuple[Any, str]] = {}


def _memoized_json(memo: Dict[int, Tuple[Any, str]], value: Any,
                   to_dict: Callable[[Any], Dict[str, Any]]) -> str:
    """``canonical_json(to_dict(value))``, memoized in ``memo`` by the
    identity of ``value``."""
    entry = memo.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    text = canonical_json(to_dict(value))
    if len(memo) >= _FRAGMENT_MEMO_LIMIT:
        memo.clear()
    memo[id(value)] = (value, text)
    return text


def system_registry() -> Dict[str, Any]:
    """The supported systems: name -> :class:`repro.systems.registry.
    SystemEntry`, resolved on first use.

    A thin delegate to the single registry in
    :mod:`repro.systems.registry` (where both built-in and user systems
    register) — imported lazily, so importing the engine never drags in
    (or cycles with) :mod:`repro.systems`.
    """
    from repro.systems.registry import system_entries

    return system_entries()


@dataclass(frozen=True)
class EvaluationJob:
    """One network evaluation, fully specified and inert.

    ``label`` and ``tags`` carry sweep metadata (axis coordinates, variant
    names) for reassembling results into figure points; they do not affect
    the job's identity or cache key.
    """

    network: Network
    config: Any
    system: str = "albireo"
    fused: bool = False
    use_mapper: bool = False
    #: False reproduces the accelerator-only views (paper Figs. 2 and 5):
    #: DRAM energy entries are stripped from the result.
    include_dram: bool = True
    label: str = field(default="", compare=False)
    tags: Tuple[Tuple[str, Any], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        registry = system_registry()
        if self.system not in registry:
            raise SpecError(
                f"unknown system {self.system!r}; "
                f"options: {sorted(registry)}")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The job's canonical, JSON-compatible identity dict.

        Memoized per instance: building it re-derives the architecture and
        serializes the network, and sweep runs consult a job's identity
        several times (cache probe, store scoping, result put).  Jobs are
        frozen, so the dict can never go stale; treat it as read-only.
        """
        cached = self.__dict__.get("_dict_cache")
        if cached is not None:
            return cached
        entry = system_registry()[self.system]
        from repro.arch.spec import architecture_to_dict
        from repro.systems.base import build_cached

        cached = {
            "kind": "network-evaluation",
            "system": self.system,
            "config": config_to_dict(self.config),
            "architecture": architecture_to_dict(
                build_cached(entry.build_architecture, self.config)),
            "network": network_to_dict(self.network),
            "options": {
                "fused": self.fused,
                "use_mapper": self.use_mapper,
                "include_dram": self.include_dram,
            },
        }
        object.__setattr__(self, "_dict_cache", cached)
        return cached

    def _identity_fragments(self) -> Tuple[str, str]:
        """Canonical JSON of the (architecture, config) identity slice —
        memoized per architecture/config object, shared across the jobs
        of a sweep."""
        from repro.arch.spec import architecture_to_dict
        from repro.systems.base import build_cached

        entry = system_registry()[self.system]
        architecture = build_cached(entry.build_architecture, self.config)
        return (_memoized_json(_ARCH_JSON_MEMO, architecture,
                               architecture_to_dict),
                _memoized_json(_CONFIG_JSON_MEMO, self.config,
                               config_to_dict))

    @property
    def key(self) -> str:
        """Stable content-hash cache key (identical across processes).

        Hashes exactly the canonical JSON of :meth:`to_dict`, composed
        from memoized per-object fragments (see module comment) so a
        thousand-job sweep serializes its shared network once, not a
        thousand times.
        """
        cached = self.__dict__.get("_key_cache")
        if cached is None:
            arch_json, config_json = self._identity_fragments()
            text = (
                '{"architecture":' + arch_json
                + ',"config":' + config_json
                + ',"kind":"network-evaluation"'
                + ',"network":' + _memoized_json(
                    _NETWORK_JSON_MEMO, self.network, network_to_dict)
                + ',"options":' + canonical_json({
                    "fused": self.fused,
                    "use_mapper": self.use_mapper,
                    "include_dram": self.include_dram,
                })
                + ',"system":' + canonical_json(self.system) + '}'
            )
            cached = hashlib.sha256(text.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_key_cache", cached)
        return cached

    def __getstate__(self):
        # Keep worker payloads lean: identity caches re-derive on demand.
        state = dict(self.__dict__)
        state.pop("_dict_cache", None)
        state.pop("_key_cache", None)
        state.pop("_system_key_cache", None)
        return state

    # ------------------------------------------------------------------
    # Metadata access
    # ------------------------------------------------------------------
    @property
    def tags_dict(self) -> Dict[str, Any]:
        return dict(self.tags)

    def tag(self, name: str, default: Any = None) -> Any:
        return self.tags_dict.get(name, default)

    def describe(self) -> str:
        options = []
        if self.fused:
            options.append("fused")
        if self.use_mapper:
            options.append("mapper")
        if not self.include_dram:
            options.append("no-dram")
        suffix = f" [{','.join(options)}]" if options else ""
        body = self.label or (f"{self.system}:{self.network.name}")
        return body + suffix


def job_system_key(job: EvaluationJob) -> str:
    """Configuration-scoped hash under which a job's mapper and layer
    store entries live (see :class:`repro.engine.cache.SystemStore`).

    Hashes the (system, config, architecture) slice of the job identity —
    deliberately excluding the network and evaluation options, so every
    job evaluating the same configuration shares one store scope.
    Memoized per job instance (and dropped from pickles, like the other
    identity caches).
    """
    cached = job.__dict__.get("_system_key_cache")
    if cached is None:
        arch_json, config_json = job._identity_fragments()
        text = ('{"architecture":' + arch_json
                + ',"config":' + config_json
                + ',"system":' + canonical_json(job.system) + '}')
        cached = hashlib.sha256(text.encode("utf-8")).hexdigest()
        object.__setattr__(job, "_system_key_cache", cached)
    return cached


def make_job(network: Network, config: Any, **options: Any) -> EvaluationJob:
    """Build a job, inferring ``system`` from the config's type."""
    if "system" not in options:
        from repro.systems.registry import infer_system

        system = infer_system(config)
        if system is None:
            raise SpecError(
                f"cannot infer system for config type "
                f"{type(config).__name__}; pass system= explicitly")
        options["system"] = system
    tags = options.pop("tags", ())
    if isinstance(tags, dict):
        tags = tuple(tags.items())
    return EvaluationJob(network=network, config=config, tags=tags,
                         **options)
