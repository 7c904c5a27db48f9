"""JSON codecs for the sweep engine's cache and job hashing.

Everything the engine persists — job specifications, mapper results, layer
and network evaluations — round-trips through JSON-compatible dicts so the
on-disk cache is plain text and results survive process boundaries intact.
Python's ``json`` serializes floats via ``repr``, which round-trips every
finite double exactly, so a cached evaluation is bit-identical to a freshly
computed one.

The architecture and mapping halves of the problem already have serializers
(:func:`repro.arch.spec.architecture_to_dict`,
:func:`repro.mapping.serialize.mapping_to_dict`); this module adds the
workload (:class:`~repro.workloads.layer.ConvLayer`,
:class:`~repro.workloads.network.Network`), configuration, and result
(:class:`~repro.model.results.LayerEvaluation`,
:class:`~repro.model.results.NetworkEvaluation`) counterparts plus the
canonical-JSON content hashing the cache keys on.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Any, Dict, Mapping as TMapping, Sequence, Tuple

from repro.energy.scaling import ScalingScenario
from repro.model.results import (
    EnergyBreakdown,
    LayerEvaluation,
    NetworkEvaluation,
    NetworkTotals,
)
from repro.workloads.dataspace import DataSpace
from repro.workloads.layer import ConvLayer
from repro.workloads.network import LayerRepetition, Network

# ---------------------------------------------------------------------------
# Canonical JSON and content hashing
# ---------------------------------------------------------------------------


def canonical_json(value: Any) -> str:
    """Deterministic JSON text for ``value`` (sorted keys, no whitespace).

    Tuples serialize as JSON arrays, so structurally equal specs produce
    identical text regardless of the container type or dict insertion
    order — the property the content hash depends on.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_hash(value: Any) -> str:
    """Stable SHA-256 hex digest of ``value``'s canonical JSON form.

    Unlike Python's built-in ``hash``, this does not vary with
    ``PYTHONHASHSEED`` and is therefore stable across processes and runs —
    a cache written by one sweep is readable by every later one.
    """
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: ScalingScenario) -> Dict[str, Any]:
    """Serialize a scaling scenario to its parameter dict."""
    return dataclasses.asdict(scenario)


def config_to_dict(config: Any) -> Dict[str, Any]:
    """Serialize a system configuration dataclass (Albireo, crossbar, ...).

    Works for any frozen dataclass whose fields are JSON scalars or nested
    dataclasses (``dataclasses.asdict`` recurses into the scenario).
    """
    if not dataclasses.is_dataclass(config):
        raise TypeError(
            f"config must be a dataclass, got {type(config).__name__}")
    return dataclasses.asdict(config)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def layer_to_dict(layer: ConvLayer) -> Dict[str, Any]:
    """Serialize a layer shape (all fields, including the name and kind)."""
    return {
        "name": layer.name,
        "n": layer.n, "m": layer.m, "c": layer.c,
        "p": layer.p, "q": layer.q, "r": layer.r, "s": layer.s,
        "stride_h": layer.stride_h, "stride_w": layer.stride_w,
        "groups": layer.groups,
        "bits_per_weight": layer.bits_per_weight,
        "bits_per_activation": layer.bits_per_activation,
        "kind": layer.kind,
    }


#: Exactly the keys :func:`layer_to_dict` writes — specs matching this
#: schema decode through the shared-instance memo below.
_LAYER_SPEC_KEYS = (
    "name", "n", "m", "c", "p", "q", "r", "s",
    "stride_h", "stride_w", "groups",
    "bits_per_weight", "bits_per_activation", "kind",
)
_LAYER_SPEC_KEY_SET = frozenset(_LAYER_SPEC_KEYS)

#: Content-keyed decode memo.  A sweep decodes the same few distinct
#: layer dicts thousands of times (every job of a grid shares one
#: network); ConvLayer is frozen, so handing back one shared instance
#: per distinct content is safe and skips re-validation.
_LAYER_MEMO: Dict[tuple, ConvLayer] = {}
_MEMO_LIMIT = 16384


def layer_from_dict(spec: TMapping[str, Any]) -> ConvLayer:
    """Rebuild a layer from its dict form."""
    if spec.keys() == _LAYER_SPEC_KEY_SET:
        try:
            key = tuple(map(spec.__getitem__, _LAYER_SPEC_KEYS))
            cached = _LAYER_MEMO.get(key)
        except TypeError:  # unhashable field value: decode directly
            return ConvLayer(**dict(spec))
        if cached is None:
            cached = ConvLayer(**dict(spec))
            if len(_LAYER_MEMO) >= _MEMO_LIMIT:
                _LAYER_MEMO.clear()
            _LAYER_MEMO[key] = cached
        return cached
    return ConvLayer(**dict(spec))


def network_to_dict(network: Network) -> Dict[str, Any]:
    """Serialize a network: name plus ordered layer repetitions."""
    return {
        "name": network.name,
        "entries": [
            {
                "layer": layer_to_dict(entry.layer),
                "count": entry.count,
                "consumes_previous_output": entry.consumes_previous_output,
                "resident_extra_bits": entry.resident_extra_bits,
            }
            for entry in network.entries
        ],
    }


def network_from_dict(spec: TMapping[str, Any]) -> Network:
    """Rebuild a network from its dict form."""
    entries = tuple(
        LayerRepetition(
            layer=layer_from_dict(entry["layer"]),
            count=int(entry["count"]),
            consumes_previous_output=bool(
                entry.get("consumes_previous_output", True)),
            resident_extra_bits=int(entry.get("resident_extra_bits", 0)),
        )
        for entry in spec["entries"]
    )
    return Network(name=str(spec["name"]), entries=entries)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def energy_to_list(energy: EnergyBreakdown) -> list:
    """Serialize an energy breakdown as [component, dataspace, pJ] triples
    (dataspace ``None`` for per-compute costs).

    Entry order is preserved, NOT sorted: ``total_pj`` sums the entries in
    insertion order, and float addition is not associative, so reordering
    would perturb totals in the last ulp — breaking the engine's
    bit-identical serial/parallel/cached guarantee.
    """
    return [
        [component, None if dataspace is None else dataspace.value, value]
        for (component, dataspace), value in energy.entries().items()
    ]


#: ``DataSpace(value)`` goes through the (slow) enum constructor; this
#: map resolves the same lookup in one dict probe.
_DATASPACE_BY_VALUE = {member.value: member for member in DataSpace}


def _decode_energy_rows(rows: list) -> dict:
    """The entries dict of a triple list (repeated keys sum in order)."""
    entries = {}
    for component, dataspace, value in rows:
        if dataspace is not None:
            member = _DATASPACE_BY_VALUE.get(dataspace)
            dataspace = member if member is not None \
                else DataSpace(dataspace)
        key = (component if type(component) is str else str(component),
               dataspace)
        entries[key] = entries.get(key, 0.0) + float(value)
    return entries


def energy_from_list(rows: list) -> EnergyBreakdown:
    """Rebuild an energy breakdown from its triple list."""
    return EnergyBreakdown(_decode_energy_rows(rows))


def layer_evaluation_to_dict(evaluation: LayerEvaluation) -> Dict[str, Any]:
    """Serialize one layer evaluation (shape, energy, performance)."""
    return {
        "layer": layer_to_dict(evaluation.layer),
        "energy": energy_to_list(evaluation.energy),
        "cycles": evaluation.cycles,
        "real_macs": evaluation.real_macs,
        "padded_macs": evaluation.padded_macs,
        "peak_parallelism": evaluation.peak_parallelism,
        "clock_ghz": evaluation.clock_ghz,
        "occupancy_bits": dict(evaluation.occupancy_bits),
        "compute_cycles": evaluation.compute_cycles,
        "bandwidth_bound_level": evaluation.bandwidth_bound_level,
    }


def layer_evaluation_from_dict(
        spec: TMapping[str, Any]) -> LayerEvaluation:
    """Rebuild a layer evaluation from its dict form."""
    return LayerEvaluation(
        layer=layer_from_dict(spec["layer"]),
        energy=energy_from_list(spec["energy"]),
        cycles=int(spec["cycles"]),
        real_macs=int(spec["real_macs"]),
        padded_macs=int(spec["padded_macs"]),
        peak_parallelism=int(spec["peak_parallelism"]),
        clock_ghz=float(spec["clock_ghz"]),
        occupancy_bits={str(k): float(v)
                        for k, v in spec.get("occupancy_bits", {}).items()},
        compute_cycles=(None if spec.get("compute_cycles") is None
                        else int(spec["compute_cycles"])),
        bandwidth_bound_level=spec.get("bandwidth_bound_level"),
    )


def network_evaluation_to_dict(
        evaluation: NetworkEvaluation) -> Dict[str, Any]:
    """Serialize a whole-network evaluation."""
    return {
        "name": evaluation.name,
        "layers": [
            [layer_evaluation_to_dict(layer_eval), count]
            for layer_eval, count in evaluation.layers
        ],
        "clock_ghz": evaluation.clock_ghz,
        "peak_parallelism": evaluation.peak_parallelism,
    }


def _layer_evaluations(
        layer_specs: Sequence[Tuple[TMapping[str, Any], int]],
) -> Tuple[Tuple[LayerEvaluation, int], ...]:
    return tuple((layer_evaluation_from_dict(layer_spec), count)
                 for layer_spec, count in layer_specs)


def network_evaluation_from_dict(
        spec: TMapping[str, Any]) -> NetworkEvaluation:
    """Rebuild a network evaluation from its dict form.

    The totals are summed straight from each layer dict's energy rows,
    cycles and MACs, bit-identical to summing the decoded layers.  The
    :class:`~repro.model.results.LayerEvaluation` objects are built only
    when ``layers`` is first read; records and reports never need them.
    """
    layer_specs = tuple((layer_spec, int(count))
                        for layer_spec, count in spec["layers"])
    # Layers often share one rows list (same-shape layers read one
    # shape-keyed entry, which assembly embeds or copies shallowly):
    # decode each list once.  ``layer_specs`` keeps every list alive, so
    # its id is a sound key for this call.
    decoded: Dict[int, dict] = {}

    def entries_of(layer_spec: TMapping[str, Any]) -> dict:
        rows = layer_spec["energy"]
        entries = decoded.get(id(rows))
        if entries is None:
            entries = decoded[id(rows)] = _decode_energy_rows(rows)
        return entries

    totals = NetworkTotals.of(
        (entries_of(layer_spec), int(layer_spec["cycles"]),
         int(layer_spec["real_macs"]), count)
        for layer_spec, count in layer_specs)
    return NetworkEvaluation.lazy(
        name=str(spec["name"]),
        clock_ghz=float(spec["clock_ghz"]),
        peak_parallelism=int(spec["peak_parallelism"]),
        totals=totals,
        load_layers=functools.partial(_layer_evaluations, layer_specs))
