"""Lazy result decoding and one record per study point.

``network_evaluation_from_dict`` sums an evaluation's totals straight
from its layer dicts and builds the per-layer objects only when
``layers`` is first read; ``Study.run`` builds each point's record once
and streams that same object.  These tests pin both against the eager
forms, bit for bit.
"""

import functools

import pytest

from repro.api import Study
from repro.api.results import METRIC_NAMES, Record
from repro.engine import EvaluationCache, WorkerPool, make_job, run_jobs
from repro.engine import codec
from repro.engine.codec import (
    layer_evaluation_from_dict,
    network_evaluation_from_dict,
    network_evaluation_to_dict,
)
from repro.model.results import EnergyBreakdown, NetworkEvaluation
from repro.systems.registry import system_entries
from repro.workloads import ConvLayer, dense_layer
from repro.workloads.network import LayerRepetition, Network

ENTRIES = system_entries()


def _network() -> Network:
    """Same-shape layers under several names (the planner shares their
    entries), a counted repetition, and a dense tail."""
    shape = dict(m=8, c=8, p=16, q=16, r=3, s=3)
    return Network(name="lazy-net", entries=(
        LayerRepetition(layer=ConvLayer(name="conv0", **shape),
                        consumes_previous_output=False),
        LayerRepetition(layer=ConvLayer(name="conv1", **shape)),
        LayerRepetition(layer=ConvLayer(name="rep", m=16, c=8, p=8, q=8,
                                        r=3, s=3), count=3),
        LayerRepetition(layer=ConvLayer(name="conv2", **shape),
                        consumes_previous_output=False),
        LayerRepetition(layer=dense_layer("fc", 8 * 16 * 16, 10)),
    ))


def _eager(spec) -> NetworkEvaluation:
    """The dict form decoded up front: every layer object built first."""
    return NetworkEvaluation(
        name=spec["name"],
        layers=tuple((layer_evaluation_from_dict(layer), int(count))
                     for layer, count in spec["layers"]),
        clock_ghz=float(spec["clock_ghz"]),
        peak_parallelism=int(spec["peak_parallelism"]))


def _without_dram(spec):
    """``spec`` with every layer's DRAM energy rows dropped (the
    accelerator-only view ``include_dram=False`` asks for)."""
    return dict(spec, layers=[
        [dict(layer, energy=[row for row in layer["energy"]
                             if row[0] != "DRAM"]), count]
        for layer, count in spec["layers"]])


def _summed(evaluation: NetworkEvaluation) -> EnergyBreakdown:
    """Network energy as one scaled breakdown per layer, added in order
    (how ``total_energy`` has always been defined)."""
    return functools.reduce(
        lambda total, item: total + item[0].energy.scaled(item[1]),
        evaluation.layers, EnergyBreakdown())


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _metrics(evaluation: NetworkEvaluation):
    return {name: _bits(getattr(evaluation, name)) for name in METRIC_NAMES}


def _entries(breakdown: EnergyBreakdown):
    return [(key, value.hex()) for key, value in breakdown.entries().items()]


def _assert_same(lazy: NetworkEvaluation, spec) -> None:
    """``lazy`` equals the eager decode of ``spec``, bit for bit."""
    eager = _eager(spec)
    assert _metrics(lazy) == _metrics(eager)
    assert _entries(lazy.total_energy) == _entries(eager.total_energy) \
        == _entries(_summed(eager))
    assert lazy.energy_pj.hex() == _summed(eager).total_pj.hex()
    assert network_evaluation_to_dict(lazy) \
        == network_evaluation_to_dict(eager)


@pytest.fixture
def layer_decodes(monkeypatch):
    """Counts LayerEvaluation objects built from dicts."""
    calls = []

    def counting(spec):
        calls.append(spec)
        return layer_evaluation_from_dict(spec)

    monkeypatch.setattr(codec, "layer_evaluation_from_dict", counting)
    return calls


class TestLazyDecode:
    @pytest.mark.parametrize("include_dram", [True, False],
                             ids=["dram", "no-dram"])
    @pytest.mark.parametrize("fused", [False, True],
                             ids=["unfused", "fused"])
    @pytest.mark.parametrize("system", sorted(ENTRIES))
    def test_matches_eager_decode(self, system, fused, include_dram):
        configs = list(ENTRIES[system].default_sweep())[:2]
        jobs = [make_job(_network(), config, fused=fused,
                         include_dram=include_dram)
                for config in configs]
        serial = run_jobs(jobs)
        with WorkerPool(2) as pool:
            # Assembly decodes straight from the layer entries.
            planned = run_jobs(jobs, cache=EvaluationCache(), pool=pool)
        for config, *assembled in zip(configs, serial, planned):
            # The eager reference: the store-less object path.
            computed = ENTRIES[system].system_type(config).evaluate_network(
                _network(), fused=fused)
            spec = network_evaluation_to_dict(computed)
            if not include_dram:
                spec = _without_dram(spec)
            for evaluation in assembled:
                assert network_evaluation_to_dict(evaluation) == spec
                _assert_same(evaluation, spec)
            _assert_same(network_evaluation_from_dict(spec), spec)

    def test_repeated_energy_key_sums_before_scaling(self):
        computed = run_jobs([make_job(_network(),
                                      ENTRIES["albireo"].config_type())])[0]
        spec = network_evaluation_to_dict(computed)
        # Split one row of the counted layer into two rows of one key:
        # the layer's entry is their sum, scaled by the count after.
        layer, count = next(item for item in spec["layers"]
                            if item[1] > 1)
        component, dataspace, value = layer["energy"][0]
        layer["energy"][0:1] = [[component, dataspace, value / 3.0],
                                [component, dataspace, value * 0.7]]
        _assert_same(network_evaluation_from_dict(spec), spec)

    def test_layers_built_only_when_read(self, layer_decodes):
        computed = ENTRIES["crossbar"].system_type().evaluate_network(
            _network())
        lazy = network_evaluation_from_dict(
            network_evaluation_to_dict(computed))
        _metrics(lazy)
        lazy.total_energy
        assert layer_decodes == []
        assert len(lazy.layers) == len(computed.layers)
        assert len(layer_decodes) == len(computed.layers)
        lazy.layers
        assert len(layer_decodes) == len(computed.layers)  # decoded once


class TestOneRecordPerPoint:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts ``Record.from_evaluation`` calls."""
        calls = []
        original = Record.__dict__["from_evaluation"].__func__

        def counting(cls, *args, **kwargs):
            calls.append(args[0])
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Record, "from_evaluation",
                            classmethod(counting))
        return calls

    def _run(self, mode, builds=None, **kwargs):
        """One study run in ``mode``; ``warm`` first fills the cache
        (and then clears ``builds``) so only the replay is observed."""
        study = (Study().systems("albireo", "crossbar", "wdm_delay")
                 .networks("tiny").grid(clock_ghz=(3.1, 3.2)))
        if mode == "serial":
            return study.run(**kwargs)
        cache = EvaluationCache()
        with WorkerPool(2) as pool:
            if mode == "warm":
                study.run(cache=cache, pool=pool)
                if builds is not None:
                    builds.clear()
            results = study.run(cache=cache, pool=pool, **kwargs)
        expected_hits = len(results) if mode == "warm" else 0
        assert cache.stats["results"].hits == expected_hits
        return results

    @pytest.mark.parametrize("mode", ["serial", "pool", "warm"])
    def test_streamed_records_are_the_result_records(self, mode):
        streamed = []
        results = self._run(mode, on_record=lambda record, done, total:
                            streamed.append(record))
        assert len(streamed) == len(results) == 6
        assert sorted(map(id, streamed)) == sorted(map(id, results))

    @pytest.mark.parametrize("mode", ["serial", "pool", "warm"])
    @pytest.mark.parametrize("streaming", [False, True],
                             ids=["plain", "on_record"])
    def test_one_build_per_point(self, mode, streaming, builds):
        kwargs = {"on_record": lambda *args: None} if streaming else {}
        results = self._run(mode, builds, **kwargs)
        assert len(results) == 6
        assert len(builds) == len(results)
