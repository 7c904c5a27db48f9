"""Reference-mapping candidates are built once per distinct decision.

Albireo and the WDM delay-buffer system enumerate their reference-mapping
variants by decision: a mode is finished only when it changes the
factors it reaches, and each finished variant is assembled once per
distinct DRAM loop nest.  These tests pin that the lists are exactly the
full enumeration deduplicated by structure (same mappings, same order,
so pricing picks the same winner) and that no duplicate is constructed
on the way.  They also pin that evaluation records do not depend on
``PYTHONHASHSEED``.
"""

import itertools
import pathlib
import subprocess
import sys

import pytest

from repro.engine import EvaluationCache, FailurePolicy, make_job, run_jobs
from repro.engine.cache import SystemStore
from repro.engine.codec import network_evaluation_to_dict
from repro.exceptions import TaskTimeoutError
from repro.mapping.analysis import NestAnalyzer
from repro.mapping.mapping import Mapping
from repro.systems.albireo import (
    AlbireoConfig,
    AlbireoSystem,
    albireo_analysis_layer,
    albireo_mapping_candidates,
    albireo_reference_mapping,
)
from repro.systems.base import layer_shape_key
from repro.systems.wdm_delay import (
    WdmDelayConfig,
    wdm_delay_mapping_candidates,
    wdm_delay_reference_mapping,
)
from repro.workloads import (
    ConvLayer,
    Network,
    network_by_name,
    network_names,
)

PROTECTIONS = ("weights", "inputs", "outputs")
ALBIREO_MODES = tuple(itertools.product(("fill", "divisor"),
                                        ("divisor", "fill", "off")))
WDM_DELAY_MODES = (("fill",), ("divisor",))

#: The synthetic shapes of the ``deep`` benchmark workload, plus a layer
#: whose every dimension is prime (no exact divisor fits any structure).
EXTRA_LAYERS = (
    ConvLayer(name="deep-a", m=64, c=64, p=32, q=32, r=3, s=3),
    ConvLayer(name="deep-b", m=48, c=32, p=14, q=14, r=3, s=3),
    ConvLayer(name="deep-c", m=128, c=64, p=8, q=8, r=3, s=3),
    ConvLayer(name="awkward-prime", m=127, c=61, p=13, q=11, r=5, s=3),
)


def _distinct_layers():
    """One layer per shape over every shipped network, plus the extras."""
    layers = {}
    for name in network_names():
        for entry in network_by_name(name).entries:
            layer = entry.layer
            layers.setdefault(layer_shape_key(layer), layer)
    for layer in EXTRA_LAYERS:
        layers.setdefault(layer_shape_key(layer), layer)
    return list(layers.values())


LAYERS = _distinct_layers()

ALBIREO_CONFIGS = (
    AlbireoConfig(global_buffer_kib=64, clusters=8, output_reuse=1,
                  wavelengths=16),
    AlbireoConfig(global_buffer_kib=256),
    AlbireoConfig(global_buffer_kib=1024, clusters=32, output_reuse=9,
                  wavelengths=9),
)
WDM_DELAY_CONFIGS = (
    WdmDelayConfig(global_buffer_kib=64, tiles=4, wavelengths=5),
    WdmDelayConfig(global_buffer_kib=256),
    WdmDelayConfig(global_buffer_kib=1024, tiles=16, wavelengths=16),
)


def _full_enumeration(build, modes):
    """Every mode tuple x protection through the public single-mapping
    builder, deduplicated by exact structure in enumeration order."""
    mappings, seen = [], set()
    for mode in modes:
        for protects in PROTECTIONS:
            mapping = build(*mode, protects)
            key = mapping.structure_key()
            if key not in seen:
                seen.add(key)
                mappings.append(mapping)
    return mappings


class TestCandidateLists:
    @pytest.mark.parametrize("config", ALBIREO_CONFIGS,
                             ids=["64KiB", "256KiB", "1024KiB"])
    def test_albireo_matches_full_enumeration(self, config):
        for layer in LAYERS:
            target = albireo_analysis_layer(layer)
            expected = _full_enumeration(
                lambda channel, integrator, protects:
                albireo_reference_mapping(config, target, channel,
                                          integrator, protects),
                ALBIREO_MODES)
            assert albireo_mapping_candidates(config, target) == expected, \
                layer

    @pytest.mark.parametrize("config", WDM_DELAY_CONFIGS,
                             ids=["64KiB", "256KiB", "1024KiB"])
    def test_wdm_delay_matches_full_enumeration(self, config):
        for layer in LAYERS:
            expected = _full_enumeration(
                lambda channel, protects:
                wdm_delay_reference_mapping(config, layer, channel,
                                            protects),
                WDM_DELAY_MODES)
            assert wdm_delay_mapping_candidates(config, layer) == expected, \
                layer


class TestConstructionCounts:
    """No candidate list builds a mapping it then throws away."""

    @pytest.mark.parametrize("system, expected", [
        ("albireo", 124),
        ("wdm_delay", 73),
    ])
    def test_every_built_mapping_is_a_candidate(self, monkeypatch, system,
                                                expected):
        built = [0]
        post_init = Mapping.__post_init__

        def counting(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(Mapping, "__post_init__", counting)
        returned = 0
        for kib in (1024, 2048):
            for network in ("resnet18", "alexnet", "lenet5"):
                for entry in network_by_name(network).entries:
                    if system == "albireo":
                        returned += len(albireo_mapping_candidates(
                            AlbireoConfig(global_buffer_kib=kib),
                            albireo_analysis_layer(entry.layer)))
                    else:
                        returned += len(wdm_delay_mapping_candidates(
                            WdmDelayConfig(global_buffer_kib=kib),
                            entry.layer))
        assert built[0] == returned == expected


class TestCandidateErrors:
    """Only an invalid candidate is skipped; any other error propagates.

    The task watchdog raises :class:`TaskTimeoutError` from SIGALRM
    wherever the task happens to be.  Read as "invalid candidate", it
    used to make the run store a costlier winner as an ordinary result.
    """

    LAYER = ConvLayer(name="conv", m=64, c=64, p=56, q=56, r=3, s=3)

    @staticmethod
    def _times_out_on(monkeypatch, mapping, times=None):
        """Make analysing ``mapping`` raise the watchdog's error (every
        time, or only the first ``times`` times)."""
        analyze = NestAnalyzer.analyze
        left = [times]

        def timing_out(self):
            if self.mapping == mapping and left[0] != 0:
                if left[0] is not None:
                    left[0] -= 1
                raise TaskTimeoutError("task exceeded its 1s deadline")
            return analyze(self)

        monkeypatch.setattr(NestAnalyzer, "analyze", timing_out)

    def test_timeout_while_choosing_propagates(self, monkeypatch):
        target = albireo_analysis_layer(self.LAYER)
        candidates = AlbireoSystem().mapping_candidates(target)
        winner = AlbireoSystem().reference_mapping(self.LAYER)
        assert len(candidates) == 2 and winner in candidates
        self._times_out_on(monkeypatch, winner)
        with pytest.raises(TaskTimeoutError):
            AlbireoSystem().reference_mapping(self.LAYER)

    def test_retry_in_the_same_run_finds_the_true_winner(self, monkeypatch):
        winner = AlbireoSystem().reference_mapping(self.LAYER)
        memo = {}
        system = AlbireoSystem(
            store=SystemStore(EvaluationCache(), "albireo", memo))
        self._times_out_on(monkeypatch, winner, times=1)
        with pytest.raises(TaskTimeoutError):
            system.reference_mapping(self.LAYER)
        # The interrupted shape left no memo entry behind.
        assert [shapes for shapes in memo.values() if shapes] == []
        assert system.reference_mapping(self.LAYER) == winner

    def test_retried_job_matches_an_undisturbed_run(self, monkeypatch):
        job = make_job(Network.from_layers("conv", [self.LAYER]),
                       AlbireoConfig())
        expected = network_evaluation_to_dict(run_jobs([job])[0])
        self._times_out_on(monkeypatch,
                           AlbireoSystem().reference_mapping(self.LAYER),
                           times=1)
        cache = EvaluationCache()
        [result] = run_jobs([job], cache=cache, failure_policy=FailurePolicy(
            on_error="retry", max_retries=1, backoff=0))
        assert network_evaluation_to_dict(result) == expected
        assert cache.resilience.retries == 1


def test_records_do_not_depend_on_hash_seed():
    """Storage and converter plans visit dataspaces in canonical order,
    so energy entries, and the float sums over them, come out the same
    in every process.  Frozensets of str enums iterate in string-hash
    order, which at these two points once changed the energy total."""
    script = (
        "import hashlib, json, sys; sys.path.insert(0, 'src')\n"
        "from repro.energy import AGGRESSIVE\n"
        "from repro.engine.codec import network_evaluation_to_dict\n"
        "from repro.systems import (AlbireoConfig, AlbireoSystem,\n"
        "                           WdmDelayConfig, WdmDelaySystem)\n"
        "from repro.workloads import mobilenet_v1, resnet18\n"
        "for system, network in (\n"
        "        (AlbireoSystem(AlbireoConfig(\n"
        "            scenario=AGGRESSIVE, global_buffer_kib=256)),\n"
        "         resnet18()),\n"
        "        (WdmDelaySystem(WdmDelayConfig(\n"
        "            scenario=AGGRESSIVE, global_buffer_kib=2048)),\n"
        "         mobilenet_v1())):\n"
        "    evaluation = system.evaluate_network(network)\n"
        "    stored = json.dumps(network_evaluation_to_dict(evaluation))\n"
        "    print(evaluation.energy_pj.hex(),\n"
        "          hashlib.sha256(stored.encode()).hexdigest())\n"
    )
    outputs = []
    for seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            cwd=str(pathlib.Path(__file__).parent.parent),
        )
        assert result.returncode == 0, result.stderr[-2000:]
        outputs.append(result.stdout)
    assert outputs[0].count("\n") == 2, outputs[0]
    assert outputs[0] == outputs[1]
