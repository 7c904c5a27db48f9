"""Tests for the mapper search and its constraints."""

import pathlib
import subprocess
import sys

import pytest

from repro.exceptions import MappingError
from repro.mapping import Mapper, MappingConstraints, analyze
from repro.mapping.constraints import FanoutConstraint, StorageConstraint
from repro.mapping.mapper import _largest_fitting_factor
from repro.workloads import ConvLayer
from repro.workloads.dims import Dim


def _traffic_cost(architecture, layer):
    """Simple cost: total DRAM traffic (reads+writes)."""

    def cost(mapping):
        counts = analyze(architecture, layer, mapping)
        dram = counts.storage["DRAM"]
        return dram.total_reads + dram.total_writes

    return cost


def _largest_fitting_factor_reference(size: int, cap: int) -> int:
    """The original O(cap) linear scan, kept as the semantic reference."""
    if cap <= 1:
        return 1
    if size <= cap:
        return size
    best_factor = 1
    best_key = (size, size)
    for factor in range(1, cap + 1):
        steps = -(-size // factor)
        key = (steps, steps * factor)
        if key < best_key:
            best_key = key
            best_factor = factor
    return best_factor


class TestLargestFittingFactor:
    def test_exact_fit(self):
        assert _largest_fitting_factor(8, 8) == 8

    def test_smaller_than_cap(self):
        assert _largest_fitting_factor(3, 8) == 3

    def test_prefers_full_cap_for_fewer_steps(self):
        # 512 over cap 5: 5 steps of 103 beat 4's 128 steps.
        assert _largest_fitting_factor(512, 5) == 5

    def test_prefers_divisor_on_step_tie(self):
        # 64 over cap 9: both 8 and 9 give 8 steps; 8 has no padding.
        assert _largest_fitting_factor(64, 9) == 8

    def test_cap_one(self):
        assert _largest_fitting_factor(100, 1) == 1

    def test_padding_minimized_on_tie(self):
        # 57 over cap 16: 15 and 16 both give 4 steps; 15 pads less (60<64).
        assert _largest_fitting_factor(57, 16) == 15

    def test_matches_linear_scan_exhaustively(self):
        """Divisor/ceil-block walk == the old O(cap) scan, every pair.

        Exhaustive over a dense small grid, where every quotient-block
        boundary case occurs, plus a seeded random sample across the full
        (size, cap) <= 512 range the mapper actually exercises.
        """
        import random

        for size in range(1, 130):
            for cap in range(1, 130):
                assert _largest_fitting_factor(size, cap) \
                    == _largest_fitting_factor_reference(size, cap), \
                    (size, cap)
        rng = random.Random(42)
        for _ in range(2000):
            size = rng.randint(1, 512)
            cap = rng.randint(1, 512)
            assert _largest_fitting_factor(size, cap) \
                == _largest_fitting_factor_reference(size, cap), (size, cap)


class TestSearch:
    def test_finds_valid_mapping(self, two_level_arch, medium_conv):
        mapper = Mapper(two_level_arch,
                        _traffic_cost(two_level_arch, medium_conv))
        result = mapper.search(medium_conv, max_evaluations=300, seed=1)
        result.mapping.validate(two_level_arch, medium_conv)
        assert result.valid > 0
        assert result.cost < float("inf")
        assert 0 < result.validity_rate <= 1.0

    def test_deterministic_with_seed(self, two_level_arch, medium_conv):
        mapper = Mapper(two_level_arch,
                        _traffic_cost(two_level_arch, medium_conv))
        a = mapper.search(medium_conv, max_evaluations=200, seed=7)
        b = mapper.search(medium_conv, max_evaluations=200, seed=7)
        assert a.cost == b.cost

    def test_deterministic_across_processes(self):
        """The search must not depend on PYTHONHASHSEED: frozensets of
        str enums iterate in string-hash order, so any enumeration order
        taken from one changes the candidate pool between processes."""
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.systems import create_system\n"
            "from repro.workloads import lenet5\n"
            "layer = {entry.layer.name: entry.layer\n"
            "         for entry in lenet5().entries}['conv2']\n"
            "for name in ('crossbar', 'wdm_delay'):\n"
            "    result = create_system(name).search_mapping(layer)\n"
            "    print(name, result.evaluated, result.valid,\n"
            "          result.deduplicated, result.pruned_early,\n"
            "          result.cost.hex(), result.mapping.canonical_key())\n"
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

    def test_uses_spatial_parallelism(self, two_level_arch, medium_conv):
        mapper = Mapper(two_level_arch,
                        _traffic_cost(two_level_arch, medium_conv))
        result = mapper.search(medium_conv, max_evaluations=300, seed=1)
        assert result.mapping.total_spatial_product > 1

    def test_seed_candidate_always_considered(self, two_level_arch,
                                              medium_conv):
        from repro.mapping import FanoutMapping, LevelMapping, Mapping
        from repro.mapping.mapping import TemporalLoop

        seed_mapping = Mapping(
            levels=(LevelMapping("DRAM", ()),
                    LevelMapping("GB", (
                        TemporalLoop(Dim.M, 4), TemporalLoop(Dim.C, 8),
                        TemporalLoop(Dim.P, 8), TemporalLoop(Dim.Q, 8),
                        TemporalLoop(Dim.R, 3), TemporalLoop(Dim.S, 3)))),
            spatials=(FanoutMapping("pe", {Dim.M: 4}),),
        )
        cost_fn = _traffic_cost(two_level_arch, medium_conv)
        mapper = Mapper(two_level_arch, cost_fn)
        result = mapper.search(medium_conv, max_evaluations=50, seed=1,
                               extra_candidates=(seed_mapping,))
        assert result.cost <= cost_fn(seed_mapping)

    def test_mapper_beats_naive_mapping(self, two_level_arch, medium_conv):
        """The searched mapping must beat an everything-at-DRAM schedule."""
        from repro.mapping import FanoutMapping, LevelMapping, Mapping
        from repro.mapping.mapping import TemporalLoop

        naive = Mapping(
            levels=(LevelMapping("DRAM", (
                        TemporalLoop(Dim.M, 16), TemporalLoop(Dim.C, 8),
                        TemporalLoop(Dim.P, 8), TemporalLoop(Dim.Q, 8),
                        TemporalLoop(Dim.R, 3), TemporalLoop(Dim.S, 3))),
                    LevelMapping("GB", ())),
            spatials=(FanoutMapping("pe", {}),),
        )
        cost_fn = _traffic_cost(two_level_arch, medium_conv)
        mapper = Mapper(two_level_arch, cost_fn)
        result = mapper.search(medium_conv, max_evaluations=400, seed=3)
        assert result.cost < cost_fn(naive)

    def test_no_valid_mapping_raises(self, two_level_arch, medium_conv):
        def always_reject(mapping):
            raise MappingError("rejected")

        mapper = Mapper(two_level_arch, always_reject)
        with pytest.raises(MappingError):
            mapper.search(medium_conv, max_evaluations=20)


class TestConstraints:
    def test_max_instances_respected(self, two_level_arch, medium_conv):
        constraints = MappingConstraints(
            fanouts={"pe": FanoutConstraint(max_instances=2)})
        mapper = Mapper(two_level_arch,
                        _traffic_cost(two_level_arch, medium_conv),
                        constraints=constraints)
        result = mapper.search(medium_conv, max_evaluations=200, seed=1)
        assert result.mapping.spatial_for("pe").factor_product <= 2

    def test_forbidden_dim_respected(self, two_level_arch, medium_conv):
        constraints = MappingConstraints(
            fanouts={"pe": FanoutConstraint(forbidden_dims={Dim.M})})
        mapper = Mapper(two_level_arch,
                        _traffic_cost(two_level_arch, medium_conv),
                        constraints=constraints)
        result = mapper.search(medium_conv, max_evaluations=200, seed=1)
        assert Dim.M not in result.mapping.spatial_for("pe").factors

    def test_max_factor_respected(self, two_level_arch, medium_conv):
        constraints = MappingConstraints(
            fanouts={"pe": FanoutConstraint(max_factor={Dim.M: 2})})
        mapper = Mapper(two_level_arch,
                        _traffic_cost(two_level_arch, medium_conv),
                        constraints=constraints)
        result = mapper.search(medium_conv, max_evaluations=200, seed=1)
        assert result.mapping.spatial_for("pe").factors.get(Dim.M, 1) <= 2

    def test_constraint_check_rejects_direct_violation(self):
        from repro.mapping import FanoutMapping, LevelMapping, Mapping

        constraints = MappingConstraints(
            fanouts={"pe": FanoutConstraint(max_instances=2)})
        mapping = Mapping(
            levels=(LevelMapping("DRAM", ()),),
            spatials=(FanoutMapping("pe", {Dim.M: 4}),),
        )
        with pytest.raises(MappingError):
            constraints.check(mapping)

    def test_storage_temporal_product_cap(self):
        from repro.mapping import LevelMapping, Mapping
        from repro.mapping.mapping import TemporalLoop

        constraints = MappingConstraints(
            storages={"ACC": StorageConstraint(max_temporal_product=4)})
        mapping = Mapping(levels=(
            LevelMapping("DRAM", ()),
            LevelMapping("ACC", (TemporalLoop(Dim.C, 8),)),
        ))
        with pytest.raises(MappingError):
            constraints.check(mapping)
