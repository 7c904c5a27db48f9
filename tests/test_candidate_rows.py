"""Mapper candidate rows: checked like Mappings, materialized only to win.

The mapper keeps generated candidates as :class:`CandidateRow` objects and
runs the rules of :meth:`Mapping.validate` and
:meth:`MappingConstraints.check` on the rows themselves.  These tests pin
that the row checks accept exactly the candidates whose materialized
``Mapping`` passes both, with the same messages, and that a batch-pricing
search builds no ``Mapping`` but its winner.
"""

import random
import re

import pytest

from repro.arch import (
    Architecture,
    ComputeLevel,
    Domain,
    SpatialFanout,
    StorageLevel,
)
from repro.exceptions import MappingError
from repro.mapping import Mapper, MappingConstraints
from repro.mapping.analysis import HAVE_NUMPY
from repro.mapping.constraints import FanoutConstraint, StorageConstraint
from repro.mapping.mapper import _materialize
from repro.mapping.mapping import Mapping, problem_dims
from repro.systems.albireo import AlbireoConfig, AlbireoSystem
from repro.workloads import ConvLayer, DataSpace, lenet5
from repro.workloads.dims import Dim

W, I, O = DataSpace.WEIGHTS, DataSpace.INPUTS, DataSpace.OUTPUTS

LAYER = ConvLayer(name="medium", m=16, c=8, p=8, q=8, r=3, s=3)

#: One message pattern per rule of Mapping.validate and
#: MappingConstraints.check.
RULES = {
    "level names": "do not match architecture storage levels",
    "fanout names": "do not match architecture fanouts",
    "fanout dims": "may not map here",
    "fanout size": "instances but hardware provides",
    "temporal dims": "temporal iteration over",
    "coverage": "mapping covers only",
    "max_instances": "instances, constraint allows",
    "forbidden_dims": "is forbidden by constraints",
    "max_factor": r"factor \d+ on \w exceeds constraint cap",
    "max_temporal_product": "temporal product",
}

STRICT = MappingConstraints(
    fanouts={"pe": FanoutConstraint(max_instances=3),
             "lanes": FanoutConstraint(forbidden_dims={Dim.Q},
                                       max_factor={Dim.P: 2})},
    storages={"ACC": StorageConstraint(max_temporal_product=4),
              "GB": StorageConstraint(max_temporal_product=512)},
)


def _arch(pe=(4, {Dim.M, Dim.C}), lanes=(4, {Dim.P, Dim.Q}),
          acc_dims=(Dim.C, Dim.R, Dim.S), acc="ACC", lanes_name="lanes"):
    """DRAM -> GB -> pe -> lanes -> output accumulator -> MAC."""
    return Architecture(
        name="rows",
        nodes=(
            StorageLevel(name="DRAM", component="dram", domain=Domain.DE,
                         dataspaces={W, I, O}),
            StorageLevel(name="GB", component="sram", domain=Domain.DE,
                         capacity_bits=1e9, dataspaces={W, I, O}),
            SpatialFanout(name="pe", size=pe[0], allowed_dims=pe[1],
                          multicast={I}),
            SpatialFanout(name=lanes_name, size=lanes[0],
                          allowed_dims=lanes[1], multicast={W}),
            StorageLevel(name=acc, component="acc", domain=Domain.DE,
                         dataspaces={O}, allowed_temporal_dims=acc_dims),
            ComputeLevel(name="mac", component="mac", domain=Domain.DE),
        ),
    )


def _verdicts(checker, layer, target, source=None):
    """(row-check message, Mapping check message) per generated row.

    ``source`` lends the checker its candidate enumeration, so the rows
    break the checker's rules while the checker's own generation path
    (which checks each spatial group) and row check judge them."""
    if source is not None:
        checker._spatial_candidates = source._spatial_candidates
        checker._temporal_structure = source._temporal_structure
    rows, _ = checker._generate_specs(layer, random.Random(0), set(), 300)
    assert rows
    required = tuple(problem_dims(target).values())
    verdicts = []
    for row in rows:
        failure = checker._row_failure(row, required)
        mapping = _materialize(row)
        try:
            mapping.validate(checker.architecture, target)
            checker.constraints.check(mapping)
            error = None
        except MappingError as caught:
            error = str(caught)
        verdicts.append((failure() if failure is not None else None, error))
    return verdicts


class TestRowChecks:
    def test_rows_accepted_exactly_when_their_mapping_is(self):
        strict = _arch()
        sources = [
            # Constraints off: fanout and storage constraints break.
            Mapper(strict, cost_fn=None),
            # Wider fanouts, an unrestricted accumulator: the
            # architecture's own rules break.
            Mapper(_arch(pe=(16, {Dim.M, Dim.C, Dim.P}),
                         lanes=(8, {Dim.P, Dim.Q, Dim.M}), acc_dims=None),
                   cost_fn=None),
            Mapper(_arch(acc="ACC2"), cost_fn=None),
            Mapper(_arch(lanes_name="lanes2"), cost_fn=None),
        ]
        # The checker's own candidates honor its spatial rules.
        verdicts = _verdicts(Mapper(strict, None, STRICT), LAYER, LAYER)
        for source in sources:
            verdicts += _verdicts(Mapper(strict, None, STRICT), LAYER, LAYER,
                                  source)
        # Rows of a smaller layer under-cover the target.
        small = ConvLayer(name="small", m=4, c=4, p=4, q=4, r=3, s=3)
        verdicts += _verdicts(Mapper(strict, None, STRICT), small, LAYER)

        mismatches = [pair for pair in verdicts if pair[0] != pair[1]]
        assert not mismatches, mismatches[:5]
        messages = [error for _, error in verdicts if error is not None]
        assert len(messages) < len(verdicts), "no row passed every rule"
        silent = [rule for rule, pattern in RULES.items()
                  if not any(re.search(pattern, m) for m in messages)]
        assert not silent, f"rules never exercised: {silent}"


@pytest.fixture(scope="module")
def albireo():
    return AlbireoSystem(AlbireoConfig())


@pytest.mark.skipif(not HAVE_NUMPY, reason="batched pricing needs numpy")
class TestMaterializeOnlyWinner:
    def _search(self, system, layer, monkeypatch):
        target = system.analysis_layer(layer)
        seed = system.reference_mapping(layer)
        built = []
        original = Mapping.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Mapping, "__post_init__", counting)
        mapper = Mapper(system.architecture,
                        cost_fn=system.model.energy_cost_fn(target),
                        constraints=system.constraints(target))
        assert getattr(mapper.cost_fn, "batch", None) is not None
        result = mapper.search(target, max_evaluations=200, seed=0,
                               extra_candidates=(seed,))
        return result, seed, built

    def test_generated_winner_is_the_only_mapping_built(self, albireo,
                                                         monkeypatch):
        layer = lenet5().entries[1].layer
        result, seed, built = self._search(albireo, layer, monkeypatch)
        assert result.evaluated == 200
        assert result.mapping is not seed
        assert len(built) == 1 and built[0] is result.mapping

    def test_seeded_winner_is_returned_as_passed_in(self, albireo,
                                                    monkeypatch):
        layer = ConvLayer(name="ctx-conv", m=64, c=64, p=14, q=14, r=3, s=3)
        result, seed, built = self._search(albireo, layer, monkeypatch)
        assert result.evaluated == 200
        assert result.mapping is seed
        assert built == []
