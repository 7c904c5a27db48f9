"""ResultSet edge cases: empty sets, pareto ties, missing keys, and
serialization round-trips."""

import json

import pytest

from repro.api import Record, ResultSet, pareto_frontier
from repro.exceptions import SpecError


def make_record(**row):
    """A metrics-only record from a flat row (tags = non-metric keys)."""
    return ResultSet.from_records([row])[0]


def make_set(rows):
    return ResultSet.from_records(rows)


class TestRecord:
    def test_get_tags_shadow_metrics(self):
        record = Record(tags={"system": "a", "energy_per_mac_pj": "tagged"},
                        metrics={"energy_per_mac_pj": 1.0})
        assert record.get("system") == "a"
        assert record.get("energy_per_mac_pj") == "tagged"
        assert record.get("missing", 42) == 42

    def test_value_unknown_key_lists_options(self):
        record = make_record(system="a", energy_per_mac_pj=1.0)
        with pytest.raises(SpecError, match="system"):
            record.value("nope")

    def test_contains_and_getitem(self):
        record = make_record(system="a", energy_per_mac_pj=1.0)
        assert "system" in record and "energy_per_mac_pj" in record
        assert "nope" not in record
        assert record["system"] == "a"


class TestEmptySet:
    def test_everything_works_on_empty(self):
        empty = ResultSet()
        assert len(empty) == 0 and not empty
        assert list(empty) == []
        assert len(empty.filter(system="a")) == 0
        assert empty.group_by("system") == {}
        assert len(empty.pareto()) == 0
        assert len(empty.top_k(3)) == 0
        assert empty.to_records() == []
        assert empty.to_csv() == ""
        assert json.loads(empty.to_json()) == []
        assert empty.report() == "(no records)"
        assert empty.report(title="t") == "t\n(no records)"

    def test_best_on_empty_raises(self):
        with pytest.raises(SpecError, match="empty"):
            ResultSet().best()


class TestParetoAndRanking:
    def test_pareto_ties_all_survive(self):
        """Duplicate cost tuples on the frontier all survive (neither
        dominates the other)."""
        rows = [
            {"name": "tie1", "energy_per_mac_pj": 1.0, "latency_ns": 5.0},
            {"name": "tie2", "energy_per_mac_pj": 1.0, "latency_ns": 5.0},
            {"name": "dominated", "energy_per_mac_pj": 2.0,
             "latency_ns": 6.0},
            {"name": "fast", "energy_per_mac_pj": 3.0, "latency_ns": 1.0},
        ]
        frontier = make_set(rows).pareto()
        assert [r["name"] for r in frontier] == ["tie1", "tie2", "fast"]

    def test_pareto_custom_metrics(self):
        rows = [
            {"name": "a", "x": 1.0, "y": 2.0},
            {"name": "b", "x": 2.0, "y": 1.0},
            {"name": "c", "x": 2.0, "y": 2.0},
        ]
        frontier = make_set(rows).pareto("x", "y")
        assert [r["name"] for r in frontier] == ["a", "b"]

    def test_pareto_preserves_input_order(self):
        rows = [
            {"name": "late", "energy_per_mac_pj": 3.0, "latency_ns": 1.0},
            {"name": "early", "energy_per_mac_pj": 1.0, "latency_ns": 5.0},
        ]
        assert [r["name"] for r in make_set(rows).pareto()] \
            == ["late", "early"]

    def test_top_k_and_best(self):
        rows = [{"name": n, "energy_per_mac_pj": e}
                for n, e in (("a", 3.0), ("b", 1.0), ("c", 2.0))]
        result_set = make_set(rows)
        assert [r["name"] for r in result_set.top_k(2)] == ["b", "c"]
        assert [r["name"] for r in result_set.top_k(1, largest=True)] \
            == ["a"]
        assert result_set.best()["name"] == "b"
        assert len(result_set.top_k(100)) == 3


class TestFilterAndGroup:
    ROWS = [
        {"system": "a", "fused": True, "energy_per_mac_pj": 1.0},
        {"system": "a", "fused": False, "energy_per_mac_pj": 2.0},
        {"system": "b", "fused": True, "energy_per_mac_pj": 3.0},
        {"fused": True, "energy_per_mac_pj": 4.0},  # no system tag
    ]

    def test_filter_by_tags(self):
        result_set = make_set(self.ROWS)
        assert len(result_set.filter(system="a")) == 2
        assert len(result_set.filter(system="a", fused=True)) == 1

    def test_filter_predicate_composes_with_tags(self):
        result_set = make_set(self.ROWS)
        matched = result_set.filter(
            lambda r: r["energy_per_mac_pj"] < 3.0, system="a")
        assert len(matched) == 2

    def test_filter_on_absent_key_matches_nothing(self):
        assert len(make_set(self.ROWS).filter(nonexistent="x")) == 0

    def test_group_by_missing_key_buckets_under_none(self):
        """Records lacking the key land in the ``None`` bucket instead of
        raising or being dropped."""
        groups = make_set(self.ROWS).group_by("system")
        assert set(groups) == {"a", "b", None}
        assert len(groups[None]) == 1
        assert groups[None][0]["energy_per_mac_pj"] == 4.0
        assert sum(len(g) for g in groups.values()) == len(self.ROWS)

    def test_only(self):
        result_set = make_set(self.ROWS)
        assert result_set.only(system="b")["energy_per_mac_pj"] == 3.0
        with pytest.raises(SpecError, match="exactly one"):
            result_set.only(system="a")


class TestSerialization:
    ROWS = [
        {"system": "a", "index": 0, "energy_per_mac_pj": 1.5,
         "latency_ns": 10.0, "utilization": 0.5},
        {"system": "b", "index": 1, "energy_per_mac_pj": 2.5,
         "latency_ns": 20.0, "utilization": 0.25},
    ]

    def test_to_json_from_records_round_trip(self):
        original = make_set(self.ROWS)
        rebuilt = ResultSet.from_records(json.loads(original.to_json()))
        assert rebuilt == original
        assert rebuilt.to_records() == original.to_records()

    def test_from_json_round_trip_with_path(self, tmp_path):
        original = make_set(self.ROWS)
        path = tmp_path / "results.json"
        original.to_json(str(path))
        assert ResultSet.from_json(path.read_text()) == original

    def test_from_json_rejects_non_array(self):
        with pytest.raises(SpecError, match="array"):
            ResultSet.from_json('{"not": "an array"}')

    def test_from_records_splits_tags_and_metrics(self):
        record = make_record(system="a", energy_per_mac_pj=1.0)
        assert record.tags == {"system": "a"}
        assert record.metrics == {"energy_per_mac_pj": 1.0}

    def test_to_csv(self, tmp_path):
        path = tmp_path / "results.csv"
        text = make_set(self.ROWS).to_csv(str(path))
        lines = text.strip().splitlines()
        assert lines[0].startswith("system,index,")
        assert len(lines) == 3
        assert path.read_text() == text

    def test_csv_ragged_tags_fill_blank(self):
        text = make_set([
            {"system": "a", "energy_per_mac_pj": 1.0},
            {"system": "b", "extra": 7, "energy_per_mac_pj": 2.0},
        ]).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "system,extra,energy_per_mac_pj"
        assert lines[1] == "a,,1.0"

    def test_report_renders_table(self):
        report = make_set(self.ROWS).report(mark_pareto=True)
        assert "pJ/MAC" in report and "Pareto" in report
        assert "system" in report

    def test_report_custom_columns(self):
        report = make_set(self.ROWS).report(
            columns=["index"], metrics=["utilization"], title="T")
        assert report.startswith("T\n")
        assert "index" in report and "util" in report
        assert "system" not in report

    def test_slice_returns_result_set(self):
        result_set = make_set(self.ROWS)
        assert isinstance(result_set[:1], ResultSet)
        assert len(result_set[:1]) == 1


class TestParetoFrontier:
    def test_matches_brute_force_2d(self):
        import random

        rng = random.Random(7)
        points = [(rng.randrange(20), rng.randrange(20)) for _ in range(200)]
        assert pareto_frontier(points, lambda p: p) \
            == _brute_force(points, lambda p: p)

    def test_matches_brute_force_3d(self):
        import random

        rng = random.Random(11)
        points = [tuple(rng.randrange(8) for _ in range(3))
                  for _ in range(120)]
        assert pareto_frontier(points, lambda p: p) \
            == _brute_force(points, lambda p: p)

    def test_duplicates_all_survive(self):
        points = [(1, 1), (2, 0), (1, 1), (0, 2)]
        frontier = pareto_frontier(points, lambda p: p)
        assert frontier == points

    def test_input_order_preserved(self):
        points = [(3, 1), (1, 3), (2, 2)]
        assert pareto_frontier(points, lambda p: p) == points

    def test_mismatched_objective_width_rejected(self):
        with pytest.raises(ValueError):
            pareto_frontier([(1, 2), (1,)], lambda p: p)


def _brute_force(points, objectives):
    costs = [tuple(objectives(p)) for p in points]
    keep = []
    for i, point in enumerate(points):
        dominated = any(
            all(o <= c for o, c in zip(other, costs[i]))
            and any(o < c for o, c in zip(other, costs[i]))
            for j, other in enumerate(costs) if j != i)
        if not dominated:
            keep.append(point)
    return keep
