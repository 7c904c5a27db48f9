"""Tagged result records and the :class:`ResultSet` container.

Every evaluation a :class:`~repro.api.study.Study` runs comes back as a
:class:`Record`: the point's coordinates (system, network, scenario,
grid overrides, user tags) plus the scalar metrics of its
:class:`~repro.model.results.NetworkEvaluation`.  A :class:`ResultSet`
holds an ordered list of records and offers the relational verbs every
sweep front-end used to reimplement ad hoc — ``filter``, ``group_by``,
``pareto``, ``top_k`` — plus serialization (``to_records`` /
``to_json`` / ``to_csv``) and ASCII-table rendering (``report``).
:func:`pareto_frontier`, the sort-based frontier behind ``pareto``,
works on any sequence of points.

Records built by a study keep the full :class:`NetworkEvaluation` (and
the evaluated config) for deep inspection; records rebuilt from
serialized rows carry tags and metrics only — every ResultSet verb works
on both.  A study builds each point's record once: the records it
streams through ``Study.run(on_record=...)`` are the very objects of
its final :class:`ResultSet`.

A study run under a non-fail-stop
:class:`~repro.engine.executor.FailurePolicy` can return *partial*
results: coordinates that failed come back as :class:`FailedRecord`
rows — same tags, no metrics, plus the error type/message and attempt
count.  ``ResultSet.ok()`` / ``ResultSet.failures`` split the two;
ranking verbs (``pareto``, ``top_k``, ``best``) quietly ignore failed
rows, and serialization round-trips them (a row with an ``error`` key
rebuilds as a :class:`FailedRecord`).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import SpecError
from repro.model.results import NetworkEvaluation
from repro.report.ascii import format_table

#: Scalar metrics extracted from every evaluation, in presentation order.
#: These names are the split line between ``tags`` and ``metrics`` when a
#: record is rebuilt from a flat row (:meth:`ResultSet.from_records`).
METRIC_NAMES: Tuple[str, ...] = (
    "energy_per_mac_pj",
    "energy_pj",
    "latency_ns",
    "macs_per_cycle",
    "utilization",
    "total_macs",
    "total_cycles",
)


@dataclass(frozen=True)
class Record:
    """One evaluated study point: coordinates, metrics, and (when fresh)
    the full evaluation object.

    The metrics are read from the evaluation's network totals.  An
    ``evaluation`` rebuilt from its stored form (a cache hit, or the
    pooled path's assembly) decodes its per-layer breakdown
    (``.layers``) on first access; building the record never does.
    Under ``Study.run(on_record=...)`` the streamed record is this same
    object, not a copy.
    """

    tags: Dict[str, Any]
    metrics: Dict[str, float]
    evaluation: Optional[NetworkEvaluation] = field(default=None,
                                                    compare=False)
    config: Any = field(default=None, compare=False)

    #: Discriminator for partial results (True on :class:`FailedRecord`).
    failed: ClassVar[bool] = False

    @classmethod
    def from_evaluation(cls, tags: Mapping[str, Any],
                        evaluation: NetworkEvaluation,
                        config: Any = None) -> "Record":
        metrics = {name: getattr(evaluation, name) for name in METRIC_NAMES}
        return cls(tags=dict(tags), metrics=metrics,
                   evaluation=evaluation, config=config)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """The tag or metric named ``key`` (tags shadow metrics)."""
        if key in self.tags:
            return self.tags[key]
        return self.metrics.get(key, default)

    def value(self, key: str) -> Any:
        """Strict :meth:`get`: unknown keys raise with the options listed."""
        if key in self.tags:
            return self.tags[key]
        if key in self.metrics:
            return self.metrics[key]
        raise SpecError(
            f"record has no tag or metric {key!r}; "
            f"tags: {sorted(self.tags)}, metrics: {sorted(self.metrics)}")

    def __getitem__(self, key: str) -> Any:
        return self.value(key)

    def __contains__(self, key: str) -> bool:
        return key in self.tags or key in self.metrics

    def to_dict(self) -> Dict[str, Any]:
        """One flat row: tags first, then metrics (tags shadow metrics)."""
        row = dict(self.tags)
        for name, value in self.metrics.items():
            row.setdefault(name, value)
        return row


#: The extra flat-row keys a :class:`FailedRecord` carries in place of
#: metrics; a serialized row holding ``"error"`` rebuilds as failed.
FAILURE_KEYS: Tuple[str, ...] = ("error", "error_message", "attempts",
                                 "quarantined")


@dataclass(frozen=True)
class FailedRecord(Record):
    """A study point that failed under a non-fail-stop failure policy.

    Carries the coordinates (``tags``) like any record, no metrics, and
    the failure facts: the exception type name, its message, how many
    times the job was attempted, and whether the cache quarantined it
    as deterministically poisonous.
    """

    error: str = "ReproError"
    error_message: str = ""
    attempts: int = 1
    quarantined: bool = False

    failed: ClassVar[bool] = True

    @classmethod
    def from_failure(cls, tags: Mapping[str, Any], failure: Any,
                     config: Any = None) -> "FailedRecord":
        """Build from an executor :class:`~repro.engine.executor.
        JobFailure` outcome slot."""
        return cls(tags=dict(tags), metrics={}, config=config,
                   error=failure.error,
                   error_message=failure.message,
                   attempts=failure.attempts,
                   quarantined=failure.quarantined)

    def get(self, key: str, default: Any = None) -> Any:
        if key in self.tags:
            return self.tags[key]
        if key in FAILURE_KEYS:
            return getattr(self, key)
        return self.metrics.get(key, default)

    def value(self, key: str) -> Any:
        if key in self.tags or key in FAILURE_KEYS:
            return self.get(key)
        raise SpecError(
            f"failed record has no tag {key!r} (and no metrics — it "
            f"failed with {self.error}: {self.error_message}); "
            f"tags: {sorted(self.tags)}, failure keys: "
            f"{list(FAILURE_KEYS)}")

    def __contains__(self, key: str) -> bool:
        return key in self.tags or key in FAILURE_KEYS

    def to_dict(self) -> Dict[str, Any]:
        """One flat row: tags first, then the failure facts."""
        row = dict(self.tags)
        row.setdefault("error", self.error)
        row.setdefault("error_message", self.error_message)
        row.setdefault("attempts", self.attempts)
        row.setdefault("quarantined", self.quarantined)
        return row


def pareto_frontier(points: Iterable[Any],
                    objectives: Callable[[Any], Sequence[float]]) -> List[Any]:
    """Return the Pareto-optimal subset of ``points``, in input order.

    ``objectives`` maps each point to a tuple of costs (all minimized).
    A point survives if no other point is at least as good on every
    objective and strictly better on one; duplicate cost tuples on the
    frontier all survive (neither dominates the other).

    Two objectives run in O(n log n) via a sort-and-sweep; more
    objectives fall back to a lexicographically pruned pairwise check.

    >>> pareto_frontier([(1, 5), (2, 2), (3, 3)], lambda p: p)
    [(1, 5), (2, 2)]
    """
    points = list(points)
    costs = [tuple(objectives(point)) for point in points]
    if not points:
        return []
    width = len(costs[0])
    if any(len(cost) != width for cost in costs):
        raise ValueError("objectives must return a fixed-length tuple")
    if width == 2:
        keep = _pareto_indices_2d(costs)
    else:
        keep = _pareto_indices_general(costs)
    return [points[index] for index in sorted(keep)]


def _pareto_indices_2d(costs: List[Tuple[float, ...]]) -> List[int]:
    """Sort by (x, y), sweep keeping strictly improving y.

    Within an x-group only the minimal-y points can survive (a same-x,
    smaller-y point dominates); across groups a point survives iff its y
    strictly beats every smaller-x point's best y.  Equal (x, y)
    duplicates of a surviving point all survive.
    """
    order = sorted(range(len(costs)), key=lambda index: costs[index])
    keep: List[int] = []
    best_y = math.inf
    group_start = 0
    while group_start < len(order):
        group_end = group_start
        x = costs[order[group_start]][0]
        while group_end < len(order) and costs[order[group_end]][0] == x:
            group_end += 1
        group = order[group_start:group_end]
        min_y = costs[group[0]][1]  # y-sorted within the group
        if min_y < best_y:
            keep.extend(index for index in group
                        if costs[index][1] == min_y)
            best_y = min_y
        group_start = group_end
    return keep


def _pareto_indices_general(costs: List[Tuple[float, ...]]) -> List[int]:
    """Pairwise check, pruned: a dominator always sorts lexicographically
    no later than its victim, so each point only scans its lex-prefix."""
    order = sorted(range(len(costs)), key=lambda index: costs[index])
    keep: List[int] = []
    frontier_costs: List[Tuple[float, ...]] = []
    for index in order:
        cost = costs[index]
        dominated = False
        for other in frontier_costs:
            if other == cost:
                continue  # equal tuples never dominate
            if all(o <= c for o, c in zip(other, cost)):
                dominated = True
                break
        if not dominated:
            keep.append(index)
            frontier_costs.append(cost)
    return keep


#: ``filter`` predicate signature.
Predicate = Callable[[Record], bool]


class ResultSet:
    """An ordered, immutable collection of :class:`Record` objects.

    ``trace`` carries the :class:`~repro.obs.Trace` collected when the
    producing run had tracing on (``Study.run(trace=...)``); it is
    metadata, not identity — two result sets with equal records compare
    equal regardless of their traces.
    """

    def __init__(self, records: Iterable[Record] = (), trace: Any = None):
        self._records: Tuple[Record, ...] = tuple(records)
        self.trace = trace

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self._records[index])
        return self._records[index]

    def __bool__(self) -> bool:
        return bool(self._records)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self._records == other._records

    def __repr__(self) -> str:
        return f"ResultSet({len(self._records)} records)"

    @property
    def records(self) -> Tuple[Record, ...]:
        return self._records

    # ------------------------------------------------------------------
    # Partial results
    # ------------------------------------------------------------------
    def ok(self) -> "ResultSet":
        """The successfully evaluated records only."""
        return ResultSet(record for record in self._records
                         if not record.failed)

    @property
    def failures(self) -> "ResultSet":
        """The :class:`FailedRecord` rows (empty on a fully clean run)."""
        return ResultSet(record for record in self._records
                         if record.failed)

    # ------------------------------------------------------------------
    # Relational verbs
    # ------------------------------------------------------------------
    def filter(self, predicate: Optional[Predicate] = None,
               **equals: Any) -> "ResultSet":
        """Records matching ``predicate`` and/or tag/metric equality.

        >>> rs.filter(system="albireo", fused=True)      # doctest: +SKIP
        >>> rs.filter(lambda r: r["utilization"] > 0.5)  # doctest: +SKIP
        """
        kept = []
        for record in self._records:
            if predicate is not None and not predicate(record):
                continue
            if any(record.get(key, _MISSING) != value
                   for key, value in equals.items()):
                continue
            kept.append(record)
        return ResultSet(kept)

    def only(self, **equals: Any) -> Record:
        """The single record matching the equality filter; raises unless
        exactly one matches."""
        matched = self.filter(**equals)
        if len(matched) != 1:
            raise SpecError(
                f"expected exactly one record matching {equals!r}, "
                f"found {len(matched)}")
        return matched[0]

    def group_by(self, key: str) -> "Dict[Any, ResultSet]":
        """Partition by a tag/metric value, preserving record order.

        Records without ``key`` group under ``None`` (so a missing tag is
        visible as its own bucket rather than an error or a silent drop).
        """
        groups: Dict[Any, List[Record]] = {}
        for record in self._records:
            groups.setdefault(record.get(key), []).append(record)
        return {value: ResultSet(records)
                for value, records in groups.items()}

    def pareto(self, *metrics: str) -> "ResultSet":
        """The Pareto-optimal records (all metrics minimized), in input
        order.  Defaults to the energy-vs-latency frontier; records with
        duplicate cost tuples on the frontier all survive.
        """
        names = metrics or ("energy_per_mac_pj", "latency_ns")
        return ResultSet(pareto_frontier(
            self.ok().records,
            lambda record: tuple(record.value(name) for name in names)))

    def top_k(self, k: int, metric: str = "energy_per_mac_pj",
              largest: bool = False) -> "ResultSet":
        """The ``k`` best records by one metric (smallest first by
        default); ties keep input order (stable sort).  Failed records
        never rank."""
        ranked = sorted(self.ok().records,
                        key=lambda record: record.value(metric),
                        reverse=largest)
        return ResultSet(ranked[:max(0, k)])

    def best(self, metric: str = "energy_per_mac_pj") -> Record:
        """The single minimal record by ``metric`` (among successes)."""
        candidates = self.ok().records
        if not candidates:
            raise SpecError("best() on an empty ResultSet"
                            if not self._records else
                            "best() on a ResultSet with no successful "
                            "records (all rows failed)")
        return min(candidates, key=lambda record: record.value(metric))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        """Flat rows (tags + metrics), ready for JSON/CSV/dataframes."""
        return [record.to_dict() for record in self._records]

    @classmethod
    def from_records(cls, rows: Iterable[Mapping[str, Any]]) -> "ResultSet":
        """Rebuild from flat rows: :data:`METRIC_NAMES` keys become
        metrics, everything else becomes tags.  A row carrying an
        ``error`` key rebuilds as a :class:`FailedRecord`.  The inverse
        of :meth:`to_records` (evaluation objects are not
        round-tripped)."""
        records: List[Record] = []
        for row in rows:
            if "error" in row:
                tags = {key: value for key, value in row.items()
                        if key not in METRIC_NAMES
                        and key not in FAILURE_KEYS}
                records.append(FailedRecord(
                    tags=tags, metrics={},
                    error=str(row["error"]),
                    error_message=str(row.get("error_message", "")),
                    attempts=int(row.get("attempts", 1)),
                    quarantined=bool(row.get("quarantined", False))))
                continue
            tags = {key: value for key, value in row.items()
                    if key not in METRIC_NAMES}
            metrics = {key: value for key, value in row.items()
                       if key in METRIC_NAMES}
            records.append(Record(tags=tags, metrics=metrics))
        return cls(records)

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        """JSON array of the flat rows; also written to ``path`` if given."""
        text = json.dumps(self.to_records(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Rebuild from :meth:`to_json` output."""
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise SpecError("ResultSet JSON must be an array of records")
        return cls.from_records(rows)

    def columns(self) -> Tuple[List[str], List[str]]:
        """(tag keys, metric keys) in first-seen order across records."""
        tag_keys: List[str] = []
        metric_keys: List[str] = []
        for record in self._records:
            for key in record.tags:
                if key not in tag_keys:
                    tag_keys.append(key)
            for key in record.metrics:
                if key not in metric_keys:
                    metric_keys.append(key)
        return tag_keys, metric_keys

    def to_csv(self, path: Optional[str] = None) -> str:
        """CSV text (tags then metrics, header row first); also written
        to ``path`` if given.  An empty set renders as an empty string.
        When the set holds failed records the failure columns are
        appended (blank on successful rows)."""
        tag_keys, metric_keys = self.columns()
        header = tag_keys + metric_keys
        if any(record.failed for record in self._records):
            header += [key for key in FAILURE_KEYS if key not in header]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if header:
            writer.writerow(header)
            for record in self._records:
                writer.writerow([record.get(key, "") for key in header])
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        return text

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def report(self,
               columns: Optional[Sequence[str]] = None,
               metrics: Optional[Sequence[str]] = None,
               title: Optional[str] = None,
               mark_pareto: Union[bool, Sequence[str]] = False) -> str:
        """An aligned ASCII table of the set.

        ``columns`` defaults to every tag key (first-seen order) and
        ``metrics`` to the headline three (pJ/MAC, latency, utilization).
        ``mark_pareto`` adds a ``Pareto`` star column — pass ``True`` for
        the default energy-vs-latency frontier or a metric-name sequence
        for a custom one.
        """
        tag_keys, _ = self.columns()
        columns = list(columns) if columns is not None else tag_keys
        metrics = list(metrics) if metrics is not None else [
            "energy_per_mac_pj", "latency_ns", "utilization"]
        if not self._records:
            body = "(no records)"
            return f"{title}\n{body}" if title else body
        frontier_ids = set()
        if mark_pareto:
            names = () if mark_pareto is True else tuple(mark_pareto)
            frontier_ids = {id(record)
                            for record in self.pareto(*names)}
        rows = []
        for record in self._records:
            row = [_render(record.get(key, "")) for key in columns]
            if record.failed and metrics:
                # No metrics to show — surface the error type in the
                # first metric column instead of a row of blanks.
                row.extend([f"FAILED:{record.get('error')}"]
                           + ["-"] * (len(metrics) - 1))
            else:
                row.extend(_render_metric(name, record.value(name))
                           for name in metrics)
            if mark_pareto:
                row.append("*" if id(record) in frontier_ids else "")
            rows.append(tuple(row))
        headers = tuple(columns) + tuple(_METRIC_HEADERS.get(name, name)
                                         for name in metrics)
        align = [False] * len(columns) + [True] * len(metrics)
        if mark_pareto:
            headers += ("Pareto",)
            align += [False]
        table = format_table(headers, rows, align_right=align)
        return f"{title}\n{table}" if title else table


_MISSING = object()

_METRIC_HEADERS = {
    "energy_per_mac_pj": "pJ/MAC",
    "energy_pj": "energy pJ",
    "latency_ns": "latency ms",
    "macs_per_cycle": "MACs/cycle",
    "utilization": "util",
    "total_macs": "MACs",
    "total_cycles": "cycles",
}


def _render(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _render_metric(name: str, value: Any) -> str:
    if name == "energy_per_mac_pj":
        return f"{value:.4f}"
    if name == "latency_ns":
        return f"{value / 1e6:.3f}"
    if name == "utilization":
        return f"{value:.1%}"
    if name in ("total_macs", "total_cycles", "macs_per_cycle"):
        return f"{value:.0f}"
    return _render(value)
