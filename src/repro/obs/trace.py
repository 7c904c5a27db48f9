"""Hierarchical span tracing with near-zero disabled cost.

The observability layer answers one question the engine could not before:
*where does the wall-clock go?*  A :class:`Tracer` records **spans** —
named, nested, monotonic-clock timed regions opened with the
``with tracer.span("phase", key=value):`` context manager — plus instant
events and cheap aggregate tick counters for regions too hot to record
individually (e.g. the ~µs-scale analyzer inner loop).  A finished run
snapshots into a :class:`Trace`, which renders three ways: Chrome/Perfetto
``traceEvents`` JSON (:meth:`Trace.to_chrome_json`), a per-phase summary
with self-time attribution (:meth:`Trace.summary`), and the ASCII table
in :mod:`repro.report.trace`.

Instrumented library code never takes a tracer argument.  It calls the
module-level :func:`span` / :func:`tick` helpers, which dispatch to the
process's *active* tracer — :data:`NULL_TRACER` by default, whose spans
are a shared no-op context manager, so an uninstrumented run records
nothing and pays only a global read and a dict build per call site.
:func:`tracing` activates a real tracer for a ``with`` block (the CLI's
``--trace`` and :meth:`repro.api.Study.run`'s ``trace=`` do exactly
this).

Worker processes are handled by the engine's one-message-per-batch
protocol: the parent ships :meth:`Tracer.worker_config` (its clock epoch
and pid) to pool initializers, each worker activates a
:meth:`Tracer.for_worker` tracer recording against the shared epoch, and
the events travel back piggybacked on the existing result messages where
:meth:`Tracer.absorb` merges them into one timeline.  Every event carries
the recording process's pid as its ``tid``, so workers appear as distinct
lanes in Chrome/Perfetto.  ``time.perf_counter`` is CLOCK_MONOTONIC on
the POSIX platforms where the pool forks, so parent and worker timestamps
share a timebase; on platforms where they might not, lanes stay
internally consistent and only cross-lane alignment degrades.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Trace",
    "Tracer",
    "activate",
    "current_tracer",
    "deactivate",
    "span",
    "tick",
    "tracing",
    "tracing_enabled",
]


class Span:
    """One open region of a :class:`Tracer`'s timeline.

    Returned by :meth:`Tracer.span` and used as a context manager; while
    open, :meth:`set` attaches attributes and :meth:`add` accumulates
    counters, both landing in the recorded event's ``args``.
    """

    __slots__ = ("_tracer", "name", "args", "_start", "_child_us")

    def __init__(self, tracer: "Tracer", name: str,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0.0
        self._child_us = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute to the span (overwrites)."""
        self.args[key] = value

    def add(self, key: str, amount: Union[int, float] = 1) -> None:
        """Accumulate a counter attribute on the span."""
        self.args[key] = self.args.get(key, 0) + amount

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack
        stack.pop()
        duration_us = (end - self._start) * 1e6
        parent = stack[-1] if stack else None
        if parent is not None:
            parent._child_us += duration_us
        tracer._record(self, duration_us, parent)
        return False


class _NullSpan:
    """The shared do-nothing span of :class:`NullTracer`.

    One module-level instance serves every disabled call site, so a
    disabled ``with span(...)`` allocates nothing and records nothing.
    """

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def add(self, key: str, amount: Union[int, float] = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    ``enabled`` is False so call sites with real per-call cost (timing a
    hot inner loop for :meth:`tick`) can skip the measurement entirely.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs: Any) -> None:
        pass

    def tick(self, name: str, seconds: float, count: int = 1) -> None:
        pass

    def trace(self) -> "Trace":
        return Trace([])


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans, instants, and aggregate ticks for one process.

    ``epoch`` anchors timestamps (``perf_counter`` units); worker tracers
    are constructed with the parent's epoch (:meth:`for_worker`) so all
    lanes share one timeline.  Not thread-safe: the engine parallelizes
    with processes, each owning its tracer.
    """

    enabled = True

    def __init__(self, epoch: Optional[float] = None,
                 pid: Optional[int] = None,
                 tid: Optional[int] = None) -> None:
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.pid = os.getpid() if pid is None else pid
        self.tid = os.getpid() if tid is None else tid
        self._stack: List[Span] = []
        self._events: List[Dict[str, Any]] = []
        #: name -> [count, total_us]; the cheap path for µs-scale regions.
        self._aggregates: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """An open span; use as ``with tracer.span("name", k=v) as sp:``."""
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """A zero-duration marker event at the current time."""
        self._events.append({
            "name": name,
            "ph": "i",
            "ts": (time.perf_counter() - self.epoch) * 1e6,
            "dur": 0.0,
            "self": 0.0,
            "pid": self.pid,
            "tid": self.tid,
            "parent": self._stack[-1].name if self._stack else None,
            "args": dict(attrs),
        })

    def tick(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold ``seconds`` into the aggregate bucket ``name``.

        For regions called thousands of times per span (the analyzer's
        inner pass): one dict update instead of one event each, so
        enabling tracing never floods the timeline.
        """
        bucket = self._aggregates.get(name)
        if bucket is None:
            bucket = [0, 0.0]
            self._aggregates[name] = bucket
        bucket[0] += count
        bucket[1] += seconds * 1e6

    def _record(self, span: Span, duration_us: float,
                parent: Optional[Span]) -> None:
        self._events.append({
            "name": span.name,
            "ph": "X",
            "ts": (time.perf_counter() - self.epoch) * 1e6 - duration_us,
            "dur": duration_us,
            "self": max(0.0, duration_us - span._child_us),
            "pid": self.pid,
            "tid": self.tid,
            "parent": parent.name if parent is not None else None,
            "args": span.args,
        })

    # ------------------------------------------------------------------
    # Worker protocol
    # ------------------------------------------------------------------
    def worker_config(self) -> Tuple[float, int]:
        """What a pool initializer needs to open a same-timeline lane."""
        return (self.epoch, self.pid)

    @classmethod
    def for_worker(cls, config: Tuple[float, int]) -> "Tracer":
        """A worker-side tracer on the parent's timeline: shared epoch
        and pid, the worker's own pid as the lane (``tid``)."""
        epoch, parent_pid = config
        return cls(epoch=epoch, pid=parent_pid, tid=os.getpid())

    def drain(self) -> Dict[str, Any]:
        """Ship-and-reset: events and aggregates recorded since the last
        drain, as one JSON-compatible payload (piggybacked on the
        engine's per-batch result messages)."""
        payload = {
            "events": self._events,
            "aggregates": {name: list(bucket)
                           for name, bucket in self._aggregates.items()},
        }
        self._events = []
        self._aggregates = {}
        return payload

    def absorb(self, payload: Optional[Dict[str, Any]]) -> None:
        """Merge a :meth:`drain` payload (from a worker) into this
        timeline."""
        if not payload:
            return
        self._events.extend(payload.get("events", ()))
        for name, (count, total_us) in payload.get("aggregates",
                                                   {}).items():
            bucket = self._aggregates.get(name)
            if bucket is None:
                self._aggregates[name] = [count, total_us]
            else:
                bucket[0] += count
                bucket[1] += total_us

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def trace(self) -> "Trace":
        """An immutable snapshot of everything recorded so far."""
        return Trace(list(self._events),
                     aggregates={name: tuple(bucket) for name, bucket
                                 in self._aggregates.items()},
                     main_tid=self.tid)


class Trace:
    """A finished timeline: sorted span events plus aggregate counters.

    Events are ordered deterministically — by start time, then lane,
    then longest-first, then name — so merges arriving in any worker
    completion order produce identical exports (regression-tested).
    """

    def __init__(self, events: List[Dict[str, Any]],
                 aggregates: Optional[Dict[str, Tuple[float, float]]] = None,
                 main_tid: Optional[int] = None) -> None:
        key: Any = itemgetter("ts")  # exact unless two events start together
        if len({event["ts"] for event in events}) < len(events):
            key = lambda event: (event["ts"], str(event["tid"]),  # noqa: E731
                                 -event["dur"], event["name"])
        self.events = sorted(events, key=key)
        self.aggregates = dict(aggregates or {})
        self.main_tid = main_tid

    def __len__(self) -> int:
        return len(self.events)

    def span_names(self) -> Set[str]:
        """Names of every recorded span/instant event."""
        return {event["name"] for event in self.events}

    def lanes(self) -> List[Tuple[int, int]]:
        """Distinct (pid, tid) lanes, main lane first then sorted."""
        seen = {(event["pid"], event["tid"]) for event in self.events}
        return sorted(seen, key=lambda lane: (lane[1] != self.main_tid,
                                              str(lane)))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-phase totals with self-time attribution.

        ``spans`` maps each span name to its call count, total inclusive
        time, and *self* time (inclusive minus direct children — the
        wall-clock the phase itself is responsible for).  ``wall_s`` is
        the timeline extent; ``aggregates`` carries the tick counters.
        """
        spans: Dict[str, Dict[str, float]] = {}
        start = end = None
        for event in self.events:
            row = spans.setdefault(event["name"],
                                   {"count": 0, "total_s": 0.0,
                                    "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += event["dur"] / 1e6
            row["self_s"] += event["self"] / 1e6
            start = event["ts"] if start is None else min(start, event["ts"])
            stop = event["ts"] + event["dur"]
            end = stop if end is None else max(end, stop)
        wall_s = ((end - start) / 1e6) if self.events else 0.0
        return {
            "wall_s": wall_s,
            "lanes": len(self.lanes()),
            "events": len(self.events),
            "spans": spans,
            "aggregates": {
                name: {"count": int(count), "total_s": total_us / 1e6}
                for name, (count, total_us) in sorted(self.aggregates.items())
            },
        }

    def main_lane_coverage(self) -> float:
        """Fraction of the main lane's extent covered by named spans.

        Self-times on one lane tile its top-level spans exactly, so this
        is (attributed time) / (first-to-last span extent) for the parent
        process — the acceptance metric for "named spans account for the
        wall-clock".
        """
        main = [event for event in self.events
                if event["tid"] == self.main_tid]
        if not main:
            return 0.0
        start = min(event["ts"] for event in main)
        end = max(event["ts"] + event["dur"] for event in main)
        extent = end - start
        if extent <= 0.0:
            return 0.0
        attributed = sum(event["self"] for event in main)
        return min(1.0, attributed / extent)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome_json(self, indent: Optional[int] = None) -> str:
        """Chrome/Perfetto ``traceEvents`` JSON (open via ui.perfetto.dev
        or chrome://tracing)."""
        from repro.obs.chrome import chrome_trace_dict

        return json.dumps(chrome_trace_dict(self), indent=indent)

    def save(self, path: str) -> str:
        """Write the Chrome JSON to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_chrome_json())
            handle.write("\n")
        return path


# ---------------------------------------------------------------------------
# The active tracer
# ---------------------------------------------------------------------------

_ACTIVE: Union[Tracer, NullTracer] = NULL_TRACER


def current_tracer() -> Union[Tracer, NullTracer]:
    """The process's active tracer (:data:`NULL_TRACER` when disabled)."""
    return _ACTIVE


def tracing_enabled() -> bool:
    return _ACTIVE.enabled


def activate(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the active tracer."""
    global _ACTIVE
    if tracer is None:
        tracer = Tracer()
    _ACTIVE = tracer
    return tracer


def deactivate() -> Union[Tracer, NullTracer]:
    """Restore the disabled state; returns the tracer that was active."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = NULL_TRACER
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate a tracer for a ``with`` block, restoring the previous
    active tracer (usually :data:`NULL_TRACER`) on exit::

        with tracing() as tracer:
            study.run(...)
        trace = tracer.trace()
    """
    global _ACTIVE
    previous = _ACTIVE
    installed = activate(tracer)
    try:
        yield installed
    finally:
        _ACTIVE = previous


def span(name: str, **attrs: Any):
    """A span on the active tracer (a shared no-op when disabled)."""
    return _ACTIVE.span(name, **attrs)


def tick(name: str, seconds: float, count: int = 1) -> None:
    """An aggregate tick on the active tracer (no-op when disabled)."""
    _ACTIVE.tick(name, seconds, count=count)
