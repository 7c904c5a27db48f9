"""Tests for :mod:`repro.obs` — span tracing, worker-safe collection,
Chrome export — and its wiring through the engine and Study facade."""

import json

import pytest

from repro import Study, obs
from repro.obs import (
    CHROME_REQUIRED_KEYS,
    NULL_TRACER,
    Trace,
    Tracer,
    validate_chrome_trace,
)
from repro.report import format_trace_summary


def _two_job_study() -> Study:
    # Two jobs so the parallel path actually plans and dispatches.
    return (Study().systems("crossbar").networks("tiny")
            .fusion(False, True))


# ---------------------------------------------------------------------------
# Tracer basics
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_attribute_round_trip(self):
        tracer = Tracer()
        with tracer.span("outer", jobs=3) as outer:
            outer.set("extra", "value")
            outer.add("count")
            outer.add("count", 2)
            with tracer.span("inner"):
                pass
        trace = tracer.trace()
        events = {event["name"]: event for event in trace.events}
        assert set(events) == {"outer", "inner"}
        assert events["outer"]["args"] == {"jobs": 3, "extra": "value",
                                           "count": 3}
        assert events["inner"]["parent"] == "outer"
        assert events["outer"]["parent"] is None
        # The child starts inside and ends inside the parent.
        outer_evt, inner_evt = events["outer"], events["inner"]
        assert inner_evt["ts"] >= outer_evt["ts"]
        assert (inner_evt["ts"] + inner_evt["dur"]
                <= outer_evt["ts"] + outer_evt["dur"] + 1.0)
        # Self-time excludes the direct child.
        assert outer_evt["self"] <= outer_evt["dur"] - inner_evt["dur"] + 1.0

    def test_tick_aggregates(self):
        tracer = Tracer()
        tracer.tick("hot", 0.001)
        tracer.tick("hot", 0.002, count=3)
        trace = tracer.trace()
        assert trace.aggregates["hot"][0] == 4
        assert trace.aggregates["hot"][1] == pytest.approx(3000.0)

    def test_disabled_is_noop(self):
        # The module-level helpers against NULL_TRACER record nothing.
        assert not obs.tracing_enabled()
        with obs.span("never", key=1) as sp:
            sp.set("a", 2)
            sp.add("b")
        obs.tick("never", 1.0)
        assert len(NULL_TRACER.trace()) == 0
        assert obs.current_tracer() is NULL_TRACER

    def test_tracing_context_restores_previous(self):
        assert obs.current_tracer() is NULL_TRACER
        with obs.tracing() as tracer:
            assert obs.current_tracer() is tracer
            assert obs.tracing_enabled()
            with obs.tracing() as nested:
                assert obs.current_tracer() is nested
            assert obs.current_tracer() is tracer
        assert obs.current_tracer() is NULL_TRACER

    def test_drain_and_absorb(self):
        parent = Tracer()
        worker = Tracer.for_worker(parent.worker_config())
        assert worker.epoch == parent.epoch
        assert worker.pid == parent.pid
        with worker.span("worker.batch"):
            pass
        worker.tick("hot", 0.001)
        payload = worker.drain()
        # Drained: the worker tracer is empty again.
        assert len(worker.trace()) == 0
        assert worker.trace().aggregates == {}
        parent.absorb(payload)
        parent.absorb(None)  # disabled-worker message: no-op
        trace = parent.trace()
        assert trace.span_names() == {"worker.batch"}
        assert trace.aggregates["hot"][0] == 1


# ---------------------------------------------------------------------------
# Trace analysis and determinism
# ---------------------------------------------------------------------------


def _event(name, ts, dur, tid, pid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "self": dur, "pid": pid, "tid": tid, "parent": None,
            "args": {}}


class TestTrace:
    def test_merge_order_is_deterministic(self):
        events = [
            _event("c", 10.0, 5.0, tid=3),
            _event("a", 0.0, 20.0, tid=1),
            _event("b", 10.0, 5.0, tid=2),
            _event("d", 10.0, 7.0, tid=2),
        ]
        forward = Trace(list(events), main_tid=1)
        reversed_ = Trace(list(reversed(events)), main_tid=1)
        assert forward.events == reversed_.events
        # Sorted by start time, then lane, then longest-first.
        assert [event["name"] for event in forward.events] \
            == ["a", "d", "b", "c"]
        untied = Trace([_event("y", 2.0, 1.0, tid=1),
                        _event("x", 1.0, 5.0, tid=2)], main_tid=1)
        assert [event["name"] for event in untied.events] == ["x", "y"]

    def test_summary_totals(self):
        trace = Trace([_event("a", 0.0, 10.0, tid=1),
                       _event("a", 10.0, 10.0, tid=1)], main_tid=1)
        summary = trace.summary()
        assert summary["wall_s"] == pytest.approx(20e-6)
        assert summary["lanes"] == 1
        assert summary["spans"]["a"]["count"] == 2
        assert summary["spans"]["a"]["total_s"] == pytest.approx(20e-6)

    def test_main_lane_coverage(self):
        full = Trace([_event("a", 0.0, 10.0, tid=1)], main_tid=1)
        assert full.main_lane_coverage() == pytest.approx(1.0)
        half = Trace([
            {**_event("a", 0.0, 10.0, tid=1), "self": 5.0},
            _event("b", 10.0, 0.0, tid=1),
        ], main_tid=1)
        assert half.main_lane_coverage() == pytest.approx(0.5)

    def test_empty_trace(self):
        trace = Trace([])
        assert trace.summary()["wall_s"] == 0.0
        assert trace.main_lane_coverage() == 0.0
        validate_chrome_trace(json.loads(trace.to_chrome_json()))


# ---------------------------------------------------------------------------
# Chrome export
# ---------------------------------------------------------------------------


class TestChromeExport:
    def test_required_keys_on_every_event(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.instant("mark")
        data = json.loads(tracer.trace().to_chrome_json())
        events = validate_chrome_trace(data)
        assert events
        for event in events:
            for key in CHROME_REQUIRED_KEYS:
                assert key in event, (key, event)

    def test_worker_lanes_have_distinct_tids(self):
        parent = Tracer(epoch=0.0, pid=100, tid=100)
        worker = Tracer(epoch=0.0, pid=100, tid=200)
        with parent.span("run_jobs"):
            with worker.span("worker.batch"):
                pass
        parent.absorb(worker.drain())
        data = json.loads(parent.trace().to_chrome_json())
        span_events = [event for event in data["traceEvents"]
                       if event["ph"] == "X"]
        assert {event["tid"] for event in span_events} == {100, 200}
        names = {event["args"]["name"]
                 for event in data["traceEvents"]
                 if event["ph"] == "M" and event["name"] == "thread_name"}
        assert names == {"main", "worker-200"}

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


class TestEngineTracing:
    def test_serial_and_parallel_cover_same_compute_spans(self):
        with obs.tracing() as tracer:
            serial = _two_job_study().run(workers=1)
        serial_names = tracer.trace().span_names()
        with obs.tracing() as tracer:
            parallel = _two_job_study().run(workers=2)
        parallel_names = tracer.trace().span_names()
        assert serial.to_records() == parallel.to_records()
        # The compute-path spans appear in both timelines; dispatch
        # machinery differs by design (serial has no pool/planner).
        compute = {"layer.evaluate", "refmap.candidates", "system.build",
                   "run_jobs"}
        assert compute <= serial_names
        assert compute <= parallel_names
        assert {"planner.build_plan", "executor.pool_spawn",
                "executor.dispatch", "worker.batch"} <= parallel_names

    def test_parallel_run_records_worker_lane(self):
        with obs.tracing() as tracer:
            _two_job_study().run(workers=2)
        trace = tracer.trace()
        assert len(trace.lanes()) >= 2
        worker_tids = {event["tid"] for event in trace.events
                       if event["name"] == "worker.batch"}
        assert worker_tids and trace.main_tid not in worker_tids

    def test_untraced_run_records_nothing(self):
        assert obs.current_tracer() is NULL_TRACER
        results = _two_job_study().run(workers=2)
        assert results.trace is None
        assert len(NULL_TRACER.trace()) == 0

    def test_mapper_search_span_and_analyzer_tick(self):
        from repro.mapping.mapper import Mapper
        from repro.systems import CrossbarConfig, CrossbarSystem
        from repro.workloads import tiny_cnn

        system = CrossbarSystem(CrossbarConfig())
        layer = tiny_cnn().entries[0].layer
        with obs.tracing() as tracer:
            system.search_mapping(layer, max_evaluations=50)
        trace = tracer.trace()
        assert "mapper.search" in trace.span_names()
        search = next(event for event in trace.events
                      if event["name"] == "mapper.search")
        assert search["args"]["evaluated"] > 0
        # The search analyzes candidates through the batched path when
        # numpy is available and the scalar path otherwise; either way
        # the analyzer work must land in an aggregate tick.
        ticks = (trace.aggregates.get("analyzer.batch", (0, 0.0))[0]
                 + trace.aggregates.get("analyzer.analyze", (0, 0.0))[0])
        assert ticks > 0


# ---------------------------------------------------------------------------
# Study facade
# ---------------------------------------------------------------------------


class TestStudyTrace:
    def test_run_trace_true_attaches_trace(self):
        results = _two_job_study().run(workers=2, trace=True)
        assert results.trace is not None
        assert "run_jobs" in results.trace.span_names()
        assert "study.compile" in results.trace.span_names()

    def test_run_trace_path_writes_chrome_json(self, tmp_path):
        path = tmp_path / "trace.json"
        results = _two_job_study().run(trace=str(path))
        data = json.loads(path.read_text())
        validate_chrome_trace(data)
        assert results.trace is not None

    def test_run_trace_existing_tracer(self):
        tracer = Tracer()
        results = _two_job_study().run(trace=tracer)
        assert results.trace is not None
        assert results.trace.span_names() <= tracer.trace().span_names()

    def test_equal_records_compare_equal_regardless_of_trace(self):
        plain = _two_job_study().run()
        traced = _two_job_study().run(trace=True)
        assert plain == traced


# ---------------------------------------------------------------------------
# Summary rendering
# ---------------------------------------------------------------------------


class TestSummaryReport:
    def test_format_trace_summary(self):
        tracer = Tracer()
        with tracer.span("run_jobs"):
            with tracer.span("planner.build_plan"):
                pass
        tracer.tick("analyzer.analyze", 0.001, count=5)
        text = format_trace_summary(tracer.trace())
        assert "run_jobs" in text
        assert "planner.build_plan" in text
        assert "analyzer.analyze" in text
        assert "wall" in text

    def test_format_empty_trace(self):
        text = format_trace_summary(Trace([]))
        assert "no spans" in text
