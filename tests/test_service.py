"""Tests for repro.service — daemon, queue, protocol, client, stdio."""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro import obs
from repro.api import Study
from repro.api.results import ResultSet
from repro.exceptions import ReproError, ServiceError, ServiceUnavailable
from repro.service import (
    PROTOCOL_VERSION,
    ReproService,
    ServiceClient,
    SubmitRequest,
    make_server,
    serve_stdio,
)
from repro.service import protocol
from repro.service.queue import JobCancelled, JobQueue

SPEC = {
    "name": "svc-smoke",
    "systems": ["crossbar"],
    "networks": ["tiny"],
    "scenarios": ["conservative"],
    "grid": {"global_buffer_kib": [256, 512]},
}

#: Compiles cleanly (so it passes submit-time validation) but every
#: point explodes at run time with CapacityError.
BOOM_SPEC = {
    "name": "svc-boom",
    "systems": ["crossbar"],
    "networks": ["tiny"],
    "scenarios": ["conservative"],
    "grid": {"global_buffer_kib": [1]},
}

#: The 256 KiB points fail at run time; on a ``--workers 2`` daemon the
#: error surfaces from the pooled two-phase path.
POOLED_FAILURE_SPEC = {
    "name": "svc-pooled-failure",
    "systems": ["albireo", "crossbar", "wdm_delay"],
    "networks": ["resnet18", "alexnet", "lenet5"],
    "grid": {"clock_ghz": [3.1, 3.2],
             "global_buffer_kib": [256, 1024, 2048]},
}


@pytest.fixture
def service(tmp_path):
    service = ReproService(cache=str(tmp_path / "cache"), workers=1)
    yield service
    service.close()


@pytest.fixture
def server(service):
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_bare_spec_is_a_submit_request(self):
        request = SubmitRequest.from_dict(dict(SPEC))
        assert request.spec["name"] == "svc-smoke"
        assert request.workers is None
        assert request.failure_policy is None
        assert request.trace is False

    def test_wrapped_request_round_trips(self):
        body = {"spec": dict(SPEC), "workers": 4, "trace": True,
                "failure_policy": {"on_error": "retry",
                                   "max_retries": 3}}
        request = SubmitRequest.from_dict(body)
        assert request.workers == 4 and request.trace is True
        assert request.failure_policy.on_error == "retry"
        assert request.failure_policy.max_retries == 3
        rebuilt = SubmitRequest.from_dict(request.to_dict())
        assert rebuilt == request

    def test_unknown_envelope_keys_rejected(self):
        with pytest.raises(ServiceError) as error:
            SubmitRequest.from_dict({"spec": {}, "worker": 4})
        assert "worker" in str(error.value)
        assert "options" in str(error.value)

    @pytest.mark.parametrize("body", [
        {"spec": {}, "workers": 0},
        {"spec": {}, "workers": True},
        {"spec": {}, "workers": "four"},
        {"spec": {}, "trace": "yes"},
        {"spec": []},
        {"spec": {}, "failure_policy": {"on_error": "explode"}},
        {"spec": {}, "failure_policy": {"retries": 3}},
        "not an object",
    ])
    def test_malformed_requests_rejected(self, body):
        with pytest.raises(ServiceError):
            SubmitRequest.from_dict(body)

    def test_event_codec_round_trip(self):
        body = protocol.record_event({"system": "crossbar",
                                      "energy_total_mJ": 0.1875}, 3, 12)
        line = protocol.encode_event(body)
        assert line.endswith("\n") and "\n" not in line[:-1]
        assert protocol.decode_event(line) == body

    @pytest.mark.parametrize("line", ["{truncated", "42", '{"no": "kind"}'])
    def test_decode_event_rejects_garbage(self, line):
        with pytest.raises(ServiceError):
            protocol.decode_event(line)

    def test_error_body_is_type_plus_first_line(self):
        error = ValueError("first line\ntraceback noise")
        assert protocol.error_body(error) == {
            "error": "ValueError", "message": "first line"}

    def test_check_protocol_rejects_newer_server(self):
        with pytest.raises(ServiceError):
            protocol.check_protocol(
                {"protocol": PROTOCOL_VERSION + 1}, "GET /v1/health")
        protocol.check_protocol({"protocol": PROTOCOL_VERSION}, "ok")
        protocol.check_protocol({}, "unstamped passes")


# ---------------------------------------------------------------------------
# Queue (driven directly with a fake execute hook)
# ---------------------------------------------------------------------------


def _request():
    return SubmitRequest(spec=dict(SPEC))


class TestJobQueue:
    def test_jobs_execute_in_submission_order(self):
        order = []
        queue = JobQueue(lambda job: order.append(job.id), limit=8)
        jobs = [queue.submit(_request()) for _ in range(5)]
        assert queue.drain(timeout=10)
        assert order == [job.id for job in jobs]
        assert queue.finished == order
        assert all(job.status == protocol.DONE for job in jobs)
        queue.close()

    def test_full_queue_raises_service_unavailable(self):
        release = threading.Event()
        started = threading.Event()
        def execute(job):
            started.set()
            release.wait(10)
        queue = JobQueue(execute, limit=2)
        queue.submit(_request())
        assert started.wait(10)  # dequeued into running, off the FIFO
        queue.submit(_request())
        queue.submit(_request())
        with pytest.raises(ServiceUnavailable) as error:
            queue.submit(_request())
        assert "full" in str(error.value)
        release.set()
        queue.close(drain=True, timeout=10)

    def test_draining_queue_refuses_submits(self):
        queue = JobQueue(lambda job: None, limit=4)
        queue.drain(timeout=10)
        with pytest.raises(ServiceUnavailable) as error:
            queue.submit(_request())
        assert "draining" in str(error.value)
        queue.close()

    def test_cancel_queued_job_skips_execution(self):
        release = threading.Event()
        ran = []
        def execute(job):
            ran.append(job.id)
            release.wait(10)
        queue = JobQueue(execute, limit=4)
        queue.submit(_request())  # occupies the executor
        victim = queue.submit(_request())
        assert victim.cancel() is True
        release.set()
        queue.close(drain=True, timeout=10)
        assert victim.status == protocol.CANCELLED
        assert victim.id not in ran
        events = [body["event"] for body in victim.stream()]
        assert events == ["queued", "done"]

    def test_cancel_running_job_unwinds_cooperatively(self):
        started = threading.Event()
        def execute(job):
            started.set()
            for _ in range(200):
                if job.cancelled:
                    raise JobCancelled()
                time.sleep(0.01)
            raise AssertionError("never saw the cancel flag")
        queue = JobQueue(execute, limit=4)
        job = queue.submit(_request())
        assert started.wait(10)
        assert job.cancel() is True
        queue.close(drain=True, timeout=10)
        assert job.status == protocol.CANCELLED
        assert job.cancel() is False  # already terminal

    def test_failed_job_keeps_daemon_alive(self):
        def execute(job):
            if job.seq == 1:
                raise ValueError("kaboom\nwith details")
        queue = JobQueue(execute, limit=4)
        bad = queue.submit(_request())
        good = queue.submit(_request())
        assert queue.drain(timeout=10)
        assert bad.status == protocol.FAILED
        assert bad.error == ("ValueError", "kaboom")
        assert good.status == protocol.DONE
        events = list(bad.stream())
        assert events[-2]["event"] == "error"
        assert events[-2]["message"] == "kaboom"
        assert events[-1] == protocol.done_event(
            bad.id, protocol.FAILED, 0, 0)
        queue.close()

    def test_stream_replays_and_follows_live(self):
        gate = threading.Event()
        def execute(job):
            job.emit(protocol.event("started", job=job.id))
            gate.wait(10)
            job.emit(protocol.record_event({"x": 1}, 1, 1))
        queue = JobQueue(execute, limit=4)
        job = queue.submit(_request())
        collected = []
        def reader():
            collected.extend(body["event"] for body in job.stream())
        thread = threading.Thread(target=reader)
        thread.start()
        gate.set()
        thread.join(10)
        assert collected == ["queued", "started", "record", "done"]
        # Late subscriber replays the full buffer identically.
        assert [body["event"] for body in job.stream()] == collected
        # since= resumes mid-buffer.
        assert [body["event"] for body in job.stream(since=2)] \
            == ["record", "done"]
        queue.close()

    def test_stream_heartbeats_while_waiting(self):
        gate = threading.Event()
        queue = JobQueue(lambda job: gate.wait(10), limit=4)
        job = queue.submit(_request())
        stream = job.stream(heartbeat=0.05)
        assert next(stream)["event"] == "queued"
        beat = next(stream)
        assert beat["event"] == "heartbeat"
        assert beat["status"] in (protocol.QUEUED, protocol.RUNNING)
        gate.set()
        assert [body["event"] for body in stream][-1] == "done"
        queue.close()

    def test_close_without_drain_cancels_pending(self):
        release = threading.Event()
        queue = JobQueue(lambda job: release.wait(10), limit=4)
        queue.submit(_request())
        pending = queue.submit(_request())
        release.set()
        queue.close(drain=False, timeout=10)
        assert pending.status == protocol.CANCELLED


# ---------------------------------------------------------------------------
# HTTP end to end
# ---------------------------------------------------------------------------


class TestHTTPService:
    def test_health_is_well_formed(self, client, service):
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["workers"] == 1
        assert health["cache"] == service.cache.directory
        assert set(health["jobs"]) == set(protocol.TERMINAL_STATUSES) \
            | {protocol.QUEUED, protocol.RUNNING}

    def test_streamed_records_bit_identical_to_local_run(self, client):
        local = Study.from_dict(SPEC).run()
        handle = client.submit(dict(SPEC))
        streamed = handle.result()
        assert streamed == local
        assert [record.tags for record in streamed] \
            == [record.tags for record in local]
        assert [record.metrics for record in streamed] \
            == [record.metrics for record in local]

    def test_second_submit_is_full_warm_replay(self, client):
        assert client.submit(dict(SPEC)).result()
        cold = client.stats()["cache"]["results"]
        handle = client.submit(dict(SPEC))
        assert len(list(handle.records())) == len(
            Study.from_dict(SPEC).compile())
        warm = client.stats()["cache"]["results"]
        # Zero phase-1 tasks the second time: not one new miss, every
        # point served from the shared cache.
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] == cold["hits"] + len(
            Study.from_dict(SPEC).compile())

    def test_stats_are_well_formed(self, client):
        client.submit(dict(SPEC)).result()
        stats = client.stats()
        assert stats["protocol"] == PROTOCOL_VERSION
        assert stats["service"]["submitted"] == 1
        assert stats["service"]["records_streamed"] == len(
            Study.from_dict(SPEC).compile())
        assert stats["jobs"][protocol.DONE] == 1
        assert stats["finished"] == ["job-1"]
        assert "results" in stats["cache"]
        assert "planned" in stats["planner"]
        assert stats["pool"] is None  # workers=1 daemon

    def test_concurrent_submits_execute_in_order(self, client, service):
        handles = []
        errors = []
        def submit():
            try:
                handles.append(client.submit(dict(SPEC)))
            except Exception as error:  # pragma: no cover
                errors.append(error)
        threads = [threading.Thread(target=submit) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors and len(handles) == 3
        for handle in handles:
            handle.result()
        assert service.queue.finished == ["job-1", "job-2", "job-3"]

    def test_event_stream_shape(self, client):
        handle = client.submit(dict(SPEC))
        events = list(handle.events())
        kinds = [body["event"] for body in events]
        assert kinds[0] == "queued"
        assert events[0]["protocol"] == PROTOCOL_VERSION
        assert kinds[1] == "started"
        total = len(Study.from_dict(SPEC).compile())
        assert events[1]["total"] == total
        assert kinds.count("record") == total
        assert kinds[-1] == "done"
        assert events[-1]["status"] == "done"
        assert events[-1]["records"] == total
        record_events = [body for body in events
                         if body["event"] == "record"]
        assert [body["done"] for body in record_events] \
            == list(range(1, total + 1))
        assert all(body["total"] == total for body in record_events)

    def test_bad_spec_rejected_at_submit_with_precise_error(self, client):
        bad = dict(SPEC, systems=["tpu"])
        with pytest.raises(ServiceError) as error:
            client.submit(bad)
        assert error.value.status_code == 400
        assert error.value.server_error == "SpecError"
        assert "tpu" in str(error.value)
        assert not isinstance(error.value, ServiceUnavailable)

    def test_server_side_failure_is_structured_not_html(self, client):
        handle = client.submit(dict(BOOM_SPEC))
        with pytest.raises(ServiceError) as error:
            list(handle.records())
        assert "CapacityError" in str(error.value)
        status = handle.status()
        assert status["status"] == "failed"
        assert status["error"] == "CapacityError"
        assert "\n" not in status["message"]

    def test_failure_policy_streams_failed_records(self, client):
        from repro.engine import FailurePolicy

        handle = client.submit(dict(BOOM_SPEC),
                               failure_policy=FailurePolicy(
                                   on_error="skip"))
        results = handle.result()
        assert len(results) == 1
        assert len(results.failures) == 1
        assert results.failures[0].get("error") == "CapacityError"
        assert handle.status()["status"] == "done"
        assert handle.status()["failures"] == 1

    def test_unknown_job_and_route_are_json_404(self, client, server):
        with pytest.raises(ServiceError) as error:
            client.handle("job-999").status()
        assert error.value.status_code == 404
        raw = urllib.request.Request(server.url + "/nope")
        with pytest.raises(urllib.error.HTTPError) as http_error:
            urllib.request.urlopen(raw, timeout=10)
        body = json.loads(http_error.value.read())
        assert body["error"] == "NotFound"

    def test_non_json_body_is_structured_400(self, server):
        raw = urllib.request.Request(
            server.url + "/v1/studies", data=b"<html>not json</html>",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as http_error:
            urllib.request.urlopen(raw, timeout=10)
        assert http_error.value.code == 400
        body = json.loads(http_error.value.read())
        assert body["error"] == "ReproError"
        assert "JSON" in body["message"]

    def test_cancel_finished_job_reports_false(self, client):
        handle = client.submit(dict(SPEC))
        handle.result()
        assert handle.cancel() is False

    def test_trace_endpoint_serves_chrome_json(self, client):
        handle = client.submit(dict(SPEC), trace=True)
        handle.result()
        events = obs.validate_chrome_trace(json.loads(handle.trace()))
        assert events
        assert handle.status()["trace"] is True

    def test_trace_absent_without_request_flag(self, client):
        handle = client.submit(dict(SPEC))
        handle.result()
        with pytest.raises(ServiceError) as error:
            handle.trace()
        assert error.value.status_code == 404

    def test_unreachable_server_raises_service_unavailable(self):
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(ServiceUnavailable):
            client.health()

    def test_studies_listing(self, client):
        client.submit(dict(SPEC)).result()
        listing = client.studies()
        assert [job["job"] for job in listing] == ["job-1"]
        assert listing[0]["status"] == "done"


# ---------------------------------------------------------------------------
# stdio transport
# ---------------------------------------------------------------------------


class TestStdioService:
    def _run(self, service, lines):
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        stdout = io.StringIO()
        assert serve_stdio(service, stdin=stdin, stdout=stdout) == 0
        return [protocol.decode_event(line)
                for line in stdout.getvalue().splitlines()]

    def test_round_trip_matches_local_run(self, tmp_path):
        service = ReproService(cache=str(tmp_path / "cache"))
        events = self._run(service, [
            json.dumps({"op": "health"}),
            json.dumps(dict({"op": "submit"}, **SPEC)),  # bare spec form
            json.dumps({"op": "stats"}),
            json.dumps({"op": "shutdown"}),
        ])
        assert events[0]["event"] == "ready"
        assert events[0]["protocol"] == PROTOCOL_VERSION
        assert events[1]["event"] == "health"
        kinds = [body["event"] for body in events]
        assert kinds[-1] == "bye"
        rows = [body["record"] for body in events
                if body["event"] == "record"]
        assert ResultSet.from_records(rows) == Study.from_dict(SPEC).run()
        stats = next(body for body in events if body["event"] == "stats")
        assert stats["service"]["submitted"] == 1

    def test_eof_is_shutdown(self, tmp_path):
        events = self._run(ReproService(), [])
        assert [body["event"] for body in events] == ["ready", "bye"]

    def test_bad_lines_answer_errors_and_keep_serving(self):
        events = self._run(ReproService(), [
            "{broken json",
            json.dumps({"op": "warp"}),
            json.dumps({"op": "submit", "spec": {"systems": ["tpu"]}}),
            json.dumps({"op": "health"}),
        ])
        kinds = [body["event"] for body in events]
        assert kinds == ["ready", "error", "error", "error", "health",
                         "bye"]
        assert "warp" in events[2]["message"]
        assert events[3]["error"] == "SpecError"


# ---------------------------------------------------------------------------
# Daemon process: banner, SIGTERM drain
# ---------------------------------------------------------------------------


#: Runs ``repro`` with a stream handler that pauses before it writes a
#: job's ``done`` event, so a SIGTERM drain is sure to find a stream
#: still writing after the queue has drained.
SLOW_DONE_WRAPPER = """
import json, sys, time
from repro.cli import main
from repro.service.server import ServiceRequestHandler

write_chunk = ServiceRequestHandler._write_chunk

def slow_done(self, text):
    if json.loads(text).get("event") == "done":
        time.sleep(0.5)
    write_chunk(self, text)

ServiceRequestHandler._write_chunk = slow_done
sys.exit(main(sys.argv[1:]))
"""


class TestDaemonProcess:
    def _spawn(self, tmp_path, *extra, wrapper=None):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        launcher = ["-m", "repro"] if wrapper is None else ["-c", wrapper]
        process = subprocess.Popen(
            [sys.executable, *launcher, "serve", "--cache",
             str(tmp_path / "cache"), "--port", "0", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=root)
        banner = process.stdout.readline()
        assert "repro-service listening on " in banner, banner
        url = banner.split("listening on ")[1].split()[0]
        return process, url

    def test_sigterm_drains_before_exit(self, tmp_path):
        process, url = self._spawn(tmp_path)
        try:
            client = ServiceClient(url, timeout=30.0)
            assert client.health()["status"] == "ok"
            handle = client.submit(dict(SPEC))
            # Attach to the stream first, then fire SIGTERM mid-job:
            # drain semantics say the stream still completes.
            events = handle.events()
            assert next(events)["event"] == "queued"
            process.send_signal(signal.SIGTERM)
            kinds = [body["event"] for body in events]
            assert kinds[-1] == "done"
            assert sum(kind == "record" for kind in kinds) == len(
                Study.from_dict(SPEC).compile())
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
            process.stderr.close()

    def test_sigterm_waits_for_streams_still_writing(self, tmp_path):
        """The queue can drain before a stream has written its job's last
        events; the daemon must wait for the stream, not exit under it."""
        process, url = self._spawn(tmp_path, wrapper=SLOW_DONE_WRAPPER)
        try:
            handle = ServiceClient(url, timeout=30.0).submit(dict(SPEC))
            events = handle.events()
            assert next(events)["event"] == "queued"
            process.send_signal(signal.SIGTERM)
            kinds = [body["event"] for body in events]
            assert kinds[-1] == "done"
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
            process.stderr.close()

    def test_failing_point_fails_the_job_and_frees_the_queue(self,
                                                             tmp_path):
        """Pool workers fork after the daemon installs its drain handler.
        A failing point must still fail its job, not leave it ``running``
        with every later submit queued behind it."""
        process, url = self._spawn(tmp_path, "--workers", "2")

        def final_status(handle, timeout=30.0):
            deadline = time.monotonic() + timeout
            while True:
                status = handle.status()["status"]
                if status in (protocol.DONE, protocol.FAILED,
                              protocol.CANCELLED) \
                        or time.monotonic() > deadline:
                    return status
                time.sleep(0.05)

        try:
            client = ServiceClient(url, timeout=30.0)
            failing = client.submit(dict(POOLED_FAILURE_SPEC))
            assert final_status(failing) == protocol.FAILED
            assert final_status(client.submit(dict(SPEC))) == protocol.DONE
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
            process.stderr.close()

    def test_submit_cli_against_live_daemon(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        json_path = tmp_path / "out.json"
        process, url = self._spawn(tmp_path, "--workers", "1")
        try:
            assert main(["submit", str(spec_path), "--server", url,
                         "--json", str(json_path)]) == 0
            out = capsys.readouterr().out
            assert "svc-smoke" in out and "pJ/MAC" in out
            payload = json.loads(json_path.read_text())
            assert len(payload["records"]) == len(
                Study.from_dict(SPEC).compile())
            assert payload["stats"]["service"]["submitted"] == 1
            # Second submission: the daemon's shared cache makes it a
            # full warm replay — zero new misses.
            cold = payload["stats"]["cache"]["results"]["misses"]
            assert main(["submit", str(spec_path), "--server", url,
                         "--json", str(json_path)]) == 0
            capsys.readouterr()
            payload = json.loads(json_path.read_text())
            assert payload["stats"]["cache"]["results"]["misses"] == cold
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
            process.stderr.close()
