"""The evaluation daemon: one warm pool + one shared cache, serving
study specs over HTTP (or stdin) and streaming results back as NDJSON.

Every evaluation today pays full process startup — interpreter boot,
imports, architecture builds, cache open, worker-pool spawn.  The
daemon pays them once: a :class:`ReproService` owns one persistent
:class:`~repro.engine.pool.WorkerPool` and one shared sharded
:class:`~repro.engine.cache.EvaluationCache` for its lifetime, and a
bounded FIFO (:mod:`repro.service.queue`) serializes studies onto
them.  A second submission of a spec the cache has seen completes
without a single phase-1 task — the amortization lever a fleet of
callers shares.

Transports (both speak :mod:`repro.service.protocol`):

* **HTTP** — stdlib ``ThreadingHTTPServer``, no dependencies.
  ``POST /v1/studies`` submits (202 + job id), ``GET
  /v1/studies/<id>/events`` streams NDJSON events chunked as they
  complete (late subscribers replay from the start), plus
  ``/v1/health``, ``/v1/stats``, per-job status/trace, and ``DELETE``
  cancellation.  Errors are structured JSON bodies — never HTML.
* **stdio** — one JSON op per stdin line, events on stdout; the
  single-user form of the same protocol (``repro serve --stdio``),
  also the supervisor-friendly embedding (no port to allocate).

Shutdown is graceful: SIGTERM (and SIGINT) stop intake, drain the
queue — accepted studies finish — wait (bounded) until every open event
stream has written its last event, then stop the listener and close the
pool.  Handler threads are daemon threads, so nothing else would keep
the process alive for a stream still being written.
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Optional, TextIO, Tuple
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.api.study import Study
from repro.engine.cache import EvaluationCache
from repro.engine.executor import CacheLike
from repro.engine.pool import WorkerPool
from repro.exceptions import ReproError, ServiceUnavailable
from repro.service import protocol
from repro.service.protocol import PROTOCOL_VERSION, SubmitRequest
from repro.service.queue import JobCancelled, JobQueue, ServiceJob


class ReproService:
    """The daemon's core, transport-agnostic: warm state + job queue.

    ``cache`` is the shared :class:`EvaluationCache` (or a directory
    path opened as a sharded store; ``None`` for in-memory).  With
    ``workers > 1`` a persistent :class:`WorkerPool` is spawned lazily
    on the first parallel study and reused, warm, for every study after
    it.
    """

    def __init__(self, cache: CacheLike = None, workers: int = 1,
                 queue_limit: int = 32) -> None:
        self.cache = (cache if isinstance(cache, EvaluationCache)
                      else EvaluationCache(cache))
        self.workers = max(1, int(workers))
        self.pool = WorkerPool(self.workers) if self.workers > 1 else None
        self.queue = JobQueue(self._execute, limit=queue_limit)
        self.draining = False
        self.submitted = 0
        self.records_streamed = 0
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def validate(self, request: SubmitRequest) -> Study:
        """Compile-check the request's study spec (raising the precise
        :class:`~repro.exceptions.SpecError` on bad specs) so a bad
        submission fails at submit time, not minutes later in queue."""
        study = Study.from_dict(request.spec)
        study.compile()
        return study

    def submit(self, request: SubmitRequest) -> ServiceJob:
        """Validate and enqueue one study (any thread)."""
        self.validate(request)
        job = self.queue.submit(request)
        self.submitted += 1
        return job

    # ------------------------------------------------------------------
    # Execution (queue's executor thread only)
    # ------------------------------------------------------------------
    def _execute(self, job: ServiceJob) -> None:
        request = job.request
        study = Study.from_dict(request.spec)
        jobs = study.compile()
        job.total = len(jobs)
        job.emit(protocol.event("started", job=job.id, study=study.name,
                                total=job.total))
        workers = min(request.workers or self.workers, self.workers)
        pool = self.pool if workers > 1 else None

        # A record event per completed point; the event stream's
        # heartbeat covers liveness between them.
        def on_record(record, done: int, total: int) -> None:
            if job.cancelled:
                raise JobCancelled()
            job.records += 1
            if record.failed:
                job.failures += 1
            self.records_streamed += 1
            job.emit(protocol.record_event(record.to_dict(), done, total))

        tracer = obs.Tracer() if request.trace else None
        results = study.run(
            workers=workers, cache=self.cache, pool=pool,
            failure_policy=request.failure_policy,
            on_record=on_record, trace=tracer)
        if tracer is not None:
            job.trace = results.trace

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "workers": self.workers,
            "cache": self.cache.directory,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "jobs": self.queue.counts(),
        }

    def stats(self) -> Dict[str, Any]:
        """Cache + planner + pool + resilience counters, service-lifetime
        cumulative — the warm-replay acceptance check reads these."""
        body = {
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "jobs": self.queue.counts(),
            "finished": list(self.queue.finished),
            "service": {
                "submitted": self.submitted,
                "records_streamed": self.records_streamed,
            },
            "cache": self.cache.stats_snapshot(),
            "planner": self.cache.planner.to_dict(),
            "mapper": self.cache.mapper_search_stats(),
            "pool": (self.pool.stats.to_dict()
                     if self.pool is not None else None),
        }
        return body

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop intake and wait for accepted studies to finish."""
        self.draining = True
        return self.queue.drain(timeout=timeout)

    def close(self, drain: bool = False,
              timeout: Optional[float] = None) -> None:
        """Stop the queue (draining first when asked), close the pool,
        and flush the cache.  Idempotent."""
        self.draining = True
        self.queue.close(drain=drain, timeout=timeout)
        if self.pool is not None:
            self.pool.close()
        if self.cache.directory is not None and self.cache.needs_flush:
            self.cache.save()


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded stdlib server bound to one :class:`ReproService`.

    Handler threads are daemon threads: with HTTP/1.1 keep-alive, joining
    them would block shutdown on any idle connection.  Instead the server
    counts the event streams in flight, and :func:`serve` waits for them
    to finish before it exits.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: ReproService,
                 heartbeat: float = 10.0) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.heartbeat = heartbeat
        self._streams = 0
        self._streams_changed = threading.Condition()

    @contextlib.contextmanager
    def streaming(self) -> Iterator[None]:
        """Count one event stream as in flight for the ``with`` body."""
        with self._streams_changed:
            self._streams += 1
        try:
            yield
        finally:
            with self._streams_changed:
                self._streams -= 1
                self._streams_changed.notify_all()

    def wait_for_streams(self, timeout: float) -> bool:
        """Block until no event stream is in flight (False on timeout)."""
        with self._streams_changed:
            return self._streams_changed.wait_for(
                lambda: self._streams == 0, timeout)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/...`` onto the service; every response is JSON."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-service/{PROTOCOL_VERSION}"

    @property
    def service(self) -> ReproService:
        return self.server.service

    # -- plumbing ------------------------------------------------------
    def _send_json(self, code: int, body: Dict[str, Any]) -> None:
        data = (json.dumps(body, indent=2, sort_keys=True) + "\n") \
            .encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error(self, code: int, error: BaseException) -> None:
        self._send_json(code, protocol.error_body(error))

    def send_error(self, code, message=None, explain=None):
        # BaseHTTPRequestHandler's default error page is HTML; the
        # protocol promises structured JSON errors everywhere, including
        # malformed-request paths handled inside http.server itself.
        self._send_json(code, {"error": "HTTPError",
                               "message": message or self.responses
                               .get(code, ("", ""))[0] or str(code)})

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ReproError("request body is empty; expected JSON")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ReproError(f"request body is not valid JSON: {error}") \
                from None

    def log_message(self, format: str, *args: Any) -> None:
        # One access-log line per request on stderr (the CLI can
        # redirect it to a file; CI keeps it as an artifact).
        sys.stderr.write("%s - - %s\n" % (self.address_string(),
                                          format % args))

    # -- routing -------------------------------------------------------
    def _route(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            if parts[:1] != ["v1"]:
                raise LookupError(self.path)
            if method == "POST" and parts == ["v1", "studies"]:
                return self._post_study()
            if method == "GET" and parts == ["v1", "health"]:
                return self._send_json(200, self.service.health())
            if method == "GET" and parts == ["v1", "stats"]:
                return self._send_json(200, self.service.stats())
            if method == "GET" and parts == ["v1", "studies"]:
                return self._send_json(200, {
                    "protocol": PROTOCOL_VERSION,
                    "studies": [job.snapshot()
                                for job in self.service.queue.jobs()],
                })
            if len(parts) >= 3 and parts[:2] == ["v1", "studies"]:
                job = self.service.queue.get(parts[2])
                if job is None:
                    raise LookupError(parts[2])
                if method == "GET" and len(parts) == 3:
                    return self._send_json(200, job.snapshot())
                if method == "DELETE" and len(parts) == 3:
                    cancelled = job.cancel()
                    return self._send_json(200 if cancelled else 409, {
                        "job": job.id, "cancelled": cancelled,
                        "status": job.status,
                    })
                if method == "GET" and parts[3:] == ["events"]:
                    return self._stream_events(job,
                                               parse_qs(parsed.query))
                if method == "GET" and parts[3:] == ["trace"]:
                    return self._send_trace(job)
            raise LookupError(self.path)
        except LookupError as missing:
            self._send_json(404, {"error": "NotFound",
                                  "message": f"no such resource: "
                                             f"{missing}"})
        except ServiceUnavailable as error:
            self._send_error(503, error)
        except ReproError as error:
            self._send_error(400, error)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to answer
        except Exception as error:  # never an HTML traceback
            self._send_error(500, error)

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def do_DELETE(self) -> None:
        self._route("DELETE")

    # -- endpoints -----------------------------------------------------
    def _post_study(self) -> None:
        request = SubmitRequest.from_dict(self._read_body())
        job = self.service.submit(request)
        self._send_json(202, {
            "protocol": PROTOCOL_VERSION,
            "job": job.id,
            "status": job.status,
            "events": f"/v1/studies/{job.id}/events",
        })

    def _stream_events(self, job: ServiceJob,
                       query: Dict[str, Any]) -> None:
        since = int(query.get("since", ["0"])[0])
        heartbeat = float(query.get("heartbeat",
                                    [str(self.server.heartbeat)])[0])
        heartbeat = max(0.05, heartbeat)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            with self.server.streaming():
                for body in job.stream(since=since, heartbeat=heartbeat):
                    self._write_chunk(protocol.encode_event(body))
                self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _send_trace(self, job: ServiceJob) -> None:
        if job.trace is None:
            raise LookupError(
                f"{job.id} has no trace (submit with \"trace\": true "
                f"and wait for completion)")
        data = (job.trace.to_chrome_json() + "\n").encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


#: Seconds :func:`serve` waits, after the queue drains, for event streams
#: still writing their jobs' last events.
STREAM_DRAIN_TIMEOUT = 10.0


def make_server(service: ReproService, host: str = "127.0.0.1",
                port: int = 0,
                heartbeat: float = 10.0) -> ServiceHTTPServer:
    """Bind (``port=0`` picks an ephemeral port) without serving yet —
    callers drive ``serve_forever`` themselves (tests run it on a
    thread; :func:`serve` runs it in the foreground)."""
    return ServiceHTTPServer((host, port), service, heartbeat=heartbeat)


def serve(service: ReproService, host: str = "127.0.0.1", port: int = 0,
          heartbeat: float = 10.0, banner: Optional[TextIO] = None,
          install_signal_handlers: bool = True) -> int:
    """Foreground daemon loop with graceful drain.

    Prints one parseable banner line (``repro-service listening on
    <url> ...``) to ``banner`` (default stdout) once bound, then serves
    until SIGTERM/SIGINT: intake stops (submits answer 503), accepted
    studies finish and their event streams complete (waiting up to
    ``STREAM_DRAIN_TIMEOUT`` seconds for the streams), then the listener
    closes.  Returns the process exit code.
    """
    httpd = make_server(service, host=host, port=port, heartbeat=heartbeat)
    out = banner if banner is not None else sys.stdout
    out.write(f"repro-service listening on {httpd.url} "
              f"(workers={service.workers}, "
              f"cache={service.cache.directory or 'memory'})\n")
    out.flush()

    def _drain_and_stop() -> None:
        service.drain()
        httpd.wait_for_streams(STREAM_DRAIN_TIMEOUT)
        httpd.shutdown()

    def _on_signal(signum, frame) -> None:
        # Drain can take as long as the queue is deep — never block the
        # signal handler; a second signal is idempotent (drain and
        # shutdown both tolerate repeats).
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
        service.close(drain=False)
    return 0


# ---------------------------------------------------------------------------
# stdio transport
# ---------------------------------------------------------------------------

#: stdio ops (one JSON object per line): ``{"op": "submit", ...}``
#: streams the job's events inline and blocks until its ``done`` event;
#: ``health``/``stats`` answer one event line; ``shutdown`` drains and
#: exits the loop.
STDIO_OPS = ("submit", "health", "stats", "shutdown")


def serve_stdio(service: ReproService, stdin: Optional[TextIO] = None,
                stdout: Optional[TextIO] = None) -> int:
    """The single-caller transport: requests on stdin, NDJSON on stdout.

    Serialized by construction (ops are handled one line at a time),
    which makes it the deterministic round-trip harness for the whole
    protocol — and a way to embed the daemon under a supervisor without
    allocating a port.  EOF on stdin behaves like ``shutdown``.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def reply(body: Dict[str, Any]) -> None:
        stdout.write(protocol.encode_event(body))
        stdout.flush()

    reply(protocol.event("ready", protocol=PROTOCOL_VERSION,
                         workers=service.workers,
                         cache=service.cache.directory))
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            reply(protocol.event("error", error="ServiceError",
                                 message=f"bad request line: {error}"))
            continue
        op = payload.get("op") if isinstance(payload, dict) else None
        if op == "shutdown":
            break
        if op == "health":
            reply(protocol.event("health", **service.health()))
            continue
        if op == "stats":
            reply(protocol.event("stats", **service.stats()))
            continue
        if op == "submit":
            body = {key: value for key, value in payload.items()
                    if key != "op"}
            try:
                job = service.submit(SubmitRequest.from_dict(body))
            except ReproError as error:
                reply(protocol.event("error",
                                     **protocol.error_body(error)))
                continue
            for event_body in job.stream():
                reply(event_body)
            continue
        reply(protocol.event(
            "error", error="ServiceError",
            message=f"unknown op {op!r}; options: {list(STDIO_OPS)}"))
    service.drain()
    reply(protocol.event("bye", **service.queue.counts()))
    service.close(drain=False)
    return 0
