"""Bounded FIFO job queue with a single executor thread.

The daemon owns exactly one :class:`~repro.engine.pool.WorkerPool` and
one shared :class:`~repro.engine.cache.EvaluationCache`; neither is safe
to drive from several threads at once.  The queue is what makes the
HTTP layer's concurrency safe anyway: any number of submitter threads
append to a bounded FIFO (full queue -> :class:`~repro.exceptions.
ServiceUnavailable`, never silent corruption), and one executor thread
drains it strictly in submission order, so pool and cache only ever see
serialized access while submitters and event-stream readers stay fully
concurrent.

Each submission becomes a :class:`ServiceJob`: status lifecycle
(``queued -> running -> done|failed|cancelled``), an append-only event
buffer every reader can stream independently (late subscribers replay
from the start, then follow live), cooperative cancellation, and an
optional per-job :mod:`repro.obs` trace captured by the executor.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.service import protocol
from repro.service.protocol import SubmitRequest
from repro.exceptions import ServiceUnavailable


class JobCancelled(Exception):
    """Internal control flow: a running job observed its cancel flag
    (raised from the streaming callback to unwind the evaluation)."""


class ServiceJob:
    """One submitted study: status, event buffer, outcome counters.

    Thread model: the executor thread is the only writer of ``status``
    after the job leaves the queue and the only caller of :meth:`emit`;
    any number of reader threads iterate :meth:`stream` concurrently.
    All shared state is guarded by the job's condition variable.
    """

    def __init__(self, job_id: str, request: SubmitRequest,
                 seq: int) -> None:
        self.id = job_id
        self.request = request
        self.seq = seq
        self.status = protocol.QUEUED
        #: Set once the study compiles server-side (the ``started``
        #: event's ``total``); ``None`` while queued.
        self.total: Optional[int] = None
        self.records = 0
        self.failures = 0
        #: ``(error type, one-line message)`` when ``status == failed``.
        self.error: Optional[tuple] = None
        #: The per-job :class:`~repro.obs.Trace` (``trace: true``
        #: submissions only), set by the executor on completion.
        self.trace: Any = None
        self._events: List[Dict[str, Any]] = []
        self._cond = threading.Condition()
        self._cancel = threading.Event()

    # ------------------------------------------------------------------
    # Written by the executor / queue
    # ------------------------------------------------------------------
    def emit(self, body: Dict[str, Any]) -> None:
        """Append one event and wake every streaming reader."""
        with self._cond:
            self._events.append(body)
            self._cond.notify_all()

    def finish(self, status: str) -> None:
        """Enter a terminal status and emit the ``done`` event (always
        the buffer's last entry, so streams know where to stop)."""
        with self._cond:
            self.status = status
            self._events.append(protocol.done_event(
                self.id, status, self.records, self.failures))
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def cancel(self) -> bool:
        """Request cancellation; returns False once the job is already
        terminal.  A queued job is skipped when the executor reaches
        it; a running one unwinds at its next record completion."""
        with self._cond:
            if self.status in protocol.TERMINAL_STATUSES:
                return False
            self._cancel.set()
            return True

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.status in protocol.TERMINAL_STATUSES

    def snapshot(self) -> Dict[str, Any]:
        """The ``GET /v1/studies/<id>`` body."""
        with self._cond:
            body = {
                "job": self.id,
                "status": self.status,
                "events": len(self._events),
                "records": self.records,
                "failures": self.failures,
                "protocol": protocol.PROTOCOL_VERSION,
            }
            if self.total is not None:
                body["total"] = self.total
            if self.error is not None:
                body["error"], body["message"] = self.error
            body["trace"] = self.trace is not None
            return body

    def stream(self, since: int = 0,
               heartbeat: Optional[float] = None) -> Iterator[Dict[str, Any]]:
        """Yield events from index ``since``: buffered history first,
        then live events as they land, ending after the terminal
        ``done`` event.  While caught up and waiting, a ``heartbeat``
        event is yielded every ``heartbeat`` seconds (not buffered —
        each reader gets its own), keeping slow jobs' connections
        visibly alive.
        """
        index = max(0, since)
        while True:
            with self._cond:
                while index >= len(self._events):
                    if self.status in protocol.TERMINAL_STATUSES:
                        return
                    if not self._cond.wait(timeout=heartbeat):
                        break  # heartbeat tick (outside the lock)
                batch = self._events[index:]
                index += len(batch)
            if not batch:
                yield protocol.event("heartbeat", job=self.id,
                                     status=self.status)
                continue
            for body in batch:
                yield body


class JobQueue:
    """The daemon's scheduler: bounded FIFO + one executor thread.

    ``execute(job)`` is the service's evaluation hook, called on the
    executor thread with the job already in ``running`` state; it emits
    ``started``/``record`` events and maintains the job's
    outcome counters.  The queue handles everything around it: ordering,
    status transitions, the terminal event, cancellation, failure
    capture (an exception out of ``execute`` becomes a structured
    ``error`` event + ``failed`` status — the daemon never dies with a
    job), and drain-for-shutdown.
    """

    def __init__(self, execute: Callable[[ServiceJob], None],
                 limit: int = 32) -> None:
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self._execute = execute
        self.limit = limit
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[str, ServiceJob] = {}
        self._pending: deque = deque()
        self._running: Optional[ServiceJob] = None
        self._accepting = True
        self._stopping = False
        self._seq = itertools.count(1)
        #: Terminal job ids in completion order (drives the in-order
        #: execution guarantee's tests and the stats endpoint).
        self.finished: List[str] = []
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-service-executor",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Submit side (any thread)
    # ------------------------------------------------------------------
    def submit(self, request: SubmitRequest) -> ServiceJob:
        """Enqueue; raises :class:`ServiceUnavailable` when the daemon
        is draining or the FIFO is at its bound."""
        with self._wake:
            if not self._accepting:
                raise ServiceUnavailable(
                    "service is draining for shutdown; not accepting "
                    "new studies")
            if len(self._pending) >= self.limit:
                raise ServiceUnavailable(
                    f"job queue is full ({self.limit} queued studies); "
                    f"retry after some complete")
            seq = next(self._seq)
            job = ServiceJob(f"job-{seq}", request, seq)
            position = len(self._pending)
            self._jobs[job.id] = job
            self._pending.append(job)
            self._wake.notify_all()
        job.emit(protocol.event(
            "queued", job=job.id, position=position,
            protocol=protocol.PROTOCOL_VERSION))
        return job

    def get(self, job_id: str) -> Optional[ServiceJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[ServiceJob]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.seq)

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (the health/stats summaries)."""
        counts = {protocol.QUEUED: 0, protocol.RUNNING: 0,
                  protocol.DONE: 0, protocol.FAILED: 0,
                  protocol.CANCELLED: 0}
        for job in self.jobs():
            counts[job.status] += 1
        return counts

    def cancel(self, job_id: str) -> bool:
        job = self.get(job_id)
        return job.cancel() if job is not None else False

    # ------------------------------------------------------------------
    # Shutdown (main / signal-handler thread)
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting and wait for queued + running jobs to finish.

        Returns True when the queue emptied (False on timeout — jobs
        keep running; call again or :meth:`close` without drain).
        """
        with self._wake:
            self._accepting = False
            return self._wake.wait_for(
                lambda: not self._pending and self._running is None,
                timeout=timeout)

    def close(self, drain: bool = False,
              timeout: Optional[float] = None) -> None:
        """Shut the executor down.  ``drain=True`` finishes all accepted
        work first; otherwise still-queued jobs finalize as cancelled
        (the running one, if any, is flagged and unwinds at its next
        record).  Idempotent."""
        if drain:
            self.drain(timeout=timeout)
        with self._wake:
            self._accepting = False
            self._stopping = True
            if not drain:
                for job in self._pending:
                    job.cancel()
                if self._running is not None:
                    self._running.cancel()
            self._wake.notify_all()
        self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Executor thread
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._wake:
                while not self._pending and not self._stopping:
                    self._wake.wait()
                if not self._pending and self._stopping:
                    return
                job = self._pending.popleft()
                self._running = job
            try:
                if job.cancelled:
                    job.finish(protocol.CANCELLED)
                    continue
                job.status = protocol.RUNNING
                try:
                    self._execute(job)
                except JobCancelled:
                    job.finish(protocol.CANCELLED)
                except Exception as error:  # job fails, daemon survives
                    job.error = tuple(
                        protocol.error_body(error).values())
                    job.emit(protocol.event(
                        "error", **protocol.error_body(error)))
                    job.finish(protocol.FAILED)
                else:
                    job.finish(protocol.DONE)
            finally:
                self.finished.append(job.id)
                with self._wake:
                    self._running = None
                    self._wake.notify_all()
