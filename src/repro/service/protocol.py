"""The service wire protocol: versioned JSON requests, NDJSON events.

Everything the daemon and its clients exchange is defined here, so the
two sides (and the stdio transport) can never drift:

* :class:`SubmitRequest` — the body of ``POST /v1/studies`` (and the
  stdio ``submit`` op): a plain :meth:`~repro.api.Study.from_dict`
  study spec, either bare or wrapped as ``{"spec": ..., "workers": N,
  "failure_policy": {...}, "trace": true}``.
* Event constructors/codecs — each line of a ``/v1/studies/<id>/events``
  stream is one JSON object with an ``"event"`` discriminator
  (``queued``, ``started``, ``record``, ``heartbeat``, ``error``,
  ``done``), newline-terminated (NDJSON).  ``record`` events
  embed the exact flat row :meth:`~repro.api.results.Record.to_dict`
  produces, so a client that collects them holds data bit-identical to
  a local :meth:`~repro.api.Study.run`.
* :func:`error_body` — the structured JSON error shape every non-2xx
  response carries (``{"error": <type>, "message": <one line>}``);
  the server never answers with an HTML traceback.

The protocol is versioned: responses and ``queued`` events carry
``"protocol": 1``; a client seeing a higher major version should
refuse rather than misparse.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.engine.executor import FailurePolicy
from repro.exceptions import ServiceError

#: Bumped on breaking changes to request or event shapes.
PROTOCOL_VERSION = 1

#: Job lifecycle states (``GET /v1/studies/<id>`` ``status`` field).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves; an event stream ends at the first
#: ``done`` event, whose ``status`` field is one of these.
TERMINAL_STATUSES = (DONE, FAILED, CANCELLED)

#: Valid keys of a wrapped submit body.
SUBMIT_KEYS = ("spec", "workers", "failure_policy", "trace")
#: Valid keys of the ``failure_policy`` object (mirrors
#: :class:`~repro.engine.executor.FailurePolicy`).
FAILURE_POLICY_KEYS = ("on_error", "max_retries", "backoff",
                      "task_timeout")


@dataclasses.dataclass(frozen=True)
class SubmitRequest:
    """One study submission: the spec plus per-job execution options.

    ``workers`` requests an execution width (clamped server-side to the
    daemon's pool; ``None`` means the daemon's default), ``failure_policy``
    makes the job fault-tolerant exactly as :meth:`Study.run` would, and
    ``trace`` captures a per-job :mod:`repro.obs` span timeline served
    at ``GET /v1/studies/<id>/trace``.
    """

    spec: Dict[str, Any]
    workers: Optional[int] = None
    failure_policy: Optional[FailurePolicy] = None
    trace: bool = False

    @classmethod
    def from_dict(cls, payload: Any) -> "SubmitRequest":
        """Decode a submit body — bare study spec or wrapped envelope.

        A dict without a ``"spec"`` key is treated as a bare study spec
        (every option at its default).  Unknown envelope keys, bad
        option types, and malformed failure policies raise
        :class:`~repro.exceptions.ServiceError`; the *study spec* itself
        is validated by the server via :meth:`Study.from_dict` (so spec
        errors keep their precise messages).
        """
        if not isinstance(payload, Mapping):
            raise ServiceError(
                f"submit body must be a JSON object, got "
                f"{type(payload).__name__}")
        if "spec" not in payload:
            return cls(spec=dict(payload))
        unknown = sorted(set(payload) - set(SUBMIT_KEYS))
        if unknown:
            raise ServiceError(
                f"unknown submit keys {unknown}; "
                f"options: {sorted(SUBMIT_KEYS)}")
        spec = payload["spec"]
        if not isinstance(spec, Mapping):
            raise ServiceError(
                f"submit 'spec' must be a study spec object, got "
                f"{type(spec).__name__}")
        workers = payload.get("workers")
        if workers is not None:
            if not isinstance(workers, int) or isinstance(workers, bool) \
                    or workers < 1:
                raise ServiceError(
                    f"submit 'workers' must be a positive integer, got "
                    f"{workers!r}")
        trace = payload.get("trace", False)
        if not isinstance(trace, bool):
            raise ServiceError(
                f"submit 'trace' must be a boolean, got {trace!r}")
        return cls(spec=dict(spec), workers=workers,
                   failure_policy=_failure_policy_from_dict(
                       payload.get("failure_policy")),
                   trace=trace)

    def to_dict(self) -> Dict[str, Any]:
        """The wire form (inverse of :meth:`from_dict`)."""
        body: Dict[str, Any] = {"spec": self.spec}
        if self.workers is not None:
            body["workers"] = self.workers
        if self.failure_policy is not None:
            policy = self.failure_policy
            body["failure_policy"] = {
                "on_error": policy.on_error,
                "max_retries": policy.max_retries,
                "backoff": policy.backoff,
                "task_timeout": policy.task_timeout,
            }
        if self.trace:
            body["trace"] = True
        return body


def _failure_policy_from_dict(payload: Any) -> Optional[FailurePolicy]:
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise ServiceError(
            f"submit 'failure_policy' must be an object, got "
            f"{type(payload).__name__}")
    unknown = sorted(set(payload) - set(FAILURE_POLICY_KEYS))
    if unknown:
        raise ServiceError(
            f"unknown failure_policy keys {unknown}; "
            f"options: {sorted(FAILURE_POLICY_KEYS)}")
    try:
        return FailurePolicy(**{key: payload[key]
                                for key in FAILURE_POLICY_KEYS
                                if key in payload})
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad failure_policy: {error}") from None


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


def event(kind: str, **fields: Any) -> Dict[str, Any]:
    """One stream event: the ``"event"`` discriminator plus fields."""
    body = {"event": kind}
    body.update(fields)
    return body


def record_event(row: Mapping[str, Any], done: int,
                 total: int) -> Dict[str, Any]:
    """A completed study point: the record's flat row (exactly
    :meth:`Record.to_dict` — tags then metrics, or tags then failure
    facts) plus stream progress counters."""
    return event("record", done=done, total=total, record=dict(row))


def done_event(job_id: str, status: str, records: int,
               failures: int) -> Dict[str, Any]:
    """The stream terminator; ``status`` is a :data:`TERMINAL_STATUSES`
    member and ``records``/``failures`` summarize the outcome."""
    return event("done", job=job_id, status=status, records=records,
                 failures=failures)


def encode_event(body: Mapping[str, Any]) -> str:
    """One NDJSON line (compact separators, trailing newline).

    Floats round-trip exactly through ``json`` (repr-based), which is
    what keeps streamed records bit-identical to local results.
    """
    return json.dumps(body, separators=(",", ":"), sort_keys=True) + "\n"


def decode_event(line: str) -> Dict[str, Any]:
    """Parse one stream line; raises :class:`ServiceError` on garbage
    (truncated JSON, or a JSON value that is not an event object)."""
    try:
        body = json.loads(line)
    except json.JSONDecodeError as error:
        raise ServiceError(
            f"bad event line from server: {error}") from None
    if not isinstance(body, dict) or "event" not in body:
        raise ServiceError(
            f"bad event line from server (no 'event' key): {line!r}")
    return body


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def error_body(error: BaseException) -> Dict[str, str]:
    """The structured JSON body every error response carries: the
    exception type name plus its first message line — never a
    traceback, never HTML."""
    message = str(error) or type(error).__name__
    return {"error": type(error).__name__,
            "message": message.splitlines()[0] if message else ""}


def check_protocol(payload: Mapping[str, Any], context: str) -> None:
    """Client-side version gate: refuse payloads stamped with a newer
    protocol than this client speaks (missing stamps pass — older
    servers predate stamping)."""
    version = payload.get("protocol")
    if version is not None and version > PROTOCOL_VERSION:
        raise ServiceError(
            f"{context}: server speaks protocol {version}, this client "
            f"speaks {PROTOCOL_VERSION}; upgrade the client")
