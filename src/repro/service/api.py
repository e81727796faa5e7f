"""The versioned service API surface shared by servers and clients.

This module is the single source of truth for the client-visible contract of
the synthesis service, introduced when the HTTP surface moved under
versioned ``/v1/...`` paths:

* :data:`API_VERSION` / :func:`versioned` — the route prefix.  A path
  without it answers ``404`` (``not_found``).
* :func:`error_payload` — the structured JSON error envelope
  ``{"error": {"code", "message", "job_id"}}`` every server-side failure is
  rendered as (no more bare status strings).  :data:`ERROR_CODES` enumerates
  the codes so clients can switch on them.
* :class:`ServiceClient` — the one protocol all transports implement:
  :class:`~repro.service.client.InProcessClient` (no sockets),
  :class:`~repro.service.client.HttpServiceClient` (blocking stdlib HTTP),
  and :class:`~repro.service.aio.AsyncServiceClient` (``asyncio``; same
  method names as coroutines).  The :class:`~repro.service.cluster.Router`
  exposes the same surface over a whole fleet.

The contract is exercised transport-by-transport by the shared suite in
``tests/cluster/test_client_contract.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, Union, runtime_checkable

#: Current API version; all canonical routes live under this prefix.
API_VERSION = "v1"

#: The error codes a server may put in the ``error.code`` field.
ERROR_CODES = (
    "bad_request",       # malformed spec / query parameter (HTTP 400)
    "not_found",         # unknown job id or endpoint (HTTP 404)
    "backpressure",      # queue full, retry later (HTTP 429)
    "job_failed",        # the job reached the failed state (HTTP 500)
    "job_cancelled",     # the job was cancelled (HTTP 409)
    "shard_unavailable", # router: no live shard could serve the call (HTTP 503)
    "internal",          # anything else (HTTP 500)
)


def versioned(path: str) -> str:
    """Prefix ``path`` with the current API version (``/submit`` → ``/v1/submit``)."""
    if not path.startswith("/"):
        path = "/" + path
    return f"/{API_VERSION}{path}"


def error_payload(
    code: str,
    message: str,
    job_id: Optional[str] = None,
    **extra: Any,
) -> Dict:
    """Build the structured error envelope served on every failure response.

    ``extra`` carries response-specific context (``queue_depth`` on 429s, the
    job snapshot fields on terminal-failure responses) at the top level, next
    to — never inside — the ``error`` object.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r} (expected one of {ERROR_CODES})")
    return {
        "error": {"code": code, "message": message, "job_id": job_id},
        **extra,
    }


def error_fields(payload: Dict) -> Dict:
    """Extract ``{code, message, job_id}`` from an error body, old or new.

    Tolerates the pre-v1 shape (``{"error": "<string>"}``) so clients can
    talk to old servers during a rolling upgrade.
    """
    error = payload.get("error")
    if isinstance(error, dict):
        return {
            "code": error.get("code", "internal"),
            "message": error.get("message", "service error"),
            "job_id": error.get("job_id"),
        }
    return {"code": "internal", "message": str(error or "service error"), "job_id": None}


@runtime_checkable
class ServiceClient(Protocol):
    """The one client protocol every transport implements.

    Synchronous transports implement these methods directly; the async
    transport implements the same names as coroutines (and ``async with``
    alongside ``with``).  Semantics:

    ``submit(spec) -> snapshot``
        Submit a job spec (dict or :class:`~repro.service.jobs.JobSpec`);
        return its status snapshot carrying the deterministic ``job_id``.
        Raises :class:`~repro.service.client.BackpressureError` when the
        queue is full.
    ``status(job_id) -> snapshot``
        The current status snapshot; raises
        :class:`~repro.service.client.ServiceError` (code ``not_found``) for
        unknown ids.
    ``wait(job_id, timeout=None) -> snapshot``
        Block until the job is terminal (done, failed or cancelled) and
        return its final snapshot; raises :class:`TimeoutError` if it is
        still running at ``timeout``.  Unlike ``result`` this never raises
        for failed jobs — it reports them.
    ``result(job_id, timeout=...) -> payload``
        Block until done and return the canonical result payload; raises
        :class:`~repro.service.client.JobFailedError` for failed/cancelled
        jobs and :class:`TimeoutError` on expiry.
    ``trace(job_id) -> {"job_id", "trace_id", "spans"}``
        The spans buffered server-side for the trace that submitted the job
        (``GET /v1/trace/{job_id}``); an untraced job yields a ``None``
        trace id and an empty span list.
    ``metrics() -> snapshot``
        The service (or fleet) metrics snapshot.
    ``healthz() -> bool``
        Liveness: whether the service currently answers.
    ``close()``
        Release transport resources; the client is also a context manager
        (``with client: ...``) that closes on exit.
    """

    def submit(self, spec: Union[Dict, Any]) -> Dict: ...

    def status(self, job_id: str) -> Dict: ...

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict: ...

    def result(self, job_id: str, timeout: Optional[float] = 120.0) -> Dict: ...

    def trace(self, job_id: str) -> Dict: ...

    def metrics(self) -> Dict: ...

    def healthz(self) -> bool: ...

    def close(self) -> None: ...

    def __enter__(self) -> "ServiceClient": ...

    def __exit__(self, *exc_info) -> None: ...
