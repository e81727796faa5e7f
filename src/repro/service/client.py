"""Synchronous clients for the synthesis service: HTTP (stdlib-only) and
in-process.

Both implement the one :class:`~repro.service.api.ServiceClient` protocol —
``submit`` / ``status`` / ``wait`` / ``result`` / ``trace`` / ``metrics`` /
``healthz`` plus context-manager lifecycle — so call sites (CLI, examples,
tests, the
cluster router) can swap transports freely.  The ``asyncio`` transport lives
in :mod:`repro.service.aio`.

:class:`HttpServiceClient` talks to a :class:`~repro.service.server.ServiceServer`
(or a :class:`~repro.service.cluster.RouterServer`) over kept-alive
connections from a :class:`~repro.httpd.ConnectionPool`, shared by the
threads that use the client, using the versioned ``/v1`` routes — no
third-party dependencies.
Server-side failures carry the structured ``{"error": {"code", "message",
"job_id"}}`` envelope; they surface as :class:`ServiceError` (with ``.code``)
or its subclasses: backpressure (HTTP 429) as :class:`BackpressureError`,
failed jobs as :class:`JobFailedError`, and connection-level failures
(refused, reset, timed out) as :class:`TransportError` — the signal the
cluster router keys its failover on.  :class:`InProcessClient` wraps a
:class:`~repro.service.server.SynthesisService` directly (no sockets) and
raises the same exception types.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Optional, Union

from repro.httpd import TRANSPORT_ERRORS, ConnectionPool
from repro.obs.trace import TRACEPARENT_HEADER, TRACER
from repro.service.api import error_fields, error_payload, versioned
from repro.service.jobs import JobSpec
from repro.service.scheduler import QueueFull, UnknownJob
from repro.service.server import JobFailed, SynthesisService, result_view


class ServiceError(Exception):
    """Base error of a client call; carries the HTTP status and payload.

    ``payload`` is the server's JSON body; ``code`` is the structured error
    code (``bad_request``, ``not_found``, ...) from its error envelope, with
    pre-v1 string errors degrading to ``internal``.
    """

    def __init__(self, status: int, payload: Dict) -> None:
        fields = error_fields(payload)
        super().__init__(fields["message"] or f"service error (HTTP {status})")
        self.status = status
        self.payload = payload
        self.code = fields["code"]
        self.job_id = fields["job_id"]


class BackpressureError(ServiceError):
    """The queue is full (HTTP 429); retry after a pause."""


class JobFailedError(ServiceError):
    """The job reached a failed/cancelled terminal state.

    ``payload`` carries the job snapshot, including the structured failure
    diagnostics (``failure_kind``, ``exit_code``, ``timeout_limit``).
    """


class TransportError(ServiceError):
    """The service could not be reached at all (connection-level failure)."""

    def __init__(self, message: str) -> None:
        super().__init__(503, error_payload("shard_unavailable", message))


def _as_spec_dict(spec: Union[Dict, JobSpec]) -> Dict:
    # Dicts pass through untouched: validation is the server's job, so the
    # client exercises (and surfaces) the real 400 path.
    return spec.to_dict() if isinstance(spec, JobSpec) else spec


def raise_for_error(status: int, body: Dict) -> Dict:
    """Map an HTTP (status, JSON body) pair to the client exception taxonomy."""
    if status == 429:
        raise BackpressureError(status, body)
    if status in (409, 500) and "state" in body:
        raise JobFailedError(status, body)
    if status >= 400:
        raise ServiceError(status, body)
    return body


class HttpServiceClient:
    """Talk to a running service (or router) over HTTP.

    ``base_url`` is the server root (``http://127.0.0.1:8080``); a trailing
    slash is tolerated.  ``request_timeout`` bounds each HTTP round trip, not
    job completion — job completion is bounded per call via ``timeout``.
    The client is thread-safe; its threads share one pool of kept-alive
    connections.
    """

    def __init__(self, base_url: str, request_timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self._pool = ConnectionPool(self.base_url, request_timeout)

    # Transport ---------------------------------------------------------- #
    def _request(self, method: str, path: str, payload: Optional[Dict] = None,
                 decode: Callable[[bytes], Any] = json.loads):
        """``(status, body)``; ``decode`` parses a success body, JSON an error's."""
        headers = {"Content-Type": "application/json"}
        if TRACER.enabled:
            traceparent = TRACER.current_traceparent()
            if traceparent is not None:
                headers[TRACEPARENT_HEADER] = traceparent
        data = None if payload is None else json.dumps(payload).encode("ascii")
        try:
            status, raw = self._pool.request(method, path, data, headers)
        except TRANSPORT_ERRORS as error:
            raise TransportError(f"{self.base_url}: {error}") from None
        if status < 300:
            return status, decode(raw)
        try:
            return status, json.loads(raw)
        except ValueError:
            return status, {"error": raw.decode("utf-8", "replace")}

    def _checked(self, method: str, path: str, payload: Optional[Dict] = None) -> Dict:
        status, body = self._request(method, path, payload)
        return raise_for_error(status, body)

    # API ---------------------------------------------------------------- #
    def submit(self, spec: Union[Dict, JobSpec]) -> Dict:
        """Submit a job; return its status snapshot (with ``job_id``)."""
        if not TRACER.enabled:
            return self._checked("POST", versioned("/submit"), _as_spec_dict(spec))
        # The span goes onto the context stack, so _request injects it as
        # the traceparent header — the whole cross-hop propagation in one line.
        with TRACER.span("client.submit", attrs={"url": self.base_url}):
            return self._checked("POST", versioned("/submit"), _as_spec_dict(spec))

    def status(self, job_id: str) -> Dict:
        return self._checked("GET", versioned(f"/status/{job_id}"))

    def trace(self, job_id: str) -> Dict:
        """The server-side spans of the trace that submitted ``job_id``."""
        return self._checked("GET", versioned(f"/trace/{job_id}"))

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        """Long-poll ``/v1/status`` until the job is terminal; return its snapshot."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"job {job_id} not finished after {timeout}s")
            wait = 5.0 if remaining is None else max(0.05, min(5.0, remaining))
            snapshot = self._checked(
                "GET", versioned(f"/status/{job_id}?wait={wait:g}")
            )
            if snapshot["state"] in ("done", "failed", "cancelled"):
                return snapshot

    def result(
        self,
        job_id: str,
        timeout: Optional[float] = 120.0,
        poll_interval: float = 0.05,
    ) -> Dict:
        """Block until the job finishes; return its canonical payload.

        Polls ``/v1/result`` with server-side long-polling (``?wait=``) until
        the job is terminal or ``timeout`` expires (:class:`TimeoutError`).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"job {job_id} not finished after {timeout}s")
            wait = 5.0 if remaining is None else max(0.0, min(5.0, remaining))
            status, body = self._request("GET", versioned(f"/result/{job_id}?wait={wait:g}"))
            if status == 200:
                return body["result"]
            if status == 202:
                time.sleep(poll_interval)
                continue
            raise_for_error(status, body)
            raise ServiceError(status, body)  # unreachable safety net

    def metrics(self) -> Dict:
        return self._checked("GET", versioned("/metrics"))

    def metrics_prometheus(self) -> str:
        """The Prometheus text-format variant of ``/v1/metrics``."""
        status, body = self._request(
            "GET", versioned("/metrics?format=prometheus"), decode=bytes.decode
        )
        raise_for_error(status, body)
        return body

    def healthz(self) -> bool:
        try:
            status, body = self._request("GET", versioned("/healthz"))
        except TransportError:
            return False
        return status == 200 and body.get("status") == "ok"

    # Lifecycle ----------------------------------------------------------- #
    def close(self) -> None:
        """Close the kept-alive connections (a later call opens a new one)."""
        self._pool.close()

    def __enter__(self) -> "HttpServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessClient:
    """The same client API, wired straight into a :class:`SynthesisService`.

    With ``own_service=True`` the client owns the service lifecycle: entering
    the context manager starts it, ``close()`` stops it — so
    ``with InProcessClient(SynthesisService(...), own_service=True) as c:``
    is a self-contained one-liner.
    """

    def __init__(self, service: SynthesisService, own_service: bool = False) -> None:
        self.service = service
        self.own_service = own_service

    def submit(self, spec: Union[Dict, JobSpec]) -> Dict:
        try:
            if not isinstance(spec, JobSpec):
                spec = JobSpec.from_dict(spec)
            if TRACER.enabled:
                with TRACER.span("client.submit", attrs={"url": "in-process"}):
                    return self.service.submit(spec).snapshot()
            return self.service.submit(spec).snapshot()
        except QueueFull as error:
            raise BackpressureError(
                429,
                error_payload("backpressure", str(error), queue_depth=error.depth),
            ) from None
        except ValueError as error:
            raise ServiceError(400, error_payload("bad_request", str(error))) from None

    def status(self, job_id: str) -> Dict:
        try:
            return self.service.status(job_id)
        except UnknownJob as error:
            raise ServiceError(
                404, error_payload("not_found", str(error), job_id)
            ) from None

    def trace(self, job_id: str) -> Dict:
        try:
            return self.service.trace(job_id)
        except UnknownJob as error:
            raise ServiceError(
                404, error_payload("not_found", str(error), job_id)
            ) from None

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        try:
            return self.service.wait(job_id, timeout=timeout)
        except UnknownJob as error:
            raise ServiceError(
                404, error_payload("not_found", str(error), job_id)
            ) from None

    def result(
        self,
        job_id: str,
        timeout: Optional[float] = 120.0,
        poll_interval: float = 0.05,  # noqa: ARG002 - parity with the HTTP client
    ) -> Dict:
        try:
            return self.service.result(job_id, wait=True, timeout=timeout)
        except UnknownJob as error:
            raise ServiceError(
                404, error_payload("not_found", str(error), job_id)
            ) from None
        except JobFailed as error:
            code, body = result_view(error.job)
            raise JobFailedError(code, body) from None

    def metrics(self) -> Dict:
        return self.service.metrics_snapshot()

    def metrics_prometheus(self) -> str:
        return self.service.metrics_prometheus()

    def healthz(self) -> bool:
        return True

    # Lifecycle ----------------------------------------------------------- #
    def close(self) -> None:
        if self.own_service:
            self.service.stop()

    def __enter__(self) -> "InProcessClient":
        if self.own_service:
            self.service.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
