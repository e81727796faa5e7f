"""The synthesis service facade and its stdlib-only HTTP front end.

:class:`SynthesisService` bundles the scheduler, the worker pool, the metrics
registry and an optional artifact store into one start/stoppable object — the
in-process API that :class:`~repro.service.client.InProcessClient`, the CLI
and the test-suite drive directly.

:class:`ServiceServer` exposes a running service over HTTP on the stdlib
stack of :mod:`repro.httpd` (one thread per connection, keep-alive, no
third-party dependencies).  All bodies are JSON; every route lives under
the versioned ``/v1`` prefix (:mod:`repro.service.api`), and a path without
it answers ``404`` (``not_found``).  Failures are structured
``{"error": {"code", "message", "job_id"}}`` envelopes, never bare strings:

``POST /v1/submit``
    Body: a :class:`~repro.service.jobs.JobSpec` dict.  ``202`` with the job
    snapshot (the deterministic ``job_id``) on acceptance *or* any form of
    dedup hit; ``400`` (``bad_request``) on a malformed spec; ``429``
    (``backpressure``, + ``Retry-After``) under backpressure.
``GET /v1/status/{job_id}[?wait=seconds]``
    ``200`` with the job snapshot (after long-polling up to ``wait`` seconds
    for a terminal state); ``404`` (``not_found``) for unknown ids.
``GET /v1/result/{job_id}[?wait=seconds]``
    ``200`` with ``{"job_id", "state", "result"}`` once done; ``202`` with
    the snapshot while queued/running (after blocking up to ``wait`` seconds,
    capped at 30); ``500`` (``job_failed``) for failed jobs; ``409``
    (``job_cancelled``) for cancelled ones — failure bodies carry the full
    snapshot (crash exit code, timeout limit) next to the error envelope.
``GET /v1/metrics[?format=prometheus]``
    ``200`` with the JSON metrics snapshot, or the Prometheus text format.
``GET /v1/trace/{job_id}``
    ``200`` with ``{"job_id", "trace_id", "spans"}`` — the spans buffered
    for the trace that submitted the job (empty for untraced jobs).
``GET /v1/healthz``
    ``200 {"status": "ok"}`` while the service accepts work.

The router's front end shares the error envelopes, JSON bodies and the
``?wait=`` parsing through :class:`JsonRequestHandler`; the socket, the
keep-alive rules and the lifecycle come from :mod:`repro.httpd`, which the
store server uses too.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from repro.httpd import BoundServer, RequestHandler
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import TRACEPARENT_HEADER, TRACER
from repro.service.api import error_payload
from repro.service.jobs import DONE, FAILED, Job, JobSpec
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import QueueFull, Scheduler, UnknownJob
from repro.service.workers import WorkerPool
from repro.store.artifacts import ArtifactStore

#: Upper bound on the ``?wait=`` long-poll of ``/result`` (seconds).
MAX_RESULT_WAIT = 30.0


class JobFailed(Exception):
    """Raised by :meth:`SynthesisService.result` for failed/cancelled jobs."""

    def __init__(self, job: Job) -> None:
        super().__init__(f"job {job.job_id} {job.state}: {job.error}")
        self.job = job


class SynthesisService:
    """Scheduler + worker pool + metrics behind one lifecycle.

    Usable as a context manager::

        with SynthesisService(num_workers=2, store="/tmp/store") as service:
            job = service.submit({"kind": "optimize", "design": "b08"})
            payload = service.result(job.job_id)
    """

    def __init__(
        self,
        num_workers: int = 2,
        max_depth: int = 256,
        store: Union[None, str, ArtifactStore] = None,
        mode: str = "auto",
        default_timeout: Optional[float] = None,
        retain_jobs: int = 1024,
        backend: Optional[str] = None,
    ) -> None:
        self.metrics = ServiceMetrics()
        self.store = ArtifactStore.resolve(store)
        self.scheduler = Scheduler(
            max_depth=max_depth,
            store=self.store,
            metrics=self.metrics,
            retain_jobs=retain_jobs,
        )
        self.pool = WorkerPool(
            self.scheduler,
            num_workers=num_workers,
            mode=mode,
            default_timeout=default_timeout,
            backend=backend,
        )
        self._started = False

    # Lifecycle --------------------------------------------------------- #
    def start(self) -> "SynthesisService":
        if not self._started:
            self.pool.start()
            self._started = True
        return self

    def stop(self) -> None:
        if self._started:
            self.pool.stop()
            self._started = False

    def __enter__(self) -> "SynthesisService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # Client-facing API -------------------------------------------------- #
    def submit(
        self, spec: Union[Dict, JobSpec], traceparent: Optional[str] = None
    ) -> Job:
        """Submit a spec (or its dict form); return the (possibly shared) job.

        Raises :class:`ValueError` for malformed specs and
        :class:`~repro.service.scheduler.QueueFull` under backpressure.
        ``traceparent`` (defaulting to the caller's current trace context)
        links the job into the submitting client's trace.
        """
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_dict(spec)
        if traceparent is None and TRACER.enabled:
            traceparent = TRACER.current_traceparent()
        job, _ = self.scheduler.submit(spec, traceparent=traceparent)
        return job

    def trace(self, job_id: str) -> Dict:
        """Buffered spans of the trace that submitted ``job_id``.

        Returns ``{"job_id", "trace_id", "spans"}``; an untraced job yields
        a ``None`` trace id and no spans.  Raises :class:`UnknownJob`.
        """
        job = self.scheduler.get(job_id)
        trace_id = job.trace_id()
        return {
            "job_id": job.job_id,
            "trace_id": trace_id,
            "spans": TRACER.spans_for(trace_id),
        }

    def status(self, job_id: str) -> Dict:
        """The job's status snapshot (raises :class:`UnknownJob`)."""
        return self.scheduler.get(job_id).snapshot()

    def result(
        self, job_id: str, wait: bool = True, timeout: Optional[float] = None
    ) -> Dict:
        """Return the canonical result payload of a finished job.

        With ``wait`` (the default) blocks until the job is terminal or
        ``timeout`` expires (:class:`TimeoutError`).  Raises
        :class:`JobFailed` for failed/cancelled jobs.
        """
        job = self.scheduler.get(job_id)
        if wait and not job.wait(timeout):
            raise TimeoutError(f"job {job_id} not finished after {timeout}s")
        if job.state == DONE:
            return job.result
        if job.terminal:
            raise JobFailed(job)
        raise TimeoutError(f"job {job_id} is still {job.state}")

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        """Block until the job is terminal; return its final status snapshot.

        Unlike :meth:`result` this reports failed/cancelled jobs instead of
        raising; it raises :class:`TimeoutError` only when the job is still
        queued/running at ``timeout``.
        """
        job = self.scheduler.get(job_id)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job_id} not finished after {timeout}s")
        return job.snapshot()

    def cancel(self, job_id: str) -> bool:
        return self.scheduler.cancel(job_id)

    def metrics_prometheus(self) -> str:
        """The metrics snapshot rendered in Prometheus text format."""
        from repro.service.metrics import render_prometheus

        return render_prometheus([(None, self.metrics_snapshot())])

    def metrics_snapshot(self) -> Dict:
        """Counters, live gauges and latency quantiles, one consistent dict."""
        gauges = self.scheduler.gauges()
        gauges.update(self.pool.gauges())
        if self.store is not None:
            gauges["store_result_hits"] = self.store.stats.hits.get("results", 0)
            gauges["store_result_misses"] = self.store.stats.misses.get("results", 0)
        snapshot = self.metrics.snapshot(gauges)
        snapshot["backend"] = self.pool.backend_name()
        # Engine/backend/store series: this process's registry merged with
        # the cumulative dumps the worker processes ship back with results.
        snapshot["series"] = MetricsRegistry.merge_snapshots(
            [REGISTRY.snapshot()] + self.pool.worker_series()
        )
        return snapshot


# --------------------------------------------------------------------------- #
# HTTP front end
# --------------------------------------------------------------------------- #
class JsonRequestHandler(RequestHandler):
    """What the service and router front ends add to the shared handler.

    Subclasses implement ``handle_get(parts, query)`` / ``handle_post(parts,
    query)`` against *version-stripped* path parts.  Failures are
    structured error envelopes: an unknown endpoint, a path without the
    ``/v1`` prefix included, answers ``404`` (``not_found``).
    """

    server_version = "boolgebra-service/2.0"

    # Helpers ------------------------------------------------------------ #
    def _send_text(self, code: int, text: str, headers: Optional[Dict] = None) -> None:
        self._send_bytes(
            code, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8", headers
        )

    def _send_error(
        self,
        http_status: int,
        code: str,
        message: str,
        job_id: Optional[str] = None,
        headers: Optional[Dict] = None,
        **extra,
    ) -> None:
        self._send_json(
            http_status, error_payload(code, message, job_id, **extra), headers
        )

    def unknown_endpoint(self, path: str) -> None:
        self._send_error(404, "not_found", f"unknown endpoint {path!r}")

    def _read_json(self) -> Dict:
        body = self._read_body()
        if not body:
            raise ValueError("request body must be a JSON object")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    @staticmethod
    def parse_wait(query: Dict) -> Optional[float]:
        """The ``?wait=`` long-poll bound, clamped to ``MAX_RESULT_WAIT``.

        Raises :class:`ValueError` on a non-numeric value; returns ``None``
        when absent.
        """
        values = query.get("wait")
        if not values:
            return None
        try:
            return min(MAX_RESULT_WAIT, max(0.0, float(values[0])))
        except ValueError:
            raise ValueError("wait must be a number of seconds") from None

    # Dispatch ------------------------------------------------------------ #
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self.handle_post)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self.handle_get)

    # Subclass surface ----------------------------------------------------- #
    def handle_post(self, parts: List[str], query: Dict) -> None:
        raise NotImplementedError

    def handle_get(self, parts: List[str], query: Dict) -> None:
        raise NotImplementedError


def result_view(job: Job) -> Tuple[int, Dict]:
    """Map a job's state to the ``/result`` response (status code, body)."""
    if job.state == DONE:
        return 200, {"job_id": job.job_id, "state": job.state, "result": job.result}
    if job.state == FAILED:
        return 500, {
            **job.snapshot(),
            **error_payload("job_failed", job.error or "job failed", job.job_id),
        }
    if job.terminal:  # cancelled
        return 409, {
            **job.snapshot(),
            **error_payload("job_cancelled", job.error or "cancelled", job.job_id),
        }
    return 202, job.snapshot()


class _ServiceRequestHandler(JsonRequestHandler):
    @property
    def service(self) -> SynthesisService:
        return self.server.served  # type: ignore[attr-defined]

    # Routes ------------------------------------------------------------- #
    def handle_post(self, parts: List[str], query: Dict) -> None:
        if parts != ["submit"]:
            self.unknown_endpoint("/".join(parts))
            return
        traceparent = self.headers.get(TRACEPARENT_HEADER)
        with TRACER.activate(traceparent) as remote:
            try:
                spec = JobSpec.from_dict(self._read_json())
                if remote is not None:
                    # Parent the job's spans at the request-handling span so
                    # the queue wait and worker execution hang off it.
                    with TRACER.span(
                        "service.submit", attrs={"kind": spec.kind}
                    ) as span:
                        job = self.service.submit(
                            spec, traceparent=span.traceparent()
                        )
                else:
                    job = self.service.submit(spec)
            except ValueError as error:
                self._send_error(400, "bad_request", str(error))
                return
            except QueueFull as error:
                self._send_error(
                    429,
                    "backpressure",
                    str(error),
                    queue_depth=error.depth,
                    headers={"Retry-After": "1"},
                )
                return
            self._send_json(202, job.snapshot())

    def handle_get(self, parts: List[str], query: Dict) -> None:
        try:
            if parts == ["healthz"]:
                self._send_json(200, {"status": "ok"})
            elif parts == ["metrics"]:
                if query.get("format", [""])[0] == "prometheus":
                    self._send_text(200, self.service.metrics_prometheus())
                else:
                    self._send_json(200, self.service.metrics_snapshot())
            elif len(parts) == 2 and parts[0] == "status":
                self._get_status(parts[1], query)
            elif len(parts) == 2 and parts[0] == "result":
                self._get_result(parts[1], query)
            elif len(parts) == 2 and parts[0] == "trace":
                self._send_json(200, self.service.trace(parts[1]))
            else:
                self.unknown_endpoint("/".join(parts))
        except UnknownJob as error:
            self._send_error(404, "not_found", str(error), job_id=error.job_id)
        except ValueError as error:
            self._send_error(400, "bad_request", str(error))

    def _get_status(self, job_id: str, query: Dict) -> None:
        wait_seconds = self.parse_wait(query)  # 400 on bad query, even for unknown ids
        job = self.service.scheduler.get(job_id)
        if wait_seconds is not None:
            job.wait(wait_seconds)
        self._send_json(200, job.snapshot())

    def _get_result(self, job_id: str, query: Dict) -> None:
        wait_seconds = self.parse_wait(query)
        job = self.service.scheduler.get(job_id)
        if wait_seconds is not None:
            job.wait(wait_seconds)
        code, body = result_view(job)
        self._send_json(code, body)


class ServiceServer(BoundServer):
    """A :class:`SynthesisService` bound to a listening HTTP socket.

    ``port=0`` binds an ephemeral port; the actual port is available as
    ``server.port`` (and in ``server.url``) after construction, which is how
    the CI smoke test and the quickstart example avoid port collisions.
    """

    def __init__(
        self,
        service: SynthesisService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(service, _ServiceRequestHandler, host, port)
        self.service = service

    def _start_served(self) -> None:
        self.service.start()

    def _stop_served(self) -> None:
        self.service.stop()
