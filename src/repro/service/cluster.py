"""Sharded multi-node synthesis cluster: router, membership, failover.

The scale-out story of the service layer (README "Scaling out"): N
independent :class:`~repro.service.server.ServiceServer` instances — each
with its own :class:`~repro.service.scheduler.CoalescingQueue`, worker pool
and L1 artifact store — fronted by one :class:`Router` that clients talk to
exactly like a single service.

**Sharding.** The router assigns every job to a shard by consistent-hashing
its *coalescing key* (design fingerprint × config fingerprint,
:meth:`~repro.service.jobs.JobSpec.coalesce_key`) over a
:class:`~repro.service.hashing.HashRing` of the healthy shards.  Keying the
ring on the coalescing key — not on round-robin or load — is what preserves
the single-node dedup semantics fleet-wide: duplicate submissions land on
the *same* shard, where the per-shard queue coalesces them as usual.  Design
fingerprints are cached per design string so routing does not re-load the
design on every submission.

**Membership & failover.** A background prober health-checks every shard;
shards leave the ring after ``fail_threshold`` consecutive failures and
rejoin on recovery (consistent hashing moves only ~1/N of the key space
either way).  A connection-level failure mid-request
(:class:`~repro.service.client.TransportError`) marks the shard down
immediately and triggers failover: the router re-submits the job's original
spec — which it remembers per routed job — to the next shard in ring order.
Job ids are deterministic and execution is a pure function of the spec, so
the re-run on the new shard yields a byte-identical payload under the same
job id; clients never observe the migration.  Retries are bounded by
``max_retries`` per call.

**Observability.** ``metrics()`` aggregates the fleet: summed counters and
gauges across shards, per-shard snapshots, and the router's own
routed/failover counters plus membership view.  The Prometheus variant
labels every per-shard sample with ``{shard="<name>"}`` so one scrape
distinguishes fleet members.

:class:`Router` implements the same
:class:`~repro.service.api.ServiceClient` protocol as the clients, and
:class:`RouterServer` re-exposes it over the identical versioned HTTP API —
a client pointed at a router cannot tell it from a single service.  Its
handler shares the service's :class:`~repro.service.server.JsonRequestHandler`
and the socket, keep-alive and lifecycle code of :mod:`repro.httpd`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.httpd import BoundServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACEPARENT_HEADER, TRACER
from repro.service.api import error_payload, versioned
from repro.service.client import (
    HttpServiceClient,
    ServiceError,
    TransportError,
    raise_for_error,
)
from repro.service.hashing import DEFAULT_REPLICAS, HashRing
from repro.service.jobs import JobSpec
from repro.service.metrics import render_prometheus
from repro.service.server import JsonRequestHandler
from repro.store.fingerprint import combine_keys


class _Shard:
    """One backend service instance as the router sees it."""

    def __init__(self, name: str, url: str, request_timeout: float) -> None:
        self.name = name
        self.url = url
        self.client = HttpServiceClient(url, request_timeout=request_timeout)
        self.healthy = True
        self.consecutive_failures = 0
        self.jobs_routed = 0
        self.failovers_absorbed = 0

    def view(self) -> Dict:
        return {
            "url": self.url,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "jobs_routed": self.jobs_routed,
            "failovers_absorbed": self.failovers_absorbed,
        }


class _Route:
    """Where a routed job lives: its shard plus what it takes to move it."""

    __slots__ = ("shard", "spec_dict", "key")

    def __init__(self, shard: str, spec_dict: Dict, key: str) -> None:
        self.shard = shard
        self.spec_dict = spec_dict
        self.key = key


class Router:
    """Consistent-hash front end over N service shards.

    ``shards`` maps shard names to base URLs (a plain iterable of URLs gets
    ``shard-0`` … ``shard-N-1`` names).  The router is itself a
    ``ServiceClient``: ``submit`` / ``status`` / ``wait`` / ``result`` /
    ``trace`` / ``metrics`` / ``healthz`` plus context-manager lifecycle.
    """

    def __init__(
        self,
        shards: Union[Mapping[str, str], Iterable[str]],
        replicas: int = DEFAULT_REPLICAS,
        max_retries: int = 2,
        fail_threshold: int = 2,
        health_interval: float = 2.0,
        request_timeout: float = 60.0,
        retain_routes: int = 4096,
    ) -> None:
        if not isinstance(shards, Mapping):
            shards = {f"shard-{index}": url for index, url in enumerate(shards)}
        if not shards:
            raise ValueError("a router needs at least one shard")
        self._shards: Dict[str, _Shard] = {
            name: _Shard(name, url.rstrip("/"), request_timeout)
            for name, url in shards.items()
        }
        self.ring = HashRing(self._shards, replicas=replicas)
        self.max_retries = max_retries
        self.fail_threshold = fail_threshold
        self.health_interval = health_interval
        self.retain_routes = retain_routes
        self._lock = threading.Lock()
        self._routes: Dict[str, _Route] = {}
        self._design_keys: Dict[str, str] = {}
        self._counters = {"routed": 0, "coalesced_routes": 0, "failovers": 0, "retries": 0}
        self._prober: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "Router":
        """Probe every shard once, then start the background health prober."""
        self.check_health()
        if self._prober is None:
            self._stop.clear()
            self._prober = threading.Thread(
                target=self._probe_loop, name="boolgebra-router-prober", daemon=True
            )
            self._prober.start()
        return self

    def close(self) -> None:
        self._stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)
            self._prober = None
        for shard in self._shards.values():
            shard.client.close()

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def _probe_loop(self) -> None:
        while not self._stop.wait(self.health_interval):
            self.check_health()

    def check_health(self) -> Dict[str, bool]:
        """Probe every shard once; update ring membership; return the view."""
        view = {}
        for shard in self._shards.values():
            if shard.client.healthz():
                self._mark_up(shard)
            else:
                self._note_failure(shard)
            view[shard.name] = shard.healthy
        return view

    def _mark_up(self, shard: _Shard) -> None:
        with self._lock:
            shard.consecutive_failures = 0
            if not shard.healthy:
                shard.healthy = True
                self.ring.add(shard.name)

    def _note_failure(self, shard: _Shard) -> None:
        """One observed failure; drops the shard after ``fail_threshold``."""
        with self._lock:
            shard.consecutive_failures += 1
            if shard.healthy and shard.consecutive_failures >= self.fail_threshold:
                shard.healthy = False
                self.ring.remove(shard.name)

    def _mark_down(self, shard: _Shard) -> None:
        """A connection-level failure: drop the shard from the ring now."""
        with self._lock:
            shard.consecutive_failures = max(
                shard.consecutive_failures + 1, self.fail_threshold
            )
            if shard.healthy:
                shard.healthy = False
                self.ring.remove(shard.name)

    def healthy_shards(self) -> List[str]:
        with self._lock:
            return [name for name, shard in self._shards.items() if shard.healthy]

    def shards_view(self) -> Dict[str, Dict]:
        with self._lock:
            return {name: shard.view() for name, shard in sorted(self._shards.items())}

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def routing_key(self, spec: JobSpec) -> str:
        """The spec's coalescing key, with the design fingerprint cached.

        The design part of the key depends only on the design string, so the
        router computes it once per design (first submission loads the AIG)
        and reuses it for every subsequent spec touching that design.
        """
        with self._lock:
            design_key = self._design_keys.get(spec.design)
        if design_key is None:
            design_key = spec.design_key()
            with self._lock:
                self._design_keys[spec.design] = design_key
        return combine_keys(design_key, spec.config_key())

    def _preference(self, key: str) -> List[_Shard]:
        with self._lock:
            order = self.ring.assign_order(key)
            return [self._shards[name] for name in order]

    def _record_route(self, job_id: str, shard: _Shard, spec_dict: Dict, key: str) -> None:
        with self._lock:
            known = job_id in self._routes
            self._routes[job_id] = _Route(shard.name, spec_dict, key)
            self._counters["routed"] += 1
            if known:
                self._counters["coalesced_routes"] += 1
            shard.jobs_routed += 1
            while len(self._routes) > self.retain_routes:
                self._routes.pop(next(iter(self._routes)))

    # ------------------------------------------------------------------ #
    # ServiceClient API
    # ------------------------------------------------------------------ #
    def submit(self, spec: Union[Dict, JobSpec]) -> Dict:
        """Route a job to its shard; return the snapshot plus ``"shard"``."""
        try:
            if not isinstance(spec, JobSpec):
                spec = JobSpec.from_dict(spec)
            key = self.routing_key(spec)
        except ValueError as error:
            raise ServiceError(400, error_payload("bad_request", str(error))) from None
        spec_dict = spec.to_dict()
        last_error: Optional[ServiceError] = None
        # NULL_SPAN while untraced; a real span parents the shard hop (the
        # shard client injects the span's traceparent into its request).
        with TRACER.span("router.submit", attrs={"kind": spec.kind}) as span:
            for shard in self._preference(key):
                try:
                    snapshot = shard.client.submit(spec_dict)
                except TransportError as error:
                    self._mark_down(shard)
                    last_error = error
                    with self._lock:
                        self._counters["retries"] += 1
                    continue
                self._record_route(snapshot["job_id"], shard, spec_dict, key)
                snapshot["shard"] = shard.name
                span.set("shard", shard.name)
                return snapshot
        raise last_error or TransportError("no healthy shards")

    def _resubmit(self, job_id: str, route: _Route) -> _Shard:
        """Failover: land the job's spec on the next live shard in ring order.

        Deterministic job ids + pure execution make this transparent: the new
        shard computes the same ``job_id`` and a byte-identical payload.
        """
        with TRACER.span(
            "router.failover", attrs={"job_id": job_id, "from": route.shard}
        ) as span:
            for shard in self._preference(route.key):
                if shard.name == route.shard:
                    continue
                try:
                    shard.client.submit(route.spec_dict)
                except TransportError:
                    self._mark_down(shard)
                    continue
                with self._lock:
                    route.shard = shard.name
                    self._counters["failovers"] += 1
                    shard.jobs_routed += 1
                    shard.failovers_absorbed += 1
                span.set("to", shard.name)
                return shard
            raise TransportError(f"no healthy shard left for job {job_id}")

    def _with_route(self, job_id: str, call):
        """Run ``call(client)`` against the job's shard, failing over as needed."""
        for attempt in range(self.max_retries + 1):
            with self._lock:
                route = self._routes.get(job_id)
            if route is None:
                raise ServiceError(
                    404,
                    error_payload("not_found", f"unknown job id {job_id!r}", job_id),
                )
            shard = self._shards[route.shard]
            try:
                return call(shard.client)
            except TransportError:
                self._mark_down(shard)
                if attempt >= self.max_retries:
                    raise
                with self._lock:
                    self._counters["retries"] += 1
                self._resubmit(job_id, route)
        raise TransportError(f"shards unreachable for job {job_id}")  # pragma: no cover

    def status(self, job_id: str) -> Dict:
        return self._with_route(job_id, lambda client: client.status(job_id))

    def trace(self, job_id: str) -> Dict:
        """One coherent trace: the shard's spans plus the router's own.

        The shard serves the spans it buffered for the job's trace; the
        router appends its ``router.submit`` / ``router.failover`` spans for
        the same trace id, deduplicated by span id.
        """
        payload = self._with_route(job_id, lambda client: client.trace(job_id))
        trace_id = payload.get("trace_id")
        spans = list(payload.get("spans") or [])
        if trace_id:
            seen = {span.get("span_id") for span in spans}
            for span in TRACER.spans_for(trace_id):
                if span.get("span_id") not in seen:
                    spans.append(span)
        payload["spans"] = spans
        return payload

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"job {job_id} not finished after {timeout}s")
            wait = 5.0 if remaining is None else max(0.05, min(5.0, remaining))
            snapshot = self._with_route(
                job_id,
                lambda client: client._checked(
                    "GET", versioned(f"/status/{job_id}?wait={wait:g}")
                ),
            )
            if snapshot["state"] in ("done", "failed", "cancelled"):
                return snapshot

    def result_response(self, job_id: str, wait: Optional[float] = None) -> Tuple[int, Dict]:
        """The shard's raw ``/result`` response ``(status, body)`` — one hop.

        This is what :class:`RouterServer` proxies verbatim, so router-served
        result bodies (success *and* failure envelopes) are byte-identical to
        single-service ones.
        """
        suffix = "" if wait is None else f"?wait={wait:g}"
        return self._with_route(
            job_id,
            lambda client: client._request("GET", versioned(f"/result/{job_id}{suffix}")),
        )

    def result(
        self,
        job_id: str,
        timeout: Optional[float] = 120.0,
        poll_interval: float = 0.05,
    ) -> Dict:
        """Block until the routed job finishes; return its canonical payload."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"job {job_id} not finished after {timeout}s")
            wait = 5.0 if remaining is None else max(0.0, min(5.0, remaining))
            status, body = self.result_response(job_id, wait)
            if status == 200:
                return body["result"]
            if status == 202:
                time.sleep(poll_interval)
                continue
            raise_for_error(status, body)

    # ------------------------------------------------------------------ #
    # Fleet observability
    # ------------------------------------------------------------------ #
    def _shard_snapshots(self) -> Dict[str, Optional[Dict]]:
        snapshots: Dict[str, Optional[Dict]] = {}
        for name, shard in sorted(self._shards.items()):
            if not shard.healthy:
                snapshots[name] = None
                continue
            try:
                snapshots[name] = shard.client.metrics()
            except (ServiceError, TransportError):
                snapshots[name] = None
        return snapshots

    def router_snapshot(self) -> Dict:
        """The router's own counters and membership as a metrics section."""
        with self._lock:
            counters = {f"router_{name}": value for name, value in self._counters.items()}
            healthy = sum(1 for shard in self._shards.values() if shard.healthy)
            gauges = {
                "router_shards_healthy": healthy,
                "router_shards_total": len(self._shards),
                "router_tracked_routes": len(self._routes),
                "router_cached_designs": len(self._design_keys),
            }
        return {"counters": counters, "gauges": gauges}

    def metrics(self) -> Dict:
        """Fleet-aggregated metrics: totals, per-shard snapshots, router view."""
        snapshots = self._shard_snapshots()
        fleet_counters: Dict[str, int] = {}
        fleet_gauges: Dict[str, float] = {}
        for snapshot in snapshots.values():
            if snapshot is None:
                continue
            for name, value in snapshot.get("counters", {}).items():
                fleet_counters[name] = fleet_counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    fleet_gauges[name] = fleet_gauges.get(name, 0) + value
        submitted = fleet_counters.get("submitted", 0)
        saved = (
            fleet_counters.get("coalesced", 0)
            + fleet_counters.get("store_hits", 0)
            + fleet_counters.get("memory_hits", 0)
        )
        fleet_series = MetricsRegistry.merge_snapshots(
            [
                snapshot.get("series", {})
                for snapshot in snapshots.values()
                if snapshot is not None
            ]
        )
        return {
            "fleet": {
                "counters": fleet_counters,
                "gauges": fleet_gauges,
                "series": fleet_series,
                "coalesce_rate": (fleet_counters.get("coalesced", 0) / submitted)
                if submitted
                else 0.0,
                "cache_hit_rate": (saved / submitted) if submitted else 0.0,
            },
            "router": {**self.router_snapshot(), "shards": self.shards_view()},
            "shards": snapshots,
        }

    def metrics_prometheus(self) -> str:
        """Prometheus text format with per-shard ``{shard="..."}`` labels."""
        sections: List[Tuple[Optional[Dict], Dict]] = [(None, self.router_snapshot())]
        for name, snapshot in self._shard_snapshots().items():
            if snapshot is not None:
                sections.append(({"shard": name}, snapshot))
        return render_prometheus(sections)

    def healthz(self) -> bool:
        """The router is healthy while at least one shard is."""
        return bool(self.healthy_shards())


# --------------------------------------------------------------------------- #
# HTTP front end
# --------------------------------------------------------------------------- #
class _RouterRequestHandler(JsonRequestHandler):
    @property
    def router(self) -> Router:
        return self.server.served  # type: ignore[attr-defined]

    def handle_post(self, parts: List[str], query: Dict) -> None:
        if parts != ["submit"]:
            self.unknown_endpoint("/".join(parts))
            return
        try:
            payload = self._read_json()
        except ValueError as error:
            self._send_error(400, "bad_request", str(error))
            return
        # Adopt the caller's trace for this hop so router.submit (and the
        # onward shard request) join the client's tree; a no-op untraced.
        with TRACER.activate(self.headers.get(TRACEPARENT_HEADER)):
            try:
                snapshot = self.router.submit(payload)
            except ServiceError as error:
                headers = {"Retry-After": "1"} if error.status == 429 else None
                self._send_json(error.status, error.payload, headers)
                return
            self._send_json(202, snapshot)

    def handle_get(self, parts: List[str], query: Dict) -> None:
        with TRACER.activate(self.headers.get(TRACEPARENT_HEADER)):
            self._handle_get_traced(parts, query)

    def _handle_get_traced(self, parts: List[str], query: Dict) -> None:
        try:
            if parts == ["healthz"]:
                healthy = self.router.healthz()
                self._send_json(
                    200 if healthy else 503,
                    {
                        "status": "ok" if healthy else "unavailable",
                        "shards": {
                            name: view["healthy"]
                            for name, view in self.router.shards_view().items()
                        },
                    },
                )
            elif parts == ["metrics"]:
                if query.get("format", [""])[0] == "prometheus":
                    self._send_text(200, self.router.metrics_prometheus())
                else:
                    self._send_json(200, self.router.metrics())
            elif parts == ["shards"]:
                self._send_json(200, {"shards": self.router.shards_view()})
            elif len(parts) == 2 and parts[0] == "status":
                wait = self.parse_wait(query)
                if wait is None:
                    snapshot = self.router.status(parts[1])
                else:
                    try:
                        snapshot = self.router.wait(parts[1], timeout=wait)
                    except TimeoutError:
                        snapshot = self.router.status(parts[1])
                self._send_json(200, snapshot)
            elif len(parts) == 2 and parts[0] == "result":
                status, body = self.router.result_response(
                    parts[1], self.parse_wait(query)
                )
                self._send_json(status, body)
            elif len(parts) == 2 and parts[0] == "trace":
                self._send_json(200, self.router.trace(parts[1]))
            else:
                self.unknown_endpoint("/".join(parts))
        except ServiceError as error:
            self._send_json(error.status, error.payload)
        except ValueError as error:
            self._send_error(400, "bad_request", str(error))


class RouterServer(BoundServer):
    """A :class:`Router` bound to a listening HTTP socket.

    Serves the identical versioned API as a single-service
    :class:`~repro.service.server.ServiceServer` (plus ``GET /v1/shards``),
    so every client — blocking, in-process excepted, or async — can point at
    a cluster without changes.  ``port=0`` binds an ephemeral port.
    """

    def __init__(self, router: Router, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(router, _RouterRequestHandler, host, port)
        self.router = router

    def _start_served(self) -> None:
        self.router.start()

    def _stop_served(self) -> None:
        self.router.close()
