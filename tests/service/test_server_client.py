"""End-to-end service tests: HTTP front end, clients, coalescing equivalence.

These cover the acceptance bar of the service PR: a coalesced or warm-store
duplicate job must return a payload byte-identical (canonical JSON of the
``to_dict`` rendering) to a direct :class:`~repro.engine.Engine` run of the
same spec, under real concurrency, backpressure and server restarts.
"""

import threading

import pytest

from repro.engine.engine import Engine
from repro.service import (
    BackpressureError,
    HttpServiceClient,
    InProcessClient,
    JobFailedError,
    JobSpec,
    ServiceError,
    ServiceServer,
    SynthesisService,
    canonical_payload_bytes,
    execute_spec,
)

OPTIMIZE_SPEC = {"kind": "optimize", "design": "b08", "options": {"script": "rw; b"}}


def _direct_payload(spec_dict):
    """The payload a direct Engine run of the same spec produces."""
    return execute_spec(JobSpec.from_dict(spec_dict))


@pytest.fixture(scope="module")
def server():
    service = SynthesisService(num_workers=2, max_depth=64, mode="inline")
    with ServiceServer(service, port=0) as running:
        yield running


@pytest.fixture
def http_client(server):
    return HttpServiceClient(server.url)


def test_healthz_and_metrics_endpoints(http_client):
    assert http_client.healthz()
    snapshot = http_client.metrics()
    assert set(snapshot) >= {"counters", "gauges", "latency", "coalesce_rate"}
    assert snapshot["gauges"]["workers"] == 2


def test_submit_status_result_round_trip(http_client):
    submitted = http_client.submit(OPTIMIZE_SPEC)
    assert submitted["state"] in ("queued", "running", "done")
    payload = http_client.result(submitted["job_id"], timeout=120.0)
    assert canonical_payload_bytes(payload) == canonical_payload_bytes(
        _direct_payload(OPTIMIZE_SPEC)
    )
    status = http_client.status(submitted["job_id"])
    assert status["state"] == "done"
    assert status["run_seconds"] >= 0.0


def test_duplicate_submissions_share_one_deterministic_id(http_client):
    first = http_client.submit(OPTIMIZE_SPEC)
    second = http_client.submit(OPTIMIZE_SPEC)
    assert first["job_id"] == second["job_id"]
    assert second["submit_count"] >= 2


def test_unknown_job_and_endpoint_and_bad_spec(http_client):
    with pytest.raises(ServiceError) as status_error:
        http_client.status("optimize-0000000000000000")
    assert status_error.value.status == 404
    with pytest.raises(ServiceError) as submit_error:
        http_client.submit({"kind": "optimize", "design": "b08", "options": {"bad": 1}})
    assert submit_error.value.status == 400
    status, _ = http_client._request("GET", "/nope")
    assert status == 404
    status, _ = http_client._request("POST", "/nope", {})
    assert status == 404


def test_failed_job_surfaces_as_job_failed_error(http_client):
    submitted = http_client.submit(
        {"kind": "selftest", "options": {"action": "crash", "payload": "inline"}}
    )
    with pytest.raises(JobFailedError) as error:
        http_client.result(submitted["job_id"], timeout=30.0)
    assert error.value.status == 500
    assert error.value.payload["state"] == "failed"


def test_concurrent_duplicate_heavy_traffic_coalesces(server, http_client):
    """Many concurrent submitters, few distinct specs: one execution each."""
    specs = [
        {"kind": "optimize", "design": "b08", "options": {"script": "rw"}},
        {"kind": "optimize", "design": "b08", "options": {"script": "b"}},
    ]
    results = {}
    errors = []

    def worker(index):
        spec = specs[index % len(specs)]
        client = HttpServiceClient(server.url)
        try:
            submitted = client.submit(spec)
            results[index] = client.result(submitted["job_id"], timeout=120.0)
        except Exception as error:  # pragma: no cover - surfaced via assert
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(10)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not errors
    assert len(results) == 10
    for index, payload in results.items():
        direct = _direct_payload(specs[index % len(specs)])
        assert canonical_payload_bytes(payload) == canonical_payload_bytes(direct)
    counters = http_client.metrics()["counters"]
    assert counters["coalesced"] + counters["memory_hits"] > 0


def test_backpressure_returns_429():
    service = SynthesisService(num_workers=1, max_depth=1, mode="inline")
    # No started workers: submissions stay queued and the bound engages.
    server = ServiceServer(service, port=0)
    server.httpd.daemon_threads = True
    try:
        thread = threading.Thread(target=server.httpd.serve_forever, daemon=True)
        thread.start()
        client = HttpServiceClient(server.url)
        client.submit({"kind": "selftest", "options": {"payload": 1}})
        with pytest.raises(BackpressureError) as error:
            client.submit({"kind": "selftest", "options": {"payload": 2}})
        assert error.value.status == 429
        assert error.value.payload["queue_depth"] == 1
    finally:
        server.httpd.shutdown()
        server.httpd.server_close()
        service.scheduler.close()


def test_cold_then_warm_store_round_trip(tmp_path):
    """A restarted service over the same store serves without re-executing."""
    store_root = str(tmp_path / "store")
    spec = {"kind": "optimize", "design": "b10", "options": {"script": "rw"}}
    direct = canonical_payload_bytes(_direct_payload(spec))

    with SynthesisService(num_workers=1, store=store_root, mode="inline") as cold:
        client = InProcessClient(cold)
        cold_payload = client.result(client.submit(spec)["job_id"], timeout=120.0)
        assert canonical_payload_bytes(cold_payload) == direct
        assert cold.metrics.counter("store_hits") == 0

    with SynthesisService(num_workers=1, store=store_root, mode="inline") as warm:
        client = InProcessClient(warm)
        submitted = client.submit(spec)
        assert submitted["source"] == "store"
        warm_payload = client.result(submitted["job_id"], timeout=10.0)
        assert canonical_payload_bytes(warm_payload) == direct
        assert warm.metrics.counter("store_hits") == 1
        assert warm.metrics.counter("accepted") == 0  # nothing was queued


def test_in_process_client_matches_http_semantics():
    with SynthesisService(num_workers=1, max_depth=2, mode="inline") as service:
        client = InProcessClient(service)
        assert client.healthz()
        submitted = client.submit(OPTIMIZE_SPEC)
        payload = client.result(submitted["job_id"], timeout=120.0)
        assert canonical_payload_bytes(payload) == canonical_payload_bytes(
            _direct_payload(OPTIMIZE_SPEC)
        )
        with pytest.raises(ServiceError):
            client.status("optimize-0000000000000000")
        snapshot = client.metrics()
        assert snapshot["counters"]["completed"] >= 1


def test_service_restarts_after_stop():
    """stop() then start() must serve again (the scheduler reopens)."""
    service = SynthesisService(num_workers=1, mode="inline")
    client = InProcessClient(service)
    spec = {"kind": "selftest", "options": {"payload": "first"}}
    with service:
        client.result(client.submit(spec)["job_id"], timeout=30.0)
    with service:
        payload = client.result(
            client.submit({"kind": "selftest", "options": {"payload": "second"}})[
                "job_id"
            ],
            timeout=30.0,
        )
    assert payload["payload"] == "second"


def test_service_result_timeout():
    service = SynthesisService(num_workers=1, mode="inline")  # workers not started
    job = service.submit(JobSpec.from_dict({"kind": "selftest", "options": {}}))
    with pytest.raises(TimeoutError):
        service.result(job.job_id, timeout=0.05)
    service.scheduler.close()


def test_keep_alive_requests_are_not_held_by_delayed_acks(server, keep_alive_median):
    # Headers and body are two writes; with Nagle on, every response after
    # the first on a kept-alive connection waited for the client's delayed
    # ACK (~40 ms).
    assert keep_alive_median(server.url) < 0.020
