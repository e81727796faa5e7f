"""Router behaviour: sharding, fleet coalescing, failover, aggregation."""

import pytest

from repro.service import (
    HttpServiceClient,
    JobSpec,
    Router,
    RouterServer,
    ServiceError,
    ServiceServer,
    SynthesisService,
    TransportError,
    canonical_payload_bytes,
    execute_spec,
)


def _spec(payload):
    return {"kind": "selftest", "options": {"payload": payload}}


@pytest.fixture
def fleet():
    """Three inline-mode shards plus a started router over them."""
    servers = [
        ServiceServer(SynthesisService(num_workers=1, max_depth=64, mode="inline"))
        for _ in range(3)
    ]
    for server in servers:
        server.start()
    router = Router(
        {f"s{index}": server.url for index, server in enumerate(servers)},
        health_interval=0.2,
        fail_threshold=1,
    )
    router.start()
    try:
        yield router, servers
    finally:
        router.close()
        for server in servers:
            try:
                server.stop()
            except OSError:  # pragma: no cover - already stopped by the test
                pass


def test_routing_follows_the_ring_and_spreads_load(fleet):
    router, _ = fleet
    shards_used = set()
    for index in range(24):
        snapshot = router.submit(_spec(f"job-{index}"))
        expected = router.ring.assign(router.routing_key(JobSpec.from_dict(_spec(f"job-{index}"))))
        assert snapshot["shard"] == expected
        shards_used.add(snapshot["shard"])
    assert len(shards_used) >= 2  # 24 distinct keys don't all hash together


def test_duplicates_land_on_the_same_shard_and_coalesce(fleet):
    router, _ = fleet
    first = router.submit(_spec("dup"))
    second = router.submit(_spec("dup"))
    assert first["job_id"] == second["job_id"]
    assert first["shard"] == second["shard"]
    # The owning shard saw both submissions on one job: fleet-wide dedup.
    assert second["submit_count"] >= 2 or second["state"] == "done"
    fleet_counters = router.metrics()["fleet"]["counters"]
    assert fleet_counters["submitted"] >= 2


def test_results_are_byte_identical_to_direct_engine_runs(fleet):
    router, _ = fleet
    spec = {"kind": "optimize", "design": "b08", "options": {"script": "rw"}}
    job_id = router.submit(spec)["job_id"]
    payload = router.result(job_id, timeout=120.0)
    assert canonical_payload_bytes(payload) == canonical_payload_bytes(
        execute_spec(JobSpec.from_dict(spec))
    )


def test_failover_rerun_is_byte_identical(fleet):
    router, servers = fleet
    spec = {"kind": "optimize", "design": "b09", "options": {"script": "rw"}}
    direct = canonical_payload_bytes(execute_spec(JobSpec.from_dict(spec)))
    snapshot = router.submit(spec)
    assert canonical_payload_bytes(router.result(snapshot["job_id"], timeout=120.0)) == direct

    # Kill the shard that owns the job: the next read must fail over, re-run
    # the spec on a surviving shard, and produce the same bytes under the
    # same job id.
    owner = int(snapshot["shard"][1:])
    servers[owner].stop()
    payload = router.result(snapshot["job_id"], timeout=120.0)
    assert canonical_payload_bytes(payload) == direct
    assert router.status(snapshot["job_id"])["job_id"] == snapshot["job_id"]
    view = router.metrics()["router"]
    assert view["counters"]["router_failovers"] >= 1
    assert not view["shards"][f"s{owner}"]["healthy"]


def test_dead_shard_rejoins_after_recovery(fleet):
    import time

    router, servers = fleet
    router._mark_down(router._shards["s1"])
    assert "s1" not in router.ring
    # The prober (0.2s interval) sees the still-running shard and re-adds it.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and "s1" not in router.ring:
        time.sleep(0.05)
    assert "s1" in router.ring
    assert router._shards["s1"].healthy


def test_unknown_job_is_not_found(fleet):
    router, _ = fleet
    with pytest.raises(ServiceError) as error:
        router.status("selftest-ffffffffffffffff")
    assert error.value.status == 404 and error.value.code == "not_found"


def test_submit_with_all_shards_down_raises_transport_error():
    router = Router({"gone": "http://127.0.0.1:9"}, fail_threshold=1)
    with pytest.raises(TransportError) as error:
        router.submit(_spec("nowhere"))
    assert error.value.code == "shard_unavailable"
    assert not router.healthz()
    router.close()


def test_bad_spec_is_rejected_before_routing():
    router = Router({"gone": "http://127.0.0.1:9"})
    with pytest.raises(ServiceError) as error:
        router.submit({"kind": "nope"})
    assert error.value.status == 400 and error.value.code == "bad_request"
    router.close()


def test_fleet_metrics_aggregate_and_label_shards(fleet):
    router, _ = fleet
    for index in range(6):
        router.submit(_spec(f"metrics-{index}"))
    snapshot = router.metrics()
    per_shard = [s for s in snapshot["shards"].values() if s is not None]
    assert snapshot["fleet"]["counters"]["submitted"] == sum(
        s["counters"]["submitted"] for s in per_shard
    )
    assert snapshot["router"]["counters"]["router_routed"] >= 6
    assert snapshot["router"]["gauges"]["router_shards_healthy"] == 3

    text = router.metrics_prometheus()
    for name in ("s0", "s1", "s2"):
        assert f'shard="{name}"' in text
    assert "boolgebra_router_routed_total" in text
    assert "boolgebra_submitted_total" in text


def test_router_keep_alive_requests_are_not_held_by_delayed_acks(fleet, keep_alive_median):
    router, _ = fleet
    with RouterServer(router, port=0) as server:
        # One connection, HTTP/1.1 keep-alive: no ~40 ms delayed-ACK stall.
        assert keep_alive_median(server.url) < 0.020


def test_router_server_speaks_the_service_api(fleet):
    router, _ = fleet
    with RouterServer(router, port=0) as server:
        client = HttpServiceClient(server.url)
        assert client.healthz()
        snapshot = client.submit(_spec("over-http"))
        assert "shard" in snapshot
        payload = client.result(snapshot["job_id"], timeout=30.0)
        assert payload["payload"] == "over-http"
        metrics = client.metrics()
        assert "fleet" in metrics and "router" in metrics
        assert 'shard="' in client.metrics_prometheus()
        status, body = client._request("GET", "/v1/shards")
        assert status == 200 and set(body["shards"]) == {"s0", "s1", "s2"}
        with pytest.raises(ServiceError) as error:
            client.status("selftest-ffffffffffffffff")
        assert error.value.status == 404
    # RouterServer.stop() closes the router itself.
    assert router._prober is None
