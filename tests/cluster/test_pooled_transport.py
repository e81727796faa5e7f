"""The pooled keep-alive transport of the blocking clients (``repro.httpd``).

``HttpServiceClient`` (and through it the router's hops to its shards) and
``HttpStoreClient`` keep their connections open between calls.  These tests
count the connections a server accepts, and cover what keeping them open
must not break: a restarted server, a stopped one, concurrent callers.
"""

import http.client
import json
import socket
import sys
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.service import (
    HttpServiceClient,
    JobSpec,
    Router,
    RouterServer,
    ServiceServer,
    SynthesisService,
    TransportError,
)
from repro.store import HttpStoreClient, StoreServer


def _spec(payload):
    return {"kind": "selftest", "options": {"payload": payload}}


def _shard(port=0):
    return ServiceServer(SynthesisService(num_workers=1, max_depth=64, mode="inline"), port=port)


def _accepted(bound):
    """The peer addresses of every connection ``bound`` accepts from now on."""
    accepted = []
    get_request = bound.httpd.get_request

    def counting():
        request = get_request()
        accepted.append(request[1])
        return request

    bound.httpd.get_request = counting
    return accepted


def _calls(client, count):
    """``count`` calls alternating submit and result; checks every answer."""
    for call in range(count):
        spec = _spec(call // 2)
        job_id = JobSpec.from_dict(spec).job_id()
        if call % 2 == 0:
            assert client.submit(spec)["job_id"] == job_id
        else:
            payload = client.result(job_id, timeout=30.0)
            assert payload == {"kind": "selftest", "action": "ok", "payload": call // 2}


def test_sequential_calls_use_one_connection():
    with _shard() as shard:
        accepted = _accepted(shard)
        with HttpServiceClient(shard.url) as client:
            _calls(client, 20)
        assert len(accepted) == 1


def test_sequential_calls_through_a_router_use_one_connection_per_hop():
    with _shard() as shard:
        to_shard = _accepted(shard)
        # No background probe during the calls: the prober shares the pool.
        router = Router({"s0": shard.url}, health_interval=60.0)
        with RouterServer(router) as front:
            to_router = _accepted(front)
            with HttpServiceClient(front.url) as client:
                _calls(client, 20)
        assert (len(to_router), len(to_shard)) == (1, 1)


def test_a_restarted_server_is_reached_by_resending_once():
    first = _shard().start()
    client = HttpServiceClient(first.url)
    try:
        _calls(client, 2)
        first.stop()
        # The kept connection died with the first server; the call goes out
        # on it, fails before any answer, and is sent once more, fresh.
        with _shard(port=first.port) as second:
            accepted = _accepted(second)
            _calls(client, 2)
            assert len(accepted) == 1
    finally:
        client.close()


def test_stop_closes_idle_connections_and_answers_no_kept_alive_client():
    server = _shard().start()
    parts = urlsplit(server.url)
    with HttpServiceClient(server.url) as client, socket.create_connection(
        (parts.hostname, parts.port), timeout=5.0
    ) as idle:
        assert client.healthz()
        idle.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        response = http.client.HTTPResponse(idle, method="GET")
        response.begin()
        assert (response.status, response.read()) == (200, b'{"status": "ok"}')
        server.stop()
        assert idle.recv(1) == b""  # closed by the stop, before any request
        with pytest.raises(TransportError):
            client.metrics()
        assert not client.healthz()


def test_stop_answers_the_request_in_flight_and_no_later_one():
    server = _shard().start()
    with HttpServiceClient(server.url) as client:
        spec = {"kind": "selftest", "options": {"action": "hang", "seconds": 2.0, "payload": "slow"}}
        job_id = client.submit(spec)["job_id"]
    parts = urlsplit(server.url)
    with socket.create_connection((parts.hostname, parts.port), timeout=30.0) as sock:
        # Two pipelined requests: a long poll that the stop finds in flight,
        # then one its handler reads only after the stop.
        sock.sendall(
            f"GET /v1/status/{job_id}?wait=10 HTTP/1.1\r\n\r\n"
            "GET /v1/healthz HTTP/1.1\r\n\r\n".encode("ascii")
        )
        time.sleep(0.2)
        server.stop()
        response = http.client.HTTPResponse(sock, method="GET")
        response.begin()
        assert response.status == 200
        assert json.loads(response.read())["state"] == "done"
        assert sock.recv(1) == b""


def test_threads_share_one_client_and_a_bounded_pool():
    # More threads than cores and a short switch interval: two threads
    # taking the same idle connection would garble or lose answers.
    with _shard() as shard:
        accepted = _accepted(shard)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with HttpServiceClient(shard.url) as client:
                def caller():
                    try:
                        _calls(client, 25)
                    except Exception as error:  # noqa: BLE001 - reported below
                        errors.append(error)

                threads = [threading.Thread(target=caller) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 1 <= len(accepted) <= len(threads)


def test_store_client_reuses_one_connection(tmp_path):
    with StoreServer(str(tmp_path)) as store:
        accepted = _accepted(store)
        client = HttpStoreClient(store.url)
        try:
            client.put("results", "a.json", b'{"value": 1}')
            assert client.get("results", "a.json") == b'{"value": 1}'
            assert client.get("results", "absent.json") is None
            assert client.delete("results", "a.json") is True
            assert client.delete("results", "a.json") is False
            assert client.healthz()
            assert client.info()["results"] == {"files": [], "bytes": 0}
        finally:
            client.close()
        assert len(accepted) == 1
