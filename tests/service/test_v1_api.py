"""The versioned HTTP API: /v1 routes, structured errors, the scrape format.

Every route lives under ``/v1``: a path without the prefix answers 404 on the
service, the router and the store server.  Every failure body of the service
and the router carries the structured
``{"error": {"code", "message", "job_id"}}`` envelope.
"""

import http.client
import json
import re
import socket
import urllib.error
import urllib.request
from urllib.parse import urlparse

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
)
from repro.service.api import (
    API_VERSION,
    ERROR_CODES,
    error_fields,
    error_payload,
    versioned,
)
from repro.service.scheduler import CoalescingQueue, Scheduler
from repro.store import StoreServer

SPEC = {"kind": "selftest", "options": {"payload": "v1"}}


@pytest.fixture(scope="module")
def server():
    service = SynthesisService(num_workers=1, max_depth=64, mode="inline")
    with ServiceServer(service, port=0) as running:
        yield running


@pytest.fixture()
def router(server):
    """A router front end over the module's one service shard."""
    with RouterServer(Router({"s0": server.url}), port=0) as running:
        yield running


def _get(server, path, method="GET", data=None):
    """(status, headers, parsed body) of a request without client-side sugar."""
    request = urllib.request.Request(server.url + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def test_versioned_helper_and_api_version():
    assert API_VERSION == "v1"
    assert versioned("/submit") == "/v1/submit"
    assert versioned("metrics") == "/v1/metrics"


def test_v1_routes_answer_without_deprecation_header(server):
    status, headers, body = _get(server, "/v1/healthz")
    assert status == 200 and body == {"status": "ok"}
    assert "Deprecation" not in headers


def test_unversioned_paths_answer_not_found(server, router, tmp_path):
    body = json.dumps(SPEC).encode("ascii")
    for front in (server, router):
        assert _get(front, "/v1/healthz")[0] == 200
        for method, path in (
            ("GET", "/healthz"), ("GET", "/metrics"), ("GET", "/status/x"),
            ("GET", "/result/x"), ("GET", "/trace/x"), ("GET", "/shards"),
            ("POST", "/submit"),
        ):
            status, _, payload = _get(front, path, method, body if method == "POST" else None)
            assert status == 404 and payload["error"]["code"] == "not_found", (front, path)
    with StoreServer(str(tmp_path)) as store:
        assert _get(store, "/v1/healthz")[0] == 200
        for method, path in (
            ("GET", "/healthz"), ("GET", "/info"), ("GET", "/blob/samples/x.json"),
            ("PUT", "/blob/samples/x.json"), ("DELETE", "/blob/samples/x.json"),
        ):
            status, _, payload = _get(store, path, method, b"{}" if method == "PUT" else None)
            assert status == 404 and payload == {"error": "unknown endpoint"}, path
        assert not (tmp_path / "samples").exists()


def _then_healthz(url, method, path, body):
    """On one keep-alive connection: the status of ``method path`` with
    ``body``, then the status and parsed body of ``GET /v1/healthz``."""
    parsed = urlparse(url)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30.0)
    try:
        connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
        first = connection.getresponse()
        first.read()
        connection.request("GET", "/v1/healthz")
        second = connection.getresponse()
        return first.status, second.status, json.loads(second.read())
    finally:
        connection.close()


def test_error_answers_read_the_body_of_a_keep_alive_request(server, router, tmp_path):
    # An error answered before the body is read leaves the body on the
    # connection, where it is parsed as the next request.
    body = json.dumps(SPEC).encode("ascii")
    for front in (server, router):
        for path in ("/v1/nope", "/submit", "/v1/submit/x"):
            first, second, payload = _then_healthz(front.url, "POST", path, body)
            assert (first, second, payload["status"]) == (404, 200, "ok"), (front, path)
    with StoreServer(str(tmp_path)) as store:
        for method, path, status in (
            ("PUT", "/v1/nope/x", 404),
            ("PUT", "/v1/blob/bogus/x.json", 400),
            ("GET", "/v1/blob/samples/absent.json", 404),
            ("DELETE", "/v1/blob/samples/absent.json", 404),
        ):
            first, second, payload = _then_healthz(store.url, method, path, body)
            assert (first, second, payload) == (status, 200, {"status": "ok"}), (method, path)


def _raw_exchange(url, head):
    """Send the request ``head`` (request line and headers) on a fresh socket.

    Returns the answer's status, ``Content-Type``, body and ``will_close``,
    and what the socket reads right after the answer (``b""`` once the
    server closed the connection).
    """
    parsed = urlparse(url)
    with socket.create_connection((parsed.hostname, parsed.port), timeout=30.0) as sock:
        sock.sendall(head.encode("ascii") + b"\r\n\r\n")
        response = http.client.HTTPResponse(sock, method=head.split()[0])
        response.begin()
        body = response.read()
        after = sock.recv(1)
    return response.status, response.getheader("Content-Type"), body, response.will_close, after


def test_an_unreadable_content_length_answers_400_and_closes(server, router, tmp_path):
    # Where a body with ``Content-Length: abc`` ends is unknown: the answer
    # is a 400 JSON body with ``Connection: close``, so a keep-alive client
    # does not reuse the connection, and the connection closes after it.
    head = "{} {} HTTP/1.1\r\nContent-Length: abc"
    for front in (server, router):
        status, _, body, will_close, after = _raw_exchange(front.url, head.format("POST", "/v1/submit"))
        code = json.loads(body)["error"]["code"]
        assert (status, code, will_close, after) == (400, "bad_request", True, b""), front
    with StoreServer(str(tmp_path)) as store:
        status, _, body, will_close, after = _raw_exchange(
            store.url, head.format("PUT", "/v1/blob/samples/x.json")
        )
        assert (status, will_close, after) == (400, True, b"")
        assert "Content-Length" in json.loads(body)["error"]
    assert not (tmp_path / "samples").exists()


def test_protocol_errors_answer_each_front_ends_json_and_close(server, router, tmp_path):
    # What http.server answers itself (a method no route serves, a malformed
    # request line) keeps its status and closes the connection, with the
    # front end's JSON error body instead of an HTML page; HEAD gets no body.
    def check(url, head, status):
        answer = _raw_exchange(url, head + " HTTP/1.1")
        assert answer[0] == status and answer[1] == "application/json", (url, head)
        assert answer[3:] == (True, b""), (url, head)
        return json.loads(answer[2]) if answer[2] else None

    malformed = "GET /v1/healthz extra"
    for front in (server, router):
        for method in ("PUT", "DELETE"):
            payload = check(front.url, f"{method} /v1/submit", 501)
            assert payload == error_payload("bad_request", f"Unsupported method ({method!r})")
        assert check(front.url, "HEAD /v1/healthz", 501) is None
        payload = check(front.url, malformed, 400)
        assert payload["error"]["code"] == "bad_request"
        assert payload["error"]["message"].startswith("Bad request syntax")
    with StoreServer(str(tmp_path)) as store:
        payload = check(store.url, "POST /v1/blob/samples/x.json", 501)
        assert payload == {"error": "Unsupported method ('POST')"}
        assert check(store.url, "HEAD /v1/healthz", 501) is None
        assert check(store.url, malformed, 400)["error"].startswith("Bad request syntax")
    assert not (tmp_path / "samples").exists()


def test_errors_carry_the_structured_envelope(server):
    status, _, body = _get(server, "/v1/status/selftest-0000000000000000")
    assert status == 404
    assert body["error"]["code"] == "not_found"
    assert body["error"]["job_id"] == "selftest-0000000000000000"
    assert body["error"]["message"]

    status, _, body = _get(server, "/v1/nope")
    assert status == 404 and body["error"]["code"] == "not_found"

    status, _, body = _get(server, "/v1/status/whatever?wait=abc")
    assert status == 400 and body["error"]["code"] == "bad_request"


def test_failed_result_body_merges_snapshot_and_envelope(server):
    client = HttpServiceClient(server.url)
    job_id = client.submit(
        {"kind": "selftest", "options": {"action": "crash", "payload": "x"}}
    )["job_id"]
    client.wait(job_id, timeout=30.0)
    status, _, body = _get(server, f"/v1/result/{job_id}")
    assert status == 500
    assert body["error"]["code"] == "job_failed"
    assert body["state"] == "failed"
    assert body["failure_kind"] == "error"  # inline mode: ordinary failure


def test_status_long_poll_waits_for_terminal_state(server):
    client = HttpServiceClient(server.url)
    job_id = client.submit(
        {"kind": "selftest", "options": {"action": "hang", "seconds": 0.3}}
    )["job_id"]
    status, _, body = _get(server, f"/v1/status/{job_id}?wait=10")
    assert status == 200 and body["state"] == "done"


def test_prometheus_metrics_variant(server):
    request = urllib.request.Request(server.url + "/v1/metrics?format=prometheus")
    with urllib.request.urlopen(request, timeout=30.0) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
    assert "# TYPE boolgebra_submitted_total counter" in text
    assert "boolgebra_total_seconds" in text
    assert text.count("# TYPE boolgebra_submitted_total counter") == 1


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _histogram_violations(text):
    """(histogram families, samples of them that are not _bucket{le}, _sum, _count)."""
    histograms, bad = set(), []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split()
            if kind == "histogram":
                histograms.add(family)
            continue
        name, labels, _value = _SAMPLE.match(line).groups()
        keys = {key for key, _ in _LABEL.findall(labels or "")}
        for suffix in ("_bucket", "_sum", "_count", ""):
            family = name[: len(name) - len(suffix)]
            if name.endswith(suffix) and family in histograms:
                if not suffix or "quantile" in keys or (suffix == "_bucket") != ("le" in keys):
                    bad.append(line)
                break
    return histograms, bad


def test_prometheus_scrape_raises_the_servers_error_like_json_metrics(server):
    # An error answer is the server's ServiceError, not an unreachable
    # server's TransportError (503 shard_unavailable).
    client = HttpServiceClient(server.url + "/nope")
    for scrape in (client.metrics, client.metrics_prometheus):
        with pytest.raises(ServiceError) as error:
            scrape()
        assert not isinstance(error.value, TransportError)
        assert (error.value.status, error.value.code) == (404, "not_found")


def test_prometheus_histogram_families_hold_only_histogram_samples(server, router):
    for front in (server, router):
        client = HttpServiceClient(front.url)
        client.result(client.submit(SPEC)["job_id"], timeout=30.0)
        histograms, bad = _histogram_violations(client.metrics_prometheus())
        assert "boolgebra_total_seconds" in histograms
        assert bad == []


def test_prometheus_latency_histograms_have_real_buckets(server):
    client = HttpServiceClient(server.url)
    job_id = client.submit(SPEC)["job_id"]
    client.result(job_id, timeout=30.0)
    text = client.metrics_prometheus()
    bucket_counts = []
    for line in text.splitlines():
        if line.startswith("boolgebra_total_seconds_bucket{"):
            bucket_counts.append(float(line.rsplit(None, 1)[1]))
    assert bucket_counts, "latency families must export _bucket series"
    assert bucket_counts == sorted(bucket_counts)  # cumulative le buckets
    assert 'le="+Inf"' in text
    assert "boolgebra_total_seconds_sum" in text
    # Engine registry series ride along under the same scrape: an optimize
    # job runs the pass pipeline, whose runtime histogram registers into the
    # process-wide registry the snapshot's ``series`` key exports.
    job_id = client.submit(
        {"kind": "optimize", "design": "b08", "options": {"script": "rw"}}
    )["job_id"]
    client.result(job_id, timeout=60.0)
    text = client.metrics_prometheus()
    assert "boolgebra_pass_runtime_seconds_bucket" in text
    assert 'boolgebra_pass_runtime_seconds_count{pass="rewrite"}' in text


def test_trace_endpoint_answers_for_untraced_jobs(server):
    client = HttpServiceClient(server.url)
    job_id = client.submit(SPEC)["job_id"]
    client.result(job_id, timeout=30.0)
    status, _, body = _get(server, f"/v1/trace/{job_id}")
    assert status == 200
    assert body["job_id"] == job_id
    assert body["trace_id"] is None and body["spans"] == []
    status, _, body = _get(server, "/v1/trace/selftest-0000000000000000")
    assert status == 404 and body["error"]["code"] == "not_found"


def test_error_payload_and_fields_round_trip():
    payload = error_payload("backpressure", "queue full", "job-1", queue_depth=3)
    assert payload["queue_depth"] == 3
    fields = error_fields(payload)
    assert fields == {"code": "backpressure", "message": "queue full", "job_id": "job-1"}
    # Pre-v1 string errors degrade instead of crashing old clients' handlers.
    assert error_fields({"error": "boom"})["message"] == "boom"
    assert error_fields({"error": "boom"})["code"] == "internal"
    with pytest.raises(ValueError):
        error_payload("not-a-code", "nope")
    assert "job_failed" in ERROR_CODES


def test_scheduler_is_the_coalescing_queue():
    # The per-shard queue core is the instantiable CoalescingQueue; Scheduler
    # remains as the compatible single-service name.
    assert issubclass(Scheduler, CoalescingQueue)
    queue = CoalescingQueue(max_depth=4)
    job, created = queue.submit(JobSpec.from_dict(SPEC))
    assert created and job.job_id.startswith("selftest-")
    queue.close()
