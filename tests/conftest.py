"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.aig.aig import Aig
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.circuits.generators import paper_example_aig, ripple_carry_adder

try:
    from hypothesis import HealthCheck, settings

    # ``ci``: the pinned profile selected by the GitHub workflow
    # (HYPOTHESIS_PROFILE=ci).  ``derandomize`` fixes the example stream to a
    # deterministic seed so property tests cannot flake between runs, and the
    # deadline is disabled so slow shared CI runners cannot time out a
    # legitimately passing example.
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        max_examples=25,
        suppress_health_check=(HealthCheck.too_slow,),
        print_blob=True,
    )
    # ``dev``: local default — also deadline-free (the AIG generators are
    # allocation-heavy and trip the 200 ms default on busy machines).
    settings.register_profile("dev", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is optional outside CI
    pass


@pytest.fixture
def tiny_aig() -> Aig:
    """A hand-built 3-input network: f = (x & y) | (x & z)."""
    aig = Aig("tiny")
    x = aig.add_pi("x")
    y = aig.add_pi("y")
    z = aig.add_pi("z")
    aig.add_po(aig.make_or(aig.add_and(x, y), aig.add_and(x, z)), "f")
    return aig


@pytest.fixture
def adder_aig() -> Aig:
    """A 4-bit ripple-carry adder."""
    return ripple_carry_adder(4)


@pytest.fixture
def example_aig() -> Aig:
    """The Figure-1 style motivating example."""
    return paper_example_aig()


@pytest.fixture
def small_random_aig() -> Aig:
    """A deterministic ~80-node random AIG with 8 PIs."""
    return random_aig(RandomAigSpec(num_pis=8, num_pos=3, num_ands=80, seed=5, name="rand80"))


@pytest.fixture
def medium_random_aig() -> Aig:
    """A deterministic ~200-node random AIG with 10 PIs."""
    return random_aig(RandomAigSpec(num_pis=10, num_pos=4, num_ands=160, seed=9, name="rand160"))


@pytest.fixture
def keep_alive_median():
    """Measure a front end's median ``GET /v1/healthz`` time, in seconds,
    over one kept-alive HTTP/1.1 connection."""
    import http.client
    import statistics
    import time
    from urllib.parse import urlsplit

    def measure(url: str, requests: int = 20) -> float:
        parts = urlsplit(url)
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        times = []
        try:
            for _ in range(requests):
                start = time.perf_counter()
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                times.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        return statistics.median(times)

    return measure
