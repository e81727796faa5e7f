"""The ``serve`` workload: a two-shard fleet behind the router, closed-loop load.

Every fleet member is its own process started through the program's CLI
(``python -m repro.cli serve|route``); the load generator runs in the
benchmark process with the program's HTTP client.  Server-side numbers come
from public surfaces only: job status snapshots, router counters and
``/v1/metrics``.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List

import clock

#: Passes whose 2- and 3-pass orderings make up the job catalog.
CATALOG_PASSES = ("rw", "rs", "rf", "b")

#: Warm-up job each worker answers before set-up ends: a design outside the
#: catalog, so the timed requests still start on a cold result cache.
WARMUP = {"kind": "optimize", "design": "b11", "options": {"script": "b"}}

#: Closed-loop clients (= nproc of the measurement machine).
CLIENTS = 2

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 120.0

#: Consecutive segments of the request stream (see :func:`run_load`).
SEGMENTS = 6


def catalog(designs: List[str]) -> List[Dict]:
    """Every 2- and 3-pass ordering of rw/rs/rf/b on every design.

    Ranks interleave the designs (ordering-major), so the hot head of the
    zipf distribution spans all designs rather than only the first one.
    """
    orderings = list(itertools.permutations(CATALOG_PASSES, 2))
    orderings += list(itertools.permutations(CATALOG_PASSES, 3))
    return [
        {"kind": "optimize", "design": design, "options": {"script": "; ".join(order)}}
        for order in orderings
        for design in designs
    ]


def request_stream(jobs: List[Dict], requests: int, seed: int, skew: float = 1.1) -> List[Dict]:
    """Zipf-shaped, seeded request stream over ``jobs``.

    Every job is requested once (its cold execution); the remaining requests
    are duplicates shared out in proportion to ``rank ** -skew``.  The counts
    are fixed, so every seed serves the same distinct results with the same
    number of executions; the seed sets the arrival order, and with it
    coalescing and queueing.
    """
    weights = [rank ** -skew for rank in range(1, len(jobs) + 1)]
    total = sum(weights)
    extra = max(0, requests - len(jobs))
    stream = []
    for job, weight in zip(jobs, weights):
        stream.extend([job] * (1 + round(extra * weight / total)))
    random.Random(seed).shuffle(stream)
    return stream


def _children(pid: int) -> List[int]:
    pids = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                pids.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return pids


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Fleet:
    """Two ``serve`` shards (one process worker each, fresh stores) and a router."""

    def __init__(self, root: str, env: Dict[str, str]) -> None:
        self.env = env
        self.dir = tempfile.mkdtemp(prefix="fleet-", dir=os.path.join(root, ".perfbench"))
        self.procs: List[subprocess.Popen] = []
        self.logs = []
        self.shard_urls: Dict[str, str] = {}
        self.url = ""

    def _spawn(self, name: str, args: List[str]) -> str:
        port_file = os.path.join(self.dir, f"{name}.port")
        log = open(os.path.join(self.dir, f"{name}.log"), "wb")
        self.logs.append(log)
        command = [sys.executable, "-m", "repro.cli", *args, "--port", "0", "--port-file", port_file]
        self.procs.append(
            subprocess.Popen(command, env=self.env, stdout=log, stderr=log, start_new_session=True)
        )
        return port_file

    def _url(self, port_file: str, deadline: float) -> str:
        while time.monotonic() < deadline:
            for proc in self.procs:
                if proc.poll() is not None:
                    raise RuntimeError(f"fleet process exited early (see {self.dir})")
            try:
                with open(port_file, encoding="ascii") as handle:
                    text = handle.read()
            except OSError:
                text = ""
            if text.endswith("\n"):
                return f"http://127.0.0.1:{int(text)}"
            time.sleep(0.01)
        raise RuntimeError(f"fleet did not come up (see {self.dir})")

    def start(self) -> None:
        """Start the fleet and return once each worker answered a warm-up job."""
        from repro.service.client import HttpServiceClient

        deadline = time.monotonic() + 90.0
        files = {
            name: self._spawn(
                f"shard-{name}",
                ["serve", "--workers", "1", "--mode", "process", "--store",
                 os.path.join(self.dir, f"store-{name}")],
            )
            for name in ("a", "b")
        }
        self.shard_urls = {name: self._url(path, deadline) for name, path in files.items()}
        shards = [arg for name, url in self.shard_urls.items() for arg in ("-s", f"{name}={url}")]
        self.url = self._url(self._spawn("router", ["route", *shards]), deadline)
        for url in self.shard_urls.values():
            client = HttpServiceClient(url)
            client.result(client.submit(WARMUP)["job_id"], timeout=60.0)

    def pids(self) -> List[int]:
        pids = []
        for proc in self.procs:
            pids.append(proc.pid)
            pids.extend(_children(proc.pid))
        return pids

    def peak_rss_mb(self) -> float:
        """Peak resident memory summed over every fleet process."""
        return sum(_peak_rss_mb(pid) for pid in self.pids())

    def stop(self) -> None:
        """SIGTERM every member (router first), then kill whatever remains."""
        members = self.pids()
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in reversed(self.procs):
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                pass
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.wait()
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and any(os.path.exists(f"/proc/{pid}") for pid in members):
            time.sleep(0.02)
        for log in self.logs:
            log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


class Load:
    """Outcome of one closed-loop run over a request stream."""

    def __init__(self) -> None:
        #: Client latencies scaled to the yardstick loop (see ``clock.py``).
        self.latencies: List[float] = []
        self.raw_latencies: List[float] = []
        self.submit_s: List[float] = []
        self.result_s: List[float] = []
        self.failures: List[str] = []
        #: job id -> (spec, canonical payload, digests of every served copy)
        self.served: Dict[str, list] = {}
        self.seconds = 0.0
        self.raw_seconds = 0.0


def run_load(url: str, stream: List[Dict], digest) -> Load:
    """Drive ``stream`` through ``url`` with :data:`CLIENTS` closed-loop clients.

    The stream runs in :data:`SEGMENTS` consecutive segments; between two
    segments the fleet is idle and the yardstick loop is timed, and each
    segment's wall time and latencies are scaled by the loop times around it.
    """
    from repro.service.client import HttpServiceClient, ServiceError

    load = Load()
    lock = threading.Lock()

    def client_loop(cursor, latencies: List[float]) -> None:
        client = HttpServiceClient(url, request_timeout=REQUEST_TIMEOUT)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            spec = stream[index]
            began = time.perf_counter()
            try:
                job_id = client.submit(spec)["job_id"]
                submitted = time.perf_counter()
                payload = client.result(job_id, timeout=REQUEST_TIMEOUT)
            except (ServiceError, TimeoutError, OSError) as error:
                with lock:
                    load.failures.append(f"{spec['design']} {spec['options']['script']}: {error}")
                continue
            done = time.perf_counter()
            payload_digest = digest(payload)
            with lock:
                latencies.append(done - began)
                load.submit_s.append(submitted - began)
                load.result_s.append(done - submitted)
                entry = load.served.setdefault(job_id, [spec, payload, set()])
                entry[2].add(payload_digest)

    bounds = [len(stream) * index // SEGMENTS for index in range(SEGMENTS + 1)]
    before = clock.loop_seconds()
    for first, last in zip(bounds, bounds[1:]):
        cursor = iter(range(first, last))
        latencies: List[float] = []
        threads = [
            threading.Thread(target=client_loop, args=(cursor, latencies)) for _ in range(CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        after = clock.loop_seconds()
        loop = (before + after) / 2
        before = after
        load.raw_seconds += seconds
        load.seconds += clock.calibrated(seconds, loop)
        load.raw_latencies.extend(latencies)
        load.latencies.extend(clock.calibrated(latency, loop) for latency in latencies)
    return load


def server_counters(url: str) -> Dict[str, float]:
    """Fleet, router and store counters from the router's ``/v1/metrics``."""
    from repro.service.client import HttpServiceClient

    metrics = HttpServiceClient(url).metrics()
    fleet = metrics.get("fleet", {})
    series = fleet.get("series", {})
    out = {name: float(value) for name, value in fleet.get("counters", {}).items()}
    out.update(metrics.get("router", {}).get("counters", {}))
    out["store_lookups"] = series_total(series, "store_lookups")
    out["store_hits"] = series_total(series, "store_lookups", outcome="hit")
    out["store_writes"] = series_total(series, "store_writes")
    for name in ("rewrite", "refactor", "resub", "balance"):
        out[f"pass_{name}_s"] = series_total(series, "pass_runtime_seconds", **{"pass": name})
    return out


def job_snapshots(url: str, job_ids) -> List[Dict]:
    """Status snapshots (queue and run seconds) of the given jobs."""
    from repro.service.client import HttpServiceClient

    client = HttpServiceClient(url)
    return [client.status(job_id) for job_id in sorted(job_ids)]


def series_total(series: Dict, family: str, **labels) -> float:
    """Sum of a counter family's values (or histogram sums) matching ``labels``."""
    total = 0.0
    for row in series.get(family, {}).get("series", []):
        if all(row.get("labels", {}).get(key) == value for key, value in labels.items()):
            total += row.get("value", row.get("sum", 0.0))
    return total
