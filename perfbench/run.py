#!/usr/bin/env python3
"""BoolGebra end-to-end benchmark with a per-layer traced breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload script --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload flow --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing patched (script
and serve times are scaled to the yardstick loop of ``clock.py``, with the
raw wall values beside them);
``--trace 1`` records calls into each layer's public functions and prints
the per-layer table plus the tracing overhead.  Every output is checked
independently (:mod:`check`); the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

import check
import clock
import serve

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
STATE = ROOT / ".perfbench"

#: Inputs per size; ``tiny`` exists for the benchmark's own tests.
SIZES = {
    "full": {
        "designs": ["b11", "c880", "b12", "c5315"],
        "flow_design": "c880",
        "flow": {"num_samples": 32, "top_k": 5, "epochs": 40},
        "serve_designs": ["b07", "b08", "b09", "b10", "c880"],
    },
    "tiny": {
        "designs": ["b08"],
        "flow_design": "b08",
        "flow": {"num_samples": 4, "top_k": 2, "epochs": 2},
        "serve_designs": ["b08"],
    },
}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUPS = {"script": 2, "flow": 3, "serve": 2}

#: Serve requests per second of ``--seconds``.  The 180 cold executions
#: dominate the stream's wall time (about 35 s for 900 requests on a 2-vCPU
#: machine), so the rate sets the share of cache hits more than the
#: duration: at 30 s, 1 request in 5 executes.
SERVE_RATE = 30

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ands": "count",
    "depth": "count",
    "suite_s": "s",
    "flow_s": "s",
    "jobs_per_s": "1/s",
    "p50_s": "s",
    "p90_s": "s",
}

BACKEND_OPS = (
    "simulate_level_step", "cut_merge_filter", "cut_truth_tables", "cut_table_exact",
    "resub_zero_match", "resub_rank_divisors", "resub_one_match", "sweep_commit",
    "csr_aggregate", "csr_aggregate_t", "sage_layer_fused", "sage_layer_backward",
    "adam_step_fused", "cut_level_merge",
)
PASS_NAMES = ("rw", "rf", "rs", "b")

PER_LAYER: Dict[str, str] = {}
for _name in PASS_NAMES:
    PER_LAYER[f"pass.{_name}.s"] = "s"
    PER_LAYER[f"pass.{_name}.applied"] = "count"
PER_LAYER.update({
    "sweep.enumerate.s": "s", "sweep.score.s": "s", "sweep.evaluate.s": "s",
    "sweep.commit.s": "s", "sweep.commit_ratio": "ratio", "sweep.fallback.calls": "count",
    "sweep.fallback.s": "s",
})
for _name in BACKEND_OPS:
    PER_LAYER[f"backend.{_name}.calls"] = "count"
    PER_LAYER[f"backend.{_name}.s"] = "s"
PER_LAYER.update({
    "backend.fallback_calls": "count",
    "aig.verify.s": "s",
    "orchestration.analyze.calls": "count", "orchestration.analyze.s": "s",
    "orchestration.orchestrate.calls": "count", "orchestration.orchestrate.s": "s",
    "orchestration.samples_per_s": "1/s", "orchestration.applied_ratio": "ratio",
    "features.build.s": "s", "nn.train.s": "s", "nn.epoch_s": "s", "nn.predict.s": "s",
    "client.submit.s": "s", "client.result.s": "s", "client.tail_s": "s",
    "client.retries": "count", "router.routed": "count", "router.retries": "count",
    "router.failovers": "count", "queue.wait_s": "s", "worker.run_s": "s",
    "worker.executions": "count", "service.hit_ratio": "ratio",
    "store.lookups": "count", "store.hits": "count", "store.writes": "count",
    "error_rate": "fraction", "obs.overhead": "ratio",
})


class WorkloadError(Exception):
    """The workload could not produce metrics (a crash, not a wrong output)."""


class Report:
    """What one workload run produced: metrics, counts, checks and notes."""

    def __init__(self) -> None:
        self.e2e: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        #: Raw wall-clock values of the calibrated end-to-end timings.
        self.raw: Dict[str, float] = {}
        self.layers: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
        self.layer_rows: List[tuple] = []
        self.rollups: List[tuple] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.checks: List[str] = []
        self.env: Dict = {}
        self.note = ""

    def fail(self, message: str) -> None:
        self.failures.append(message)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = math.ceil(round(fraction * len(ordered), 9)) - 1
    return ordered[max(0, min(len(ordered) - 1, index))]


def quantile(values: List[float], fraction: float) -> float:
    """Linearly interpolated quantile (for small samples, where nearest-rank jumps)."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: List[float]):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = ("p50", 0.5)
    for label, fraction in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if round(len(values) * (1 - fraction), 9) >= 10:
            best = (label, fraction)
    return best[0], percentile(values, best[1])


def noise_probe() -> float:
    """Milliseconds of the yardstick loop (median of five, after one warm-up)."""
    times = [clock.loop_seconds() for _ in range(6)]
    return statistics.median(times[1:]) * 1000.0


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts: all state stays in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["BOOLGEBRA_NATIVE_CACHE"] = str(STATE / "native")
    env["TMPDIR"] = str(STATE / "tmp")
    env["XDG_CACHE_HOME"] = str(STATE / "cache")
    return env


def run_child(kind: str, spec: Dict, env: Dict[str, str], timeout: float = 170.0) -> Dict:
    """Run ``child.py kind`` in a fresh interpreter; return its JSON result."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), kind, json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"{kind} child timed out after {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise WorkloadError(f"{kind} child failed:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "setup_done" in out:
        out["setup_s"] = out["setup_done"] - spawned
    return out


def source_digest() -> str:
    """SHA-256 over the program's source tree (the checkout may lack git)."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def expected(size: str, workload: str) -> Dict:
    with open(HERE / "expected.json", encoding="ascii") as handle:
        return json.load(handle)[size][workload]


def check_qor(report: Report, size: str, workload: str, ands: int, depth: int) -> None:
    want = expected(size, workload)
    if (ands, depth) != (want["ands"], want["depth"]):
        report.fail(f"ands/depth {ands}/{depth} differ from recorded {want['ands']}/{want['depth']}")
    else:
        report.checks.append(f"ands {ands} and depth {depth} equal the recorded values")


def check_netlist(report: Report, label: str, original: str, optimized: str, seed: int,
                  ands: int, depth: int) -> None:
    """Independent equivalence, size and depth check of one emitted netlist."""
    try:
        parsed = check.check_equivalent(original, optimized, seed)
        check.require(parsed.size == ands, f"{label}: {parsed.size} ANDs in netlist, {ands} reported")
        check.require(check.depth(parsed) == depth,
                      f"{label}: depth {check.depth(parsed)} in netlist, {depth} reported")
    except check.CheckError as error:
        report.fail(f"{label}: {error}")


def per_unit(stats: Dict, counters: Dict, units: int) -> Dict[str, float]:
    """Per-layer metrics from merged recorder stats (``units`` traced jobs)."""
    units = max(units, 1)

    def busy(name):
        return stats.get(name, [None, 0, 0.0])[2]

    def calls(name):
        return stats.get(name, [None, 0, 0.0])[1]

    out = {}
    for name in PASS_NAMES:
        out[f"pass.{name}.s"] = busy(f"pass.{name}") / units
        out[f"pass.{name}.applied"] = counters.get(f"pass.{name}.applied", 0.0) / units
    for phase in ("enumerate", "score", "evaluate", "commit"):
        out[f"sweep.{phase}.s"] = busy(f"sweep.{phase}") / units
    offered = counters.get("sweep.offered", 0.0)
    out["sweep.commit_ratio"] = counters.get("sweep.committed", 0.0) / offered if offered else 0.0
    out["sweep.fallback.calls"] = calls("sweep.fallback") / units
    out["sweep.fallback.s"] = busy("sweep.fallback") / units
    for op in BACKEND_OPS:
        out[f"backend.{op}.calls"] = calls(f"backend.{op}") / units
        out[f"backend.{op}.s"] = busy(f"backend.{op}") / units
    out["backend.fallback_calls"] = counters.get("backend.fallback_calls", 0.0) / units
    for phase in ("analyze", "orchestrate"):
        out[f"orchestration.{phase}.calls"] = calls(f"orchestration.{phase}") / units
        out[f"orchestration.{phase}.s"] = busy(f"orchestration.{phase}") / units
    orchestration_s = busy("orchestration.analyze") + busy("orchestration.orchestrate")
    out["orchestration.samples_per_s"] = (
        calls("orchestration.orchestrate") / orchestration_s if orchestration_s else 0.0
    )
    assigned = counters.get("orchestration.assigned", 0.0)
    out["orchestration.applied_ratio"] = (
        counters.get("orchestration.applied", 0.0) / assigned if assigned else 0.0
    )
    out["features.build.s"] = busy("features.build") / units
    out["nn.train.s"] = busy("nn.train") / units
    epochs = counters.get("nn.epochs", 0.0)
    out["nn.epoch_s"] = busy("nn.train") / epochs if epochs else 0.0
    out["nn.predict.s"] = busy("nn.predict") / units
    return out


def merge_layers(reports: List[Dict]):
    """Sum the recorder stats, counters, layer rows and rollups of several children."""
    stats: Dict[str, list] = {}
    counters: Dict[str, float] = {}
    rows: Dict[str, list] = {}
    rollups: Dict[tuple, list] = {}
    units = 0
    for layer_report in reports:
        units += layer_report["units"]
        for name, values in layer_report["stats"].items():
            entry = stats.setdefault(name, [values[0], 0, 0.0, 0.0, 0])
            for index in range(1, 5):
                entry[index] += values[index]
        for name, value in layer_report["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for layer, count, busy, self_s, failures in layer_report["layers"]:
            row = rows.setdefault(layer, [0, 0.0, 0.0, 0])
            for index, value in enumerate((count, busy, self_s, failures)):
                row[index] += value
        for parent, name, count, total in layer_report["rollups"]:
            roll = rollups.setdefault((parent, name), [0, 0.0])
            roll[0] += count
            roll[1] += total
    layer_rows = [(layer, row[0], row[1], row[2], 0.0, row[3]) for layer, row in sorted(rows.items())]
    top = sorted(((p, n, c, t) for (p, n), (c, t) in rollups.items()), key=lambda r: -r[3])[:16]
    return stats, counters, units, layer_rows, top


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def workload_script(args, size: Dict, env: Dict[str, str], report: Report) -> None:
    """``rw; rf; rs; b`` on fresh copies of the suite, repeated in warm processes."""
    runs = SETUPS["script"]
    spec = {"designs": size["designs"], "seconds": args.seconds / runs, "trace": bool(args.trace)}
    outs = [run_child("script", spec, env) for _ in range(runs)]
    report.env = outs[0]["env"]
    untraced = [p for out in outs for p in out["passes"] if not p["traced"]]
    traced = [p for out in outs for p in out["passes"] if p["traced"]]
    report.attempted = len(size["designs"]) * (len(untraced) + len(traced))
    times = [clock.calibrated(p["seconds"], p["loop"]) for p in untraced]
    suite = statistics.median(times)
    ands = sum(result["ands"] for result in outs[0]["results"].values())
    depth = sum(result["depth"] for result in outs[0]["results"].values())
    report.e2e.update({
        "setup_s": statistics.median(clock.calibrated(out["setup_s"], out["setup_loop"]) for out in outs),
        "peak_rss_mb": max(out["rss_mb"] for out in outs),
        "ands": ands,
        "depth": depth,
        "suite_s": suite,
        "flow_s": suite,
        "jobs_per_s": len(times) / sum(times),
        "p50_s": suite,
        "p90_s": quantile(times, 0.9),
    })
    raw = [p["seconds"] for p in untraced]
    report.raw.update({
        "setup_s": statistics.median(out["setup_s"] for out in outs),
        "suite_s": statistics.median(raw), "flow_s": statistics.median(raw),
        "jobs_per_s": len(raw) / sum(raw), "p50_s": statistics.median(raw),
        "p90_s": quantile(raw, 0.9),
    })
    report.samples.update({name: len(untraced) for name in
                           ("suite_s", "flow_s", "jobs_per_s", "p50_s", "p90_s")})
    report.samples["setup_s"] = runs
    for design in size["designs"]:
        first = outs[0]["results"][design]
        for out in outs:
            if not out["results"][design]["same"] or out["results"][design]["aag"] != first["aag"]:
                report.fail(f"{design}: results differ between passes or processes")
        check_netlist(report, design, outs[0]["originals"][design], first["aag"], args.seed,
                      first["ands"], first["depth"])
    report.checks.append(
        f"{len(size['designs'])} designs x {len(untraced) + len(traced)} passes byte-identical; "
        f"each design's result equals its input under {check.METHOD}"
    )
    check_qor(report, args.size, "script", ands, depth)
    if args.trace:
        stats, counters, units, report.layer_rows, report.rollups = merge_layers(
            [out["layers"] for out in outs]
        )
        report.layers.update(per_unit(stats, counters, units))
        report.layers["aig.verify.s"] = stats.get("aig.verify", [0, 0, 0.0])[2] / runs
        report.layers["obs.overhead"] = statistics.median(
            clock.calibrated(p["seconds"], p["loop"]) for p in traced
        ) / suite - 1.0


def workload_flow(args, size: Dict, env: Dict[str, str], report: Report) -> None:
    """One cold flow per fresh process, with no artifact store."""
    base = {"design": size["flow_design"], "flow": size["flow"], "run": False, "trace": False}
    setups = [run_child("flow", base, env) for _ in range(SETUPS["flow"] - 1)]
    flows = []
    deadline = time.monotonic() + args.seconds
    while True:
        flows.append(run_child("flow", dict(base, run=True), env))
        remaining = deadline - time.monotonic()
        if remaining < statistics.median(out["flow_s"] for out in flows):
            break
    traced = run_child("flow", dict(base, run=True, trace=True), env) if args.trace else None
    report.env = flows[0]["env"]
    report.attempted = len(flows) + (traced is not None)
    times = [out["flow_s"] for out in flows]
    flow_s = statistics.median(times)
    best = flows[0]
    report.e2e.update({
        "setup_s": statistics.median(out["setup_s"] for out in setups + flows),
        "peak_rss_mb": max(out["rss_mb"] for out in flows),
        "ands": best["best_size"],
        "depth": best["best_depth"],
        "suite_s": flow_s,
        "flow_s": flow_s,
        "jobs_per_s": len(times) / sum(times),
        "p50_s": flow_s,
        "p90_s": quantile(times, 0.9),
    })
    report.samples.update({"setup_s": len(setups) + len(flows), "suite_s": len(times),
                           "flow_s": len(times), "p50_s": len(times), "p90_s": len(times),
                           "jobs_per_s": len(times)})
    for index, out in enumerate(flows + ([traced] if traced else [])):
        label = f"flow {index}"
        if out["ranked_sizes"] != out["evaluated_sizes"]:
            report.fail(f"{label}: ranked candidate sizes {out['ranked_sizes']} differ from the "
                        f"flow's evaluated sizes {out['evaluated_sizes']}")
        if out["rerun_size"] != out["best_size"] or out["best_size"] != best["best_size"]:
            report.fail(f"{label}: best candidate re-ran to {out['rerun_size']} ANDs, "
                        f"flow reported {out['best_size']}")
        check_netlist(report, label, out["original"], out["best_aag"], args.seed,
                      out["best_size"], out["best_depth"])
    report.checks.append(
        f"{report.attempted} flows: best candidate re-run matches the reported size and "
        f"equals the input under {check.METHOD}"
    )
    check_qor(report, args.size, "flow", best["best_size"], best["best_depth"])
    if traced is not None:
        stats, counters, units, report.layer_rows, report.rollups = merge_layers([traced["layers"]])
        report.layers.update(per_unit(stats, counters, units))
        report.layers["obs.overhead"] = traced["flow_s"] / flow_s - 1.0


def reference_digests(size: Dict, specs: List[Dict], env: Dict[str, str]) -> Dict:
    """Direct ``execute_spec`` digests for ``specs``, cached per source digest."""
    path = STATE / f"reference-{source_digest()[:16]}.json"
    cached = {"digests": {}, "originals": {}}
    if path.exists():
        cached = json.loads(path.read_text(encoding="ascii"))
    missing = [job for job in specs if json.dumps(job, sort_keys=True) not in cached["digests"]]
    designs = [d for d in size["serve_designs"] if d not in cached["originals"]]
    if missing or designs:
        # Untimed, so both CPUs run direct executions (two children).
        halves = [{"specs": missing[0::2], "designs": designs}, {"specs": missing[1::2], "designs": []}]
        with ThreadPoolExecutor(max_workers=len(halves)) as pool:
            futures = [pool.submit(run_child, "reference", half, env) for half in halves]
            for future in futures:
                fresh = future.result()
                cached["digests"].update(fresh["digests"])
                cached["originals"].update(fresh["originals"])
        path.write_text(json.dumps(cached), encoding="ascii")
    return cached


def workload_serve(args, size: Dict, env: Dict[str, str], report: Report) -> None:
    """Closed loop of two clients through the router to two process-worker shards."""
    from repro.service.client import HttpServiceClient

    jobs = serve.catalog(size["serve_designs"])
    stream = serve.request_stream(jobs, round(args.seconds * SERVE_RATE), args.seed)
    loads = 2 if args.trace else 1
    fleets: List[serve.Fleet] = []
    setups = []
    raw_setups = []
    try:
        for index in range(SETUPS["serve"]):
            fleet = serve.Fleet(str(ROOT), env)
            loop = clock.loop_seconds()
            began = time.monotonic()
            try:
                fleet.start()
            except BaseException:
                fleet.stop()
                raise
            raw_setups.append(time.monotonic() - began)
            loop = (loop + clock.loop_seconds()) / 2
            setups.append(clock.calibrated(raw_setups[-1], loop))
            if index < SETUPS["serve"] - loads:
                fleet.stop()
            else:
                fleets.append(fleet)
        untraced = serve.run_load(fleets[0].url, stream, check.digest)
        rss = fleets[0].peak_rss_mb()
        traced = recorder = None
        if args.trace:
            from tracer import Recorder

            url = fleets[1].url
            before = serve.server_counters(url)
            recorder = Recorder()
            for method in ("submit", "result", "_request"):
                recorder.patch(HttpServiceClient, method, f"client.{method.strip('_')}", "client")
            try:
                traced = serve.run_load(url, stream, check.digest)
            finally:
                recorder.unpatch()
            after = serve.server_counters(url)
            delta = {name: after.get(name, 0.0) - before.get(name, 0.0) for name in after}
            snapshots = serve.job_snapshots(url, traced.served)
    finally:
        for fleet in fleets:
            fleet.stop()
    from child import environment

    report.env = environment()
    report.attempted = len(stream) * loads
    for load in [untraced] + ([traced] if traced else []):
        report.failures.extend(load.failures)
    lat = untraced.latencies
    ands = sum(payload["report"]["size_after"] for _, payload, _ in untraced.served.values())
    depth = sum(payload["report"]["depth_after"] for _, payload, _ in untraced.served.values())
    report.e2e.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "ands": ands,
        "depth": depth,
        "suite_s": untraced.seconds,
        "flow_s": untraced.seconds,
        "jobs_per_s": len(lat) / untraced.seconds,
        "p50_s": statistics.median(lat),
        "p90_s": percentile(lat, 0.9),
    })
    raw = untraced.raw_latencies
    report.raw.update({
        "setup_s": statistics.median(raw_setups),
        "suite_s": untraced.raw_seconds, "flow_s": untraced.raw_seconds,
        "jobs_per_s": len(raw) / untraced.raw_seconds, "p50_s": statistics.median(raw),
        "p90_s": percentile(raw, 0.9),
    })
    report.samples.update({"setup_s": len(setups), "suite_s": 1, "flow_s": 1,
                           "jobs_per_s": len(lat), "p50_s": len(lat), "p90_s": len(lat)})
    reference = reference_digests(size, jobs, env)
    for load in [untraced] + ([traced] if traced else []):
        check_served(report, load, jobs, reference, args.seed)
    check_qor(report, args.size, "serve", ands, depth)
    if traced is not None:
        serve_layers(report, traced, untraced, recorder, delta, snapshots)


def check_served(report: Report, load, jobs: List[Dict], reference: Dict, seed: int) -> None:
    """Every served copy byte-identical to a direct run; every netlist equivalent."""
    if len(load.served) != len(jobs):
        report.fail(f"{len(load.served)} distinct jobs served, catalog has {len(jobs)}")
    checked = 0
    for spec, payload, digests in load.served.values():
        label = f"{spec['design']} '{spec['options']['script']}'"
        want = reference["digests"].get(json.dumps(spec, sort_keys=True))
        if digests != {want}:
            report.fail(f"{label}: served payload differs from a direct execute_spec run")
            continue
        stats = payload["report"]
        check_netlist(report, label, reference["originals"][spec["design"]],
                      payload["netlist"], seed, stats["size_after"], stats["depth_after"])
        checked += 1
    report.checks.append(
        f"{checked} distinct served payloads, every copy byte-identical to a direct "
        f"execute_spec run; each netlist equals its input under {check.METHOD}"
    )


def serve_layers(report: Report, traced, untraced, recorder, delta: Dict, snapshots) -> None:
    """Per-layer metrics of the serving stack over the traced load."""
    executed = [s for s in snapshots if s.get("run_seconds") is not None]
    queue = [s["queue_seconds"] for s in executed]
    runs = [s["run_seconds"] for s in executed]
    requests = max(len(traced.latencies), 1)
    tail_label, tail_value = tail(traced.latencies)
    submitted = delta.get("submitted", 0.0)
    accepted = delta.get("accepted", 0.0)
    report.layers.update({
        "client.submit.s": statistics.median(traced.submit_s),
        "client.result.s": statistics.median(traced.result_s),
        "client.tail_s": tail_value,
        "client.retries": max(0, recorder.count("client.request") - 2 * requests),
        "router.routed": delta.get("router_routed", 0.0),
        "router.retries": delta.get("router_retries", 0.0),
        "router.failovers": delta.get("router_failovers", 0.0),
        "queue.wait_s": statistics.median(queue) if queue else 0.0,
        "worker.run_s": statistics.median(runs) if runs else 0.0,
        "worker.executions": accepted,
        "service.hit_ratio": (submitted - accepted) / submitted if submitted else 0.0,
        "store.lookups": delta.get("store_lookups", 0.0),
        "store.hits": delta.get("store_hits", 0.0),
        "store.writes": delta.get("store_writes", 0.0),
        "obs.overhead": traced.seconds / untraced.seconds - 1.0,
    })
    for short, name in (("rw", "rewrite"), ("rf", "refactor"), ("rs", "resub"), ("b", "balance")):
        report.layers[f"pass.{short}.s"] = delta.get(f"pass_{name}_s", 0.0) / requests
    report.note = f"client.tail_s is the {tail_label} of {len(traced.latencies)} requests"
    report.layer_rows = [
        (layer, count, busy, self_s, sum(traced.result_s), failures)
        for layer, count, busy, self_s, failures in recorder.layer_rows()
    ] + [
        ("router", int(delta.get("router_routed", 0)), 0.0, 0.0, 0.0,
         int(delta.get("router_retries", 0))),
        ("queue", len(executed), 0.0, 0.0, sum(queue), int(delta.get("rejected", 0))),
        ("worker", len(executed), sum(runs), sum(runs), 0.0, int(delta.get("failed", 0))),
        ("store", int(delta.get("store_lookups", 0)), 0.0, 0.0, 0.0, 0),
    ]


WORKLOADS = {"script": workload_script, "flow": workload_flow, "serve": workload_serve}


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def print_report(args, report: Report, fingerprint: Dict, probe) -> None:
    print(f"== perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    drift = probe[1] / probe[0] - 1.0
    print(f"noise probe: {probe[0]:.2f} ms at start, {probe[1]:.2f} ms at end, drift {drift:+.1%}"
          " (diagnostic only)")
    verdict = "FAILED" if report.failures else "ok"
    print(f"check: {verdict}")
    for line in report.checks:
        print(f"  - {line}")
    for line in report.failures[:20]:
        print(f"  ! {line}")
    if args.trace:
        print(f"{'layer':<14}{'count':>10}{'busy_s':>12}{'self_s':>12}{'wait_s':>12}{'failures':>10}")
        for layer, count, busy, self_s, wait, failures in report.layer_rows:
            print(f"{layer:<14}{count:>10}{busy:>12.4f}{self_s:>12.4f}{wait:>12.4f}{failures:>10}")
        if report.rollups:
            print("largest rollups (parent, name, count, total_s):")
            for parent, name, count, total in report.rollups:
                print(f"  {parent or '-':<28}{name:<34}{count:>9}{total:>10.4f}")
        if report.note:
            print(report.note)
        rows = [(name, report.layers[name], PER_LAYER[name], "") for name in PER_LAYER]
    else:
        rows = [(name, report.e2e[name], unit, report.samples.get(name, ""))
                for name, unit in END_TO_END.items()]
        if report.raw:
            print(f"times are scaled to a {clock.REFERENCE_S * 1000:g} ms yardstick loop timed "
                  "around each job (see clock.py); raw wall values in the last column")
    print(f"{'metric':<36}{'value':>14}  {'unit':<9}{'samples':<9}raw")
    for name, value, unit, samples in rows:
        raw = report.raw.get(name) if not args.trace else None
        print(f"{name:<36}{value:>14.6g}  {unit:<9}{samples!s:<9}{'' if raw is None else f'{raw:.6g}'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for sub in ("native", "tmp", "cache"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    env = child_env()
    os.environ.update({key: env[key] for key in ("BOOLGEBRA_NATIVE_CACHE", "TMPDIR", "XDG_CACHE_HOME")})
    sys.path.insert(0, str(ROOT / "src"))
    probe_start = noise_probe()
    report = Report()
    try:
        WORKLOADS[args.workload](args, SIZES[args.size], env, report)
    except WorkloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    probe_end = noise_probe()
    fingerprint = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        **report.env,
        "git_commit": git_commit(),
        "source_sha256": source_digest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "check": check.METHOD,
    }
    failed = len(report.failures)
    report.layers["error_rate"] = failed / max(report.attempted, 1)
    print_report(args, report, fingerprint, (probe_start, probe_end))
    metrics = report.layers if args.trace else report.e2e
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not report.failures,
        "attempted": max(report.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not report.failures else 1


if __name__ == "__main__":
    sys.exit(main())
