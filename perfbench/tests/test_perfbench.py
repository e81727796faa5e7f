"""Tests of the benchmark itself: checks, stream, tracer and tiny end-to-end runs.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from tracer import Recorder  # noqa: E402

# f = (x1 & x2) | x3 as ASCII AIGER (an OR is a complemented AND of complements).
TINY = "aag 5 3 0 1 2\n2\n4\n6\n11\n8 4 2\n10 9 7\nc\n"


def flip_output(text: str, index: int = 0) -> str:
    """The same netlist with output ``index`` complemented."""
    lines = text.splitlines(keepends=True)
    num_inputs = int(lines[0].split()[2])
    line = 1 + num_inputs + index
    lines[line] = f"{int(lines[line]) ^ 1}\n"
    return "".join(lines)


@pytest.fixture(scope="module")
def optimized_b08():
    from repro import Engine
    from repro.circuits.benchmarks import load_benchmark
    from repro.io.aiger import aiger_ascii

    engine = Engine.load("b08")
    engine.run("rw; rf; rs; b")
    return aiger_ascii(load_benchmark("b08")), aiger_ascii(engine.aig), engine


# --------------------------------------------------------------------------- #
# Independent checks
# --------------------------------------------------------------------------- #
def test_simulation_matches_the_function():
    netlist = check.parse_aag(TINY)
    x1, x2, x3 = 0b10101010, 0b11001100, 0b11110000
    (out,) = check.simulate(netlist, [x1, x2, x3], 8)
    assert out == (x1 & x2) | x3
    assert netlist.size == 2 and check.depth(netlist) == 2


def test_program_result_passes_and_flipped_output_is_caught(optimized_b08):
    original, optimized, engine = optimized_b08
    parsed = check.check_equivalent(original, optimized, seed=3)
    assert parsed.size == engine.size
    assert check.depth(parsed) == engine.aig.depth()
    for index in (0, len(parsed.outputs) - 1):
        with pytest.raises(check.CheckError, match=f"output {index} differs"):
            check.check_equivalent(original, flip_output(optimized, index), seed=3)


@pytest.mark.parametrize(
    "text",
    ["", "aig 1 1 0 1 0\n2\n2\n", "aag 5 3 0 1 2\n2\n4\n6\n11\n8 4 2\n", "aag 2 1 0 1 1\n2\n4\n4 6 2\n"],
)
def test_malformed_netlists_are_rejected(text):
    with pytest.raises(check.CheckError):
        check.parse_aag(text)


def test_netlist_check_reports_wrong_size_and_depth(optimized_b08):
    original, optimized, engine = optimized_b08
    report = run.Report()
    run.check_netlist(report, "ok", original, optimized, 1, engine.size, engine.aig.depth())
    assert report.failures == []
    run.check_netlist(report, "size", original, optimized, 1, engine.size + 1, engine.aig.depth())
    run.check_netlist(report, "flip", original, flip_output(optimized), 1, engine.size,
                      engine.aig.depth())
    assert [failure.split(":")[0] for failure in report.failures] == ["size", "flip"]


def test_altered_payload_byte_is_caught(optimized_b08):
    original, optimized, engine = optimized_b08
    spec = {"kind": "optimize", "design": "b08", "options": {"script": "rw; rf; rs; b"}}
    payload = {
        "kind": "optimize",
        "design": "b08",
        "report": {"size_after": engine.size, "depth_after": engine.aig.depth()},
        "netlist": optimized,
    }
    reference = {"digests": {json.dumps(spec, sort_keys=True): check.digest(payload)},
                 "originals": {"b08": original}}
    load = serve.Load()
    load.served["job"] = [spec, payload, {check.digest(payload)}]
    report = run.Report()
    run.check_served(report, load, [spec], reference, seed=1)
    assert report.failures == []
    altered = dict(payload, netlist=optimized.replace("\n", "\n ", 1))
    load.served["job"][2].add(check.digest(altered))
    run.check_served(report, load, [spec], reference, seed=1)
    assert len(report.failures) == 1 and "differs from a direct" in report.failures[0]


# --------------------------------------------------------------------------- #
# Workload inputs and the tracer
# --------------------------------------------------------------------------- #
def test_request_stream_is_zipf_shaped_and_seed_only_orders_it():
    jobs = serve.catalog(["b07", "b08", "b09", "b10", "c880"])
    assert len(jobs) == 180 and len({json.dumps(job, sort_keys=True) for job in jobs}) == 180
    first = serve.request_stream(jobs, 900, seed=1)
    second = serve.request_stream(jobs, 900, seed=2)
    assert first != second
    key = lambda job: json.dumps(job, sort_keys=True)  # noqa: E731
    assert sorted(map(key, first)) == sorted(map(key, second))
    counts = [sum(1 for job in first if job == want) for want in jobs]
    assert min(counts) >= 1 and counts[0] > counts[1] > counts[10] >= counts[-1]
    assert serve.request_stream(jobs, 900, seed=1) == first


def test_recorder_self_time_and_unpatch():
    class Owner:
        @staticmethod
        def leaf():
            return 1

    def outer():
        return Owner.leaf() + Owner.leaf()

    recorder = Recorder()
    recorder.patch(Owner, "leaf", "leaf", "backend")
    wrapped = recorder.wrap("outer", "engine", outer)
    assert wrapped() == 2
    recorder.unpatch()
    assert Owner.leaf() == 1 and "leaf" in vars(Owner)
    assert recorder.count("leaf") == 2 and recorder.count("outer") == 1
    outer_stat = recorder.stats["outer"]
    assert outer_stat.self_s <= outer_stat.busy
    assert ("outer", "leaf", 2) in [row[:3] for row in recorder.top_rollups()]
    layers = {row[0]: row for row in recorder.layer_rows()}
    assert layers["backend"][1] == 2 and layers["engine"][1] == 1


def test_quantiles():
    assert run.percentile([3, 1, 2], 0.5) == 2
    assert run.quantile([1, 2, 3, 4], 0.5) == 2.5
    assert run.tail(list(range(100)))[0] == "p90"
    assert run.tail(list(range(1000)))[0] == "p99"


# --------------------------------------------------------------------------- #
# Tiny end-to-end runs: names, units and schema of the report
# --------------------------------------------------------------------------- #
def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seed", "5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize(
    "workload,trace",
    [("script", 0), ("script", 1), ("flow", 0), ("flow", 1), ("serve", 0), ("serve", 1)],
)
def test_tiny_run_report_schema(workload, trace):
    proc = bench("--workload", workload, "--seconds", "2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())
    assert "fingerprint " in proc.stdout and "noise probe:" in proc.stdout
    if trace:
        assert "busy_s" in proc.stdout and result["metrics"]["obs.overhead"]["unit"] == "ratio"


def test_declared_metrics_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == sorted(run.WORKLOADS, key=["script", "flow", "serve"].index)


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "script", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
