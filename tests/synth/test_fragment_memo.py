"""The process-wide fragment memos never change a result.

Refactoring fragments are memoized by truth table behind
:func:`repro.synth.refactor.refactor_fragment` and rewriting structures in
:data:`repro.synth.rewrite_lib.DEFAULT_LIBRARY`.  A network optimized in a
fresh process (every memo cold) must come out byte-identical to the same run
in a process whose memos are warm, on both the batched and the sequential
strategy and whether the misses are synthesized by the native backend's
compiled op or by the reference backend's Python chain, and the
transformability analysis must not depend on the memo.  Every miss goes
through :func:`repro.synth.refactor._synthesize_fragment`, so patching it
shows whether a run read the memo.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro import Engine
from repro.circuits.benchmarks import load_benchmark
from repro.io.aiger import aiger_ascii
from repro.orchestration.transformability import analyze_network
from repro.synth import refactor

RUNS = [("b10", "rw; rf; rs; b"), ("b08", "rf -S sequential; b")]

_CHILD = """
import json, sys
from repro import Engine
from repro.io.aiger import aiger_ascii
from repro.synth.refactor import _REFACTOR_FRAGMENTS
from repro.synth.rewrite_lib import DEFAULT_LIBRARY

assert not _REFACTOR_FRAGMENTS and not len(DEFAULT_LIBRARY)
outputs = []
for design, script in json.loads(sys.argv[1]):
    engine = Engine.load(design)
    engine.run(script)
    outputs.append(aiger_ascii(engine.aig))
print(json.dumps(outputs))
"""


def _optimized(design: str, script: str) -> str:
    engine = Engine.load(design)
    engine.run(script)
    return aiger_ascii(engine.aig)


def _no_synthesis(table: int, num_vars: int):
    raise AssertionError(f"a warm memo re-synthesized {table:#x} over {num_vars} inputs")


def _cold(backend_name):
    """The runs' AIGER texts from a fresh process on ``backend_name``."""
    env = dict(os.environ)
    source = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    env["BOOLGEBRA_BACKEND"] = backend_name
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(RUNS)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout)


def test_cold_process_matches_warm_memos():
    # The native child synthesizes its misses with the compiled op (the
    # Python chain without an engine), the reference child with the chain.
    cold = {name: _cold(name) for name in ("native", "reference")}
    assert cold["native"] == cold["reference"]
    for design, script in RUNS:
        _optimized(design, script)  # warm every memo on these designs
    warm = [_optimized(design, script) for design, script in RUNS]
    assert warm == cold["native"]


def test_analysis_is_the_same_with_cold_and_warm_fragment_memo(monkeypatch):
    design = load_benchmark("b08")
    refactor._REFACTOR_FRAGMENTS.clear()
    cold = analyze_network(design.copy())
    assert refactor._REFACTOR_FRAGMENTS
    monkeypatch.setattr(refactor, "_synthesize_fragment", _no_synthesis)
    assert analyze_network(design.copy()) == cold


def test_sequential_refactoring_reads_the_memo(monkeypatch):
    _optimized("b08", "rf -S sequential")
    monkeypatch.setattr(refactor, "_synthesize_fragment", _no_synthesis)
    _optimized("b08", "rf -S sequential")


def test_memo_ignores_bits_above_the_table():
    table, num_vars = 0b0110_1001, 3
    assert refactor.refactor_fragment(table | 1 << 40, num_vars) is refactor.refactor_fragment(
        table, num_vars
    )
