"""In-process side of the ``script`` and ``flow`` workloads, and the serve reference.

``run.py`` starts this file in a fresh interpreter for every set-up it
measures, so imports, design generation, the native library load and the
warm-up runs are paid again each time.  The child prints one JSON object as
the last line of its standard output; the parent checks the netlists it
returns without importing the program.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py script '{"designs": ["b08"], "seconds": 2, "trace": false}'
    python3 perfbench/child.py flow '{"design": "b08", "flow": {...}, "run": true, "trace": false}'
    python3 perfbench/child.py reference '{"specs": [...], "designs": ["b08"]}'
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import clock
from tracer import Recorder

#: The optimization script of the ``script`` workload (ABC's rw; rf; rs; b).
SCRIPT = "rw; rf; rs; b"

#: Pass names of the engine layer and their PassStats names.
PASSES = {"rw": "rewrite", "rf": "refactor", "rs": "resub", "b": "balance"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_loop() -> float:
    """Yardstick time right after set-up (median of three, robust to a blip)."""
    return statistics.median(clock.loop_seconds() for _ in range(3))


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def environment() -> dict:
    """Backend, engine and library facts for the run fingerprint."""
    import numpy
    import scipy

    from repro.backend import get_backend, native_kernels, prewarm_default_backend

    cache_warm = os.path.exists(native_kernels.library_path())
    engine = prewarm_default_backend()
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "backend": get_backend().name,
        "native_engine": engine,
        "native_cache_warm": cache_warm,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


# --------------------------------------------------------------------------- #
# Layer patches (traced mode)
# --------------------------------------------------------------------------- #
def _applied(recorder, args, kwargs, result):
    recorder.add(f"pass.{SHORT[result.name]}.applied", result.applied)


def _committed(recorder, args, kwargs, result):
    recorder.add("sweep.offered", len(args[1]))
    recorder.add("sweep.committed", len(result[0]))


def _orchestrated(recorder, args, kwargs, result):
    decisions = args[1] if len(args) > 1 else kwargs["decisions"]
    recorder.add("orchestration.assigned", len(decisions))
    recorder.add("orchestration.applied", result.total_applied)


def _epochs(recorder, args, kwargs, result):
    recorder.add("nn.epochs", result.epochs)


SHORT = {long: short for short, long in PASSES.items()}


def install_layers(recorder: Recorder) -> None:
    """Patch every layer's public entry points with recorded wrappers."""
    from repro.aig import cuts
    from repro.backend import get_backend
    from repro.backend.api import OPS
    from repro.engine import evaluator, registry
    from repro.engine.engine import Engine
    from repro.flow.boolgebra import BoolGebraFlow
    from repro.nn.trainer import Trainer
    from repro.orchestration import sampling
    from repro.store import pipeline
    from repro.synth import sweep

    patch = recorder.patch
    patch(Engine, "run", "engine.run", "engine")
    for short in PASSES:
        patch(registry.get_pass(short), "run", f"pass.{short}", "engine", observe=_applied)
    for scorer in ("score_rewrites", "score_refactors", "score_resubs"):
        patch(sweep, scorer, "sweep.score", "synth")
    patch(cuts.CutEnumerator, "enumerate", "sweep.enumerate", "synth")
    for finder in ("evaluate_rewrite_cut", "find_refactor_candidate", "find_resub_candidate"):
        patch(sweep, finder, "sweep.evaluate", "synth")
    patch(sweep, "find_rewrite_candidate", "sweep.fallback", "synth")
    patch(sweep, "commit_candidates", "sweep.commit", "synth", observe=_committed)
    backend = get_backend()
    support = backend.op_support()
    for op in OPS + ("cut_level_merge",):
        if getattr(backend, op, None) is None:
            continue
        fallback = support.get(op, "").startswith("fallback:")
        observe = (lambda rec, a, k, r: rec.add("backend.fallback_calls")) if fallback else None
        patch(backend, op, f"backend.{op}", "backend", observe=observe)
    patch(sampling, "analyze_network", "orchestration.analyze", "orchestration")
    for owner in (evaluator, sampling):
        patch(owner, "orchestrate", "orchestration.orchestrate", "orchestration",
              observe=_orchestrated)
    patch(pipeline, "build_dataset", "features.build", "features")
    patch(Trainer, "fit", "nn.train", "nn", observe=_epochs)
    patch(Trainer, "predict", "nn.predict", "nn")
    patch(BoolGebraFlow, "run", "flow.run", "flow")


def layer_report(recorder: Recorder, units: int) -> dict:
    """JSON-ready recorder contents; ``units`` is the number of traced jobs."""
    return {
        "units": units,
        "stats": {
            name: [stat.layer, stat.count, stat.busy, stat.self_s, stat.failures]
            for name, stat in recorder.stats.items()
        },
        "layers": recorder.layer_rows(),
        "counters": recorder.counters,
        "rollups": recorder.top_rollups(),
    }


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def run_script(spec: dict) -> dict:
    """Set up, then run the script over fresh design copies for ``seconds``."""
    from repro import Engine
    from repro.circuits.benchmarks import load_benchmark
    from repro.io.aiger import aiger_ascii

    designs = spec["designs"]
    originals = {design: aiger_ascii(load_benchmark(design)) for design in designs}
    env = environment()
    for design in designs:
        Engine.load(design).run(SCRIPT)
    setup_done = time.monotonic()
    loops = [setup_loop()]

    recorder = Recorder()
    passes = []
    results = {}
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        traced = spec["trace"] and len(passes) % 2 == 1
        if traced:
            install_layers(recorder)
        engines = {}
        start = time.perf_counter()
        for design in designs:
            engine = Engine.load(design)
            engine.run(SCRIPT)
            engines[design] = engine
        seconds = time.perf_counter() - start
        recorder.unpatch()
        loops.append(clock.loop_seconds())
        passes.append({"traced": traced, "seconds": seconds, "loop": (loops[-2] + loops[-1]) / 2})
        for design, engine in engines.items():
            text = aiger_ascii(engine.aig)
            entry = results.setdefault(
                design, {"aag": text, "ands": engine.size, "depth": engine.aig.depth(), "same": True}
            )
            entry["same"] = entry["same"] and entry["aag"] == text
        if time.perf_counter() >= deadline and not (spec["trace"] and len(passes) % 2):
            break
    out = {
        "setup_done": setup_done,
        "setup_loop": loops[0],
        "passes": passes,
        "originals": originals,
        "results": results,
        "env": env,
    }
    if spec["trace"]:
        from repro.aig.equivalence import check_equivalence
        from repro.io.aiger import parse_aiger

        for design in designs:
            optimized = parse_aiger(results[design]["aag"], name=design)
            recorder.span("aig.verify", "aig", check_equivalence, load_benchmark(design), optimized)
        out["layers"] = layer_report(recorder, sum(p["traced"] for p in passes))
    out["rss_mb"] = peak_rss_mb()
    return out


def run_flow(spec: dict) -> dict:
    """Set up, then (optionally) run one cold flow and re-run its best candidate."""
    from repro import Engine, fast_config
    from repro.circuits.benchmarks import load_benchmark
    from repro.flow.boolgebra import BoolGebraFlow
    from repro.io.aiger import aiger_ascii
    from repro.nn.trainer import Trainer
    from repro.orchestration.orchestrate import orchestrate

    design = spec["design"]
    original = aiger_ascii(load_benchmark(design))
    env = environment()
    setup_done = time.monotonic()
    out = {"setup_done": setup_done, "env": env}
    if not spec["run"]:
        out["rss_mb"] = peak_rss_mb()
        return out

    config = fast_config(**spec["flow"])
    captured = {}
    capture = Recorder()

    def keep(key):
        def observe(recorder, args, kwargs, result):
            captured[key] = result

        return observe

    capture.patch(BoolGebraFlow, "generate_dataset", "capture", "bench", observe=keep("candidates"))
    capture.patch(Trainer, "predict", "capture", "bench", observe=keep("predictions"))
    recorder = Recorder()
    if spec["trace"]:
        install_layers(recorder)
    try:
        start = time.perf_counter()
        result = Engine.load(design).flow(config)
        flow_s = time.perf_counter() - start
    finally:
        recorder.unpatch()
        capture.unpatch()

    # The flow returns sizes only: find the evaluated top-k candidates the
    # way the flow ranked them and re-run the best one outside the timing.
    samples = captured["candidates"].samples
    predictions = [float(value) for value in captured["predictions"]]
    order = sorted(range(len(samples)), key=lambda index: predictions[index])[: result.top_k_effective]
    ranked_sizes = [samples[index].size_after for index in order]
    best = samples[order[ranked_sizes.index(min(ranked_sizes))]]
    rerun = orchestrate(load_benchmark(design), best.record.decisions, params=config.operations,
                        in_place=False)
    out.update(
        {
            "flow_s": flow_s,
            "best_size": result.best_size,
            "evaluated_sizes": [int(size) for size in result.evaluated_sizes],
            "ranked_sizes": ranked_sizes,
            "rerun_size": rerun.size_after,
            "original": original,
            "best_aag": aiger_ascii(rerun.optimized),
            "best_depth": rerun.optimized.depth(),
            "rss_mb": peak_rss_mb(),
        }
    )
    if spec["trace"]:
        out["layers"] = layer_report(recorder, 1)
    return out


def run_reference(spec: dict) -> dict:
    """Direct ``execute_spec`` payload digests plus the original netlists."""
    from check import digest
    from repro.circuits.benchmarks import load_benchmark
    from repro.io.aiger import aiger_ascii
    from repro.service.jobs import JobSpec, execute_spec

    digests = {}
    for job in spec["specs"]:
        digests[json.dumps(job, sort_keys=True)] = digest(execute_spec(JobSpec.from_dict(job)))
    originals = {design: aiger_ascii(load_benchmark(design)) for design in spec["designs"]}
    return {"digests": digests, "originals": originals}


WORKLOADS = {"script": run_script, "flow": run_flow, "reference": run_reference}


if __name__ == "__main__":
    emit(WORKLOADS[sys.argv[1]](json.loads(sys.argv[2])))
