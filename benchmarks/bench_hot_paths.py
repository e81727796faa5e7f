"""Hot-path kernel benchmarks with a tracked JSON trajectory and a CI gate.

Measures the inner loops everything else sits on — bit-parallel simulation,
K-feasible cut enumeration, truth-table / pattern construction, the batched
sweep-and-commit optimization passes — comparing the retained scalar /
sequential reference implementations against the levelized array-backed
kernels (:mod:`repro.aig.kernels`) and the sweep engine
(:mod:`repro.synth.sweep`), plus one end-to-end ``Engine.sample`` run.
Byte-identity (kernels) / functional equivalence (passes) of reference and
vectorized results is asserted as part of every measurement.

The committed ``BENCH_hot_paths.json`` stores one *smoke* and one *full*
report (schema ``bench_hot_paths/v2``).  CI runs ``--smoke``, which measures
the smoke configuration and **fails on a perf regression**: any kernel whose
relative speedup (vectorized vs. in-run reference — a same-machine ratio,
robust across runner hardware) drops more than 25% below the committed
smoke baseline fails the job.  ``--update-baseline`` re-measures both
configurations and rewrites the baseline — the escape hatch after an
intentional performance trade-off (run it locally and commit the JSON).

Stand-alone::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py                    # = --update-baseline
    PYTHONPATH=src python benchmarks/bench_hot_paths.py --smoke            # CI gate
    PYTHONPATH=src python benchmarks/bench_hot_paths.py --smoke --repeat 3 # CI: median of 3
    PYTHONPATH=src python benchmarks/bench_hot_paths.py --smoke --out s.json
    PYTHONPATH=src python benchmarks/bench_hot_paths.py --smoke --kernels service_scaleout
    PYTHONPATH=src python benchmarks/bench_hot_paths.py --update-baseline
    PYTHONPATH=src python benchmarks/bench_hot_paths.py --profile pass_sweep
    PYTHONPATH=src python benchmarks/bench_hot_paths.py --breakdown        # per-backend sweep

``--repeat N`` measures every kernel N times and reports the run with the
median gated ratio (default 1; the CI gate passes 3 so one noisy
measurement cannot trip — or mask — a regression); the chosen ``repeat``
is recorded in the report and in ``BENCH_hot_paths.json``.  ``--breakdown``
times the sweep script under each registered backend side by side and
prints the native backend's per-op engine table.

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_hot_paths.py --benchmark-only
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

try:
    from benchmarks.conftest import run_once
except ModuleNotFoundError:  # stand-alone: python benchmarks/bench_hot_paths.py
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from benchmarks.conftest import run_once

from repro.aig.cuts import CutEnumerator
from repro.aig.kernels import levelized
from repro.aig.random_aig import random_aig_simple
from repro.aig.simulate import (
    exhaustive_patterns,
    random_patterns,
    simulate,
    simulate_matrix,
    simulate_reference,
)
from repro.aig.equivalence import check_equivalence
from repro.aig.truth import cut_truth_table
from repro.backend import get_backend, use_backend
from repro.circuits.benchmarks import load_benchmark
from repro.engine import Engine, SerialEvaluator
from repro.orchestration.sampling import PriorityGuidedSampler
from repro.synth.scripts import balance_pass, refactor_pass, resub_pass, rewrite_pass

#: Full-scale configuration (the committed BENCH_hot_paths.json numbers):
#: a >=5k-node random network simulated with 1024 patterns and enumerated
#: with 4-feasible priority cuts, as required by the tracked acceptance bar.
FULL = {
    "num_ands": 5200,
    "num_pis": 24,
    "num_pos": 8,
    "aig_seed": 2024,
    "num_patterns": 1024,
    "cut_k": 4,
    "cuts_per_node": 8,
    "truth_num_vars": 14,
    "exhaustive_num_pis": 14,
    "sample_design": "b11",
    "num_samples": 6,
    #: Designs of the batched-vs-sequential pass benchmark (the acceptance
    #: bar tracks the aggregate over the b11/c880-class networks).
    "sweep_designs": ["b11", "c880", "b12", "c5315"],
    #: Workload of the prebatched-training and warm-store flow benchmarks.
    "train_design": "b08",
    "train_samples": 60,
    "train_epochs": 30,
    "flow_design": "b08",
    "flow_samples": 16,
    "flow_epochs": 10,
    #: Duplicate-heavy service traffic: (design, script) distinct jobs, each
    #: submitted ``service_duplication`` times concurrently.
    "service_jobs": [["b08", "rw; b"], ["b10", "rw; rs"], ["c880", "rw"]],
    "service_duplication": 8,
    #: Zipf duplicate-heavy cluster traffic: distinct (design, script) jobs
    #: curated *design-pure per shard* on the s0/s1/s2 consistent-hash ring
    #: (the assignment is content-addressed, hence deterministic across
    #: machines): every b12 job hashes to s0, every b11 job to s1 and every
    #: c880 job to s2, so each shard's worker process loads exactly one
    #: design and the per-worker load cost scales out with the compute.  The
    #: interleaved order spreads the heavy zipf ranks across the shards.
    "scaleout_jobs": [
        ["b12", "rw"], ["b11", "rs"], ["c880", "rw"],
        ["b12", "rw; rs"], ["b11", "rw; rf"], ["c880", "rw; rf"],
        ["b11", "rw; b"], ["c880", "rs"], ["c880", "b; rw"],
    ],
    #: The timed zipf mix: fixed-duration jobs (curated 3/3/3 on the ring
    #: so the router holds one per shard in flight) make the measured
    #: scale-out ratio deterministic on any host; see bench_service_scaleout.
    "scaleout_payloads": [
        "scale-0", "scale-2", "scale-3",
        "scale-1", "scale-4", "scale-6",
        "scale-10", "scale-5", "scale-8",
    ],
    "scaleout_hang_seconds": 0.2,
    "scaleout_requests": 60,
    #: Design and interleaved rounds of the disabled-observability drag
    #: measurement (see bench_obs_overhead).
    "obs_design": "b11",
    "obs_rounds": 5,
}

#: Smoke configuration: small enough for a CI step, same code paths.
SMOKE = {
    "num_ands": 600,
    "num_pis": 12,
    "num_pos": 4,
    "aig_seed": 2024,
    "num_patterns": 256,
    "cut_k": 4,
    "cuts_per_node": 8,
    "truth_num_vars": 10,
    "exhaustive_num_pis": 10,
    "sample_design": "b08",
    "num_samples": 2,
    "sweep_designs": ["b10", "c880"],
    "train_design": "b08",
    "train_samples": 24,
    "train_epochs": 12,
    "flow_design": "b08",
    "flow_samples": 10,
    "flow_epochs": 6,
    "service_jobs": [["b08", "rw"], ["b08", "b"]],
    "service_duplication": 6,
    # Design-pure per shard (see FULL): b08 -> s0, b10 -> s1, b09 -> s2.
    "scaleout_jobs": [
        ["b08", "rs"], ["b10", "rw"], ["b09", "rf"],
        ["b08", "rw; rs"], ["b10", "rw; rs"], ["b09", "rs"],
        ["b08", "rs; rw"], ["b10", "rs; rw"], ["b09", "rw; rs"],
    ],
    "scaleout_payloads": [
        "scale-0", "scale-2", "scale-3",
        "scale-1", "scale-4", "scale-6",
        "scale-10", "scale-5", "scale-8",
    ],
    "scaleout_hang_seconds": 0.2,
    "scaleout_requests": 36,
    "obs_design": "b10",
    "obs_rounds": 3,
}

#: Kernels whose ``speedup`` ratio is guarded by the CI perf gate, and the
#: allowed relative drop versus the committed smoke baseline (25%).
GATED_KERNELS = (
    "simulate",
    "cut_enumeration",
    "truth_tables",
    "exhaustive_patterns",
    "pass_sweep",
    "train_epoch",
    "train_fit",
    "flow_end_to_end",
    "service_throughput",
    "service_scaleout",
    "obs_overhead",
)
GATE_TOLERANCE = 0.25

#: Absolute gate floors for ratio-near-one kernels: the relative tolerance is
#: meaningless around 1.0 (a 25% drop would allow a 33% slowdown), so these
#: kernels additionally fail when their speedup falls below the listed floor.
#: obs_overhead's 0.98 enforces the tentpole contract that the observability
#: seams cost <=2% of pass-pipeline runtime while disabled.
GATE_MIN_SPEEDUP = {
    "obs_overhead": 0.98,
}

#: The cache-backed kernels (prebatched serving, warm-store flow) measure a
#: many-×-ten ratio whose *denominator* sits near the timer floor, so the raw
#: ratio can swing far more than the gate tolerance between healthy runs.
#: Their gated ``speedup`` is therefore clamped to a conservative healthy
#: floor (the raw ratio is kept as ``speedup_raw``): any run above the clamp
#: reports the same stable number, while a real regression — the cached path
#: losing its advantage — still falls through and trips the gate.
SPEEDUP_CLAMPS = {
    "train_epoch": 12.0,
    # Full-run Trainer.train (reference backend, per-epoch rebatching) over
    # Trainer.fit (accelerated backend, prebatched): the raw ratio hovers
    # just above the 1.5x acceptance bar, so the clamp reports a stable 1.5
    # on healthy runs while a real regression still trips the gate floor.
    "train_fit": 1.5,
    "flow_end_to_end": 30.0,
    # Coalesced serving collapses N duplicate jobs onto one execution, so the
    # raw ratio approaches the duplication factor; the acceptance bar is >=2x
    # and the clamp keeps the gate floor (clamp * 0.75 = 3x) safely above it.
    "service_throughput": 4.0,
    # Three one-worker shards behind the router vs one one-worker instance on
    # the same zipf traffic: the raw ratio approaches the shard count (3) but
    # breathes with process-pool scheduling noise; the acceptance bar is >=2x,
    # so the clamp reports a stable 2.0 on healthy runs while a fleet that
    # stops scaling out still falls through and trips the gate.
    "service_scaleout": 2.0,
    # Native-backend sweep vs the sequential reference.  Since both sides
    # read the same process-wide fragment memo, the raw ratio sits around
    # 1.3x (smoke) to 1.7x (full), so this clamp no longer engages; the
    # gate compares the raw ratio against its committed baseline.
    "pass_sweep": 3.0,
    # Both sides of the observability-drag measurement run the same pipeline
    # (one with the metric seams nulled), so the healthy ratio is ~1.0 with
    # timer noise on either side; the clamp pins healthy runs at exactly 1.0
    # while a real disabled-mode slowdown still falls through to the 0.98
    # absolute floor (GATE_MIN_SPEEDUP).
    "obs_overhead": 1.0,
}


def _clamped_speedup(name: str, reference_s: float, vectorized_s: float) -> Dict:
    raw = reference_s / vectorized_s if vectorized_s else float("inf")
    clamp = SPEEDUP_CLAMPS.get(name)
    return {
        "speedup": raw if clamp is None else min(raw, clamp),
        "speedup_raw": raw,
    }


def _best_of(function: Callable[[], object], repeats: int) -> float:
    """Minimum wall time over ``repeats`` runs, garbage collector paused.

    Timing with the collector disabled is the ``timeit`` convention: cyclic
    collection pauses land on whichever run happens to cross an allocation
    threshold, and both implementations are timed under the same rules.
    """
    import gc

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            function()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def _build_network(config: Dict):
    return random_aig_simple(
        num_pis=config["num_pis"],
        num_ands=config["num_ands"],
        num_pos=config["num_pos"],
        seed=config["aig_seed"],
        name="hotpath",
    )


def _table_var_bitloop(index: int, num_vars: int) -> int:
    """The pre-kernel bit-at-a-time table_var (baseline for the trajectory)."""
    num_bits = 1 << num_vars
    block = 1 << index
    pattern = 0
    bit = 0
    while bit < num_bits:
        if (bit // block) % 2 == 1:
            pattern |= 1 << bit
        bit += 1
    return pattern


def _exhaustive_patterns_bitloop(num_pis: int) -> np.ndarray:
    """The pre-kernel O(2^n * n) exhaustive-pattern construction."""
    num_patterns = 1 << num_pis
    num_words = (num_patterns + 63) // 64
    patterns = np.zeros((num_pis, num_words), dtype=np.uint64)
    indices = np.arange(num_patterns, dtype=np.uint64)
    for k in range(num_pis):
        bits = (indices >> np.uint64(k)) & np.uint64(1)
        for word in range(num_words):
            chunk = bits[word * 64 : (word + 1) * 64]
            value = np.uint64(0)
            for offset, bit in enumerate(chunk):
                value |= np.uint64(int(bit)) << np.uint64(offset)
            patterns[k, word] = value
    return patterns


# --------------------------------------------------------------------------- #
# Measurements
# --------------------------------------------------------------------------- #
def bench_simulate(aig, config: Dict, repeats: int) -> Dict:
    patterns = random_patterns(aig.num_pis(), config["num_patterns"], seed=7)
    start = time.perf_counter()
    levelized(aig)
    view_build = time.perf_counter() - start
    # The matrix form is what the in-tree consumers (equivalence checking,
    # divisor filtering) run on; the signature-dict adapter is timed as well.
    vectorized_s = _best_of(lambda: simulate_matrix(aig, patterns), repeats)
    dict_s = _best_of(lambda: simulate(aig, patterns), repeats)
    reference_s = _best_of(lambda: simulate_reference(aig, patterns), repeats)
    reference = simulate_reference(aig, patterns)
    matrix = simulate_matrix(aig, patterns)
    dict_view = simulate(aig, patterns)
    identical = set(reference) == set(dict_view) and all(
        reference[node].tobytes() == dict_view[node].tobytes()
        and reference[node].tobytes() == matrix[node].tobytes()
        for node in reference
    )
    return {
        "num_ands": aig.size,
        "num_patterns": config["num_patterns"],
        "view_build_s": view_build,
        "reference_s": reference_s,
        "vectorized_s": vectorized_s,
        "signature_dict_s": dict_s,
        "speedup": reference_s / vectorized_s if vectorized_s else float("inf"),
        "identical": identical,
    }


def bench_cut_enumeration(aig, config: Dict, repeats: int) -> Dict:
    enumerator = CutEnumerator(k=config["cut_k"], cuts_per_node=config["cuts_per_node"])
    # Time first (nothing large held live — the result sets are big enough
    # that keeping them alive would skew the GC passes), then verify identity.
    enumerator.enumerate(aig)  # warm the structural caches
    bitset_s = _best_of(lambda: enumerator.enumerate(aig), repeats)
    reference_s = _best_of(lambda: enumerator.enumerate_reference(aig), repeats)
    reference = enumerator.enumerate_reference(aig)
    bitset = enumerator.enumerate(aig)
    identical = list(reference.keys()) == list(bitset.keys()) and all(
        reference[node] == bitset[node] for node in reference
    )
    total_cuts = sum(len(cuts) for cuts in bitset.values())
    return {
        "num_ands": aig.size,
        "k": config["cut_k"],
        "cuts_per_node": config["cuts_per_node"],
        "total_cuts": total_cuts,
        "reference_s": reference_s,
        "vectorized_s": bitset_s,
        "speedup": reference_s / bitset_s if bitset_s else float("inf"),
        "identical": identical,
    }


def bench_truth_tables(aig, config: Dict, repeats: int) -> Dict:
    num_vars = config["truth_num_vars"]
    from repro.aig.truth import table_var

    identical = all(
        table_var(i, num_vars) == _table_var_bitloop(i, num_vars)
        for i in range(num_vars)
    )
    reference_s = _best_of(
        lambda: [_table_var_bitloop(i, num_vars) for i in range(num_vars)], repeats
    )
    doubling_s = _best_of(
        lambda: [table_var(i, num_vars) for i in range(num_vars)], repeats
    )
    # Tracked absolute number: truth tables of real enumerated cuts.
    enumerator = CutEnumerator(k=config["cut_k"], cuts_per_node=config["cuts_per_node"])
    cuts = enumerator.enumerate(aig)
    work = [
        (node, cut.leaves)
        for node, node_cuts in cuts.items()
        if aig.is_and(node)
        for cut in node_cuts
        if not cut.is_trivial()
    ][:2000]
    cut_tables_s = _best_of(
        lambda: [cut_truth_table(aig, node, leaves) for node, leaves in work], 1
    )
    return {
        "num_vars": num_vars,
        "table_var_bitloop_s": reference_s,
        "table_var_doubling_s": doubling_s,
        "speedup": reference_s / doubling_s if doubling_s else float("inf"),
        "identical": identical,
        "cut_truth_tables": len(work),
        "cut_truth_tables_s": cut_tables_s,
    }


def bench_exhaustive_patterns(config: Dict, repeats: int) -> Dict:
    num_pis = config["exhaustive_num_pis"]
    identical = (
        exhaustive_patterns(num_pis).tobytes()
        == _exhaustive_patterns_bitloop(num_pis).tobytes()
    )
    reference_s = _best_of(lambda: _exhaustive_patterns_bitloop(num_pis), 1)
    vectorized_s = _best_of(lambda: exhaustive_patterns(num_pis), repeats)
    return {
        "num_pis": num_pis,
        "reference_s": reference_s,
        "vectorized_s": vectorized_s,
        "speedup": reference_s / vectorized_s if vectorized_s else float("inf"),
        "identical": identical,
    }


def _run_pass_script(aig, strategy: str) -> None:
    rewrite_pass(aig, strategy=strategy)
    refactor_pass(aig, strategy=strategy)
    resub_pass(aig, strategy=strategy)
    balance_pass(aig, strategy=strategy)


#: Compute backend each side of the pass benchmark is pinned under: the
#: sequential baseline runs the retained scalar reference code, the batched
#: sweep runs the native backend — the production pairing whose ratio the
#: acceptance bar tracks.  (Both backends are constructible on any install;
#: a missing compiled engine degrades op-by-op to the accelerated /
#: reference paths, never fails.)
_PASS_BACKENDS = {"sequential": "reference", "sweep": "native"}


def bench_pass_sweep(config: Dict, repeats: int) -> Dict:
    """Batched sweep-and-commit passes vs. the sequential reference.

    Runs the standard ``rw; rf; rs; b`` script under both strategies on
    every configured benchmark design (best wall time of ``repeats`` runs on
    fresh copies, caches warmed) and asserts that both results stay
    functionally equivalent to the original and that the batched result
    never grows the network.  Each strategy is pinned to its production
    compute backend (:data:`_PASS_BACKENDS`).  The tracked ``speedup`` is
    the aggregate sequential-over-sweep time ratio.
    """
    designs = {}
    total_reference = 0.0
    total_sweep = 0.0
    identical = True
    for name in config["sweep_designs"]:
        original = load_benchmark(name)
        # Warm the fragment/NPN libraries and kernel caches for both sides.
        for strategy, backend in _PASS_BACKENDS.items():
            warm = original.copy()
            with use_backend(backend):
                _run_pass_script(warm, strategy)
        times = {}
        sizes = {}
        for strategy, backend in _PASS_BACKENDS.items():
            best = float("inf")
            result = None
            for _ in range(repeats):
                aig = original.copy()
                with use_backend(backend):
                    best_candidate = _best_of(
                        lambda a=aig, s=strategy: _run_pass_script(a, s), 1
                    )
                if best_candidate < best:
                    best = best_candidate
                result = aig
            times[strategy] = best
            sizes[strategy] = result.size
            if not (
                check_equivalence(original, result)
                and result.size <= original.size
            ):
                identical = False
        total_reference += times["sequential"]
        total_sweep += times["sweep"]
        designs[name] = {
            "size_before": original.size,
            "size_sequential": sizes["sequential"],
            "size_sweep": sizes["sweep"],
            "sequential_s": times["sequential"],
            "sweep_s": times["sweep"],
            "speedup": times["sequential"] / times["sweep"] if times["sweep"] else float("inf"),
        }
    return {
        "script": "rw; rf; rs; b",
        "backends": dict(_PASS_BACKENDS),
        "designs": designs,
        "reference_s": total_reference,
        "vectorized_s": total_sweep,
        **_clamped_speedup("pass_sweep", total_reference, total_sweep),
        "identical": identical,
    }


def bench_train_epoch(config: Dict, repeats: int) -> Dict:
    """Prebatched epoch serving vs. per-epoch rebatching (plus full fit/train).

    The tracked ``speedup`` isolates the data path this kernel is about: the
    cost of materializing every mini-batch of one epoch, comparing the
    per-epoch rebuild of features + sparse operators
    (:func:`repro.nn.graph.batch_iterator`, the retained reference) against
    the pinned batch cache's index-permutation serving
    (:class:`repro.nn.batching.PrebatchedDataset`).  The full
    ``Trainer.train`` vs ``Trainer.fit`` wall times are reported alongside
    (``train_s`` / ``fit_s`` / ``fit_speedup``) — their loss histories must
    be byte-identical, which is the ``identical`` assertion.
    """
    from repro.flow.config import fast_config
    from repro.nn.batching import PrebatchedDataset
    from repro.nn.graph import batch_iterator
    from repro.nn.model import ModelConfig
    from repro.nn.trainer import Trainer, TrainingConfig
    from repro.store.pipeline import dataset_for

    flow_config = fast_config()
    aig = load_benchmark(config["train_design"])
    dataset = dataset_for(
        aig, config["train_samples"], True, 0, params=flow_config.operations
    )
    train_set, test_set = dataset.split(0.8, seed=0)
    samples = train_set.samples
    batch_size = TrainingConfig.fast().batch_size
    epochs = config["train_epochs"]

    plan = PrebatchedDataset.from_samples(samples, batch_size)
    warm_order = np.arange(len(samples))
    for _ in plan.batches(warm_order):  # build the operator cache once
        pass

    def serve_reference() -> None:
        for epoch in range(epochs):
            for _ in batch_iterator(samples, batch_size, shuffle=True, seed=epoch):
                pass

    def serve_prebatched() -> None:
        for epoch in range(epochs):
            order = np.arange(len(samples))
            np.random.default_rng(epoch).shuffle(order)
            for _ in plan.batches(order):
                pass

    reference_s = _best_of(serve_reference, repeats)
    vectorized_s = _best_of(serve_prebatched, repeats)

    schedule = TrainingConfig.fast(epochs=epochs)
    model = ModelConfig.small()
    # Each side is pinned to its production compute backend (reference for
    # the retained per-epoch path, accelerated for the prebatched one); the
    # backends are parity-gated bit-identical, so the loss histories AND the
    # final weights must still agree byte for byte.
    reference_trainer = Trainer(config=schedule, model_config=model, backend="reference")
    start = time.perf_counter()
    reference_history = reference_trainer.train(samples, test_set.samples)
    train_s = time.perf_counter() - start
    prebatched_trainer = Trainer(config=schedule, model_config=model, backend="accelerated")
    start = time.perf_counter()
    prebatched_history = prebatched_trainer.fit(samples, test_set.samples)
    fit_s = time.perf_counter() - start

    def weight_bytes(trainer) -> bytes:
        return b"".join(
            parameter.value.tobytes() for parameter in trainer.model.parameters()
        )

    identical = (
        reference_history.train_loss == prebatched_history.train_loss
        and reference_history.test_loss == prebatched_history.test_loss
        and reference_history.final_report == prebatched_history.final_report
        and weight_bytes(reference_trainer) == weight_bytes(prebatched_trainer)
    )
    return {
        "design": config["train_design"],
        "num_train_samples": len(samples),
        "epochs": epochs,
        "batch_size": batch_size,
        "reference_s": reference_s,
        "vectorized_s": vectorized_s,
        **_clamped_speedup("train_epoch", reference_s, vectorized_s),
        "backends": {"train": "reference", "fit": "accelerated"},
        "train_s": train_s,
        "fit_s": fit_s,
        "fit_speedup": train_s / fit_s if fit_s else float("inf"),
        "identical": identical,
    }


def bench_flow_end_to_end(config: Dict) -> Dict:
    """Cold vs. warm-store ``BoolGebraFlow`` run (cache-backed resumability).

    The cold run samples, evaluates, trains and prunes from scratch while
    populating a fresh artifact store; the warm run replays the identical
    configuration against that store and must reproduce the cold result
    exactly (modulo wall time) while skipping sample re-evaluation and model
    retraining.  The tracked ``speedup`` is cold time over warm time.
    """
    import dataclasses
    import tempfile

    from repro.flow.boolgebra import BoolGebraFlow
    from repro.flow.config import fast_config

    flow_config = fast_config(
        num_samples=config["flow_samples"],
        top_k=3,
        epochs=config["flow_epochs"],
    )
    aig = load_benchmark(config["flow_design"])
    with tempfile.TemporaryDirectory() as tmp:
        store_config = dataclasses.replace(flow_config, store=os.path.join(tmp, "store"))
        cold_flow = BoolGebraFlow(store_config)
        start = time.perf_counter()
        cold = cold_flow.run(aig)
        cold_s = time.perf_counter() - start
        warm_flow = BoolGebraFlow(store_config)
        start = time.perf_counter()
        warm = warm_flow.run(aig)
        warm_s = time.perf_counter() - start
        cold_payload = cold.to_dict()
        warm_payload = warm.to_dict()
        for payload in (cold_payload, warm_payload):
            payload["runtime_seconds"] = 0.0
            if payload["training_history"] is not None:
                payload["training_history"]["runtime_seconds"] = 0.0
        identical = (
            cold_payload == warm_payload
            and warm_flow.training_from_cache
            and warm_flow.store.stats.total_hits > 0
        )
    return {
        "design": config["flow_design"],
        "num_samples": config["flow_samples"],
        "epochs": config["flow_epochs"],
        "reference_s": cold_s,
        "vectorized_s": warm_s,
        **_clamped_speedup("flow_end_to_end", cold_s, warm_s),
        "identical": identical,
    }


def bench_service_throughput(config: Dict) -> Dict:
    """Batched + coalesced serving vs N independent serial ``Engine`` runs.

    The traffic is duplicate-heavy on purpose (each distinct (design, script)
    job is submitted ``service_duplication`` times): the reference executes
    every submission independently in a serial loop — N full ``Engine.run``
    invocations — while the service coalesces the in-flight duplicates onto
    one execution per distinct job and fans the result back out to every
    submitter.  Every served payload is asserted byte-identical to the direct
    run of its spec (the ``identical`` flag), so the speedup is pure
    scheduling, not approximation.  Workers run inline: the win measured here
    is the coalescer's, not the process pool's.
    """
    import threading

    from repro.service import (
        InProcessClient,
        JobSpec,
        SynthesisService,
        canonical_payload_bytes,
        execute_spec,
    )

    distinct = [
        JobSpec(kind="optimize", design=design, options={"script": script})
        for design, script in config["service_jobs"]
    ]
    duplication = config["service_duplication"]
    traffic = [distinct[i % len(distinct)] for i in range(len(distinct) * duplication)]

    # Warm the shared caches (benchmark generation, fragment/NPN libraries)
    # once for both sides, and keep the direct payloads as the reference
    # results the served ones must match.
    direct = {spec.job_id(): canonical_payload_bytes(execute_spec(spec)) for spec in distinct}

    start = time.perf_counter()
    for spec in traffic:
        execute_spec(spec)
    reference_s = time.perf_counter() - start

    payloads = {}
    with SynthesisService(
        num_workers=2, max_depth=len(traffic) + 1, mode="inline"
    ) as service:
        client = InProcessClient(service)

        def submit_one(index: int, spec: JobSpec) -> None:
            submitted = client.submit(spec)
            payloads[index] = (spec, client.result(submitted["job_id"], timeout=600.0))

        start = time.perf_counter()
        threads = [
            threading.Thread(target=submit_one, args=(index, spec))
            for index, spec in enumerate(traffic)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service_s = time.perf_counter() - start
        counters = service.metrics_snapshot()["counters"]

    identical = len(payloads) == len(traffic) and all(
        canonical_payload_bytes(payload) == direct[spec.job_id()]
        for spec, payload in payloads.values()
    )
    return {
        "jobs": len(traffic),
        "distinct_jobs": len(distinct),
        "duplication": duplication,
        "executions": counters["completed"],
        "coalesced": counters["coalesced"] + counters["memory_hits"],
        "reference_s": reference_s,
        "vectorized_s": service_s,
        **_clamped_speedup("service_throughput", reference_s, service_s),
        "identical": identical,
    }


def bench_service_scaleout(config: Dict) -> Dict:
    """Three-shard router throughput vs a single instance, same zipf load.

    Both sides run real process-mode workers (one per service instance) and
    are driven by the asyncio load generator over HTTP.  The timed zipf mix
    is built from *fixed-duration* jobs (``scaleout_hang_seconds`` each, 9
    distinct, curated to spread 3/3/3 over the s0/s1/s2 consistent-hash
    ring), so the measured ratio is the thing multi-node deployment buys —
    concurrent execution slots: the single one-worker instance drains the
    distinct set serially while the router holds three jobs in flight, one
    per shard.  Fixed durations make the ratio deterministic and
    host-independent (a one-core CI runner measures the same scale-out as a
    32-core box); the gate trips if routing stops spreading the keys or the
    router/transport overhead grows into the job budget.  Duplicates stay
    near-free on both sides (per-shard coalescing — fleet-wide through the
    ring).  After each timed run, real ``optimize`` jobs (design-pure per
    shard, so every worker loads one design) are routed through the same
    servers and every payload is asserted byte-identical to the direct
    ``Engine`` run.  Stores are disabled so neither side warms the other.
    """
    from repro.service import (
        HttpServiceClient,
        JobSpec,
        Router,
        RouterServer,
        ServiceServer,
        SynthesisService,
        canonical_payload_bytes,
        execute_spec,
    )
    from repro.service.loadgen import run_load, zipf_specs

    catalog = [
        {
            "kind": "selftest",
            "options": {
                "action": "hang",
                "seconds": config["scaleout_hang_seconds"],
                "payload": payload,
            },
        }
        for payload in config["scaleout_payloads"]
    ]
    specs = zipf_specs(config["scaleout_requests"], catalog, skew=1.1, seed=7)
    identity_specs = [
        JobSpec.from_dict(
            {"kind": "optimize", "design": design, "options": {"script": script}}
        )
        for design, script in config["scaleout_jobs"]
    ]
    direct = {
        spec.job_id(): canonical_payload_bytes(execute_spec(spec))
        for spec in identity_specs
    }
    # Prewarming runs an *optimize* job: the first one in a fresh worker
    # process pays the heavy imports and pass-library construction.  An
    # off-catalog design keeps the warm job distinct from the measured set.
    warm_spec = {"kind": "optimize", "design": "b07", "options": {"script": "rw; rf; rs; b"}}

    def make_service() -> SynthesisService:
        return SynthesisService(
            num_workers=1, max_depth=len(specs) + 8, mode="process", store=None
        )

    def prewarm(url: str) -> None:
        with HttpServiceClient(url) as client:
            client.result(client.submit(warm_spec)["job_id"], timeout=120.0)

    def served_identical(url: str) -> bool:
        # Untimed: routed Engine runs must be byte-identical to direct ones.
        with HttpServiceClient(url) as client:
            return all(
                canonical_payload_bytes(
                    client.result(client.submit(spec)["job_id"], timeout=600.0)
                )
                == direct[spec.job_id()]
                for spec in identity_specs
            )

    with ServiceServer(make_service()) as single:
        prewarm(single.url)
        single_report = run_load(single.url, specs, concurrency=16)
        single_ok = served_identical(single.url) and single_report["failed"] == 0

    shards = [ServiceServer(make_service()) for _ in range(3)]
    for shard in shards:
        shard.start()
    try:
        router = Router({f"s{index}": shard.url for index, shard in enumerate(shards)})
        router.start()
        with RouterServer(router) as front:
            for shard in shards:
                prewarm(shard.url)
            fleet_report = run_load(front.url, specs, concurrency=16)
            fleet_ok = served_identical(front.url) and fleet_report["failed"] == 0
            shard_jobs = {
                name: view["jobs_routed"] for name, view in router.shards_view().items()
            }
    finally:
        for shard in shards:
            shard.stop()

    reference_s = single_report["duration_seconds"]
    scaleout_s = fleet_report["duration_seconds"]
    return {
        "requests": len(specs),
        "distinct_jobs": len(catalog),
        "shards": len(shards),
        "shard_jobs": shard_jobs,
        "single_rps": single_report["throughput_rps"],
        "fleet_rps": fleet_report["throughput_rps"],
        "single_p99_s": single_report["latency_p99"],
        "fleet_p99_s": fleet_report["latency_p99"],
        "reference_s": reference_s,
        "vectorized_s": scaleout_s,
        **_clamped_speedup("service_scaleout", reference_s, scaleout_s),
        "identical": single_ok and fleet_ok,
    }


class _NullSeries:
    """A metrics stub absorbing ``labels``/``inc``/``observe`` for free."""

    def labels(self, **labels):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


def bench_obs_overhead(config: Dict, repeats: int) -> Dict:
    """Disabled-observability drag on the batched pass pipeline (gate: <=2%).

    Runs the standard pass script through :class:`~repro.engine.pipeline.
    Pipeline` — the surface carrying the tracing/metrics seams — twice per
    round on fresh copies of the same design: once as shipped (tracer
    disabled, the production default) and once with the always-on metric
    seams nulled out (the pass-runtime histogram swapped for a no-op stub),
    approximating the pre-instrumentation pipeline.  Rounds are interleaved
    and each side keeps its minimum, so clock drift hits both sides equally.
    The tracked ``speedup`` is nulled-over-instrumented time: ~1.0 when the
    disabled path costs one attribute check, below the 0.98 absolute gate
    floor when instrumentation starts leaking onto the hot path.
    """
    import repro.engine.pipeline as pipeline_module

    from repro.engine.pipeline import Pipeline
    from repro.obs.trace import TRACER

    original = load_benchmark(config["obs_design"])
    script = "rw; rf; rs; b"
    pipeline = Pipeline.parse(script)
    null_series = _NullSeries()

    def run_pipeline() -> None:
        aig = original.copy()
        with use_backend("native"):
            pipeline.run(aig)

    def run_nulled() -> None:
        saved = pipeline_module._PASS_RUNTIME
        pipeline_module._PASS_RUNTIME = null_series
        try:
            run_pipeline()
        finally:
            pipeline_module._PASS_RUNTIME = saved

    # Warm fragment/NPN libraries and kernel caches for both sides.
    run_pipeline()
    run_nulled()
    tracer_stayed_disabled = not TRACER.enabled
    rounds = max(config["obs_rounds"], repeats)
    instrumented_s = float("inf")
    nulled_s = float("inf")
    for _ in range(rounds):
        nulled_s = min(nulled_s, _best_of(run_nulled, 1))
        instrumented_s = min(instrumented_s, _best_of(run_pipeline, 1))
        tracer_stayed_disabled = tracer_stayed_disabled and not TRACER.enabled
    return {
        "design": config["obs_design"],
        "script": script,
        "rounds": rounds,
        "reference_s": nulled_s,
        "vectorized_s": instrumented_s,
        **_clamped_speedup("obs_overhead", nulled_s, instrumented_s),
        "overhead_fraction": (instrumented_s - nulled_s) / nulled_s if nulled_s else 0.0,
        "identical": tracer_stayed_disabled,
    }


def bench_engine_sample(config: Dict) -> Dict:
    engine = Engine.load(config["sample_design"])
    vectors = PriorityGuidedSampler(engine.aig, seed=0).generate(config["num_samples"])
    start = time.perf_counter()
    records = SerialEvaluator().evaluate(engine.aig, vectors)
    elapsed = time.perf_counter() - start
    return {
        "design": config["sample_design"],
        "num_samples": len(records),
        "seconds": elapsed,
        "samples_per_s": len(records) / elapsed if elapsed else float("inf"),
    }


def suite_kernels(config: Dict, repeats: int) -> Dict[str, Callable[[], Dict]]:
    """Name → zero-argument measurement for every kernel in the suite."""
    aig = _build_network(config)
    return {
        "simulate": lambda: bench_simulate(aig, config, repeats),
        "cut_enumeration": lambda: bench_cut_enumeration(aig, config, repeats),
        "truth_tables": lambda: bench_truth_tables(aig, config, repeats),
        "exhaustive_patterns": lambda: bench_exhaustive_patterns(config, repeats),
        "pass_sweep": lambda: bench_pass_sweep(config, repeats),
        "train_epoch": lambda: bench_train_epoch(config, repeats),
        "flow_end_to_end": lambda: bench_flow_end_to_end(config),
        "service_throughput": lambda: bench_service_throughput(config),
        "service_scaleout": lambda: bench_service_scaleout(config),
        "obs_overhead": lambda: bench_obs_overhead(config, repeats),
        "engine_sample": lambda: bench_engine_sample(config),
    }


def _median_result(runs: List[Dict]) -> Dict:
    """The run whose gated ratio is the median of ``runs`` (upper for even N).

    Medianing the *run* rather than each scalar keeps every reported field
    (wall times, per-design numbers) from one coherent measurement.  The
    individual ratios are retained as ``speedup_runs`` for inspection, and
    an identity failure in *any* run fails the reported one — repetition
    must never mask a correctness problem.
    """
    if len(runs) == 1:
        return runs[0]
    ordered = sorted(runs, key=lambda run: run.get("speedup", run.get("seconds", 0.0)))
    chosen = dict(ordered[len(ordered) // 2])
    if "speedup" in chosen:
        chosen["speedup_runs"] = [round(run["speedup"], 4) for run in runs]
    if any(run.get("identical") is False for run in runs):
        chosen["identical"] = False
    return chosen


def run_suite(
    config: Dict,
    repeats: int = 3,
    kernels: Optional[List[str]] = None,
    repeat: int = 1,
) -> Dict:
    """Measure the suite; ``kernels`` restricts it to a subset by name.

    ``repeats`` is the best-of count *inside* one measurement (timer-noise
    suppression); ``repeat`` re-runs each whole measurement that many times
    and reports the median run (machine-noise suppression for the CI gate).
    """
    measurements = suite_kernels(config, repeats)
    if kernels is None:
        selected = list(measurements)
    else:
        unknown = sorted(set(kernels) - set(measurements) - {"train_fit"})
        if unknown:
            raise ValueError(
                f"unknown kernels {unknown}; choose from: "
                f"{', '.join(sorted(measurements))}, train_fit"
            )
        # train_fit is derived from the train_epoch measurement below.
        selected = [
            name
            for name in measurements
            if name in kernels or (name == "train_epoch" and "train_fit" in kernels)
        ]
    results = {
        name: _median_result([measurements[name]() for _ in range(max(1, repeat))])
        for name in selected
    }
    # Full-run training promoted to its own gated kernel: Trainer.train on
    # the reference backend vs Trainer.fit on the accelerated one, measured
    # inside bench_train_epoch (one training workload, two tracked ratios).
    if "train_epoch" in results:
        train = results["train_epoch"]
        results["train_fit"] = {
            "design": train["design"],
            "epochs": train["epochs"],
            "backends": dict(train["backends"]),
            "reference_s": train["train_s"],
            "vectorized_s": train["fit_s"],
            **_clamped_speedup("train_fit", train["train_s"], train["fit_s"]),
            "identical": train["identical"],
        }
    return {
        "schema": "bench_hot_paths/v1",
        "python": platform.python_version(),
        "backend": get_backend().name,
        "repeat": max(1, repeat),
        "config": dict(config),
        "results": results,
    }


# --------------------------------------------------------------------------- #
# Baseline comparison (the CI perf-regression gate)
# --------------------------------------------------------------------------- #
def baseline_path() -> str:
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_hot_paths.json",
    )


def load_baseline(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def compare_to_baseline(report: Dict, baseline_section: Dict) -> list:
    """Return the regressions of ``report`` versus a committed baseline section.

    A *regression* is a gated kernel whose relative speedup dropped more
    than :data:`GATE_TOLERANCE` below the baseline's value.  The speedup of
    a kernel is the ratio of its in-run reference time over its optimized
    time — measured on the same machine within one process — so the gate is
    robust against absolute runner-speed differences.
    """
    regressions = []
    baseline_results = baseline_section.get("results", {})
    for kernel in GATED_KERNELS:
        current = report["results"].get(kernel, {}).get("speedup")
        reference = baseline_results.get(kernel, {}).get("speedup")
        if current is None or reference is None:
            continue
        floor = reference * (1.0 - GATE_TOLERANCE)
        # Ratio-near-one kernels (obs_overhead) carry an absolute floor: the
        # relative tolerance alone would wave through large regressions.
        floor = max(floor, GATE_MIN_SPEEDUP.get(kernel, 0.0))
        if current < floor:
            regressions.append(
                f"{kernel}: speedup {current:.2f}x fell below "
                f"{floor:.2f}x (baseline {reference:.2f}x - {GATE_TOLERANCE:.0%})"
            )
    return regressions


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points (small scale, identity asserted)
# --------------------------------------------------------------------------- #
def test_bench_simulate_vectorized(benchmark):
    aig = _build_network(SMOKE)
    patterns = random_patterns(aig.num_pis(), SMOKE["num_patterns"], seed=7)
    values = run_once(benchmark, simulate, aig, patterns)
    reference = simulate_reference(aig, patterns)
    assert all(values[node].tobytes() == sig.tobytes() for node, sig in reference.items())


def test_bench_cut_enumeration_bitset(benchmark):
    aig = _build_network(SMOKE)
    enumerator = CutEnumerator(k=4, cuts_per_node=8)
    cuts = run_once(benchmark, enumerator.enumerate, aig)
    assert cuts == enumerator.enumerate_reference(aig)


def test_bench_engine_sample_smoke(benchmark):
    result = run_once(benchmark, bench_engine_sample, SMOKE)
    assert result["num_samples"] == SMOKE["num_samples"]


def test_bench_pass_sweep_smoke(benchmark):
    result = run_once(benchmark, bench_pass_sweep, SMOKE, 1)
    assert result["identical"], "sweep result must stay equivalent and size-monotone"
    assert set(result["designs"]) == set(SMOKE["sweep_designs"])


def test_bench_train_epoch_smoke(benchmark):
    result = run_once(benchmark, bench_train_epoch, SMOKE, 1)
    assert result["identical"], "fit must reproduce train's losses byte-identically"
    assert result["speedup"] > 1.0


def test_bench_flow_end_to_end_smoke(benchmark):
    result = run_once(benchmark, bench_flow_end_to_end, SMOKE)
    assert result["identical"], "warm flow run must reproduce the cold result"


def test_bench_service_throughput_smoke(benchmark):
    result = run_once(benchmark, bench_service_throughput, SMOKE)
    assert result["identical"], "served payloads must match direct Engine runs"
    assert result["executions"] == result["distinct_jobs"], "duplicates must coalesce"
    assert result["speedup"] > 1.0


def test_bench_service_scaleout_smoke(benchmark):
    result = run_once(benchmark, bench_service_scaleout, SMOKE)
    assert result["identical"], "router-served payloads must match direct Engine runs"
    assert all(count > 0 for count in result["shard_jobs"].values()), (
        "the ring must spread the distinct jobs over every shard"
    )
    assert result["speedup"] > 1.0


def test_bench_obs_overhead_smoke(benchmark):
    result = run_once(benchmark, bench_obs_overhead, SMOKE, 1)
    assert result["identical"], "the tracer must stay disabled throughout"
    # Loose in-test bound; the CI perf gate enforces the real 0.98 floor.
    assert result["speedup"] >= 0.9


# --------------------------------------------------------------------------- #
# Stand-alone driver
# --------------------------------------------------------------------------- #
def _print_report(report: Dict) -> list:
    print(f"{'kernel':<24}{'reference':>12}{'vectorized':>12}{'speedup':>10}{'identical':>11}")
    failures = []
    for name, result in report["results"].items():
        if "speedup" not in result:
            print(f"{name:<24}{'-':>12}{result['seconds']:>11.3f}s{'-':>10}{'-':>11}")
            continue
        ref = result.get("reference_s", result.get("table_var_bitloop_s", 0.0))
        vec = result.get("vectorized_s", result.get("table_var_doubling_s", 0.0))
        print(
            f"{name:<24}{ref:>11.4f}s{vec:>11.4f}s{result['speedup']:>9.1f}x"
            f"{str(result['identical']):>11}"
        )
        if not result["identical"]:
            failures.append(name)
    return failures


#: ``--profile`` targets: each kernel name maps to a zero-argument callable
#: running that kernel's measurement once on the smoke configuration.
def _profile_targets() -> Dict[str, Callable[[], object]]:
    aig = _build_network(SMOKE)
    return {
        "simulate": lambda: bench_simulate(aig, SMOKE, 1),
        "cut_enumeration": lambda: bench_cut_enumeration(aig, SMOKE, 1),
        "truth_tables": lambda: bench_truth_tables(aig, SMOKE, 1),
        "exhaustive_patterns": lambda: bench_exhaustive_patterns(SMOKE, 1),
        "pass_sweep": lambda: bench_pass_sweep(SMOKE, 1),
        "train_epoch": lambda: bench_train_epoch(SMOKE, 1),
        "flow_end_to_end": lambda: bench_flow_end_to_end(SMOKE),
        "service_throughput": lambda: bench_service_throughput(SMOKE),
        "service_scaleout": lambda: bench_service_scaleout(SMOKE),
        "obs_overhead": lambda: bench_obs_overhead(SMOKE, 1),
        "engine_sample": lambda: bench_engine_sample(SMOKE),
    }


def _profile_kernel(name: str) -> int:
    """cProfile one kernel's smoke measurement; print top-20 by cumulative time."""
    import cProfile
    import pstats

    targets = _profile_targets()
    target = targets.get(name)
    if target is None:
        print(
            f"unknown kernel {name!r}; choose from: {', '.join(sorted(targets))}",
            file=sys.stderr,
        )
        return 2
    target()  # warm caches/libraries so the profile shows steady-state cost
    profiler = cProfile.Profile()
    profiler.enable()
    target()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(20)
    return 0


#: Backends compared side by side by ``--breakdown`` (sweep strategy).
_BREAKDOWN_BACKENDS = ("reference", "accelerated", "native")


def _breakdown(config: Dict) -> int:
    """Time the sweep script under every backend; print the native op table.

    Each design runs the standard pass script pinned to each registered
    backend in turn (best of three on fresh copies, caches warmed), so a
    per-backend regression is visible without re-deriving it from ratio
    changes.  The op table then shows which compiled engine (numba / cc)
    serves each native op — or the fallback reason when the backend
    degraded.
    """
    from repro.backend import create_backend

    times: Dict[str, Dict[str, float]] = {name: {} for name in _BREAKDOWN_BACKENDS}
    for design in config["sweep_designs"]:
        original = load_benchmark(design)
        for backend_name in _BREAKDOWN_BACKENDS:
            with use_backend(backend_name):
                warm = original.copy()
                _run_pass_script(warm, "sweep")
                best = float("inf")
                for _ in range(3):
                    aig = original.copy()
                    best = min(
                        best, _best_of(lambda a=aig: _run_pass_script(a, "sweep"), 1)
                    )
            times[backend_name][design] = best
    print(f"{'design':<10}" + "".join(f"{name + ' (s)':>20}" for name in _BREAKDOWN_BACKENDS))
    for design in config["sweep_designs"]:
        print(
            f"{design:<10}"
            + "".join(f"{times[name][design]:>20.4f}" for name in _BREAKDOWN_BACKENDS)
        )
    totals = {name: sum(times[name].values()) for name in _BREAKDOWN_BACKENDS}
    print(f"{'total':<10}" + "".join(f"{totals[name]:>20.4f}" for name in _BREAKDOWN_BACKENDS))
    native = create_backend("native")
    print(f"\nnative engine: {native.engine_name() or 'none (degraded)'}")
    print(f"{'op':<24}implementation")
    for op, label in sorted(native.op_support().items()):
        print(f"{op:<24}{label}")
    return 0


def main(argv) -> int:
    if "--profile" in argv:
        index = argv.index("--profile")
        if index + 1 >= len(argv):
            print("--profile requires a kernel name", file=sys.stderr)
            return 2
        return _profile_kernel(argv[index + 1])
    if "--breakdown" in argv:
        return _breakdown(SMOKE if "--smoke" in argv else FULL)
    repeat = 1
    if "--repeat" in argv:
        index = argv.index("--repeat")
        if index + 1 >= len(argv):
            print("--repeat requires a count", file=sys.stderr)
            return 2
        repeat = max(1, int(argv[index + 1]))
    smoke = "--smoke" in argv
    update_baseline = "--update-baseline" in argv or not smoke
    out_path = None
    if "--out" in argv:
        out_path = argv[argv.index("--out") + 1]
    kernels = None
    if "--kernels" in argv:
        index = argv.index("--kernels")
        if index + 1 >= len(argv):
            print("--kernels requires a comma-separated kernel list", file=sys.stderr)
            return 2
        kernels = [name.strip() for name in argv[index + 1].split(",") if name.strip()]
        if update_baseline and not smoke:
            print(
                "--kernels measures a subset; refusing to write a partial baseline "
                "(drop --kernels to refresh BENCH_hot_paths.json)",
                file=sys.stderr,
            )
            return 2

    failures = []
    if smoke:
        report = run_suite(SMOKE, repeats=2, kernels=kernels, repeat=repeat)
        failures = _print_report(report)
        if out_path:
            with open(out_path, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"\nwrote {out_path}")
        # The perf-regression gate: compare against the committed baseline.
        path = baseline_path()
        if os.path.exists(path):
            baseline = load_baseline(path)
            section = baseline.get("smoke") if baseline.get("schema", "").endswith("v2") else None
            if section is None:
                print("\nbaseline has no smoke section (pre-v2); gate skipped")
            else:
                regressions = compare_to_baseline(report, section)
                if regressions:
                    print("\nPERF REGRESSIONS (>25% below committed baseline):", file=sys.stderr)
                    for line in regressions:
                        print(f"  {line}", file=sys.stderr)
                    print(
                        "If the slowdown is intentional, refresh the baseline with\n"
                        "  PYTHONPATH=src python benchmarks/bench_hot_paths.py --update-baseline\n"
                        "and commit BENCH_hot_paths.json.",
                        file=sys.stderr,
                    )
                    failures.append("perf-gate")
                else:
                    print("\nperf gate: OK (all gated kernels within 25% of baseline)")
        else:
            print(f"\nno baseline at {path}; gate skipped")
    elif update_baseline:
        print("== smoke configuration ==")
        smoke_report = run_suite(SMOKE, repeats=2, repeat=repeat)
        failures += _print_report(smoke_report)
        print("\n== full configuration ==")
        full_report = run_suite(FULL, repeats=3, repeat=repeat)
        failures += _print_report(full_report)
        payload = {
            "schema": "bench_hot_paths/v2",
            "python": platform.python_version(),
            "smoke": smoke_report,
            "full": full_report,
        }
        path = out_path or baseline_path()
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {path}")

    if failures:
        print(f"FAILURES: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
