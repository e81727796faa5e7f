"""The shared first-sweep candidate table and the memoized analysis.

``orchestrate(..., in_place=False)`` scores the first sweep of every sample
through one ``{(node, op): candidate}`` table per unchanged source network,
and ``analyze_network`` is cached per network.  Neither may change a single
record: every batch here is compared, by ``record_signature``, against
per-vector runs on a freshly unpickled source, whose table starts cold, and
against runs that score without any table.
"""

from __future__ import annotations

import gc
import importlib
import pickle
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.kernels import cached_topological_order
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.backend import use_backend
from repro.circuits.benchmarks import load_benchmark
from repro.engine.evaluator import ProcessPoolEvaluator, record_signature
from repro.orchestration.orchestrate import copy_candidate_table, orchestrate
from repro.orchestration.sampling import (
    PriorityGuidedSampler,
    RandomSampler,
    SampleRecord,
    evaluate_samples,
)
from repro.orchestration.transformability import (
    OperationParams,
    analyze_network,
    analyze_node,
)
from repro.synth import sweep
from repro.synth.resub import ResubParams
from repro.synth.rewrite import RewriteParams


def _vectors(aig, guided: int = 3, random: int = 2):
    """The priority-guided base sample, mutated samples and random vectors."""
    return PriorityGuidedSampler(aig, seed=0).generate(guided) + RandomSampler(
        aig, seed=1
    ).generate(random)


def _cold_signatures(aig, vectors, params=None):
    """Per-vector runs, each on a freshly unpickled source (cold table)."""
    payload = pickle.dumps(aig)
    signatures = []
    for decisions in vectors:
        source = pickle.loads(payload)
        result = orchestrate(source, decisions, params=params, in_place=False)
        signatures.append(record_signature(SampleRecord(decisions, result)))
    return signatures


def _untabled_signatures(aig, vectors, params=None):
    """Per-vector runs that score every sweep with the finders alone."""
    module = importlib.import_module("repro.orchestration.orchestrate")
    with mock.patch.object(module, "copy_candidate_table", lambda aig, params=None: None):
        return _cold_signatures(aig, vectors, params=params)


def _signatures(records):
    return [record_signature(record) for record in records]


def _per_node_analysis(aig, params=None):
    return {node: analyze_node(aig, node, params) for node in cached_topological_order(aig)}


@pytest.mark.parametrize("design", ["b07", "b08", "b09", "b10", "b11", "b12", "c880"])
@pytest.mark.parametrize(
    "params", [None, OperationParams(resub=ResubParams(max_resub_nodes=0))], ids=["default", "N0"]
)
def test_analysis_equals_per_node_finders(design, params):
    # The analysis scores every node with the batched scorers at once.
    aig = load_benchmark(design).copy()
    assert analyze_network(aig, params) == _per_node_analysis(aig, params)


@pytest.mark.parametrize("design", ["b08", "c880"])
def test_batch_records_equal_cold_per_vector_runs(design):
    aig = load_benchmark(design).copy()
    vectors = _vectors(aig)
    records = evaluate_samples(aig, vectors)
    assert _signatures(records) == _cold_signatures(aig, vectors)
    assert _signatures(records) == _untabled_signatures(aig, vectors)
    assert copy_candidate_table(aig)  # the batch filled the shared table


@settings(max_examples=8, deadline=None)
@given(
    st.builds(
        RandomAigSpec,
        num_pis=st.integers(min_value=4, max_value=8),
        num_pos=st.integers(min_value=1, max_value=4),
        num_ands=st.integers(min_value=10, max_value=70),
        redundancy=st.floats(min_value=0.0, max_value=0.8),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.booleans(),
)
def test_random_aig_batches_equal_cold_runs(spec, mutated_history):
    aig = random_aig(spec)
    if mutated_history:
        # A source with construction history: its own fanout order differs
        # from any fresh build, its copies' does not.
        orchestrate(aig, PriorityGuidedSampler(aig, seed=2).base_sample())
    vectors = _vectors(aig, guided=2, random=2)
    records = evaluate_samples(aig, vectors)
    assert _signatures(records) == _cold_signatures(aig, vectors)
    assert _signatures(records) == _untabled_signatures(aig, vectors)


def test_repeated_vector_yields_identical_records():
    aig = load_benchmark("b08").copy()
    first, second = _vectors(aig, guided=2, random=0)
    records = evaluate_samples(aig, [first, second, first])
    signatures = _signatures(records)
    assert signatures[0] == signatures[2]
    assert signatures == _cold_signatures(aig, [first, second, first])


def test_warm_table_skips_first_sweep_finders(monkeypatch):
    """Lookups replace finder calls; misses still go through the module globals.

    Run on the reference backend, which scores every operation with its
    finder (the native backend's compiled scorers call none; the warm table
    skips their roots too, see ``tests/backend/test_window_scan.py``).
    """
    calls = []
    for name in ("find_rewrite_candidate", "find_resub_candidate", "find_refactor_candidate"):
        finder = getattr(sweep, name)
        monkeypatch.setattr(
            sweep, name, lambda *args, _f=finder, **kw: calls.append(1) or _f(*args, **kw)
        )
    aig = load_benchmark("b08").copy()
    decisions = RandomSampler(aig, seed=5).generate(1)[0]
    with use_backend("reference"):
        cold = orchestrate(aig, decisions, in_place=False)
        cold_calls = len(calls)
        warm = orchestrate(aig, decisions, in_place=False)
    assert cold_calls > 0
    assert len(calls) - cold_calls < cold_calls
    assert record_signature(SampleRecord(decisions, warm)) == record_signature(
        SampleRecord(decisions, cold)
    )


def test_table_and_analysis_rebuilt_after_source_mutation():
    aig = load_benchmark("b08").copy()
    vectors = _vectors(aig, guided=2, random=1)
    evaluate_samples(aig, vectors)
    table = copy_candidate_table(aig)
    analysis = analyze_network(aig)
    assert table and analysis is analyze_network(aig)

    orchestrate(aig, vectors[0])  # in place: the source changes structurally
    assert copy_candidate_table(aig) is not table
    assert analyze_network(aig) is not analysis
    assert analyze_network(aig) == _per_node_analysis(aig)
    vectors = _vectors(aig, guided=2, random=1)
    records = evaluate_samples(aig, vectors)
    assert _signatures(records) == _cold_signatures(aig, vectors)


@pytest.mark.parametrize(
    "params",
    [
        OperationParams(resub=ResubParams(max_resub_nodes=0)),
        OperationParams(rewrite=RewriteParams(use_zero_cost=True)),
    ],
)
def test_table_and_analysis_rebuilt_under_other_params(params):
    aig = load_benchmark("b08").copy()
    vectors = _vectors(aig, guided=2, random=1)
    evaluate_samples(aig, vectors)
    table = copy_candidate_table(aig)
    analysis = analyze_network(aig)

    records = evaluate_samples(aig, vectors, params=params)
    assert copy_candidate_table(aig, params) is not table
    assert analyze_network(aig, params) is not analysis
    assert _signatures(records) == _cold_signatures(aig, vectors, params=params)


def test_table_does_not_keep_copies_alive():
    aig = load_benchmark("b08").copy()
    result = orchestrate(aig, _vectors(aig, guided=1, random=0)[0], in_place=False)
    copy = weakref.ref(result.optimized)
    del result
    gc.collect()
    assert copy() is None
    assert copy_candidate_table(aig)


def test_process_pool_equals_serial():
    aig = load_benchmark("b08").copy()
    vectors = _vectors(aig, guided=3, random=2)
    serial = evaluate_samples(aig, vectors)
    pooled = ProcessPoolEvaluator(max_workers=2, min_parallel=2).evaluate(aig, vectors)
    assert _signatures(pooled) == _signatures(serial)
