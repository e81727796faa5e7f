"""Byte-identity of the optimized backend against the reference.

The backend contract is *bit-exact equality*, not approximate agreement:
every op of :class:`~repro.backend.native.NativeBackend` must produce the
same bytes as :class:`~repro.backend.reference.ReferenceBackend` for the
same inputs.  These tests drive the ops through their real callers —
simulation, cut enumeration, the sweep-and-commit passes, resubstitution and
GNN training — on hypothesis-generated networks.  The native backend
degrades per op to the reference when no compiled engine is available, so
the suite is meaningful (if less sharp) even on installs without a C
compiler.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.cuts import CutEnumerator
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.aig.simulate import random_patterns, simulate_matrix
from repro.backend import use_backend

#: Every optimized backend is held to the same byte-identity bar.
OPTIMIZED_BACKENDS = ("native",)
parametrize_backend = pytest.mark.parametrize("backend_name", OPTIMIZED_BACKENDS)
from repro.synth.scripts import refactor_pass, resub_pass, rewrite_pass

aig_specs = st.builds(
    RandomAigSpec,
    num_pis=st.integers(min_value=3, max_value=8),
    num_pos=st.integers(min_value=1, max_value=3),
    num_ands=st.integers(min_value=8, max_value=80),
    redundancy=st.floats(min_value=0.0, max_value=0.8),
    xor_fraction=st.floats(min_value=0.0, max_value=0.3),
    mux_fraction=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _fingerprint(aig):
    """Canonical bytes of an AIG's structure (nodes, fanins, POs)."""
    return (
        aig.num_pis(),
        aig.num_pos(),
        tuple(
            sorted(
                (node, aig._fanin0[node], aig._fanin1[node])
                for node in aig.nodes()
                if aig.is_and(node)
            )
        ),
        tuple(aig.pos()),
    )


# --------------------------------------------------------------------------- #
# Simulation and cut enumeration
# --------------------------------------------------------------------------- #
@parametrize_backend
@settings(max_examples=20, deadline=None)
@given(spec=aig_specs, words=st.integers(min_value=1, max_value=4))
def test_simulation_matrix_byte_identical(backend_name, spec, words):
    aig = random_aig(spec)
    patterns = random_patterns(aig.num_pis(), words * 64, seed=spec.seed)
    with use_backend("reference"):
        reference = simulate_matrix(aig, patterns)
    with use_backend(backend_name):
        optimized = simulate_matrix(aig, patterns)
    assert reference.tobytes() == optimized.tobytes()


@parametrize_backend
@settings(max_examples=15, deadline=None)
@given(spec=aig_specs, k=st.integers(min_value=2, max_value=5))
def test_cut_enumeration_identical_cuts_and_order(backend_name, spec, k):
    aig = random_aig(spec)
    enumerator = CutEnumerator(k=k, cuts_per_node=8)
    with use_backend("reference"):
        reference = enumerator.enumerate(aig)
    with use_backend(backend_name):
        optimized = enumerator.enumerate(aig)
    # Same nodes, same cuts, same priority order (the native backend's
    # whole-snapshot kernel replays the exact insertion semantics).
    assert reference == optimized
    assert reference == enumerator.enumerate_reference(aig)


# --------------------------------------------------------------------------- #
# Sweep passes end to end
# --------------------------------------------------------------------------- #
@parametrize_backend
@pytest.mark.parametrize("pass_fn", [rewrite_pass, refactor_pass, resub_pass])
@settings(max_examples=8, deadline=None)
@given(spec=aig_specs)
def test_sweep_pass_identical_across_backends(backend_name, pass_fn, spec):
    original = random_aig(spec)
    with use_backend("reference"):
        ref_aig = original.copy()
        ref_stats = pass_fn(ref_aig, strategy="sweep")
    with use_backend(backend_name):
        opt_aig = original.copy()
        opt_stats = pass_fn(opt_aig, strategy="sweep")
    assert _fingerprint(ref_aig) == _fingerprint(opt_aig)
    assert ref_stats.size_after == opt_stats.size_after
    assert ref_stats.applied == opt_stats.applied


@settings(max_examples=6, deadline=None)
@given(spec=aig_specs)
def test_sweep_report_and_journal_identical(spec):
    from repro.synth.sweep import sweep_rewrites

    original = random_aig(spec)
    reports = {}
    for name in ("reference",) + OPTIMIZED_BACKENDS:
        aig = original.copy()
        with use_backend(name):
            report = sweep_rewrites(aig)
        reports[name] = (
            _fingerprint(aig),
            report.sweeps,
            report.applied,
            report.conflicts,
            [(c.node, c.operation, c.gain, c.leaves) for c in report.committed],
        )
    for name in OPTIMIZED_BACKENDS:
        assert reports["reference"] == reports[name]


# --------------------------------------------------------------------------- #
# Sampled orchestration (the only caller of the small-target rewrite scoring)
# --------------------------------------------------------------------------- #
def _sample_signatures(aig, backend_name):
    """Record signatures plus optimized AIGER of guided and random samples.

    Each backend samples its own unpickled copy, so no candidate table or
    analysis memo computed under one backend serves the other.
    """
    import pickle

    from repro.engine.evaluator import record_signature
    from repro.io.aiger import aiger_ascii
    from repro.orchestration.sampling import (
        PriorityGuidedSampler,
        RandomSampler,
        evaluate_samples,
    )

    source = pickle.loads(pickle.dumps(aig))
    vectors = PriorityGuidedSampler(source, seed=0).generate(3) + RandomSampler(
        source, seed=1
    ).generate(2)
    with use_backend(backend_name):
        records = evaluate_samples(source, vectors)
    return [
        (record_signature(record), aiger_ascii(record.result.optimized))
        for record in records
    ]


@parametrize_backend
@pytest.mark.parametrize("design", ["b08", "b10"])
def test_sampled_orchestration_identical_across_backends(backend_name, design):
    from repro.circuits.benchmarks import load_benchmark

    aig = load_benchmark(design)
    assert _sample_signatures(aig, backend_name) == _sample_signatures(aig, "reference")


@parametrize_backend
@settings(max_examples=5, deadline=None)
@given(spec=aig_specs)
def test_sampled_orchestration_identical_on_random_aigs(backend_name, spec):
    aig = random_aig(spec)
    assert _sample_signatures(aig, backend_name) == _sample_signatures(aig, "reference")


# --------------------------------------------------------------------------- #
# GNN training
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def training_samples():
    from repro.features.dataset import build_dataset
    from repro.orchestration.sampling import PriorityGuidedSampler, evaluate_samples
    from repro.circuits.generators import paper_example_aig

    aig = paper_example_aig()
    sampler = PriorityGuidedSampler(aig, seed=1)
    records = evaluate_samples(aig, sampler.generate(12))
    return build_dataset(aig, records).samples


def _train(samples, backend, method, batch_size=32, num_test=0):
    from repro.nn.model import ModelConfig
    from repro.nn.trainer import Trainer, TrainingConfig

    config = TrainingConfig.fast(epochs=6, seed=3)
    config.batch_size = batch_size
    trainer = Trainer(
        config=config,
        model_config=ModelConfig(
            input_dim=12, conv_hidden_dim=8, conv_output_dim=6, dense_dims=(12, 4, 1), seed=3
        ),
        backend=backend,
    )
    split = len(samples) - num_test
    history = getattr(trainer, method)(samples[:split], samples[split:])
    weights = b"".join(p.value.tobytes() for p in trainer.model.parameters())
    predictions = trainer.predict(samples)
    return history, weights, predictions


def _assert_same_training(reference, other):
    ref_history, ref_weights, ref_pred = reference
    history, weights, pred = other
    assert ref_history.train_loss == history.train_loss
    assert ref_history.test_loss == history.test_loss
    assert ref_weights == weights
    assert ref_pred.tobytes() == pred.tobytes()


@parametrize_backend
@pytest.mark.parametrize("method", ["train", "fit"])
def test_training_byte_identical_across_backends(training_samples, backend_name, method):
    _assert_same_training(
        _train(training_samples, "reference", method),
        _train(training_samples, backend_name, method),
    )


@parametrize_backend
@pytest.mark.parametrize("method", ["train", "fit"])
def test_multi_batch_training_with_test_set_byte_identical(
    training_samples, backend_name, method
):
    # 9 training samples in batches of 5 and 4, then the eval forward on 3
    # test samples: three row counts per epoch through the same scratch
    # buffers, and predict() adds a fourth (a chunk of 2).
    reference = _train(training_samples, "reference", method, batch_size=5, num_test=3)
    assert len(reference[0].test_loss) == len(reference[0].train_loss) == 6
    _assert_same_training(
        reference, _train(training_samples, backend_name, method, batch_size=5, num_test=3)
    )


def test_adam_and_layers_identical_on_random_batches(training_samples):
    # One more angle on the nn ops: identical losses per step imply the
    # fused forward/backward/step pipeline never diverges mid-epoch.
    ref_history, _, _ = _train(training_samples, "reference", "train")
    native_history, _, _ = _train(training_samples, "native", "train")
    assert len(ref_history.train_loss) == len(native_history.train_loss)
    assert all(
        np.float64(a) == np.float64(b)
        for a, b in zip(ref_history.train_loss, native_history.train_loss)
    )
