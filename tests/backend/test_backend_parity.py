"""Byte-identity of the optimized backend against the reference.

The backend contract is *bit-exact equality*, not approximate agreement:
every op of :class:`~repro.backend.native.NativeBackend` must produce the
same bytes as :class:`~repro.backend.reference.ReferenceBackend` for the
same inputs.  These tests drive the ops through their real callers —
simulation, cut enumeration, the sweep-and-commit passes, resubstitution and
GNN training — on hypothesis-generated networks, and additionally hit the
size regimes (small/large divisor sets) that select different internal code
paths inside the ops.  The native backend degrades per op to the reference
when no compiled engine is available, so the suite is meaningful (if less
sharp) even on installs without a C compiler.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.cuts import CutEnumerator
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.aig.simulate import random_patterns, simulate_matrix
from repro.aig.truth import cut_truth_table, table_mask
from repro.backend import create_backend, use_backend
from repro.backend.native import _NATIVE_RESUB_MIN
from repro.backend.reference import ReferenceBackend

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
    # whole-level merge kernel replays the exact insertion semantics).
    assert reference == optimized
    assert reference == enumerator.enumerate_reference(aig)


@parametrize_backend
@settings(max_examples=15, deadline=None)
@given(spec=aig_specs)
def test_cut_table_exact_matches_truth_module(backend_name, spec):
    aig = random_aig(spec)
    from repro.aig.kernels import levelized

    view = levelized(aig)
    view.ensure_node_arrays(aig)
    enumerator = CutEnumerator(k=4, cuts_per_node=8)
    cuts = enumerator.enumerate(aig)
    reference = ReferenceBackend()
    optimized = create_backend(backend_name)
    for node, node_cuts in cuts.items():
        for cut in node_cuts:
            if cut.is_trivial() or cut.size < 2:
                continue
            expected = cut_truth_table(aig, node, cut.leaves)
            assert reference.cut_table_exact(view, node, cut.leaves) == expected
            assert optimized.cut_table_exact(view, node, cut.leaves) == expected


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
# Resubstitution matching ops (both size regimes)
# --------------------------------------------------------------------------- #
def _random_resub_case(count, num_vars, seed):
    rng = random.Random(seed)
    mask = table_mask(num_vars)
    divisors = list(range(2, 2 + count))
    tables = {divisor: rng.randint(0, mask) for divisor in divisors}
    if count >= 2 and rng.random() < 0.7:
        # Plant a matching pair so the search usually has something to find.
        a, b = rng.sample(divisors, 2)
        target = tables[a] & (tables[b] ^ (mask if rng.random() < 0.5 else 0))
        if rng.random() < 0.5:
            target ^= mask
    else:
        target = rng.randint(0, mask)
    return divisors, tables, target & mask, mask


@parametrize_backend
@pytest.mark.parametrize("num_vars", [5, 7])  # 1-word and 2-word tables
@pytest.mark.parametrize(
    # Below the threshold the reference loops run, from it the compiled scan.
    "count", [3, _NATIVE_RESUB_MIN - 1, _NATIVE_RESUB_MIN, 63, 64, 81]
)
def test_resub_ops_identical_across_size_regimes(backend_name, num_vars, count):
    reference = ReferenceBackend()
    optimized = create_backend(backend_name)
    for seed in range(8):
        divisors, tables, target, mask = _random_resub_case(count, num_vars, seed)
        assert reference.resub_zero_match(
            divisors, tables, target, mask
        ) == optimized.resub_zero_match(divisors, tables, target, mask)
        ranked_ref = reference.resub_rank_divisors(divisors, tables, target, mask)
        ranked_opt = optimized.resub_rank_divisors(divisors, tables, target, mask)
        assert ranked_ref == ranked_opt
        assert reference.resub_one_match(
            ranked_ref, tables, target, mask
        ) == optimized.resub_one_match(ranked_opt, tables, target, mask)


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
