"""Native-backend specifics: the engine, per-op fallback, compile cache, prewarm.

The byte-identity of the native ops against the reference is covered by the
``test_backend_parity`` suite; this module covers what is unique to the
native backend — resolving the cc engine, the per-op degradation to the
reference code when no engine exists (and ``auto`` still choosing native
then), the persistent compile cache (``BOOLGEBRA_NATIVE_CACHE``) with worker
prewarm, and the whole-level cut-merge capability the enumerator
feature-detects.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np
import pytest

from repro.aig.cuts import CutEnumerator
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.aig.simulate import random_patterns, simulate_matrix
from repro.backend import (
    OPS,
    create_backend,
    prewarm_default_backend,
    reset_default_backend,
    set_default_backend,
    use_backend,
)
from repro.backend import native_kernels, registry
from repro.backend.native import _OP_LABELS, NativeBackend
from repro.backend.reference import ReferenceBackend

SPEC = RandomAigSpec(
    num_pis=6, num_pos=2, num_ands=60, redundancy=0.5, xor_fraction=0.2,
    mux_fraction=0.2, seed=11,
)


@pytest.fixture(autouse=True)
def _clean_selection():
    reset_default_backend()
    yield
    reset_default_backend()


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """An isolated compile cache; restores the process engine cache after."""
    monkeypatch.setenv(native_kernels.ENV_CACHE, str(tmp_path))
    native_kernels.reset_engine_cache()
    yield tmp_path
    monkeypatch.delenv(native_kernels.ENV_CACHE, raising=False)
    native_kernels.reset_engine_cache()


@pytest.fixture()
def no_engine(monkeypatch):
    """A NativeBackend whose engine resolution reports 'nothing available'."""
    monkeypatch.setattr(
        native_kernels, "load_engine", lambda: (None, "engines-unavailable")
    )
    return NativeBackend()


@pytest.fixture()
def degraded_native(no_engine, monkeypatch):
    """``no_engine`` installed as the registry's ``native`` instance."""
    monkeypatch.setitem(registry._INSTANCES, "native", no_engine)
    return no_engine


def _degraded(monkeypatch):
    monkeypatch.setattr(
        native_kernels, "load_engine", lambda: (None, "engines-unavailable")
    )


def _counting(counter, op, function):
    def counted(*args, **kwargs):
        counter[op] += 1
        return function(*args, **kwargs)

    return counted


# --------------------------------------------------------------------------- #
# Per-op fallback (simulated missing compiler)
# --------------------------------------------------------------------------- #
def test_no_engine_reports_fallback_support(no_engine):
    support = no_engine.op_support()
    assert set(support) >= set(OPS)
    for op in _OP_LABELS:
        assert support[op] == "fallback:reference(engines-unavailable)"


def test_degraded_native_script_runs_reference_code(degraded_native, monkeypatch):
    from repro.engine import Engine
    from repro.io.aiger import aiger_ascii

    def optimized(backend_name):
        engine = Engine.load("b08")
        with use_backend(backend_name):
            engine.run("rw; rf; rs; b")
        return aiger_ascii(engine.aig)

    expected = optimized("reference")
    # Every call of a compiled op must land in the reference's own code.
    # (cut_level_merge has no reference counterpart: it returns None.)
    ops = set(_OP_LABELS) - {"cut_level_merge"}
    entered, served = Counter(), Counter()
    for op in ops:
        monkeypatch.setattr(
            degraded_native, op, _counting(entered, op, getattr(degraded_native, op))
        )
        monkeypatch.setattr(
            ReferenceBackend, op, _counting(served, op, getattr(ReferenceBackend, op))
        )
    assert optimized("native") == expected
    assert set(entered) == ops
    assert served == entered


def test_degraded_native_training_matches_reference(degraded_native):
    from repro.features.dataset import FEATURE_DIM, GraphSample
    from repro.nn.model import ModelConfig
    from repro.nn.trainer import Trainer, TrainingConfig

    rng = np.random.default_rng(5)
    edges = np.array([[0, 1, 2, 3, 1], [1, 2, 3, 4, 4]])
    samples = [
        GraphSample("g", rng.random((5, FEATURE_DIM)), edges, float(rng.random()), 0, 5)
        for _ in range(8)
    ]

    def fit(backend_name):
        trainer = Trainer(
            config=TrainingConfig.fast(epochs=2, seed=3),
            model_config=ModelConfig.small(),
            backend=backend_name,
        )
        history = trainer.fit(samples[:6], samples[6:])
        weights = b"".join(p.value.tobytes() for p in trainer.model.parameters())
        predictions = trainer.predict(samples).tobytes()
        return history.train_loss, history.test_loss, weights, predictions

    assert fit("native") == fit("reference")


def test_no_engine_ops_identical_bytes(no_engine):
    aig = random_aig(SPEC)
    patterns = random_patterns(aig.num_pis(), 128, seed=5)
    with use_backend("reference"):
        expected = simulate_matrix(aig, patterns)
    set_default_backend("reference")  # any ambient; the instance is explicit
    from repro.aig.kernels import levelized

    view = levelized(aig)
    view.ensure_node_arrays(aig)
    reference = ReferenceBackend()
    cuts = CutEnumerator(k=4, cuts_per_node=8).enumerate(aig)
    for node, node_cuts in cuts.items():
        for cut in node_cuts:
            if cut.is_trivial() or cut.size < 2:
                continue
            assert no_engine.cut_table_exact(view, node, cut.leaves) == (
                reference.cut_table_exact(view, node, cut.leaves)
            )
    values = expected.copy()
    for ids, f0v, f0m, f1v, f1m in view._level_ops:
        no_engine.simulate_level_step(values, ids, f0v, f0m, f1v, f1m)
    assert values.tobytes() == expected.tobytes()


def test_no_engine_cut_level_merge_returns_none_and_enumerate_falls_back(
    monkeypatch,
):
    _degraded(monkeypatch)
    backend = NativeBackend()
    assert (
        backend.cut_level_merge(
            np.zeros((0, 9, 4), np.int64),
            np.zeros((0, 9), np.int64),
            np.zeros((0, 9), np.uint64),
            np.zeros(0, np.int64),
            np.zeros((0, 9, 4), np.int64),
            np.zeros((0, 9), np.int64),
            np.zeros((0, 9), np.uint64),
            np.zeros(0, np.int64),
            np.zeros(0, np.uint8),
            4,
            8,
        )
        is None
    )
    # The enumerator's zero-row probe sees None and takes the Python path.
    aig = random_aig(SPEC)
    enumerator = CutEnumerator(k=4, cuts_per_node=8)
    import repro.aig.cuts as cuts_module

    monkeypatch.setattr(cuts_module, "get_backend", lambda: backend)
    assert enumerator.enumerate(aig) == enumerator.enumerate_reference(aig)


# --------------------------------------------------------------------------- #
# Engine resolution and the whole-level merge capability
# --------------------------------------------------------------------------- #
def _engine_or_skip():
    kernels, reason = native_kernels.load_engine()
    if kernels is None:
        pytest.skip(f"no compiled engine on this install ({reason})")
    return kernels


def test_engine_labels_ops_when_available():
    kernels = _engine_or_skip()
    backend = NativeBackend()
    support = backend.op_support()
    assert backend.engine_name() == kernels.engine
    assert support["sweep_commit"] == f"{kernels.engine}:bitmap-conflict-screen"
    assert support["cut_level_merge"] == f"{kernels.engine}:whole-level-merge"


@pytest.mark.parametrize("k", [4, 6])  # k=6 exercises the signed full mask
def test_enumerate_identical_under_native_engine(k):
    _engine_or_skip()
    aig = random_aig(SPEC)
    enumerator = CutEnumerator(k=k, cuts_per_node=8)
    with use_backend("native"):
        native_cuts = enumerator.enumerate(aig)
    assert native_cuts == enumerator.enumerate_reference(aig)


# --------------------------------------------------------------------------- #
# Compile cache + prewarm
# --------------------------------------------------------------------------- #
def test_auto_is_native_without_a_compiler(fresh_cache, monkeypatch):
    # No compiler and an empty cache: auto still resolves to native, which
    # then serves every compiled op from the reference code.
    monkeypatch.setattr(native_kernels, "find_compiler", lambda: None)
    assert create_backend("auto").name == "native"
    backend = NativeBackend()
    assert backend.engine_name() is None
    assert backend.op_support()["cut_table_exact"] == "fallback:reference(cc: RuntimeError)"


def test_cc_cache_artifact_created_and_reused(fresh_cache, monkeypatch):
    if native_kernels.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    kernels, reason = native_kernels.load_engine()
    assert kernels is not None and kernels.engine == "cc", reason
    library = native_kernels.library_path()
    assert os.path.dirname(library) == str(fresh_cache)
    assert os.path.exists(library)
    # Second process (simulated): compiler gone, cache warm — still loads.
    native_kernels.reset_engine_cache()
    monkeypatch.setattr(native_kernels, "find_compiler", lambda: None)

    def _no_build(*args, **kwargs):  # compile must not run again
        raise AssertionError("cache hit expected; compiler invoked instead")

    monkeypatch.setattr(native_kernels.subprocess, "run", _no_build)
    kernels, reason = native_kernels.load_engine()
    assert kernels is not None and kernels.engine == "cc", reason


def test_prewarm_default_backend_warms_native(fresh_cache, monkeypatch):
    if native_kernels.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    set_default_backend("reference")
    assert prewarm_default_backend() is None  # no prewarm hook: no-op
    # A *fresh* native backend (the registry caches instances, so build one
    # directly) resolves and warms through the same entry point the worker
    # initializers call.
    backend = NativeBackend()
    monkeypatch.setattr("repro.backend.get_backend", lambda: backend)
    assert prewarm_default_backend() == "cc"
    assert os.path.exists(native_kernels.library_path())
    # The first job after prewarm must not pay the build again.
    monkeypatch.setattr(
        native_kernels, "build_library", lambda: pytest.fail("rebuild after prewarm")
    )
    assert backend.prewarm() == "cc"


def test_worker_initializer_prewarms(monkeypatch):
    # The evaluator worker initializer pins the shipped backend name and
    # prewarms it; with the reference backend this must be a silent no-op
    # (no engine probing), with native it resolves the engine.
    calls = []
    monkeypatch.setattr(
        "repro.engine.evaluator.prewarm_default_backend",
        lambda: calls.append(True),
    )
    import pickle

    from repro.circuits.generators import paper_example_aig
    from repro.engine.evaluator import _init_worker

    _init_worker(pickle.dumps(paper_example_aig()), None, "reference")
    assert calls == [True]


def test_cli_backends_json_reports_native_engine(capsys):
    from repro.cli import main

    assert main(["backends", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    native = payload["backends"]["native"]
    assert "engine" in native  # "cc", or null when degraded
    assert "cut_level_merge" in native["ops"]
