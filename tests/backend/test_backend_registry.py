"""Tests for backend registration, selection and threading.

Selection precedence (explicit pin > ``BOOLGEBRA_BACKEND`` > auto) is the
contract every entry point builds on: ``FlowConfig.backend``, the trainer's
``backend=`` argument, the evaluator's worker initializer and the service
pool all reduce to :func:`set_default_backend` / :func:`use_backend` calls.
"""

from __future__ import annotations

import json

import pytest

from repro.backend import (
    ENV_VAR,
    OPS,
    available_backends,
    create_backend,
    get_backend,
    reset_default_backend,
    set_default_backend,
    use_backend,
)
from repro.backend.native import NativeBackend
from repro.backend.reference import ReferenceBackend


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Every test starts (and ends) with no pin and no env selection."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_default_backend()
    yield
    reset_default_backend()


def test_available_backends_reference_first():
    assert available_backends() == ["reference", "native"]


def test_create_backend_caches_instances():
    assert create_backend("reference") is create_backend("reference")
    assert create_backend("native") is create_backend("native")


def test_create_backend_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        create_backend("cuda")
    with pytest.raises(ValueError) as excinfo:
        create_backend("accelerated")
    assert str(excinfo.value) == (
        "unknown backend 'accelerated'; available: reference, native"
    )


def test_reference_always_constructible_and_complete():
    backend = ReferenceBackend()
    support = backend.op_support()
    assert set(support) == set(OPS)


def test_auto_resolution_matches_native_availability():
    # The native backend is available on every install (it degrades per op
    # to the reference code), so auto resolves to it without probing.
    assert create_backend("auto") is create_backend("native")
    assert get_backend().name == "native"


def test_native_constructible_without_engines():
    # Construction never raises, whatever this interpreter is missing; every
    # op is reported (with a fallback label when no compiled engine exists).
    backend = NativeBackend()
    assert set(backend.op_support()) >= set(OPS)


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "reference")
    reset_default_backend()
    assert get_backend().name == "reference"
    monkeypatch.setenv(ENV_VAR, "native")
    reset_default_backend()
    assert get_backend().name == "native"


def test_explicit_pin_overrides_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "reference")
    reset_default_backend()
    set_default_backend("native")
    assert get_backend().name == "native"
    set_default_backend(None)  # revert to env
    assert get_backend().name == "reference"


def test_use_backend_scopes_and_restores():
    set_default_backend("reference")
    with use_backend("native") as backend:
        assert backend.name == "native"
        assert get_backend().name == "native"
        with use_backend("reference"):
            assert get_backend().name == "reference"
        assert get_backend().name == "native"
    assert get_backend().name == "reference"


def test_use_backend_none_is_transparent():
    set_default_backend("native")
    with use_backend(None) as backend:
        assert backend is get_backend()
        assert backend.name == "native"


def test_flow_config_carries_backend():
    from repro.flow.config import FlowConfig, fast_config

    assert FlowConfig().backend is None
    config = fast_config()
    assert config.backend is None
    import dataclasses

    pinned = dataclasses.replace(config, backend="reference")
    assert pinned.backend == "reference"


def test_trainer_pin_routes_through_use_backend():
    from repro.nn.model import ModelConfig
    from repro.nn.trainer import Trainer, TrainingConfig

    trainer = Trainer(
        config=TrainingConfig.fast(epochs=1),
        model_config=ModelConfig(
            input_dim=12, conv_hidden_dim=8, conv_output_dim=6, dense_dims=(4, 1)
        ),
        backend="reference",
    )
    assert trainer.backend == "reference"


def test_worker_pool_reports_effective_backend():
    from repro.service.scheduler import Scheduler
    from repro.service.workers import WorkerPool

    pool = WorkerPool(Scheduler(), backend="reference")
    assert pool.backend_name() == "reference"
    ambient = WorkerPool(Scheduler())
    assert ambient.backend_name() == get_backend().name


def test_service_metrics_include_backend():
    from repro.service.server import SynthesisService

    with SynthesisService(num_workers=1, mode="inline", backend="reference") as service:
        job = service.submit({"kind": "optimize", "design": "b08", "options": {"script": "b"}})
        service.result(job.job_id, timeout=120.0)
        snapshot = service.metrics_snapshot()
    assert snapshot["backend"] == "reference"


def test_evaluator_ships_backend_name_to_workers():
    # The pool initializer receives the parent's effective backend name; the
    # worker-side half is set_default_backend, exercised directly here (spawn
    # semantics are covered by the engine evaluator tests).
    from repro.engine.evaluator import _init_worker
    import pickle

    from repro.circuits.generators import paper_example_aig

    set_default_backend("native")
    try:
        _init_worker(pickle.dumps(paper_example_aig()), None, "reference")
        assert get_backend().name == "reference"
    finally:
        reset_default_backend()


def test_cli_backends_json(capsys):
    from repro.cli import main

    assert main(["backends", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selected"] == get_backend().name
    assert payload["env_var"] == ENV_VAR
    assert set(payload["backends"]) == set(available_backends())
    for info in payload["backends"].values():
        # The native backend reports extra capabilities (whole-snapshot
        # cuts, the rewrite scan) beyond the portable op vocabulary.
        assert set(info["ops"]) >= set(OPS)


def test_cli_backends_table(capsys):
    from repro.cli import main

    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    assert "reference" in out and "native" in out
    assert "selected backend:" in out
