"""Tests for the Engine facade and the deprecation shims."""

import pytest

from repro.circuits.benchmarks import load_benchmark
from repro.engine import Engine, Pipeline, SerialEvaluator
from repro.io.aiger import read_aiger


def test_load_benchmark_and_run_script():
    engine = Engine.load("c880")
    report = engine.run(Pipeline.parse("rw; rs; rf; b"))
    assert report.size_after < report.size_before
    assert engine.size == report.size_after
    assert engine.history == [report]


def test_run_accepts_script_strings():
    engine = Engine.load("b08")
    report = engine.run("rw; b", verify=True)
    assert report.equivalent is True
    assert [s.name for s in report.pass_stats] == ["rewrite", "balance"]


def test_load_works_on_benchmark_private_copy():
    """Engine mutations never corrupt the process-wide benchmark cache."""
    cached_size = load_benchmark("b08").size
    engine = Engine.load("b08")
    engine.run("rw; rs")
    assert engine.size < cached_size
    assert load_benchmark("b08").size == cached_size


def test_load_unknown_spec():
    with pytest.raises(ValueError):
        Engine.load("definitely_not_a_design")


def test_from_aig_copy_semantics(example_aig):
    shared = Engine.from_aig(example_aig)
    assert shared.aig is example_aig
    private = Engine.from_aig(example_aig, copy=True)
    assert private.aig is not example_aig
    private.run("rw")
    assert example_aig.size >= private.size


def test_sample_leaves_network_untouched_and_orders_records():
    engine = Engine.load("b09")
    size_before = engine.size
    records = engine.sample(5, guided=True, seed=0, evaluator=SerialEvaluator())
    assert engine.size == size_before
    assert len(records) == 5
    assert all(record.size_after <= size_before for record in records)
    # The first guided sample is the base sample: regenerating is deterministic.
    again = engine.sample(5, guided=True, seed=0)
    assert [r.size_after for r in again] == [r.size_after for r in records]


def test_save_and_reload(tmp_path):
    engine = Engine.load("b08")
    engine.run("rw")
    path = tmp_path / "out.aag"
    engine.save(str(path))
    assert read_aiger(path).size == engine.size


def test_orch_pass_in_pipeline():
    engine = Engine.load("b09")
    report = engine.run("rw; orch -g -s 1")
    assert [s.name for s in report.pass_stats] == ["rewrite", "orch"]
    assert report.size_after <= report.size_before


def test_engine_repr_mentions_design():
    engine = Engine.load("b08")
    assert "b08" in repr(engine)


# --------------------------------------------------------------------------- #
# Deprecation shims: the pre-engine entry points keep working and agree with
# the registry path.
# --------------------------------------------------------------------------- #
def test_legacy_pass_functions_match_registry(example_aig):
    from repro.engine import create_pass
    from repro.synth.scripts import rewrite_pass

    via_function = example_aig.copy()
    via_registry = example_aig.copy()
    function_stats = rewrite_pass(via_function)
    registry_stats = create_pass("rw").run(via_registry)
    assert function_stats.size_after == registry_stats.size_after
    assert via_function.size == via_registry.size


def test_legacy_load_save_design_reexports():
    from repro.cli import load_design, save_design
    from repro.engine import load_design as engine_load, save_design as engine_save

    assert load_design is engine_load
    assert save_design is engine_save


def test_flow_config_evaluator_knob():
    from repro.flow.config import fast_config

    config = fast_config(num_samples=4, epochs=2)
    assert config.evaluator is None  # serial by default
    assert config.with_seed(3).evaluator is None
