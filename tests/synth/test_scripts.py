"""Tests for the stand-alone pass drivers and compound scripts."""

from repro.aig.equivalence import check_equivalence
from repro.synth.scripts import (
    PassStats,
    compress_script,
    refactor_pass,
    resub_pass,
    rewrite_pass,
)


def test_pass_stats_properties():
    stats = PassStats("rewrite", 100, 80, 12, 11, 7, 0.5)
    assert stats.reduction == 20
    assert abs(stats.size_ratio - 0.8) < 1e-12
    assert "rewrite" in str(stats)


def test_pass_stats_zero_size():
    stats = PassStats("rewrite", 0, 0, 0, 0, 0, 0.0)
    assert stats.size_ratio == 1.0


def test_each_pass_returns_consistent_stats(small_random_aig):
    for pass_fn in (rewrite_pass, resub_pass, refactor_pass):
        aig = small_random_aig.copy()
        stats = pass_fn(aig)
        assert stats.size_before == small_random_aig.size
        assert stats.size_after == aig.size
        assert stats.runtime_seconds >= 0.0


def test_compress_script_runs_all_three(small_random_aig):
    original = small_random_aig.copy()
    stats_list = compress_script(small_random_aig, rounds=1)
    assert [stats.name for stats in stats_list] == ["rewrite", "resub", "refactor"]
    assert small_random_aig.size <= original.size
    assert check_equivalence(original, small_random_aig)


def test_compress_script_multiple_rounds_monotone(small_random_aig):
    compress_script(small_random_aig, rounds=1)
    after_one = small_random_aig.size
    compress_script(small_random_aig, rounds=1)
    assert small_random_aig.size <= after_one


def test_passes_never_increase_size(example_aig):
    for pass_fn in (rewrite_pass, resub_pass, refactor_pass):
        aig = example_aig.copy()
        stats = pass_fn(aig)
        assert stats.size_after <= stats.size_before


def test_balance_moves_the_structural_version_forward():
    # ``b`` replaces the network's contents with a fresh copy's, whose
    # construction count can equal the old version; the version must still
    # advance, or the (network, version)-keyed caches -- the shared candidate
    # table, the analysis, the topological order -- serve entries of the
    # pre-balance network to the samples drawn after it.
    from repro.aig.random_aig import RandomAigSpec, random_aig
    from repro.engine import Engine
    from repro.engine.evaluator import record_signature

    for seed in (1, 4):
        spec = RandomAigSpec(num_pis=6, num_pos=3, num_ands=80, seed=0, redundancy=0.3)
        engine = Engine.from_aig(random_aig(spec))
        engine.sample(2, guided=False, seed=0)
        before = engine.aig.modification_count
        engine.run("b")
        assert engine.aig.modification_count > before
        records = engine.sample(4, guided=False, seed=seed)
        fresh = Engine.from_aig(engine.aig, copy=True).sample(4, guided=False, seed=seed)
        for record, expected in zip(records, fresh):
            # Six PIs: the equivalence check is exhaustive.
            assert check_equivalence(record.result.optimized, engine.aig).equivalent
            assert record_signature(record) == record_signature(expected)
