"""Tests for the batched sweep-and-commit engine (:mod:`repro.synth.sweep`).

The contract under test, per pass and per network:

* **functional equivalence** — the batched strategy preserves the network's
  function, exactly like the sequential reference;
* **node-count monotonicity** — a sweep never increases the AND count;
* **determinism** — repeated runs on identical copies produce byte-identical
  networks (canonical pickling);
* the engine/orchestration layers route ``strategy="sweep"`` /
  ``strategy="sequential"`` correctly.
"""

import pickle

import pytest

from repro.aig.aig import Aig
from repro.aig.equivalence import check_equivalence
from repro.aig.kernels import expand_region, levelized
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.circuits.benchmarks import load_benchmark
from repro.orchestration.decision import DecisionVector, Operation
from repro.orchestration.orchestrate import orchestrate
from repro.synth.mffc import mffc_nodes
from repro.synth.scripts import (
    balance_pass,
    compress_script,
    refactor_pass,
    resub_pass,
    rewrite_pass,
)
from repro.synth.sweep import (
    SweepParams,
    commit_candidates,
    score_refactors,
    score_resubs,
    score_rewrites,
    sweep_rewrites,
)

PASSES = (rewrite_pass, refactor_pass, resub_pass)


def _random(seed, num_ands=120, num_pis=8):
    return random_aig(
        RandomAigSpec(num_pis=num_pis, num_pos=3, num_ands=num_ands, seed=seed)
    )


# --------------------------------------------------------------------------- #
# Equivalence / monotonicity / determinism on randomized networks
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [1, 7, 23, 91])
@pytest.mark.parametrize("pass_fn", PASSES)
def test_sweep_equivalent_and_monotone_random(pass_fn, seed):
    original = _random(seed)
    sequential = original.copy()
    sweep = original.copy()
    stats_seq = pass_fn(sequential, strategy="sequential")
    stats_swp = pass_fn(sweep, strategy="sweep")
    sweep.check()
    assert stats_swp.strategy == "sweep"
    assert stats_seq.strategy == "sequential"
    assert stats_swp.size_after <= stats_swp.size_before
    assert stats_swp.size_after == sweep.size
    assert check_equivalence(original, sequential)
    assert check_equivalence(original, sweep)


@pytest.mark.parametrize("pass_fn", PASSES)
def test_sweep_deterministic_across_runs(pass_fn):
    original = _random(41, num_ands=160)
    results = []
    for _ in range(3):
        aig = original.copy()
        pass_fn(aig, strategy="sweep")
        results.append(pickle.dumps(aig.copy("canon")))
    assert results[0] == results[1] == results[2]


def test_sweep_compress_script_monotone_and_equivalent():
    original = _random(5, num_ands=200, num_pis=10)
    aig = original.copy()
    stats = compress_script(aig, rounds=2, strategy="sweep")
    aig.check()
    assert all(s.strategy == "sweep" for s in stats)
    assert aig.size <= original.size
    assert check_equivalence(original, aig)


def test_invalid_strategy_rejected():
    aig = _random(1, num_ands=20)
    with pytest.raises(ValueError):
        rewrite_pass(aig, strategy="turbo")
    with pytest.raises(ValueError):
        orchestrate(aig, DecisionVector(), strategy="turbo")


# --------------------------------------------------------------------------- #
# Registered benchmarks (the acceptance bar)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "design", ["b07", "b08", "b09", "b10", "b11", "c880"]
)
def test_sweep_script_equivalent_on_benchmarks(design):
    """rw; rf; rs; b under both strategies preserves every benchmark's function."""
    original = load_benchmark(design)
    sequential = original.copy()
    sweep = original.copy()
    for strategy, target in (("sequential", sequential), ("sweep", sweep)):
        rewrite_pass(target, strategy=strategy)
        refactor_pass(target, strategy=strategy)
        resub_pass(target, strategy=strategy)
        balance_pass(target, strategy=strategy)
        target.check()
    assert sweep.size <= original.size
    assert check_equivalence(original, sweep)
    assert check_equivalence(original, sequential)


# --------------------------------------------------------------------------- #
# Scoring internals
# --------------------------------------------------------------------------- #
def test_sweep_rewrite_large_cut_size_equivalent():
    """`rw -K 8 -C 40` (user-reachable options) must stay function-preserving."""
    from repro.synth.rewrite import RewriteParams

    original = random_aig(RandomAigSpec(num_pis=9, num_pos=4, num_ands=250, seed=1))
    aig = original.copy()
    stats = rewrite_pass(
        aig, RewriteParams(cut_size=8, cuts_per_node=40), strategy="sweep"
    )
    aig.check()
    assert stats.size_after <= stats.size_before
    assert check_equivalence(original, aig)


def test_scorers_do_not_mutate_network():
    aig = _random(17, num_ands=120)
    before = aig.modification_count
    score_rewrites(aig)
    score_refactors(aig)
    score_resubs(aig)
    assert aig.modification_count == before


def test_score_rewrites_candidates_carry_footprints():
    aig = _random(19, num_ands=150)
    candidates = score_rewrites(aig)
    assert candidates, "expected at least one rewrite candidate"
    for node, candidate in candidates.items():
        assert candidate.node == node
        assert candidate.gain >= 1
        assert node in candidate.footprint()
        assert candidate.deref  # the MFFC always contains the root
        assert all(aig.has_node(ref) for ref in candidate.refs)


def test_commit_applies_disjoint_winners_and_journals_dirty():
    aig = _random(29, num_ands=150)
    original = aig.copy()
    candidates = score_rewrites(aig)
    applied, dirty, _conflicts = commit_candidates(aig, candidates.values())
    aig.cleanup()
    aig.check()
    assert applied, "expected commits on a redundant random network"
    for candidate in applied:
        # Committed roots were consumed by their replacement.
        assert not aig.has_node(candidate.node) or not aig.is_and(candidate.node)
        assert candidate.node in dirty
    assert aig.size <= original.size
    assert check_equivalence(original, aig)


def test_mutation_journal_records_touched_nodes():
    aig = Aig("j")
    x = aig.add_pi("x")
    y = aig.add_pi("y")
    z = aig.add_pi("z")
    a = aig.add_and(x, y)
    b = aig.add_and(a, z)
    aig.add_po(b, "f")
    journal = aig.journal_begin()
    # Replace AND(x, y) by the PI x: its fanout b is rewired, a is freed.
    aig.replace(a >> 1, x)
    recorded = aig.journal_end()
    assert recorded is journal
    assert (a >> 1) in recorded
    assert (b >> 1) in recorded
    assert not aig.has_node(a >> 1)
    with pytest.raises(Exception):
        aig.journal_end()  # no journal active anymore


def test_mutation_journal_nesting_rejected():
    aig = Aig("j2")
    aig.journal_begin()
    with pytest.raises(Exception):
        aig.journal_begin()
    aig.journal_end()


# --------------------------------------------------------------------------- #
# Kernel hooks: fanout/MFFC arrays, dirty-cone check, region expansion
# --------------------------------------------------------------------------- #
def test_snapshot_mffc_matches_reference():
    aig = _random(31, num_ands=180)
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    for node in list(aig.nodes())[:60]:
        assert view.mffc_nodes(node) == mffc_nodes(aig, node)
        fanins = [f >> 1 for f in aig.fanins(node)]
        assert view.mffc_nodes(node, fanins) == mffc_nodes(aig, node, fanins)


def test_snapshot_dirty_cone_detects_cone_membership():
    aig = _random(37, num_ands=120)
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    node = max(aig.nodes(), key=lambda n: aig.level(n))
    cone = view.cone_set(node, [])
    assert node in cone
    inner = next(iter(cone))
    assert view.dirty_cone(node, [], {inner})
    free_slot = aig.num_nodes() + 100  # an id that cannot be in any cone
    assert not view.dirty_cone(node, [], {free_slot})


def test_snapshot_node_arrays_require_fresh_version():
    aig = _random(43, num_ands=60)
    view = levelized(aig)
    x = aig.add_pi("late")  # bump the structural version
    del x
    with pytest.raises(RuntimeError):
        view.ensure_node_arrays(aig)


def test_expand_region_fanout_only_contains_fanout_cone():
    aig = _random(47, num_ands=100)
    node = next(iter(aig.nodes()))
    region = expand_region(aig, {node}, radius=2, fanout_only=True)
    assert node in region
    for fanout in aig.fanouts(node):
        assert fanout in region


# --------------------------------------------------------------------------- #
# Orchestration routing
# --------------------------------------------------------------------------- #
def test_sweep_orchestrate_uniform_rewrite_matches_sweep_pass(example_aig):
    by_pass = example_aig.copy()
    rewrite_pass(by_pass, strategy="sweep")
    by_orch = example_aig.copy()
    orchestrate(
        by_orch, DecisionVector.uniform(by_orch, Operation.REWRITE), strategy="sweep"
    )
    assert by_orch.size == by_pass.size


def test_sweep_orchestrate_preserves_function_and_reports_applied():
    original = _random(53, num_ands=150, num_pis=9)
    decisions = DecisionVector(
        {node: Operation(index % 3) for index, node in enumerate(original.nodes())}
    )
    result = orchestrate(original, decisions, in_place=False, strategy="sweep")
    optimized = result.optimized
    optimized.check()
    assert result.size_after <= result.size_before
    assert check_equivalence(original, optimized)
    assert result.total_applied == len(result.applied_nodes)
    for node, operation in result.applied_nodes.items():
        assert original.has_node(node)
        assert decisions.get(node) == operation


def test_sweep_orchestrate_empty_decisions_noop():
    aig = _random(59, num_ands=80)
    result = orchestrate(aig, DecisionVector(), in_place=False, strategy="sweep")
    assert result.size_after == result.size_before
    assert result.total_applied == 0
    assert result.skipped == result.size_before


def test_sweep_orchestrate_matches_between_strategies_functionally():
    original = _random(61, num_ands=140)
    decisions = DecisionVector.uniform(original, Operation.RESUB)
    seq = orchestrate(original, decisions, in_place=False, strategy="sequential")
    swp = orchestrate(original, decisions, in_place=False, strategy="sweep")
    assert check_equivalence(original, seq.optimized)
    assert check_equivalence(original, swp.optimized)
    assert swp.size_after <= swp.size_before


# --------------------------------------------------------------------------- #
# Engine / pipeline routing
# --------------------------------------------------------------------------- #
def test_pipeline_strategy_option_roundtrip():
    from repro.engine.pipeline import Pipeline

    pipeline = Pipeline.parse("rw -S sequential; rs -S sweep; b")
    fragments = [p.script_fragment() for p in pipeline.passes]
    assert fragments[0] == "rw -S sequential"
    assert fragments[1] == "rs -S sweep"
    aig = _random(67, num_ands=120)
    original = aig.copy()
    report = pipeline.run(aig)
    assert report.pass_stats[0].strategy == "sequential"
    assert report.pass_stats[1].strategy == "sweep"
    assert check_equivalence(original, aig)


def test_sweep_params_bound_sweeps():
    aig = _random(71, num_ands=160)
    report = sweep_rewrites(aig, None, SweepParams(max_sweeps=1))
    assert report.sweeps <= 1
    aig.cleanup()
    aig.check()
