"""The native ``local_cut_tables`` op and the rescore path it serves.

For every AND root the op must return exactly the non-trivial cuts of
:func:`repro.aig.cuts.local_cuts`, in order, each with its
:func:`repro.aig.truth.cut_truth_table` — on random networks, on the
benchmark designs as built, and on the same designs after ``rw; rs`` (freed
slots, rewired fanins).  The small-target branch of
:func:`repro.synth.sweep.score_rewrites` that calls it must return the same
candidates as the per-node finder, with the compiled engine and without it.
Tests that need the engine skip without one; the degraded half (the op
declines, the finder runs) runs everywhere.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.cuts import local_cuts
from repro.aig.kernels import levelized
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.aig.truth import cut_truth_table
from repro.backend import native_kernels, registry, reset_default_backend, use_backend
from repro.backend.native import NativeBackend
from repro.circuits.benchmarks import load_benchmark
from repro.synth import sweep
from repro.synth.rewrite import RewriteParams, find_rewrite_candidate

#: (cut_size, cuts_per_node, max_region, max_depth): the defaults, one
#: truncated by depth, a tiny one, the two widest accepted tables, and one
#: whose region-size limit fires in the middle of a BFS level.
SETTINGS = [
    (4, 8, 40, 6),
    (4, 6, 10, 3),
    (3, 2, 5, 2),
    (5, 8, 40, 6),
    (6, 4, 25, 4),
    (4, 8, 10, 6),
]

DESIGNS = ["b07", "b08", "b09", "b10", "c880"]

aig_specs = st.builds(
    RandomAigSpec,
    num_pis=st.integers(min_value=2, max_value=8),
    num_pos=st.integers(min_value=1, max_value=3),
    num_ands=st.integers(min_value=4, max_value=90),
    redundancy=st.floats(min_value=0.0, max_value=0.8),
    xor_fraction=st.floats(min_value=0.0, max_value=0.3),
    mux_fraction=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
)


@pytest.fixture(autouse=True)
def _clean_selection():
    reset_default_backend()
    yield
    reset_default_backend()


def _engine_or_skip():
    kernels, reason = native_kernels.load_engine()
    if kernels is None:
        pytest.skip(f"no compiled engine on this install ({reason})")


def _snapshot(aig):
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    return view


def _expected(aig, roots, setting):
    return [
        [
            (cut.leaves, cut_truth_table(aig, root, cut.leaves))
            for cut in local_cuts(aig, root, *setting)
            if not cut.is_trivial()
        ]
        for root in roots
    ]


def _assert_matches_local_cuts(aig, setting):
    roots = list(aig.nodes())
    assert NativeBackend().local_cut_tables(_snapshot(aig), roots, *setting) == _expected(
        aig, roots, setting
    )


@lru_cache(maxsize=None)
def _optimized(design, script):
    """``design`` after ``script``: freed slots and rewired fanins."""
    from repro.engine import Engine

    engine = Engine.load(design)
    engine.run(script)
    return engine.aig


# --------------------------------------------------------------------------- #
# The op against local_cuts + cut_truth_table
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("setting", SETTINGS)
@settings(max_examples=10, deadline=None)
@given(spec=aig_specs)
def test_op_matches_local_cuts_on_random_aigs(setting, spec):
    _engine_or_skip()
    _assert_matches_local_cuts(random_aig(spec), setting)


@pytest.mark.parametrize("design", DESIGNS)
def test_op_matches_local_cuts_on_benchmarks(design):
    _engine_or_skip()
    for setting in SETTINGS:
        _assert_matches_local_cuts(load_benchmark(design), setting)


@pytest.mark.parametrize("design", DESIGNS)
def test_op_matches_local_cuts_after_rewriting(design):
    _engine_or_skip()
    aig = _optimized(design, "rw; rs")
    assert aig.num_nodes() > aig.size + aig.num_pis() + 1  # freed slots
    for setting in SETTINGS:
        _assert_matches_local_cuts(aig, setting)


def test_op_accepts_the_widest_tables_and_the_cut_cap():
    _engine_or_skip()
    aig = random_aig(RandomAigSpec(num_pis=7, num_pos=2, num_ands=70, seed=3))
    _assert_matches_local_cuts(aig, (6, 63, 60, 8))


def test_op_declines_wide_tables_and_too_many_cuts():
    _engine_or_skip()
    aig = load_benchmark("b08")
    view = _snapshot(aig)
    roots = list(aig.nodes())
    backend = NativeBackend()
    assert backend.local_cut_tables(view, roots, 7, 8, 40, 6) is None
    assert backend.local_cut_tables(view, roots, 4, 64, 40, 6) is None


def test_op_rejects_roots_outside_the_snapshot():
    _engine_or_skip()
    aig = load_benchmark("b08")
    view = _snapshot(aig)
    backend = NativeBackend()
    for root in (-1, aig.num_nodes()):
        with pytest.raises(ValueError):
            backend.local_cut_tables(view, [root], 4, 8, 40, 6)
    assert backend.local_cut_tables(view, [], 4, 8, 40, 6) == []


def test_op_declines_without_an_engine(monkeypatch):
    monkeypatch.setattr(
        native_kernels, "load_engine", lambda: (None, "engines-unavailable")
    )
    aig = load_benchmark("b08")
    backend = NativeBackend()
    assert backend.local_cut_tables(_snapshot(aig), list(aig.nodes()), 4, 8, 40, 6) is None


# --------------------------------------------------------------------------- #
# The small-target branch of score_rewrites
# --------------------------------------------------------------------------- #
def _signature(candidate):
    return (
        candidate.node,
        candidate.gain,
        candidate.leaves,
        candidate.refs,
        candidate.deref,
        candidate.reused,
    )


def _finder_candidates(aig, nodes, params):
    found = {}
    for node in nodes:
        candidate = find_rewrite_candidate(aig, node, params)
        if candidate is not None:
            found[node] = _signature(candidate)
    return found


@pytest.fixture(params=["compiled", "degraded"])
def engine_mode(request, monkeypatch):
    """``native`` with its compiled engine, or with ``load_engine`` failing."""
    if request.param == "compiled":
        _engine_or_skip()
    else:
        monkeypatch.setattr(
            native_kernels, "load_engine", lambda: (None, "engines-unavailable")
        )
        monkeypatch.setitem(registry._INSTANCES, "native", NativeBackend())
    return request.param


def _counted_finder(monkeypatch):
    calls = Counter()
    finder = sweep.find_rewrite_candidate

    def counted(aig, node, params=None):
        calls[node] += 1
        return finder(aig, node, params)

    monkeypatch.setattr(sweep, "find_rewrite_candidate", counted)
    return calls


@pytest.mark.parametrize("design", ["b08", "c880"])
@pytest.mark.parametrize(
    "params",
    [
        RewriteParams(),
        RewriteParams(cut_size=3, cuts_per_node=4, max_region=10, max_depth=3),
        RewriteParams(use_zero_cost=True),
    ],
    ids=["default", "truncated", "zero-cost"],
)
def test_small_target_branch_equals_per_node_finder(design, params, engine_mode, monkeypatch):
    # After ``rs`` (freed slots) rewriting still finds candidates.
    aig = _optimized(design, "rs")
    nodes = list(aig.nodes())[::3]  # a third of the nodes: the small-target branch
    expected = _finder_candidates(aig, nodes, params)
    assert expected or params != RewriteParams()  # something to compare
    calls = _counted_finder(monkeypatch)
    with use_backend("native"):
        scored = sweep.score_rewrites(aig, set(nodes), params)
    assert {node: _signature(c) for node, c in scored.items()} == expected
    if engine_mode == "degraded":
        assert sorted(calls) == sorted(nodes)
    else:
        assert not calls


def test_small_target_branch_reads_and_fills_the_table(engine_mode, monkeypatch):
    aig = _optimized("c880", "rs")
    params = RewriteParams()
    nodes = list(aig.nodes())[::3]
    expected = _finder_candidates(aig, nodes, params)
    # A recorded "not transformable" must be served as such, not recomputed.
    hit = next(iter(expected))
    table = {(hit, "rw"): None}
    calls = _counted_finder(monkeypatch)
    with use_backend("native"):
        scored = sweep.score_rewrites(aig, set(nodes), params, table=table)
    del expected[hit]
    assert {node: _signature(c) for node, c in scored.items()} == expected
    assert set(table) == {(node, "rw") for node in nodes}
    assert table[(hit, "rw")] is None
    assert {
        node: _signature(c) for (node, _), c in table.items() if c is not None
    } == expected
    assert hit not in calls
    if engine_mode == "compiled":
        assert not calls
