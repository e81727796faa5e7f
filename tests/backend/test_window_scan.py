"""The native ``resub_scan`` and ``refactor_cut_tables`` ops and the resub and
refactor scoring they serve.

With the compiled engine, :func:`repro.synth.sweep.score_resubs` and
:func:`repro.synth.sweep.score_refactors` score every target in compiled
calls; without it (or when an op declines) the per-node finders run.  For
every target the compiled path must return the finder's candidate — None or
not, operation, gain, leaves, references, MFFC, reused nodes and gain bar —
and :func:`repro.synth.sweep.sweep_resubs` and
:func:`repro.synth.sweep.sweep_refactors` must commit the same candidates in
the same order, on the benchmark designs as built and after ``rw; rf``, and
on random networks.  Tests that need the engine skip without one.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aig.kernels import cached_topological_order, levelized
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.aig.reconv_cut import reconvergence_driven_cut
from repro.backend import native_kernels, reset_default_backend, use_backend
from repro.backend.native import _OP_LABELS
from repro.circuits.benchmarks import load_benchmark
from repro.engine.evaluator import record_signature
from repro.orchestration.orchestrate import orchestrate
from repro.orchestration.sampling import RandomSampler, SampleRecord
from repro.synth import sweep
from repro.synth.refactor import RefactorParams, find_refactor_candidate
from repro.synth.resub import (
    ResubParams,
    _collect_window,
    _window_walk,
    find_resub_candidate,
    window_set,
)

#: ``rs``: the default, ``-N 0``, ``-K 6 -N 2`` and ``-W 16``.  The 16-node
#: window truncates most walks, so there the fanout order decides which
#: nodes a window holds.
RESUB_SETTINGS = [
    ResubParams(),
    ResubParams(max_resub_nodes=0),
    ResubParams(max_leaves=6, max_resub_nodes=2),
    ResubParams(max_window=16),
]

#: ``rf``: the default, ``-K 12`` (the kernels' leaf limit), ``-z`` and
#: ``-K 6``.
REFACTOR_SETTINGS = [
    RefactorParams(),
    RefactorParams(max_leaves=12),
    RefactorParams(use_zero_cost=True),
    RefactorParams(max_leaves=6),
]

DESIGNS = ["b07", "b08", "b09", "b10", "b11", "b12", "c880", "c5315"]

SCORERS = {
    "rs": (sweep.score_resubs, find_resub_candidate, sweep.sweep_resubs),
    "rf": (sweep.score_refactors, find_refactor_candidate, sweep.sweep_refactors),
}

aig_specs = st.builds(
    RandomAigSpec,
    num_pis=st.integers(min_value=2, max_value=10),
    num_pos=st.integers(min_value=1, max_value=3),
    num_ands=st.integers(min_value=4, max_value=90),
    redundancy=st.floats(min_value=0.0, max_value=0.8),
    xor_fraction=st.floats(min_value=0.0, max_value=0.3),
    mux_fraction=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
)

#: A drawn spec whose network has no AND node: every gate folds away.
AND_LESS = RandomAigSpec(
    num_pis=2, num_pos=1, num_ands=4, redundancy=0.5, xor_fraction=0.0, mux_fraction=0.0,
    seed=3715,
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


def _key(candidate):
    if candidate is None:
        return None
    return (
        candidate.node,
        candidate.operation,
        candidate.gain,
        tuple(candidate.leaves),
        tuple(candidate.refs),
        candidate.deref,
        candidate.reused,
        candidate.min_gain,
    )


def _report(report):
    return report.applied, report.sweeps, report.conflicts, [_key(c) for c in report.committed]


@lru_cache(maxsize=None)
def _optimized(design):
    """``design`` after ``rw; rf``: freed slots, rewired fanins, reordered fanouts."""
    from repro.engine import Engine

    engine = Engine.load(design)
    engine.run("rw; rf")
    return engine.aig


def _networks(design):
    return [load_benchmark(design).copy(), _optimized(design).copy()]


@contextmanager
def _finders():
    """Score with the per-node finders, whatever the backend."""
    resubs, refactors = sweep._score_compiled_resubs, sweep._score_compiled_refactors
    sweep._score_compiled_resubs = sweep._score_compiled_refactors = lambda *args: None
    try:
        yield
    finally:
        sweep._score_compiled_resubs, sweep._score_compiled_refactors = resubs, refactors


@contextmanager
def _native_scans():
    """Select the native backend; yield the roots of its window-op calls,
    as ``(op, roots, with orders)``."""
    calls = []
    with use_backend("native") as backend:
        resub_scan, refactor_cut_tables = backend.resub_scan, backend.refactor_cut_tables

        def resub_spy(view, fanouts, roots, *args, **kwargs):
            calls.append(("rs", list(roots), kwargs.get("orders") is not None))
            return resub_scan(view, fanouts, roots, *args, **kwargs)

        def refactor_spy(view, roots, *args):
            calls.append(("rf", list(roots), False))
            return refactor_cut_tables(view, roots, *args)

        backend.resub_scan, backend.refactor_cut_tables = resub_spy, refactor_spy
        try:
            yield calls
        finally:
            del backend.resub_scan, backend.refactor_cut_tables


@contextmanager
def _capability_calls():
    """Select the native backend; yield the names of its capability ops called."""
    entered = []

    def recording(op, target):
        return lambda *args, **kwargs: entered.append(op) or target(*args, **kwargs)

    with use_backend("native") as backend:
        for op in _OP_LABELS:
            setattr(backend, op, recording(op, getattr(backend, op)))
        try:
            yield entered
        finally:
            for op in _OP_LABELS:
                delattr(backend, op)


def _assert_identical(aig, operation, params, sweeps=True):
    score, finder, sweep_pass = SCORERS[operation]
    if not aig.num_ands():
        # Nothing to score: both branches return before any capability op.
        with _capability_calls() as entered:
            compiled = score(aig, None, params)
            with _finders():
                expected = score(aig, None, params)
        assert compiled == expected == {} and entered == []
        return []
    with _native_scans() as calls:
        compiled = score(aig, None, params)
        assert calls, "the compiled scan did not run"
        expected = {node: finder(aig, node, params) for node in cached_topological_order(aig)}
        assert {node: _key(compiled.get(node)) for node in expected} == {
            node: _key(candidate) for node, candidate in expected.items()
        }
        assert list(compiled) == [node for node, found in expected.items() if found]
        if not sweeps:
            return calls
        compiled_report = sweep_pass(aig.copy(), params)
        with _finders():
            finder_report = sweep_pass(aig.copy(), params)
    assert _report(compiled_report) == _report(finder_report)
    return calls


# --------------------------------------------------------------------------- #
# Compiled scoring == per-node finders
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("design", DESIGNS)
def test_compiled_resub_scoring_matches_the_finder_on_benchmarks(design):
    # Every setting's scoring; the sweeps (commit order, revalidation through
    # each candidate's regain closure) for the default and -W 16.
    _engine_or_skip()
    for aig in _networks(design):
        for params in RESUB_SETTINGS:
            _assert_identical(aig, "rs", params, sweeps=params in RESUB_SETTINGS[::3])


@pytest.mark.parametrize("design", DESIGNS)
def test_compiled_refactor_scoring_matches_the_finder_on_benchmarks(design):
    # Every setting's scoring; the sweeps for the default and -z.
    _engine_or_skip()
    for aig in _networks(design):
        for params in REFACTOR_SETTINGS:
            _assert_identical(aig, "rf", params, sweeps=params in REFACTOR_SETTINGS[::2])


@pytest.mark.parametrize("index", range(len(RESUB_SETTINGS)))
@settings(max_examples=10, deadline=None)
@given(spec=aig_specs)
@example(spec=AND_LESS)
def test_compiled_resub_scoring_matches_the_finder_on_random_aigs(index, spec):
    _engine_or_skip()
    _assert_identical(random_aig(spec), "rs", RESUB_SETTINGS[index])


@pytest.mark.parametrize("index", range(len(REFACTOR_SETTINGS)))
@settings(max_examples=10, deadline=None)
@given(spec=aig_specs)
@example(spec=AND_LESS)
def test_compiled_refactor_scoring_matches_the_finder_on_random_aigs(index, spec):
    _engine_or_skip()
    _assert_identical(random_aig(spec), "rf", REFACTOR_SETTINGS[index])


def test_order_dependent_roots_are_matched_in_the_window_set_order():
    # Most windows iterate in an order other than insertion order, so the
    # roots whose candidate depends on it take the second, ordered call.
    _engine_or_skip()
    calls = _assert_identical(load_benchmark("b11").copy(), "rs", ResubParams(), sweeps=False)
    first, second = calls
    assert not first[2] and second[2]
    assert 0 < len(second[1]) < len(first[1])


def test_window_set_iterates_like_the_finders_window():
    aig = _optimized("c880").copy()
    for node in cached_topological_order(aig):
        leaves = reconvergence_driven_cut(aig, node, max_leaves=8)
        for max_window in (16, 120):
            rebuilt = window_set(leaves, _window_walk(aig, leaves, max_window))
            assert list(rebuilt) == list(_collect_window(aig, leaves, max_window))


# --------------------------------------------------------------------------- #
# Declined settings, no engine, bad inputs
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "operation, params",
    [("rs", ResubParams(max_leaves=13)), ("rf", RefactorParams(max_leaves=13))],
    ids=["rs-K13", "rf-K13"],
)
def test_leaf_limit_above_the_kernels_takes_the_finder(operation, params):
    _engine_or_skip()
    score, finder, _sweep = SCORERS[operation]
    aig = load_benchmark("b08").copy()
    with _native_scans() as calls:
        compiled = score(aig, None, params)
    assert [op for op, _roots, _ordered in calls] == [operation]  # it declined
    expected = {node: finder(aig, node, params) for node in cached_topological_order(aig)}
    assert {node: _key(c) for node, c in compiled.items()} == {
        node: _key(c) for node, c in expected.items() if c is not None
    }


def test_no_engine_ops_decline_and_the_finders_run(monkeypatch):
    from repro.backend.native import NativeBackend

    monkeypatch.setattr(native_kernels, "load_engine", lambda: (None, "disabled-for-test"))
    backend = NativeBackend()
    aig = load_benchmark("b08").copy()
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    roots = list(cached_topological_order(aig))
    assert backend.refactor_cut_tables(view, roots, 10, 2) is None
    assert backend.resub_scan(view, view.fanout_order(aig), roots, 8, 120, 48, 16, 1, 1) is None
    monkeypatch.setattr(sweep, "get_backend", lambda: backend)
    degraded = {op: SCORERS[op][0](aig, None) for op in SCORERS}
    with use_backend("reference"):
        for op, candidates in degraded.items():
            expected = SCORERS[op][0](aig, None)
            assert [(n, _key(c)) for n, c in candidates.items()] == [
                (n, _key(c)) for n, c in expected.items()
            ]


def test_ops_reject_inputs_that_do_not_fit_the_snapshot():
    _engine_or_skip()
    aig = load_benchmark("b08").copy()
    with use_backend("native") as backend:
        view = levelized(aig)
        view.ensure_node_arrays(aig)
        fanouts = view.fanout_order(aig)
        roots = cached_topological_order(aig)
        settings_ = (8, 120, 48, 16, 1, 1)
        with pytest.raises(ValueError):
            backend.refactor_cut_tables(view, [view.num_slots], 10, 2)
        with pytest.raises(ValueError):
            backend.resub_scan(view, fanouts, [-1], *settings_)
        found, pending = backend.resub_scan(view, fanouts, roots, *settings_)
        assert pending
        rows = [row for row, _leaves, _window in pending]
        pending_roots = [roots[row] for row in rows]
        orders = [sorted(set(leaves) | set(window)) for _row, leaves, window in pending]
        # Any order of a root's window is accepted...
        assert backend.resub_scan(view, fanouts, pending_roots, *settings_, orders=orders)
        # ...but not one that misses a node, repeats one or adds the constant.
        for broken in (orders[0][1:], orders[0][:1] + orders[0][:-1], [0] + orders[0][1:]):
            with pytest.raises(ValueError):
                backend.resub_scan(
                    view, fanouts, pending_roots, *settings_, orders=[broken] + orders[1:]
                )
        with pytest.raises(ValueError):
            backend.resub_scan(view, fanouts, pending_roots, *settings_, orders=orders[1:])


def test_node_buffer_grows_for_wide_windows():
    # Windows of up to 500 nodes overflow the first node buffer: it is
    # regrown and the scan rerun.
    _engine_or_skip()
    aig = load_benchmark("c5315").copy()
    params = ResubParams(max_window=500, max_resub_nodes=2)
    _assert_identical(aig, "rs", params, sweeps=False)


# --------------------------------------------------------------------------- #
# The shared candidate table
# --------------------------------------------------------------------------- #
def test_warm_table_skips_first_sweep_kernel_roots():
    _engine_or_skip()
    aig = load_benchmark("b08").copy()
    decisions = RandomSampler(aig, seed=5).generate(1)[0]
    with _native_scans() as calls:
        cold = orchestrate(aig, decisions, in_place=False)
        cold_roots = sum(len(roots) for _op, roots, _ordered in calls)
        del calls[:]
        warm = orchestrate(aig, decisions, in_place=False)
        warm_roots = sum(len(roots) for _op, roots, _ordered in calls)
    assert cold_roots > 0
    assert warm_roots < cold_roots
    assert record_signature(SampleRecord(decisions, warm)) == record_signature(
        SampleRecord(decisions, cold)
    )
