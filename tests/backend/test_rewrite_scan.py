"""The native ``snapshot_cut_tables`` and ``rewrite_scan`` ops and the global
rewrite scoring they serve.

With the compiled engine, the global branch of
:func:`repro.synth.sweep.score_rewrites` runs as two compiled calls; without
it (or when an op declines) the Python loop runs.  The two must return equal
candidates for every target — gain, leaves, references, MFFC, reused nodes
and gain bar — and :func:`repro.synth.sweep.sweep_rewrites` must commit the
same candidates in the same order, on the benchmark designs as built and
after ``rw; rs``, and on random networks.  Both are also held to a scan of
every cut, which shows that stopping the MFFC-ordered scan at
``|MFFC| <= best gain`` loses nothing.  Tests that need the engine skip
without one.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.aig.cuts import CutEnumerator
from repro.aig.kernels import levelized
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.aig.truth import cut_truth_table
from repro.backend import get_backend, native_kernels, reset_default_backend, use_backend
from repro.backend.native import _OP_LABELS
from repro.circuits.benchmarks import load_benchmark
from repro.synth import sweep
from repro.synth.rewrite import RewriteParams, evaluate_rewrite_cut
from repro.synth.rewrite_lib import RewriteLibrary

#: (cut_size, cuts_per_node, use_zero_cost): the default, zero-cost
#: rewriting, the smallest cuts, the two widest tables and the largest
#: priority limit the ops accept.
SETTINGS = [
    (4, 8, False),
    (4, 8, True),
    (3, 4, False),
    (5, 8, False),
    (6, 12, False),
    (4, 63, False),
]

#: Settings the compiled scan declines: 64 cuts per node, and tables wider
#: than 64 bits.
DECLINED = [(4, 64, False), (7, 8, False)]

DESIGNS = ["b07", "b08", "b09", "b10", "b11", "b12", "c880", "c5315"]

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


def _params(cut_size, cuts_per_node, zero_cost):
    return RewriteParams(cut_size=cut_size, cuts_per_node=cuts_per_node, use_zero_cost=zero_cost)


def _key(candidate):
    return (
        candidate.node,
        candidate.gain,
        tuple(candidate.leaves),
        tuple(candidate.refs),
        candidate.deref,
        candidate.reused,
        candidate.min_gain,
    )


def _keys(candidates):
    return [(node, _key(candidate)) for node, candidate in candidates.items()]


def _report(report):
    return report.applied, report.sweeps, report.conflicts, [_key(c) for c in report.committed]


@lru_cache(maxsize=None)
def _optimized(design):
    """``design`` after ``rw; rs``: freed slots and rewired fanins."""
    from repro.engine import Engine

    engine = Engine.load(design)
    engine.run("rw; rs")
    return engine.aig


def _networks(design):
    return [load_benchmark(design).copy(), _optimized(design).copy()]


@contextmanager
def _python_branch():
    """Run the global branch's Python loop, whatever the backend."""
    compiled = sweep._score_compiled
    sweep._score_compiled = lambda *args: None
    try:
        yield
    finally:
        sweep._score_compiled = compiled


def _scan_every_cut(aig, params):
    """The scan without its early break: every cut is evaluated, in the same
    MFFC order, and a strictly greater gain replaces the best."""
    library = params.library if params.library is not None else sweep.DEFAULT_LIBRARY
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    cuts = CutEnumerator(k=params.cut_size, cuts_per_node=params.cuts_per_node).enumerate_reference(
        aig
    )
    candidates = {}
    for node in sweep.cached_topological_order(aig):
        scored = [
            (view.mffc_nodes(node, cut.leaves), cut)
            for cut in cuts[node]
            if not cut.is_trivial() and cut.size >= 2
        ]
        scored.sort(key=lambda entry: -len(entry[0]))
        best = None
        for deref, cut in scored:
            candidate = evaluate_rewrite_cut(
                aig, node, list(cut.leaves), cut_truth_table(aig, node, cut.leaves),
                library, params, deref=deref,
            )
            if candidate is not None and (best is None or candidate.gain > best.gain):
                best = candidate
        if best is not None:
            candidates[node] = best
    return candidates


@contextmanager
def _native_scans():
    """Select the native backend; yield the row counts of its scan calls."""
    calls = []
    with use_backend("native") as backend:
        scan = backend.rewrite_scan

        def spy(*args):
            calls.append(len(args[2]))
            return scan(*args)

        backend.rewrite_scan = spy
        try:
            yield calls
        finally:
            del backend.rewrite_scan


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


# --------------------------------------------------------------------------- #
# Compiled scan == Python loop
# --------------------------------------------------------------------------- #
def _assert_identical(aig, setting, sweeps=True):
    params = _params(*setting)
    if not aig.num_ands():
        # Nothing to score: both branches return before any capability op.
        with _capability_calls() as entered:
            compiled = sweep.score_rewrites(aig, None, params)
            with _python_branch():
                expected = sweep.score_rewrites(aig, None, params)
        assert compiled == expected == {} and entered == []
        return
    with _native_scans() as calls:
        compiled = sweep.score_rewrites(aig, None, params)
        assert calls, "the compiled scan did not run"
        with _python_branch():
            expected = sweep.score_rewrites(aig, None, params)
        assert _keys(compiled) == _keys(expected)
        if not sweeps:
            return
        compiled_report = sweep.sweep_rewrites(aig.copy(), params)
        with _python_branch():
            python_report = sweep.sweep_rewrites(aig.copy(), params)
    assert _report(compiled_report) == _report(python_report)


@pytest.mark.parametrize("design", DESIGNS)
def test_compiled_scan_matches_python_loop_on_benchmarks(design):
    # Every setting's scoring; the sweeps (commit order and revalidation
    # through each candidate's regain closure) for the default and the
    # zero-cost setting, which keep the suite's run time in bounds.
    _engine_or_skip()
    for aig in _networks(design):
        for setting in SETTINGS:
            _assert_identical(aig, setting, sweeps=setting in SETTINGS[:2])


@pytest.mark.parametrize("setting", SETTINGS)
@settings(max_examples=10, deadline=None)
@given(spec=aig_specs)
@example(spec=AND_LESS)
def test_compiled_scan_matches_python_loop_on_random_aigs(setting, spec):
    _engine_or_skip()
    _assert_identical(random_aig(spec), setting)


@pytest.mark.parametrize("setting", DECLINED)
def test_declined_settings_take_the_python_loop(setting):
    _engine_or_skip()
    aig = load_benchmark("b08").copy()
    params = _params(*setting)
    with _native_scans() as calls:
        found = get_backend().snapshot_cut_tables(
            levelized(aig), params.cut_size, params.cuts_per_node
        )
        # 64 cuts: no enumeration; 7 leaves: cuts without truth tables.
        assert found is None or found[2] is None
        compiled = sweep.score_rewrites(aig, None, params)
        assert calls == []
    with use_backend("reference"):
        expected = sweep.score_rewrites(aig, None, params)
    assert _keys(compiled) == _keys(expected)


def test_no_engine_ops_decline_and_the_python_loop_runs(monkeypatch):
    from repro.backend.native import NativeBackend

    monkeypatch.setattr(native_kernels, "load_engine", lambda: (None, "disabled-for-test"))
    backend = NativeBackend()
    aig = load_benchmark("b08").copy()
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    assert backend.snapshot_cut_tables(view, 4, 8) is None
    empty = np.zeros((0, 9), np.int64)
    assert (
        backend.rewrite_scan(
            view, aig._strash, [], np.zeros((0, 9, 4), np.int64), empty, np.zeros(0, np.int64),
            empty, [], 1,
        )
        is None
    )
    targets = list(sweep.cached_topological_order(aig))
    params = RewriteParams()
    assert sweep._score_compiled(aig, view, targets, params, sweep.DEFAULT_LIBRARY, backend) is None
    monkeypatch.setattr(sweep, "get_backend", lambda: backend)
    degraded = sweep.score_rewrites(aig, None, params)
    with use_backend("reference"):
        assert _keys(degraded) == _keys(sweep.score_rewrites(aig, None, params))


# --------------------------------------------------------------------------- #
# The early break loses nothing
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("zero_cost", [False, True])
def test_early_break_equals_scan_of_every_cut_on_benchmarks(design, zero_cost):
    params = _params(4, 8, zero_cost)
    aig = load_benchmark(design).copy()
    expected = _keys(_scan_every_cut(aig, params))
    with use_backend("reference"):
        assert _keys(sweep.score_rewrites(aig, None, params)) == expected
    if native_kernels.load_engine()[0] is not None:
        with use_backend("native"):
            assert _keys(sweep.score_rewrites(aig, None, params)) == expected


@pytest.mark.parametrize("design", ["b08", "c880"])
@pytest.mark.parametrize("setting", DECLINED)
def test_early_break_equals_scan_of_every_cut_on_declined_settings(design, setting):
    # The settings the compiled scan declines run the Python loop under
    # both backends; the scan of every cut is its oracle.
    params = _params(*setting)
    aig = load_benchmark(design).copy()
    expected = _keys(_scan_every_cut(aig, params))
    for backend_name in ("reference", "native"):
        with use_backend(backend_name):
            assert _keys(sweep.score_rewrites(aig, None, params)) == expected


@pytest.mark.parametrize("zero_cost", [False, True])
@settings(max_examples=15, deadline=None)
@given(spec=aig_specs)
def test_early_break_equals_scan_of_every_cut_on_random_aigs(zero_cost, spec):
    params = _params(4, 8, zero_cost)
    aig = random_aig(spec)
    expected = _keys(_scan_every_cut(aig, params))
    with use_backend("reference"):
        assert _keys(sweep.score_rewrites(aig, None, params)) == expected
    if native_kernels.load_engine()[0] is not None:
        with use_backend("native"):
            assert _keys(sweep.score_rewrites(aig, None, params)) == expected


# --------------------------------------------------------------------------- #
# Fragments built on demand, node buffer regrown
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("design", ["b09", "c880"])
def test_compiled_scan_builds_exactly_the_python_loops_fragments(design):
    # A fresh library holds no fragment, so every scanned cut first stops
    # its node's scan; the fragments built in between must be exactly the
    # ones the Python loop looks up.
    _engine_or_skip()
    aig = load_benchmark(design).copy()
    compiled_library, python_library = RewriteLibrary(), RewriteLibrary()
    with _native_scans() as calls:
        compiled = sweep.score_rewrites(aig, None, RewriteParams(library=compiled_library))
        assert len(calls) > 1  # scanned again after building fragments
        with _python_branch():
            expected = sweep.score_rewrites(aig, None, RewriteParams(library=python_library))
    assert _keys(compiled) == _keys(expected)
    assert set(compiled_library._by_table) == set(python_library._by_table)


def test_node_buffer_grows_for_a_large_winner():
    # One root whose best cut frees a 120-node chain: the winner's MFFC
    # overflows the scan's first node buffer, which is regrown and the
    # scan rerun.
    _engine_or_skip()
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    for _ in range(120):
        node = aig.add_and(node, a)
    aig.add_po(node)
    root = node >> 1
    params = RewriteParams()
    with use_backend("native") as backend:
        view = levelized(aig)
        view.ensure_node_arrays(aig)
        compiled = sweep._score_compiled(aig, view, [root], params, sweep.DEFAULT_LIBRARY, backend)
    assert len(compiled[root].deref) == 121
    with use_backend("reference"):
        assert _key(compiled[root]) == _key(sweep.score_rewrites(aig, None, params)[root])


def test_scan_rejects_out_of_range_inputs():
    _engine_or_skip()
    aig = load_benchmark("b08").copy()
    with use_backend("native") as backend:
        view = levelized(aig)
        view.ensure_node_arrays(aig)
        leaves, sizes, _tables, counts = backend.snapshot_cut_tables(view, 4, 8)
        roots = np.array(sweep.cached_topological_order(aig)[:3], np.int64)
        cuts = (leaves[roots], sizes[roots], counts[roots])
        fragment_of = np.zeros(cuts[1].shape, np.int64)
        # One fragment, not built yet: every root stops at its first cut.
        best, pending = backend.rewrite_scan(view, aig._strash, roots, *cuts, fragment_of, [None], 1)
        assert best == [None] * 3 and [row for row, _ in pending] == [0, 1, 2]
        for bad_roots, bad_fragments in (
            (roots + view.num_slots, fragment_of),
            (roots, fragment_of + 1),
            (roots[:2], fragment_of),
        ):
            with pytest.raises(ValueError):
                backend.rewrite_scan(
                    view, aig._strash, bad_roots, *cuts, bad_fragments, [None], 1
                )
