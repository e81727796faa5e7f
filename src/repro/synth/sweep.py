"""Batched sweep-and-commit optimization engine.

The sequential pass drivers (:mod:`repro.synth.scripts`) walk the network
node by node and mutate it after every accepted candidate.  Each mutation
bumps the structural version counter, which throws away the levelized kernel
snapshot, the cut memo and the cached topological order — so per-node scoring
constantly re-derives global state and the pass runtime grows quadratically
with the number of accepted transformations.

This module restructures the passes into two phases per *sweep*:

1. **Score** — candidates for *all* nodes are computed against one frozen
   :class:`~repro.aig.kernels.LevelizedAig` snapshot.  Rewriting scans the
   cuts of one full-network enumeration, in two compiled calls on the native
   backend and otherwise in a Python loop that computes truth tables only
   for the cuts it evaluates; a small target set (a rescore sweep) is scored
   over each node's bounded local-region cuts instead, which the native
   backend enumerates with their truth tables in one compiled call.
   Refactoring and resubstitution return their per-node finders' candidates:
   on the native backend from compiled calls over all targets (the cuts and
   truth tables of refactoring, then the rewrite scan's dry run; the whole
   windowed matching of resubstitution), otherwise by running the finders
   against the frozen network.

2. **Commit** — a maximal set of *footprint-disjoint* winners (best gain
   first) is applied in a single mutation sweep.  Each applied candidate
   records the exact set of touched nodes through the network's mutation
   journal (:meth:`~repro.aig.aig.Aig.journal_begin`); a later candidate is
   committed only if its footprint — MFFC, referenced nodes, structurally
   reused nodes — is disjoint from everything touched so far, which keeps
   every scored gain estimate valid and makes the sweep size-monotone.

Sweeps repeat (bounded by :attr:`SweepParams.max_sweeps`) until no candidate
commits; after the first sweep only nodes near the mutated region are
re-scored (:func:`repro.aig.kernels.expand_region`), candidates with clean
footprints are carried over, so convergence sweeps are cheap.

Every transformation applied here is the same local, function-preserving
replacement the sequential drivers perform, so functional equivalence with
the input network holds by construction; the test-suite additionally checks
batched-vs-sequential equivalence and node-count monotonicity on randomized
networks and on every registered benchmark.

The scoring loops — cut enumeration, the rewrite scan, the window scans of
refactoring and resubstitution — feature-detect the selected compute
backend's capability ops (:mod:`repro.backend`): the same sweep code runs
compiled scans on the native backend and its Python loops otherwise.  The
commit phase is one Python loop on every backend.  The tracked
``pass_sweep`` benchmark measures this engine on the native backend against
the sequential drivers on the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.aig.aig import Aig, AigError
from repro.aig.cuts import CutEnumerator
from repro.aig.kernels import LevelizedAig, cached_topological_order, expand_region, levelized
from repro.aig.simulate import random_patterns
from repro.aig.truth import cut_truth_table
from repro.backend import get_backend
from repro.obs.trace import TRACER
from repro.synth.candidates import TransformCandidate
from repro.synth.refactor import RefactorParams, find_refactor_candidate, refactor_fragment
from repro.synth.resub import ResubParams, find_resub_candidate, resub_candidate, window_set
from repro.synth.rewrite import (
    RewriteParams,
    evaluate_rewrite_cut,
    find_rewrite_candidate,
    rewrite_candidate,
)
from repro.synth.rewrite_lib import DEFAULT_LIBRARY, RewriteLibrary


@dataclass
class SweepParams:
    """Tuning knobs of the sweep-and-commit engine.

    ``num_patterns`` and ``pattern_seed`` set the random simulation behind
    the resubstitution scorer's signature-class prefilter: a signature
    collision only costs a wasted exact check, so correctness never depends
    on them.
    """

    max_sweeps: int = 3
    rescore_radius: int = 2
    num_patterns: int = 512
    pattern_seed: int = 2024


@dataclass
class SweepReport:
    """Outcome of one multi-sweep batched pass."""

    applied: int = 0
    sweeps: int = 0
    conflicts: int = 0
    #: The committed candidates, in commit order (their ``node`` /
    #: ``operation`` fields drive the orchestration bookkeeping).
    committed: List[TransformCandidate] = field(default_factory=list)

    @property
    def applied_nodes(self) -> List[int]:
        """Node ids whose candidate was committed, in commit order."""
        return [candidate.node for candidate in self.committed]


#: A scorer maps (network, node subset or None) to {node: best candidate}.
Scorer = Callable[[Aig, Optional[Set[int]]], Dict[int, TransformCandidate]]

#: Per-node finder results keyed by ``(node, "rw" | "rs" | "rf")``, ``None``
#: recording "not transformable".  Shared by the first sweeps of identical,
#: unmutated networks (see
#: :func:`repro.orchestration.orchestrate.copy_candidate_table`).
CandidateTable = Dict[Tuple[int, str], Optional[TransformCandidate]]

_UNSCORED = object()


def _find(table: Optional[CandidateTable], node: int, operation: str, finder, *args, **kwargs):
    """``finder(*args, **kwargs)``, looked up in (and recorded into) ``table``."""
    if table is None:
        return finder(*args, **kwargs)
    candidate = table.get((node, operation), _UNSCORED)
    if candidate is _UNSCORED:
        candidate = table[(node, operation)] = finder(*args, **kwargs)
    return candidate


# --------------------------------------------------------------------------- #
# Scorers (phase 1)
# --------------------------------------------------------------------------- #
def score_rewrites(
    aig: Aig,
    nodes: Optional[Set[int]] = None,
    params: Optional[RewriteParams] = None,
    sweep_params: Optional[SweepParams] = None,
    table: Optional[CandidateTable] = None,
) -> Dict[int, TransformCandidate]:
    """Best rewriting candidate per node, scored against one frozen snapshot.

    Unlike the sequential finder — which enumerates cuts in a bounded local
    region per node — the batched scorer runs one full-network enumeration
    and scans each node's cuts in decreasing |MFFC| order with the shared
    :func:`~repro.synth.rewrite.evaluate_rewrite_cut` core.  On the native
    backend the whole branch is two compiled calls (see
    :func:`_score_compiled`): one enumerates every cut with its truth table
    — in C a cone walk per cut costs less than deciding which cuts the scan
    will reach — and one runs the scan.  Elsewhere (no compiled engine, more
    than 6 leaves per cut, or 64 or more cuts per node) the Python loop
    below computes truth tables with
    :func:`~repro.aig.truth.cut_truth_table`, only for the cuts the
    MFFC-sorted scan evaluates.  ``table`` memoizes the small-target scoring
    only.
    """
    del sweep_params
    params = params or RewriteParams()
    library = params.library if params.library is not None else DEFAULT_LIBRARY
    topo = cached_topological_order(aig)
    targets = [n for n in topo if nodes is None or n in nodes]
    if not targets:
        return {}
    if nodes is not None and len(targets) * 2 < len(topo):
        # Small target set (rescore sweeps, split decision vectors): each
        # node is scored over the cuts of its bounded local region, the cuts
        # the sequential finder considers, not the global enumeration's —
        # which also beats re-running the global enumeration for a few nodes.
        return _score_local_rewrites(aig, targets, params, library, table)
    backend = get_backend()
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    compiled = _score_compiled(aig, view, targets, params, library, backend)
    if compiled is not None:
        return compiled
    enumerator = CutEnumerator(k=params.cut_size, cuts_per_node=params.cuts_per_node)
    all_cuts = enumerator.enumerate(aig)
    candidates: Dict[int, TransformCandidate] = {}
    for node in targets:
        scored = []
        for cut in all_cuts.get(node, ()):
            if cut.is_trivial() or cut.size < 2:
                continue
            scored.append((view.mffc_nodes(node, cut.leaves), cut))
        # The freed MFFC upper-bounds the gain, so evaluating the cuts in
        # decreasing |MFFC| order lets the scan stop as soon as no remaining
        # cut can beat the best candidate found so far.
        scored.sort(key=lambda entry: -len(entry[0]))
        best: Optional[TransformCandidate] = None
        for deref, cut in scored:
            if best is not None and len(deref) <= best.gain:
                break
            candidate = evaluate_rewrite_cut(
                aig,
                node,
                list(cut.leaves),
                cut_truth_table(aig, node, cut.leaves),
                library,
                params,
                deref=deref,
            )
            if candidate is not None and (best is None or candidate.gain > best.gain):
                best = candidate
        if best is not None:
            candidates[node] = best
    return candidates


def _score_compiled(
    aig: Aig,
    view: LevelizedAig,
    targets: List[int],
    params: RewriteParams,
    library: RewriteLibrary,
    backend,
) -> Optional[Dict[int, TransformCandidate]]:
    """The global branch of :func:`score_rewrites` in two compiled calls.

    The backend's ``snapshot_cut_tables`` returns every cut of the snapshot
    with its truth table.  Each distinct (table, cut size) of the targets'
    cuts is resolved through ``library`` into a fragment, and the backend's
    ``rewrite_scan`` replays the per-node MFFC-ordered scan.  A fragment
    the library has not built yet stops its node's scan; it is built with
    :meth:`~repro.synth.rewrite_lib.RewriteLibrary.lookup` and the node is
    scanned again, so the library builds exactly the fragments the Python
    loop would.  Only the winners become candidates, through
    :func:`~repro.synth.rewrite.rewrite_candidate`.  ``None`` when the
    backend lacks either op or declines, and for cuts of more than 6
    leaves, whose truth tables do not fit the ops' 64-bit words.
    """
    snapshot_cut_tables = getattr(backend, "snapshot_cut_tables", None)
    rewrite_scan = getattr(backend, "rewrite_scan", None)
    if snapshot_cut_tables is None or rewrite_scan is None or params.cut_size > 6:
        return None
    found = snapshot_cut_tables(view, params.cut_size, params.cuts_per_node)
    if found is None:
        return None
    roots = np.array(targets, dtype=np.int64)
    leaves, sizes, tables, counts = (array[roots] for array in found)
    scanned = (np.arange(sizes.shape[1]) < counts[:, None]) & (sizes >= 2)
    key_of = np.zeros(sizes.shape, np.int64)
    keys: List[Tuple[int, int]] = []
    for size in range(2, params.cut_size + 1):
        chosen = scanned & (sizes == size)
        if chosen.any():
            distinct, inverse = np.unique(tables[chosen], return_inverse=True)
            key_of[chosen] = inverse.reshape(-1) + len(keys)
            keys.extend((table, size) for table in distinct.tolist())
    fragments = [library.cached(table, size) for table, size in keys]
    min_gain = params.effective_min_gain()
    best: List[Optional[tuple]] = [None] * len(targets)
    rows = np.arange(len(targets))
    while rows.size:
        scan = rewrite_scan(
            view, aig._strash, roots[rows], leaves[rows], sizes[rows], counts[rows],
            key_of[rows], fragments, min_gain,
        )
        if scan is None:
            return None
        found_best, pending = scan
        for row, result in zip(rows.tolist(), found_best):
            best[row] = result
        for index, cut in pending:
            key = int(key_of[rows[index], cut])
            fragments[key] = library.lookup(*keys[key])
        rows = rows[[index for index, _ in pending]]
    candidates: Dict[int, TransformCandidate] = {}
    for row, node in enumerate(targets):
        if best[row] is None:
            continue
        cut, gain, deref, reused = best[row]
        cut_leaves = leaves[row, cut, : sizes[row, cut]].tolist()
        fragment = fragments[int(key_of[row, cut])]
        candidates[node] = rewrite_candidate(
            node, cut_leaves, fragment, gain, deref, reused, min_gain
        )
    return candidates


def _score_local_rewrites(
    aig: Aig,
    targets: List[int],
    params: RewriteParams,
    library: RewriteLibrary,
    table: Optional[CandidateTable],
) -> Dict[int, TransformCandidate]:
    """The small-target branch of :func:`score_rewrites`.

    Equal, candidate for candidate, to :func:`find_rewrite_candidate` per
    target.  A backend with the ``local_cut_tables`` capability returns the
    local cuts and truth tables of every target ``table`` lacks in one call;
    they are scored in the finder's order, where only a strictly greater
    gain replaces the best, and recorded into ``table``.  Without it (or
    when it declines), :func:`_find` runs the finder per target.
    """
    misses = [node for node in targets if table is None or (node, "rw") not in table]
    cuts_of: Dict[int, list] = {}
    local_cut_tables = getattr(get_backend(), "local_cut_tables", None)
    if misses and local_cut_tables is not None:
        view = levelized(aig)
        view.ensure_node_arrays(aig)
        found = local_cut_tables(
            view, misses, params.cut_size, params.cuts_per_node, params.max_region, params.max_depth
        )
        if found is not None:
            cuts_of = dict(zip(misses, found))
    candidates: Dict[int, TransformCandidate] = {}
    for node in targets:
        cuts = cuts_of.get(node)
        if cuts is None:
            best = _find(table, node, "rw", find_rewrite_candidate, aig, node, params)
        else:
            best = None
            for leaves, truth in cuts:
                if len(leaves) < 2:
                    continue
                candidate = evaluate_rewrite_cut(
                    aig,
                    node,
                    list(leaves),
                    truth,
                    library,
                    params,
                    deref=view.mffc_nodes(node, leaves),
                )
                if candidate is not None and (best is None or candidate.gain > best.gain):
                    best = candidate
            if table is not None:
                table[(node, "rw")] = best
        if best is not None:
            candidates[node] = best
    return candidates


def _tabled(
    targets: List[int],
    operation: str,
    table: Optional[CandidateTable],
    score: Callable[[List[int]], Optional[List[Optional[TransformCandidate]]]],
) -> Optional[Dict[int, TransformCandidate]]:
    """Each target's candidate, with ``score`` run once on those ``table`` lacks.

    ``score`` maps the missing targets to their candidates (``None`` where a
    target has none), or returns ``None`` to decline; its results are
    recorded into ``table``.  Returns the targets' candidates in order, or
    ``None`` when ``score`` declined.
    """
    misses = [node for node in targets if table is None or (node, operation) not in table]
    found: Dict[int, Optional[TransformCandidate]] = {}
    if misses:
        scored = score(misses)
        if scored is None:
            return None
        found = dict(zip(misses, scored))
        if table is not None:
            table.update(((node, operation), candidate) for node, candidate in found.items())
    candidates: Dict[int, TransformCandidate] = {}
    for node in targets:
        candidate = found[node] if node in found else table[(node, operation)]
        if candidate is not None:
            candidates[node] = candidate
    return candidates


def score_refactors(
    aig: Aig,
    nodes: Optional[Set[int]] = None,
    params: Optional[RefactorParams] = None,
    sweep_params: Optional[SweepParams] = None,
    table: Optional[CandidateTable] = None,
) -> Dict[int, TransformCandidate]:
    """Best refactoring candidate per node against one frozen snapshot.

    Equal, candidate for candidate, to
    :func:`~repro.synth.refactor.find_refactor_candidate` per target.  A
    backend with the ``refactor_cut_tables`` and ``rewrite_scan``
    capabilities scores every target ``table`` lacks in two compiled calls
    (see :func:`_score_compiled_refactors`).  Otherwise the finder runs per
    node, skipping nodes whose *global* MFFC (an upper bound on any
    cut-bounded MFFC) is already below ``min_cone_size``.  Both paths take
    factored fragments from the process-wide memo behind
    :func:`~repro.synth.refactor.refactor_fragment`, and ``table`` memoizes
    their results.
    """
    del sweep_params
    params = params or RefactorParams()
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    targets = [n for n in cached_topological_order(aig) if nodes is None or n in nodes]
    compiled = _tabled(
        targets, "rf", table,
        lambda misses: _score_compiled_refactors(aig, view, misses, params),
    )
    if compiled is not None:
        return compiled
    candidates: Dict[int, TransformCandidate] = {}
    for node in targets:
        if len(view.mffc_nodes(node)) < params.min_cone_size:
            continue
        candidate = _find(table, node, "rf", find_refactor_candidate, aig, node, params)
        if candidate is not None:
            candidates[node] = candidate
    return candidates


def _score_compiled_refactors(
    aig: Aig, view: LevelizedAig, targets: List[int], params: RefactorParams
) -> Optional[List[Optional[TransformCandidate]]]:
    """:func:`~repro.synth.refactor.find_refactor_candidate` per target, in
    two compiled calls.

    The backend's ``refactor_cut_tables`` returns each target's
    reconvergence-driven cut with its truth table, having dropped the
    targets the finder drops before its dry run.  Each distinct (table, cut
    size) is resolved through :func:`~repro.synth.refactor.refactor_fragment`,
    and the backend's ``rewrite_scan`` runs the finder's budgeted dry run on
    every target's one cut: its gain, its root rejection and its gain bar
    are the finder's.  Only the winners become candidates, through
    :func:`~repro.synth.rewrite.rewrite_candidate`.  ``None`` when the
    backend lacks either op or declines.
    """
    backend = get_backend()
    refactor_cut_tables = getattr(backend, "refactor_cut_tables", None)
    rewrite_scan = getattr(backend, "rewrite_scan", None)
    if refactor_cut_tables is None or rewrite_scan is None:
        return None
    found = refactor_cut_tables(view, targets, params.max_leaves, params.min_cone_size)
    if found is None:
        return None
    leaves, sizes, tables = found
    rows = np.flatnonzero(sizes)
    keys: Dict[Tuple[int, int], int] = {}
    fragment_of = np.zeros((rows.size, 2), np.int64)
    for index, row in enumerate(rows.tolist()):
        fragment_of[index, 0] = keys.setdefault((tables[row], int(sizes[row])), len(keys))
    fragments = [refactor_fragment(table, size) for table, size in keys]
    # One cut per target, then the trivial cut the scan's layout expects.
    scan_leaves = np.zeros((rows.size, 2, leaves.shape[1]), np.int64)
    scan_leaves[:, 0] = leaves[rows]
    scan_sizes = np.ones((rows.size, 2), np.int64)
    scan_sizes[:, 0] = sizes[rows]
    min_gain = params.effective_min_gain()
    scan = rewrite_scan(
        view, aig._strash, np.array(targets, np.int64)[rows], scan_leaves, scan_sizes,
        np.ones(rows.size, np.int64), fragment_of, fragments, min_gain,
    )
    if scan is None:
        return None
    best, _pending = scan  # every fragment is built, so no scan stops early
    candidates: List[Optional[TransformCandidate]] = [None] * len(targets)
    for index, row in enumerate(rows.tolist()):
        if best[index] is not None:
            _cut, gain, deref, reused = best[index]
            candidates[row] = rewrite_candidate(
                targets[row], leaves[row, : sizes[row]].tolist(),
                fragments[fragment_of[index, 0]], gain, deref, reused, min_gain,
                operation="rf",
            )
    return candidates


def _signature_classes(
    aig: Aig, view: LevelizedAig, sweep_params: SweepParams
) -> Tuple[Dict[bytes, int], List[bytes]]:
    """Global-signature equivalence classes (complement-canonical).

    Equal (or complemented) window truth tables imply equal (complemented)
    global functions, which imply equal canonical signatures under *any*
    simulation patterns — so a node whose signature class is trivial provably
    has no 0-resub divisor anywhere, under any window.  Collisions only cost
    a wasted exact check, never a missed candidate.  Returns the per-class
    counts and the per-slot canonical keys.
    """
    patterns = random_patterns(
        aig.num_pis(), sweep_params.num_patterns, seed=sweep_params.pattern_seed
    )
    values = view.simulate(patterns)
    complement = ~values
    keys: List[bytes] = [b""] * view.num_slots
    counts: Dict[bytes, int] = {}
    for node in view._value_ids:
        key = min(values[node].tobytes(), complement[node].tobytes())
        keys[node] = key
        counts[key] = counts.get(key, 0) + 1
    return counts, keys


def score_resubs(
    aig: Aig,
    nodes: Optional[Set[int]] = None,
    params: Optional[ResubParams] = None,
    sweep_params: Optional[SweepParams] = None,
    table: Optional[CandidateTable] = None,
) -> Dict[int, TransformCandidate]:
    """Best resubstitution candidate per node against one frozen snapshot.

    Equal, candidate for candidate, to
    :func:`~repro.synth.resub.find_resub_candidate` per target.  A backend
    with the ``resub_scan`` capability scores every target ``table`` lacks
    in compiled calls (see :func:`_score_compiled_resubs`).  Otherwise the
    finder runs per node behind two exact prefilters derived from the
    snapshot, which skip nodes that provably have no candidate before the
    window machinery runs: 1/2-resub needs a freed MFFC larger than the
    nodes it adds (the global MFFC bounds every cut-bounded MFFC from
    above), and 0-resub needs another node with an identical-or-complemented
    global signature (see :func:`_signature_classes`).  ``table`` memoizes
    the results of both paths.
    """
    params = params or ResubParams()
    sweep_params = sweep_params or SweepParams()
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    targets = [n for n in cached_topological_order(aig) if nodes is None or n in nodes]
    compiled = _tabled(
        targets, "rs", table, lambda misses: _score_compiled_resubs(aig, view, misses, params)
    )
    if compiled is not None:
        return compiled
    classes, keys = _signature_classes(aig, view, sweep_params)
    min_gain = params.effective_min_gain()
    candidates: Dict[int, TransformCandidate] = {}
    for node in targets:
        global_mffc = len(view.mffc_nodes(node))
        may_add_nodes = (
            params.max_resub_nodes >= 1 and global_mffc >= min_gain + 1
        )
        may_zero = classes.get(keys[node], 0) > 1 and global_mffc >= min_gain
        if not (may_add_nodes or may_zero):
            continue
        candidate = _find(table, node, "rs", find_resub_candidate, aig, node, params)
        if candidate is not None:
            candidates[node] = candidate
    return candidates


def _score_compiled_resubs(
    aig: Aig, view: LevelizedAig, targets: List[int], params: ResubParams
) -> Optional[List[Optional[TransformCandidate]]]:
    """:func:`~repro.synth.resub.find_resub_candidate` per target, in at most
    two compiled calls.

    The backend's ``resub_scan`` replays the finder's cut, MFFC, window,
    truth tables and divisor filter for every target.  The finder scans its
    divisors in the iteration order of its window set, which C cannot
    derive, so the first call resolves only the targets whose result does
    not depend on that order.  For the others it returns the window in
    insertion order; :func:`~repro.synth.resub.window_set` rebuilds the
    finder's set from it, and a second call matches their divisors in that
    set's order.  Only the winners become candidates, through
    :func:`~repro.synth.resub.resub_candidate`.  ``None`` when the backend
    lacks the op or declines.
    """
    resub_scan = getattr(get_backend(), "resub_scan", None)
    if resub_scan is None:
        return None
    fanouts = view.fanout_order(aig)
    min_gain = params.effective_min_gain()
    settings = (
        params.max_leaves, params.max_window, params.max_divisors,
        params.max_divisors_two_resub, params.max_resub_nodes, min_gain,
    )
    scan = resub_scan(view, fanouts, targets, *settings)
    if scan is None:
        return None
    found, pending = scan
    if pending:
        rows = [row for row, _leaves, _window in pending]
        orders = [list(window_set(leaves, window)) for _row, leaves, window in pending]
        rescan = resub_scan(view, fanouts, [targets[row] for row in rows], *settings, orders=orders)
        if rescan is None:
            return None
        for row, match in zip(rows, rescan[0]):
            found[row] = match
    return [
        None if match is None else resub_candidate(node, *match, min_gain)
        for node, match in zip(targets, found)
    ]


# --------------------------------------------------------------------------- #
# Commit (phase 2)
# --------------------------------------------------------------------------- #
def commit_candidates(
    aig: Aig, candidates: Sequence[TransformCandidate]
) -> Tuple[List[TransformCandidate], Set[int], int]:
    """Apply the scored winners in one mutation sweep.

    Candidates are attempted in decreasing gain (ties broken by node id for
    determinism).  The journal-based *dirty* set makes conflict detection
    exact: a candidate whose footprint (root, MFFC, reused nodes) is
    untouched commits on the fast path with its scored gain guaranteed; a
    candidate whose footprint was touched by an earlier commit is *re-
    validated* — its MFFC and structural dry-run are recomputed against the
    live network (reusing the already synthesized replacement, which stays
    functionally valid while its references are alive) and it commits only
    if the fresh gain still clears the operation's bar.  ``conflicts``
    counts the candidates dropped by re-validation.  Returns
    ``(applied, dirty, conflicts)``.
    """
    order = sorted(candidates, key=lambda cand: (-cand.gain, cand.node))
    dirty: Set[int] = set()
    applied: List[TransformCandidate] = []
    conflicts = 0
    has_node = aig.has_node
    for candidate in order:
        if not has_node(candidate.node) or not aig.is_and(candidate.node):
            continue
        if not dirty.isdisjoint(candidate.footprint()):
            fresh_gain = candidate.revalidate(aig)
            if fresh_gain is None or fresh_gain < candidate.min_gain:
                conflicts += 1
                continue
        elif not all(has_node(ref) for ref in candidate.refs):
            # Referenced nodes (cut leaves, divisors) only need to be
            # alive: commits preserve every surviving node's global
            # function, so a touched-but-live reference still computes
            # what it did when the candidate was scored.
            conflicts += 1
            continue
        journal = aig.journal_begin()
        try:
            candidate.apply(aig)
        except AigError:
            # Resubstitution replacements can race into a cycle when
            # distant commits re-routed the divisor's fanout cone; the
            # replace() guard rejects them cleanly and the candidate is
            # simply dropped.
            pass
        finally:
            aig.journal_end()
        dirty |= journal
        if not (aig.has_node(candidate.node) and aig.is_and(candidate.node)):
            # The root was consumed: the replacement really happened.
            applied.append(candidate)
    return applied, dirty, conflicts


# --------------------------------------------------------------------------- #
# The sweep loop
# --------------------------------------------------------------------------- #
def _scored(
    aig: Aig,
    scorer: Scorer,
    nodes: Optional[Set[int]],
    region: str,
) -> Dict[int, TransformCandidate]:
    """Run one scoring phase, under a ``sweep.score`` span when tracing."""
    if not TRACER.enabled:
        return scorer(aig, nodes)
    with TRACER.span("sweep.score", attrs={"region": region}) as span:
        candidates = scorer(aig, nodes)
        span.set("candidates", len(candidates))
    return candidates


def run_sweeps(
    aig: Aig,
    scorer: Scorer,
    sweep_params: Optional[SweepParams] = None,
) -> SweepReport:
    """Alternate scoring and committing until convergence (bounded).

    ``scorer`` is called with ``nodes=None`` for the first sweep (score
    everything) and with the dirty region for later sweeps; candidates whose
    footprint survived the previous commit untouched are carried over
    without re-scoring.
    """
    sweep_params = sweep_params or SweepParams()
    report = SweepReport()
    candidates = _scored(aig, scorer, None, "full")
    while report.sweeps < sweep_params.max_sweeps:
        report.sweeps += 1
        if not candidates:
            break
        if TRACER.enabled:
            with TRACER.span(
                "sweep.commit", attrs={"sweep": report.sweeps, "candidates": len(candidates)}
            ) as span:
                applied, dirty, conflicts = commit_candidates(aig, candidates.values())
                span.set("applied", len(applied))
                span.set("conflicts", conflicts)
        else:
            applied, dirty, conflicts = commit_candidates(aig, candidates.values())
        report.applied += len(applied)
        report.conflicts += conflicts
        report.committed.extend(applied)
        if not applied or report.sweeps >= sweep_params.max_sweeps:
            break
        region = expand_region(
            aig, dirty, sweep_params.rescore_radius, fanout_only=True
        )
        carried = {
            node: candidate
            for node, candidate in candidates.items()
            if node not in region
            and aig.has_node(node)
            and aig.is_and(node)
            and dirty.isdisjoint(candidate.footprint())
            and all(aig.has_node(ref) for ref in candidate.refs)
        }
        rescore = {
            node
            for node in region
            if aig.has_node(node) and aig.is_and(node)
        }
        candidates = dict(carried)
        candidates.update(_scored(aig, scorer, rescore, "rescore"))
    return report


# --------------------------------------------------------------------------- #
# Pass-level and orchestration-level drivers
# --------------------------------------------------------------------------- #
def sweep_rewrites(
    aig: Aig,
    params: Optional[RewriteParams] = None,
    sweep_params: Optional[SweepParams] = None,
) -> SweepReport:
    """Batched rewriting over the whole network (modifies ``aig`` in place)."""
    sweep_params = sweep_params or SweepParams()

    def scorer(target: Aig, nodes: Optional[Set[int]]):
        return score_rewrites(target, nodes, params, sweep_params)

    return run_sweeps(aig, scorer, sweep_params)


def sweep_refactors(
    aig: Aig,
    params: Optional[RefactorParams] = None,
    sweep_params: Optional[SweepParams] = None,
) -> SweepReport:
    """Batched refactoring over the whole network (modifies ``aig`` in place)."""

    def scorer(target: Aig, nodes: Optional[Set[int]]):
        return score_refactors(target, nodes, params)

    return run_sweeps(aig, scorer, sweep_params)


def sweep_resubs(
    aig: Aig,
    params: Optional[ResubParams] = None,
    sweep_params: Optional[SweepParams] = None,
) -> SweepReport:
    """Batched resubstitution over the whole network (modifies ``aig`` in place)."""

    def scorer(target: Aig, nodes: Optional[Set[int]]):
        return score_resubs(target, nodes, params)

    return run_sweeps(aig, scorer, sweep_params)


def sweep_decisions(
    aig: Aig,
    decisions,
    operation_params=None,
    sweep_params: Optional[SweepParams] = None,
    table: Optional[CandidateTable] = None,
) -> SweepReport:
    """Batched application of a per-node decision vector (Algorithm 1).

    Every node scored is scored with *its assigned operation only*, exactly
    like the sequential orchestrated traversal; the committed winners form a
    footprint-disjoint set per sweep.  Used by
    :func:`repro.orchestration.orchestrate.orchestrate` under
    ``strategy="sweep"``.

    ``table`` serves the first (full) scoring only, the one sweep that sees
    ``aig`` unmutated: the caller guarantees its entries were found on a
    network identical to ``aig``.  Rescore sweeps run on the mutated network
    and always call the finders.
    """
    from repro.orchestration.decision import Operation
    from repro.orchestration.transformability import OperationParams

    operation_params = operation_params or OperationParams()
    sweep_params = sweep_params or SweepParams()

    def scorer(target: Aig, nodes: Optional[Set[int]]):
        by_operation: Dict[Operation, Set[int]] = {op: set() for op in Operation}
        for node, operation in decisions.items():
            if (nodes is None or node in nodes) and target.has_node(node) and target.is_and(node):
                by_operation[operation].add(node)
        # run_sweeps passes nodes=None exactly once: the first scoring.
        first = table if nodes is None else None
        candidates: Dict[int, TransformCandidate] = {}
        if by_operation[Operation.REWRITE]:
            candidates.update(
                score_rewrites(
                    target,
                    by_operation[Operation.REWRITE],
                    operation_params.rewrite,
                    sweep_params,
                    table=first,
                )
            )
        if by_operation[Operation.RESUB]:
            candidates.update(
                score_resubs(
                    target,
                    by_operation[Operation.RESUB],
                    operation_params.resub,
                    sweep_params,
                    table=first,
                )
            )
        if by_operation[Operation.REFACTOR]:
            candidates.update(
                score_refactors(
                    target,
                    by_operation[Operation.REFACTOR],
                    operation_params.refactor,
                    table=first,
                )
            )
        return candidates

    return run_sweeps(aig, scorer, sweep_params)
