"""Batched sweep-and-commit optimization engine.

The sequential pass drivers (:mod:`repro.synth.scripts`) walk the network
node by node and mutate it after every accepted candidate.  Each mutation
bumps the structural version counter, which throws away the levelized kernel
snapshot, the cut memo and the cached topological order — so per-node scoring
constantly re-derives global state and the pass runtime grows quadratically
with the number of accepted transformations.

This module restructures the passes into two phases per *sweep*:

1. **Score** — candidates for *all* nodes are computed against one frozen
   :class:`~repro.aig.kernels.LevelizedAig` snapshot.  Rewriting uses one
   vectorized full-network cut enumeration and computes cut truth tables
   lazily with the exact cone walk, only for the cuts it evaluates;
   refactoring and resubstitution run their per-node finders against the
   frozen network, where levels, fanout arrays and the topological order are
   computed exactly once.

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

All numeric inner loops — cut enumeration, the exact cone walk, resub
matching, the conflict screen of the commit phase — dispatch through the
selected compute backend (:mod:`repro.backend`), so the same sweep code runs
on the pure numpy reference or on the native backend's compiled loops; the
tracked ``pass_sweep`` benchmark measures this engine on the native backend
against the sequential drivers on the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.aig.aig import Aig
from repro.aig.cuts import CutEnumerator
from repro.aig.kernels import LevelizedAig, cached_topological_order, expand_region, levelized
from repro.aig.simulate import random_patterns
from repro.backend import get_backend
from repro.obs.trace import TRACER
from repro.synth.candidates import TransformCandidate
from repro.synth.refactor import RefactorParams, find_refactor_candidate
from repro.synth.resub import ResubParams, find_resub_candidate
from repro.synth.rewrite import RewriteParams, evaluate_rewrite_cut, find_rewrite_candidate
from repro.synth.rewrite_lib import DEFAULT_LIBRARY


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
    region per node — the batched scorer runs one vectorized full-network
    enumeration and evaluates the candidates with the shared
    :func:`~repro.synth.rewrite.evaluate_rewrite_cut` core.  Cut truth
    tables are computed lazily with the backend's exact cone walk: the
    MFFC-sorted scan evaluates only a fraction of the enumerated cuts, and
    most cut leaf combinations are structurally unreachable under random
    simulation anyway, so an upfront batched extraction wastes nearly all
    of its work on tables that are either incomplete or never consulted.
    ``table`` memoizes the small-target finder calls only.
    """
    del sweep_params
    params = params or RewriteParams()
    library = params.library or DEFAULT_LIBRARY
    topo = cached_topological_order(aig)
    targets = [n for n in topo if nodes is None or n in nodes]
    if nodes is not None and len(targets) * 2 < len(topo):
        # Small re-score set (convergence sweeps): the bounded local-region
        # finder beats re-running the global enumeration.
        candidates = {}
        for node in targets:
            candidate = _find(table, node, "rw", find_rewrite_candidate, aig, node, params)
            if candidate is not None:
                candidates[node] = candidate
        return candidates
    backend = get_backend()
    view = levelized(aig)
    view.ensure_node_arrays(aig)
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
            truth = backend.cut_table_exact(view, node, cut.leaves)
            candidate = evaluate_rewrite_cut(
                aig,
                node,
                list(cut.leaves),
                truth,
                library,
                params,
                deref=deref,
            )
            if candidate is not None and (best is None or candidate.gain > best.gain):
                best = candidate
        if best is not None:
            candidates[node] = best
    return candidates


def score_refactors(
    aig: Aig,
    nodes: Optional[Set[int]] = None,
    params: Optional[RefactorParams] = None,
    sweep_params: Optional[SweepParams] = None,
    table: Optional[CandidateTable] = None,
) -> Dict[int, TransformCandidate]:
    """Best refactoring candidate per node against one frozen snapshot.

    The per-node finder runs unchanged, but two batched shortcuts apply:
    nodes whose *global* MFFC (an upper bound on any cut-bounded MFFC) is
    already below ``min_cone_size`` are skipped before the expensive
    collapse-and-factor pipeline, and factored fragments come from the
    process-wide memo behind
    :func:`~repro.synth.refactor.refactor_fragment`.  ``table`` memoizes the
    finder calls that pass the prefilter.
    """
    del sweep_params
    params = params or RefactorParams()
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    candidates: Dict[int, TransformCandidate] = {}
    for node in cached_topological_order(aig):
        if nodes is not None and node not in nodes:
            continue
        if len(view.mffc_nodes(node)) < params.min_cone_size:
            continue
        candidate = _find(table, node, "rf", find_refactor_candidate, aig, node, params)
        if candidate is not None:
            candidates[node] = candidate
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

    Two exact prefilters derived from the snapshot skip nodes that provably
    have no candidate before the window machinery runs: 1/2-resub needs a
    freed MFFC larger than the nodes it adds (the global MFFC bounds every
    cut-bounded MFFC from above), and 0-resub needs another node with an
    identical-or-complemented global signature (see
    :func:`_signature_classes`).  ``table`` memoizes the finder calls that
    pass both prefilters.
    """
    params = params or ResubParams()
    sweep_params = sweep_params or SweepParams()
    view = levelized(aig)
    view.ensure_node_arrays(aig)
    classes, keys = _signature_classes(aig, view, sweep_params)
    min_gain = params.effective_min_gain()
    candidates: Dict[int, TransformCandidate] = {}
    for node in cached_topological_order(aig):
        if nodes is not None and node not in nodes:
            continue
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

    Dispatches to the selected compute backend's ``sweep_commit`` op; the
    canonical implementation lives in
    :class:`repro.backend.reference.ReferenceBackend` and every backend is
    gated byte-identical to it (post-sweep structure *and* journal).
    """
    return get_backend().sweep_commit(aig, candidates)


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
