"""DAG-aware AIG rewriting (``rw``).

Rewriting inspects the 4-feasible cuts of a node, looks up a pre-computed
implementation of each cut function in the rewriting library, and replaces the
cut cone when the new structure uses fewer nodes than the maximum fanout-free
cone it frees (Mishchenko et al., *DAG-aware AIG rewriting*, DAC 2006).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.aig.aig import Aig, AigCycleError
from repro.aig.cuts import Cut, local_cuts
from repro.aig.literals import lit
from repro.aig.truth import cut_truth_table
from repro.synth.candidates import TransformCandidate
from repro.synth.fragment import Fragment
from repro.synth.mffc import mffc_nodes
from repro.synth.rewrite_lib import DEFAULT_LIBRARY, RewriteLibrary


@dataclass
class RewriteParams:
    """Tuning knobs of the rewriting transformation."""

    cut_size: int = 4
    cuts_per_node: int = 8
    max_region: int = 40
    max_depth: int = 6
    min_gain: int = 1
    use_zero_cost: bool = False
    library: Optional[RewriteLibrary] = None

    def effective_min_gain(self) -> int:
        """Zero-cost rewriting accepts replacements that do not increase size."""
        return 0 if self.use_zero_cost else max(self.min_gain, 1)


def find_rewrite_candidate(
    aig: Aig, node: int, params: Optional[RewriteParams] = None
) -> Optional[TransformCandidate]:
    """Return the best rewriting candidate at ``node`` or ``None``.

    The function never modifies the network; it is also the transformability
    check used for the paper's static feature embedding (bit 3/4 of the node
    attributes).
    """
    params = params or RewriteParams()
    library = params.library if params.library is not None else DEFAULT_LIBRARY
    if not aig.is_and(node):
        return None
    cuts = local_cuts(
        aig,
        node,
        k=params.cut_size,
        cuts_per_node=params.cuts_per_node,
        max_region=params.max_region,
        max_depth=params.max_depth,
    )
    best: Optional[TransformCandidate] = None
    for cut in cuts:
        candidate = _evaluate_cut(aig, node, cut, library, params)
        if candidate is None:
            continue
        if best is None or candidate.gain > best.gain:
            best = candidate
    return best


def _evaluate_cut(
    aig: Aig,
    node: int,
    cut: Cut,
    library: RewriteLibrary,
    params: RewriteParams,
) -> Optional[TransformCandidate]:
    if cut.is_trivial() or cut.size < 2:
        return None
    leaves = list(cut.leaves)
    table = cut_truth_table(aig, node, leaves)
    return evaluate_rewrite_cut(aig, node, leaves, table, library, params)


def evaluate_rewrite_cut(
    aig: Aig,
    node: int,
    leaves: List[int],
    table: int,
    library: RewriteLibrary,
    params: RewriteParams,
    deref: Optional[set] = None,
) -> Optional[TransformCandidate]:
    """Score one cut of ``node`` given its precomputed truth ``table``.

    This is the shared core of the sequential per-node finder and the
    batched sweep scorer's Python loop over the global enumeration (both
    compute the table with :func:`~repro.aig.truth.cut_truth_table`) and of
    its small-target branch (which, on the native backend, takes every local
    cut with its table from the compiled local-region op).
    The native backend's compiled global scan replays this function per cut
    and builds its winners' candidates with :func:`rewrite_candidate`.
    ``deref`` optionally supplies a precomputed MFFC.
    """
    fragment = library.lookup(table, len(leaves))
    if deref is None:
        deref = mffc_nodes(aig, node, leaves)
    leaf_literals = [lit(leaf) for leaf in leaves]
    # Once the fragment needs more new gates than |MFFC| - min_gain the cut
    # cannot clear the gain bar, so the dry run may abort early.
    budget = len(deref) - params.effective_min_gain()
    if budget < 0:
        return None
    estimate = fragment.dry_run(aig, leaf_literals, deref, new_node_budget=budget)
    if estimate.new_nodes > budget:
        return None
    saved = len(deref) - estimate.reused_in(deref)
    gain = saved - estimate.new_nodes
    if estimate.output_literal is not None and (estimate.output_literal >> 1) == node:
        # The "replacement" is the node itself: nothing to do.
        return None
    if gain < params.effective_min_gain():
        return None
    return rewrite_candidate(
        node, leaves, fragment, gain, deref, estimate.reused_nodes, params.effective_min_gain()
    )


def rewrite_candidate(
    node: int,
    leaves: Sequence[int],
    fragment: Fragment,
    gain: int,
    deref: Iterable[int],
    reused: Iterable[int],
    min_gain: int,
    operation: str = "rw",
) -> TransformCandidate:
    """The candidate replacing ``node`` by ``fragment`` over the cut ``leaves``.

    Built from a scored cut: by :func:`evaluate_rewrite_cut` and
    :func:`repro.synth.refactor.find_refactor_candidate` (``operation``
    ``"rf"``), and for the winners of the native backend's compiled scan
    (see :func:`repro.synth.sweep.score_rewrites` and
    :func:`repro.synth.sweep.score_refactors`), which reports the same
    ``gain``, MFFC (``deref``) and ``reused`` nodes.
    """
    leaves = tuple(leaves)
    leaf_literals = tuple(lit(leaf) for leaf in leaves)

    def apply(target: Aig, fragment: Fragment = fragment, leaves=leaf_literals) -> None:
        output = fragment.instantiate(target, list(leaves))
        try:
            target.replace(node, output)
        except AigCycleError:
            # The replacement structure reuses logic from the node's fanout
            # cone; splicing it in would create a cycle, so the candidate is
            # abandoned (any freshly created nodes are dangling and removed by
            # the pass-level cleanup).
            pass

    return TransformCandidate(
        node=node,
        operation=operation,
        gain=gain,
        leaves=leaves,
        _apply=apply,
        refs=leaves,
        deref=frozenset(deref),
        reused=frozenset(reused),
        min_gain=min_gain,
        _regain=_fragment_regain(node, leaves, leaf_literals, fragment),
    )


def _fragment_regain(
    node: int,
    leaves: tuple,
    leaf_literals: tuple,
    fragment: Fragment,
):
    """Re-estimation closure shared by rewriting and refactoring candidates.

    The synthesized fragment stays functionally correct as long as the root
    and the leaves are alive, so a fresh gain only needs the (cheap) MFFC and
    structural dry-run recomputed against the current network.
    """

    def regain(target: Aig) -> Optional[int]:
        deref = mffc_nodes(target, node, leaves)
        estimate = fragment.dry_run(target, list(leaf_literals), deref)
        if estimate.output_literal is not None and (estimate.output_literal >> 1) == node:
            return None
        return len(deref) - estimate.reused_in(deref) - estimate.new_nodes

    return regain
