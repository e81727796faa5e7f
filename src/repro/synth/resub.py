"""AIG resubstitution (``rs``).

Resubstitution tries to re-express the function of a node using *divisors* —
nodes that already exist in a window around it — so that the node's own
fanout-free cone becomes redundant and can be removed.  The implementation
follows the simulation-guided windowed resubstitution of ABC: a
reconvergence-driven cut provides the window inputs, every window node's
function is computed exactly over those inputs as a truth table, and 0-resub
(replace by an existing divisor, possibly complemented) and 1-resub (replace
by an AND/OR of two divisors) are attempted in order of decreasing saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.aig.aig import Aig
from repro.aig.literals import lit, lit_is_compl, lit_not, lit_var
from repro.aig.reconv_cut import reconvergence_driven_cut
from repro.aig.truth import cached_table_var, table_mask
from repro.backend import get_backend
from repro.synth.candidates import TransformCandidate
from repro.synth.mffc import mffc_nodes


@dataclass
class ResubParams:
    """Tuning knobs of the resubstitution transformation.

    ``max_resub_nodes`` selects how much new logic a resubstitution may
    introduce: ``0`` allows only 0-resub (replace the node by an existing
    divisor), ``1`` additionally allows 1-resub (one new AND/OR of two
    divisors, ABC's default) and ``2`` additionally allows 2-resub
    (AND-OR / OR-AND of three divisors, two new nodes).
    """

    max_leaves: int = 8
    max_window: int = 120
    max_divisors: int = 48
    max_divisors_two_resub: int = 16
    max_resub_nodes: int = 1
    min_gain: int = 1

    def effective_min_gain(self) -> int:
        return max(self.min_gain, 1)


def find_resub_candidate(
    aig: Aig, node: int, params: Optional[ResubParams] = None
) -> Optional[TransformCandidate]:
    """Return a resubstitution candidate at ``node`` or ``None`` (non-mutating)."""
    params = params or ResubParams()
    if not aig.is_and(node):
        return None
    leaves = reconvergence_driven_cut(aig, node, max_leaves=params.max_leaves)
    if len(leaves) < 2 or node in leaves:
        return None
    deref = mffc_nodes(aig, node, leaves)
    window = _collect_window(aig, leaves, params.max_window)
    if node not in window:
        return None
    tfo = aig.transitive_fanout(node, include_node=True)
    divisors = [
        candidate
        for candidate in window
        if candidate != node
        and candidate not in deref
        and candidate not in tfo
    ]
    if not divisors:
        return None

    num_vars = len(leaves)
    mask = table_mask(num_vars)
    tables = _window_truth_tables(aig, leaves, window)
    target = tables[node]

    # --- 0-resub: the function already exists in the window. -------------- #
    gain0 = len(deref)
    if gain0 >= params.effective_min_gain():
        for divisor in divisors:
            table = tables[divisor]
            if table == target or table == target ^ mask:
                return _make_candidate(
                    aig, node, leaves, gain0, lit(divisor, table != target), deref,
                    params.effective_min_gain(),
                )

    # --- 1-resub: AND / OR of two (possibly complemented) divisors. ------- #
    if params.max_resub_nodes < 1:
        return None
    gain1 = len(deref) - 1
    backend = get_backend()
    ranked = backend.resub_rank_divisors(divisors, tables, target, mask)[
        : params.max_divisors
    ]
    if gain1 >= params.effective_min_gain():
        pair = backend.resub_one_match(ranked, tables, target, mask)
        if pair is not None:
            first, second, compl_a, compl_b, compl_out = pair

            def apply(
                target_aig: Aig,
                first=first,
                second=second,
                compl_a=compl_a,
                compl_b=compl_b,
                compl_out=compl_out,
            ) -> None:
                lit_a = lit(first, compl_a)
                lit_b = lit(second, compl_b)
                new_lit = target_aig.add_and(lit_a, lit_b)
                if compl_out:
                    new_lit = lit_not(new_lit)
                target_aig.replace(node, new_lit)

            return TransformCandidate(
                node=node,
                operation="rs",
                gain=gain1,
                leaves=tuple(leaves),
                _apply=apply,
                refs=(first, second),
                deref=frozenset(deref),
                min_gain=params.effective_min_gain(),
                _regain=_resub_regain(node, tuple(leaves), 1),
            )

    # --- 2-resub: AND-OR of three divisors (two new nodes). --------------- #
    if params.max_resub_nodes < 2:
        return None
    gain2 = len(deref) - 2
    if gain2 < params.effective_min_gain():
        return None
    candidate = _find_two_resub(
        node, leaves, ranked[: params.max_divisors_two_resub], tables, target, mask, gain2,
        deref, params.effective_min_gain(),
    )
    return candidate


def _find_two_resub(
    node: int,
    leaves: Sequence[int],
    divisors: Sequence[int],
    tables: Dict[int, int],
    target: int,
    mask: int,
    gain: int,
    deref: Set[int],
    min_gain: int,
) -> Optional[TransformCandidate]:
    """Search for ``target == maybe_not(±d1 & (±d2 | ±d3))`` decompositions.

    Unate filtering keeps the search fast: for the AND decomposition the first
    divisor must *cover* the target (``target ⊆ ±d1``), which typically leaves
    only a handful of candidates before the quadratic pair search.
    """
    for output_compl in (False, True):
        wanted = (target ^ mask) if output_compl else target
        if wanted == 0 or wanted == mask:
            continue
        # d1 candidates that cover the wanted function.
        covers: List[Tuple[int, bool]] = []
        for divisor in divisors:
            table = tables[divisor]
            if wanted & ~table & mask == 0:
                covers.append((divisor, False))
            if wanted & table == 0:
                covers.append((divisor, True))
        for d1, compl1 in covers:
            t1 = tables[d1] ^ mask if compl1 else tables[d1]
            # Remaining requirement: OR(±d2, ±d3) must equal ``wanted`` on the
            # onset of t1 and may be anything outside it.
            for index, d2 in enumerate(divisors):
                if d2 == d1:
                    continue
                for d3 in divisors[index + 1 :]:
                    if d3 == d1:
                        continue
                    for compl2 in (False, True):
                        t2 = tables[d2] ^ mask if compl2 else tables[d2]
                        for compl3 in (False, True):
                            t3 = tables[d3] ^ mask if compl3 else tables[d3]
                            if (t1 & (t2 | t3)) != wanted:
                                continue

                            def apply(
                                target_aig: Aig,
                                d1=d1,
                                d2=d2,
                                d3=d3,
                                compl1=compl1,
                                compl2=compl2,
                                compl3=compl3,
                                output_compl=output_compl,
                            ) -> None:
                                or_lit = target_aig.make_or(
                                    lit(d2, compl2), lit(d3, compl3)
                                )
                                new_lit = target_aig.add_and(lit(d1, compl1), or_lit)
                                if output_compl:
                                    new_lit = lit_not(new_lit)
                                target_aig.replace(node, new_lit)

                            return TransformCandidate(
                                node=node,
                                operation="rs",
                                gain=gain,
                                leaves=tuple(leaves),
                                _apply=apply,
                                refs=(d1, d2, d3),
                                deref=frozenset(deref),
                                min_gain=min_gain,
                                _regain=_resub_regain(node, tuple(leaves), 2),
                            )
    return None


# --------------------------------------------------------------------------- #
# Internals
# --------------------------------------------------------------------------- #
def _collect_window(aig: Aig, leaves: Sequence[int], max_window: int) -> Set[int]:
    """Return the nodes whose function is fully determined by ``leaves``.

    Starting from the leaves, AND nodes are added whenever both of their
    fanins are already inside the window, which is exactly the condition for
    their truth table over the leaves to be well defined.
    """
    window: Set[int] = set(leaves) | {0}
    frontier = list(leaves)
    while frontier and len(window) < max_window:
        next_frontier: List[int] = []
        for current in frontier:
            for fanout in aig.fanouts(current):
                if fanout in window or not aig.is_and(fanout):
                    continue
                f0 = lit_var(aig.fanin0(fanout))
                f1 = lit_var(aig.fanin1(fanout))
                if f0 in window and f1 in window:
                    window.add(fanout)
                    next_frontier.append(fanout)
                    if len(window) >= max_window:
                        break
            if len(window) >= max_window:
                break
        frontier = next_frontier
    window.discard(0)
    return window


def _window_truth_tables(
    aig: Aig, leaves: Sequence[int], window: Set[int]
) -> Dict[int, int]:
    """Truth tables over ``leaves`` for every node in ``window`` (one topological sweep)."""
    num_vars = len(leaves)
    mask = table_mask(num_vars)
    tables: Dict[int, int] = {0: 0}
    for index, leaf in enumerate(leaves):
        tables[leaf] = cached_table_var(index, num_vars)
    # Window membership guarantees both fanins of every window node are inside
    # the window, and fanins sit at strictly lower logic levels — processing
    # in (level, id) order computes every table in one sweep instead of
    # iterating the whole window to a fixpoint.
    pending = sorted(
        (n for n in window if n not in tables), key=lambda n: (aig.level(n), n)
    )
    for current in pending:
        f0, f1 = aig.fanins(current)
        t0 = tables.get(lit_var(f0))
        t1 = tables.get(lit_var(f1))
        if t0 is None or t1 is None:
            continue
        if lit_is_compl(f0):
            t0 ^= mask
        if lit_is_compl(f1):
            t1 ^= mask
        tables[current] = t0 & t1
    return tables


def _resub_regain(node: int, leaves: Tuple[int, ...], adds: int):
    """Fresh-gain closure: the divisor identity stays functionally valid
    while the divisors are alive, so only the freed MFFC needs recounting
    (``adds`` is the number of AND nodes the replacement structure adds)."""

    def regain(target: Aig) -> Optional[int]:
        return len(mffc_nodes(target, node, leaves)) - adds

    return regain


def _make_candidate(
    aig: Aig, node: int, leaves: Sequence[int], gain: int, replacement: int,
    deref: Set[int], min_gain: int,
) -> TransformCandidate:
    def apply(target_aig: Aig, replacement=replacement) -> None:
        target_aig.replace(node, replacement)

    return TransformCandidate(
        node=node,
        operation="rs",
        gain=gain,
        leaves=tuple(leaves),
        _apply=apply,
        refs=(replacement >> 1,),
        deref=frozenset(deref),
        min_gain=min_gain,
        _regain=_resub_regain(node, tuple(leaves), 0),
    )
