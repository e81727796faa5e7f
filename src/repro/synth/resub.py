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
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.aig.aig import Aig
from repro.aig.literals import lit, lit_is_compl, lit_not, lit_var
from repro.aig.reconv_cut import reconvergence_driven_cut
from repro.aig.truth import cached_table_var, table_mask
from repro.synth.candidates import TransformCandidate
from repro.synth.mffc import mffc_nodes

try:  # Python >= 3.10: C-level popcount for the divisor similarity.
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - exercised only on Python 3.9
    def _popcount(value: int) -> int:
        return bin(value).count("1")


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

    min_gain = params.effective_min_gain()

    # --- 0-resub: the function already exists in the window. -------------- #
    if len(deref) >= min_gain:
        for divisor in divisors:
            table = tables[divisor]
            if table == target or table == target ^ mask:
                return resub_candidate(
                    node, leaves, deref, (divisor,), (table != target,), False, min_gain
                )

    # --- 1-resub: AND / OR of two (possibly complemented) divisors. ------- #
    if params.max_resub_nodes < 1:
        return None

    def similarity(divisor: int) -> int:
        delta = tables[divisor] ^ target
        return min(_popcount(delta & mask), _popcount(delta ^ mask))

    ranked = sorted(divisors, key=similarity)[: params.max_divisors]
    if len(deref) - 1 >= min_gain:
        # Pairs (i, j > i) in ranked order, complements FF, FT, TF, TT, the
        # direct output before the complemented one.
        for index, first in enumerate(ranked):
            table_a = tables[first]
            for second in ranked[index + 1 :]:
                table_b = tables[second]
                for compl_a in (False, True):
                    ta = table_a ^ mask if compl_a else table_a
                    for compl_b in (False, True):
                        conjunction = ta & (table_b ^ mask if compl_b else table_b)
                        if conjunction == target or conjunction ^ mask == target:
                            return resub_candidate(
                                node, leaves, deref, (first, second), (compl_a, compl_b),
                                conjunction != target, min_gain,
                            )

    # --- 2-resub: AND-OR of three divisors (two new nodes). --------------- #
    if params.max_resub_nodes < 2 or len(deref) - 2 < min_gain:
        return None
    return _find_two_resub(
        node, leaves, ranked[: params.max_divisors_two_resub], tables, target, mask,
        deref, min_gain,
    )


def resub_candidate(
    node: int,
    leaves: Sequence[int],
    deref: Iterable[int],
    divisors: Sequence[int],
    complements: Sequence[bool],
    output_complement: bool,
    min_gain: int,
) -> TransformCandidate:
    """The candidate replacing ``node`` by a structure over 1-3 divisors.

    One divisor is a 0-resub (the node becomes ``±d1``), two a 1-resub
    (``maybe_not(±d1 & ±d2)``) and three a 2-resub (``maybe_not(±d1 & (±d2
    | ±d3))``); ``complements`` holds the divisors' complements.  The gain
    is the freed MFFC (``deref``) minus the AND nodes the structure adds.
    Built by :func:`find_resub_candidate` and for the results of the native
    backend's compiled resub scan (see
    :func:`repro.synth.sweep.score_resubs`).
    """
    leaves = tuple(leaves)
    deref = frozenset(deref)
    divisors = tuple(divisors)
    adds = len(divisors) - 1

    def apply(target_aig: Aig) -> None:
        literals = [lit(divisor, compl) for divisor, compl in zip(divisors, complements)]
        new_lit = literals[0]
        if adds == 1:
            new_lit = target_aig.add_and(new_lit, literals[1])
        elif adds == 2:
            or_lit = target_aig.make_or(literals[1], literals[2])
            new_lit = target_aig.add_and(new_lit, or_lit)
        if output_complement:
            new_lit = lit_not(new_lit)
        target_aig.replace(node, new_lit)

    return TransformCandidate(
        node=node,
        operation="rs",
        gain=len(deref) - adds,
        leaves=leaves,
        _apply=apply,
        refs=divisors,
        deref=deref,
        min_gain=min_gain,
        _regain=_resub_regain(node, leaves, adds),
    )


def _find_two_resub(
    node: int,
    leaves: Sequence[int],
    divisors: Sequence[int],
    tables: Dict[int, int],
    target: int,
    mask: int,
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
                            if (t1 & (t2 | t3)) == wanted:
                                return resub_candidate(
                                    node, leaves, deref, (d1, d2, d3),
                                    (compl1, compl2, compl3), output_compl, min_gain,
                                )
    return None


# --------------------------------------------------------------------------- #
# Internals
# --------------------------------------------------------------------------- #
def _collect_window(aig: Aig, leaves: Sequence[int], max_window: int) -> Set[int]:
    """Return the nodes whose function is fully determined by ``leaves``.

    Starting from the leaves, AND nodes are added whenever both of their
    fanins are already inside the window, which is exactly the condition for
    their truth table over the leaves to be well defined.  The finder scans
    its divisors in the returned set's iteration order.
    """
    return window_set(leaves, _window_walk(aig, leaves, max_window))


def _window_walk(aig: Aig, leaves: Sequence[int], max_window: int) -> List[int]:
    """The AND nodes of the window of ``leaves``, in the order they join it.

    Breadth-first from the leaves, each node's fanouts in ``Aig.fanouts``
    order, until the window (counting the constant and the leaves) holds
    ``max_window`` nodes.
    """
    window: Set[int] = set(leaves) | {0}
    added: List[int] = []
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
                    added.append(fanout)
                    next_frontier.append(fanout)
                    if len(window) >= max_window:
                        break
            if len(window) >= max_window:
                break
        frontier = next_frontier
    return added


def window_set(leaves: Sequence[int], added: Sequence[int]) -> Set[int]:
    """The window of ``leaves`` as a set, ``added`` joining in order.

    A set's iteration order follows from the statements that built it, so
    this helper is the one place that builds window sets: the finder's,
    and the ones rebuilt from a compiled walk's insertion order (see
    :func:`repro.synth.sweep.score_resubs`), iterate alike.
    """
    window: Set[int] = set(leaves) | {0}
    for node in added:
        window.add(node)
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
