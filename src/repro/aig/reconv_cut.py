"""Reconvergence-driven cut computation.

Refactoring and resubstitution operate on a single, comparatively large cut
per node (typically 8–12 leaves).  Following ABC's ``Abc_NodeFindCut``, the
cut is grown greedily from the node's fanins: at each step the leaf whose
expansion increases the leaf count the least (ideally a *reconvergent* leaf
whose fanins are already in the cut) is replaced by its fanins, until no leaf
can be expanded without exceeding the size limit.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.aig.aig import Aig
from repro.aig.literals import lit_var


def _expansion_cost(aig: Aig, leaf: int, leaves: Set[int], visited: Set[int]) -> Optional[int]:
    """Cost of replacing ``leaf`` by its fanins (None if the leaf cannot expand)."""
    if not aig.is_and(leaf):
        return None
    f0 = lit_var(aig.fanin0(leaf))
    f1 = lit_var(aig.fanin1(leaf))
    cost = -1  # the leaf itself disappears from the cut
    for fanin in {f0, f1}:
        if fanin not in leaves and fanin not in visited:
            cost += 1
    return cost


def reconvergence_driven_cut(
    aig: Aig,
    root: int,
    max_leaves: int = 10,
) -> List[int]:
    """Compute a reconvergence-driven cut of ``root`` with at most ``max_leaves`` leaves.

    Returns the sorted list of leaf node ids.  For a PI (or constant) root the
    trivial cut ``[root]`` is returned.
    """
    if not aig.is_and(root):
        return [root]
    leaves: Set[int] = {lit_var(f) for f in aig.fanins(root)}
    leaves.discard(0)  # the constant node never needs to be a leaf
    visited: Set[int] = {root} | set(leaves)
    if not leaves:
        return [root]

    while True:
        best_leaf = None
        best_cost = None
        for leaf in leaves:
            cost = _expansion_cost(aig, leaf, leaves, visited)
            if cost is None:
                continue
            if len(leaves) + cost > max_leaves:
                continue
            if best_cost is None or cost < best_cost or (
                cost == best_cost and leaf > best_leaf
            ):
                best_cost = cost
                best_leaf = leaf
        if best_leaf is None:
            break
        leaves.discard(best_leaf)
        for fanin_lit in aig.fanins(best_leaf):
            fanin = lit_var(fanin_lit)
            if fanin != 0:
                leaves.add(fanin)
                visited.add(fanin)
    return sorted(leaves)
