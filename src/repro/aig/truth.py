"""Truth-table computation and manipulation for small cuts.

Truth tables are plain Python integers interpreted as bit vectors of length
``2 ** num_vars`` (bit ``i`` holds the function value under the input minterm
``i``, with variable 0 being the least-significant input).  Python's arbitrary
precision integers make this representation exact for the cut sizes used by
rewriting (4 inputs) and refactoring / resubstitution (typically 8–12 inputs).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.aig.aig import Aig, NodeType


def table_mask(num_vars: int) -> int:
    """Return the all-ones truth table of ``num_vars`` variables."""
    return (1 << (1 << num_vars)) - 1


def table_var(index: int, num_vars: int) -> int:
    """Return the truth table of input variable ``index`` among ``num_vars``.

    Uses the standard doubling construction: the basic block of ``2 ** index``
    ones at positions ``[2 ** index, 2 ** (index + 1))`` is doubled until it
    spans all ``2 ** num_vars`` bits — ``O(num_vars)`` big-int operations
    instead of one Python-loop iteration per bit.
    """
    if index >= num_vars:
        raise ValueError(f"variable {index} out of range for {num_vars} inputs")
    num_bits = 1 << num_vars
    block = 1 << index
    pattern = ((1 << block) - 1) << block
    span = block << 1
    while span < num_bits:
        pattern |= pattern << span
        span <<= 1
    return pattern


_VAR_TABLE_CACHE: Dict[tuple, int] = {}


def cached_table_var(index: int, num_vars: int) -> int:
    """Memoized :func:`table_var` (variable patterns are reused constantly)."""
    key = (index, num_vars)
    table = _VAR_TABLE_CACHE.get(key)
    if table is None:
        table = table_var(index, num_vars)
        _VAR_TABLE_CACHE[key] = table
    return table


def table_not(table: int, num_vars: int) -> int:
    """Return the complement of ``table``."""
    return table ^ table_mask(num_vars)


def table_count_ones(table: int) -> int:
    """Return the number of minterms on which the function is true."""
    return bin(table).count("1")


def cut_truth_table(aig: Aig, root: int, leaves: Sequence[int]) -> int:
    """Compute the truth table of ``root`` expressed over the cut ``leaves``.

    ``leaves`` are node ids; leaf ``i`` becomes truth-table variable ``i``.
    ``root`` is a node id.  The root's polarity is the node output itself (no
    complementation is applied); callers deal with PO/edge complements.
    Raises ``ValueError`` when the cone of ``root`` reaches a PI (or a
    freed slot) that is not a leaf.
    """
    num_vars = len(leaves)
    mask = table_mask(num_vars)
    tables: Dict[int, int] = {leaf: cached_table_var(i, num_vars) for i, leaf in enumerate(leaves)}
    tables[0] = 0  # constant node
    fanin0 = aig._fanin0
    fanin1 = aig._fanin1
    node_type = aig._type
    and_type = NodeType.AND
    # Iterative post-order over the cone bounded by the leaves.  A node with
    # a table is done; the network is acyclic, so a node pushed twice is
    # finished before its second entry is popped.
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            f0 = fanin0[node]
            f1 = fanin1[node]
            t0 = tables[f0 >> 1]
            t1 = tables[f1 >> 1]
            if f0 & 1:
                t0 ^= mask
            if f1 & 1:
                t1 ^= mask
            tables[node] = t0 & t1
        elif node not in tables:
            if node_type[node] != and_type:
                raise ValueError(
                    f"leaves {list(leaves)} do not form a cut of node {root}: "
                    f"its cone reaches node {node}, which is not an AND node"
                )
            stack.append((node, True))
            stack.append((fanin1[node] >> 1, False))
            stack.append((fanin0[node] >> 1, False))
    return tables[root]


def cut_truth_tables(
    aig: Aig, roots: Iterable[int], leaves: Sequence[int]
) -> Dict[int, int]:
    """Compute truth tables over ``leaves`` for several ``roots`` that share the cut."""
    return {root: cut_truth_table(aig, root, leaves) for root in roots}


def table_to_minterms(table: int, num_vars: int) -> List[int]:
    """Return the list of minterm indices on which the function is true."""
    return [i for i in range(1 << num_vars) if (table >> i) & 1]


def table_from_minterms(minterms: Iterable[int], num_vars: int) -> int:
    """Build a truth table from an iterable of true minterm indices."""
    table = 0
    limit = 1 << num_vars
    for minterm in minterms:
        if not 0 <= minterm < limit:
            raise ValueError(f"minterm {minterm} out of range for {num_vars} variables")
        table |= 1 << minterm
    return table


def cofactor(table: int, num_vars: int, var: int, value: int) -> int:
    """Return the cofactor of ``table`` with variable ``var`` fixed to ``value``.

    The result is still expressed over ``num_vars`` variables (the fixed
    variable simply becomes a don't-care), which keeps recursive algorithms
    such as ISOP simple.
    """
    var_table = cached_table_var(var, num_vars)
    mask = table_mask(num_vars)
    if value:
        kept = table & var_table
        shifted = kept >> (1 << var)
        return (kept | shifted) & mask
    kept = table & (var_table ^ mask)
    shifted = kept << (1 << var)
    return (kept | shifted) & mask


def depends_on(table: int, num_vars: int, var: int) -> bool:
    """Return whether the function actually depends on variable ``var``."""
    return cofactor(table, num_vars, var, 0) != cofactor(table, num_vars, var, 1)


def table_support(table: int, num_vars: int) -> List[int]:
    """Return the indices of the variables the function depends on."""
    return [v for v in range(num_vars) if depends_on(table, num_vars, v)]
