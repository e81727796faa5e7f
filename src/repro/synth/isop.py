"""Irredundant sum-of-products (ISOP) computation.

The Minato–Morreale algorithm computes an irredundant cover of an incompletely
specified function given as a pair of truth tables ``(lower, upper)`` with
``lower ⊆ f ⊆ upper`` (for a completely specified function ``lower == upper``).
Refactoring uses it to re-express the function of a large cut as a compact SOP
before algebraic factoring.

The recursion runs on ``(pos, neg)`` int pairs (see :mod:`repro.synth.sop`);
:func:`isop` and :func:`isop_cover` wrap the result in :class:`Cube` objects.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.aig.truth import cached_table_var, table_mask
from repro.synth.sop import Cover, Cube, cover_truth_table

#: A cube as a ``(pos, neg)`` literal-mask pair.
Pair = Tuple[int, int]

_TAUTOLOGY: List[Pair] = [(0, 0)]


def isop(lower: int, upper: int, num_vars: int) -> Cover:
    """Return an irredundant cover ``C`` with ``lower ⊆ C ⊆ upper``.

    Raises ``ValueError`` when ``lower`` is not contained in ``upper``.
    """
    mask = table_mask(num_vars)
    lower &= mask
    upper &= mask
    if lower & ~upper & mask:
        raise ValueError("lower bound is not contained in the upper bound")
    return [Cube(pos, neg) for pos, neg in isop_pairs(lower, upper, num_vars)]


def isop_cover(table: int, num_vars: int) -> Cover:
    """Return an irredundant cover of the completely specified function ``table``."""
    return isop(table, table, num_vars)


def isop_pairs(lower: int, upper: int, num_vars: int) -> List[Pair]:
    """Minato–Morreale ISOP of ``lower ⊆ f ⊆ upper`` as ``(pos, neg)`` pairs.

    Both bounds must already be masked to ``2**num_vars`` bits with
    ``lower ⊆ upper``.  Each step splits on the top-most variable either
    bound depends on, covers the minterms only one cofactor can cover, then
    covers the rest with cubes free of the split variable.  Steps are
    memoized by ``(lower, upper, var)`` within the call; their covers are
    shared between callers and never mutated.
    """
    mask = table_mask(num_vars)
    positive = [cached_table_var(var, num_vars) for var in range(num_vars)]
    negative = [table ^ mask for table in positive]
    memo: Dict[Tuple[int, int, int], Tuple[List[Pair], int]] = {}

    def step(lower: int, upper: int, var: int) -> Tuple[List[Pair], int]:
        """One recursive step; returns ``(cover, cover_truth_table)``."""
        if lower == 0:
            return [], 0
        if upper == mask:
            return _TAUTOLOGY, mask
        key = (lower, upper, var)
        result = memo.get(key)
        if result is not None:
            return result
        # The top-most variable either bound depends on: a bound depends on
        # ``split`` iff it differs from itself shifted by the variable's
        # stride somewhere the variable is 0.
        split = var
        while split >= 0:
            shift = 1 << split
            if ((lower ^ (lower >> shift)) | (upper ^ (upper >> shift))) & negative[split]:
                break
            split -= 1
        if split < 0:
            # Neither bound depends on any remaining variable and lower != 0,
            # so the function is covered by the empty cube.
            result = _TAUTOLOGY, mask
        else:
            shift = 1 << split
            low = negative[split]
            high = positive[split]
            lower0 = lower & low
            lower0 |= lower0 << shift
            lower1 = lower & high
            lower1 |= lower1 >> shift
            upper0 = upper & low
            upper0 |= upper0 << shift
            upper1 = upper & high
            upper1 |= upper1 >> shift
            # Minterms that can only be covered in the negative / positive branch.
            cover0, table0 = step(lower0 & ~upper1, upper0, split - 1)
            cover1, table1 = step(lower1 & ~upper0, upper1, split - 1)
            # What remains must be covered by cubes independent of the split variable.
            cover2, table2 = step(
                (lower0 & ~table0) | (lower1 & ~table1), upper0 & upper1, split - 1
            )
            bit = 1 << split
            cover = [(pos, neg | bit) for pos, neg in cover0]
            cover += [(pos | bit, neg) for pos, neg in cover1]
            cover += cover2
            result = cover, (table0 & low) | (table1 & high) | table2
        memo[key] = result
        return result

    return list(step(lower, upper, num_vars - 1)[0])


def verify_cover(cover: Sequence[Cube], table: int, num_vars: int) -> bool:
    """Return whether ``cover`` implements exactly ``table``."""
    return cover_truth_table(cover, num_vars) == (table & table_mask(num_vars))
