"""Sum-of-products (cube cover) representation.

A *cube* is a conjunction of literals over ``num_vars`` variables, stored as a
pair of bitmasks ``(pos, neg)``: bit ``i`` of ``pos`` means variable ``i``
appears positively, bit ``i`` of ``neg`` means it appears complemented.  A
*cover* is a list of cubes interpreted as their disjunction.  Covers are the
exchange format between ISOP extraction and algebraic factoring; internally
both run on plain ``(pos, neg)`` int pairs and build :class:`Cube` objects
only at their public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.aig.truth import cached_table_var, table_mask


@dataclass(frozen=True)
class Cube:
    """A product term: ``pos``/``neg`` bitmasks of positive/negative literals."""

    pos: int
    neg: int

    def __post_init__(self) -> None:
        if self.pos & self.neg:
            raise ValueError("a cube cannot contain both polarities of a variable")

    @property
    def num_literals(self) -> int:
        """Number of literals in the cube."""
        return bin(self.pos).count("1") + bin(self.neg).count("1")

    def literals(self) -> List[Tuple[int, bool]]:
        """Return ``(variable, is_complemented)`` pairs, sorted by variable."""
        result = []
        mask = self.pos | self.neg
        var = 0
        while mask:
            if mask & 1:
                result.append((var, bool((self.neg >> var) & 1)))
            mask >>= 1
            var += 1
        return result

    def contains_literal(self, var: int, negative: bool) -> bool:
        """Return whether the cube contains the given literal."""
        mask = self.neg if negative else self.pos
        return bool((mask >> var) & 1)

    def remove_literal(self, var: int, negative: bool) -> "Cube":
        """Return a copy of the cube with one literal dropped."""
        if negative:
            return Cube(self.pos, self.neg & ~(1 << var))
        return Cube(self.pos & ~(1 << var), self.neg)

    def truth_table(self, num_vars: int) -> int:
        """Return the truth table of the cube over ``num_vars`` variables."""
        table = table_mask(num_vars)
        for var, negative in self.literals():
            var_table = cached_table_var(var, num_vars)
            table &= (var_table ^ table_mask(num_vars)) if negative else var_table
        return table

    def is_tautology(self) -> bool:
        """Return whether the cube has no literals (constant true)."""
        return self.pos == 0 and self.neg == 0


Cover = List[Cube]


def cover_truth_table(cover: Sequence[Cube], num_vars: int) -> int:
    """Return the truth table of the disjunction of the cubes."""
    table = 0
    for cube in cover:
        table |= cube.truth_table(num_vars)
    return table


def cover_num_literals(cover: Sequence[Cube]) -> int:
    """Return the total literal count of the cover (the classic cost metric)."""
    return sum(cube.num_literals for cube in cover)


def cover_support(cover: Sequence[Cube]) -> int:
    """Return the bitmask of variables appearing anywhere in the cover."""
    mask = 0
    for cube in cover:
        mask |= cube.pos | cube.neg
    return mask


def literal_counts(cover: Sequence[Cube], num_vars: int) -> List[Tuple[int, int]]:
    """Return ``(positive_count, negative_count)`` per variable across the cover."""
    positive, negative = pair_literal_counts(
        [(cube.pos, cube.neg) for cube in cover], num_vars
    )
    return list(zip(positive, negative))


def pair_literal_counts(
    cubes: Sequence[Tuple[int, int]], num_vars: int
) -> Tuple[List[int], List[int]]:
    """Per-variable positive and negative literal counts of ``(pos, neg)`` cubes.

    Walks the set bits of each mask, so the cost is one step per literal
    rather than one per variable.
    """
    positive = [0] * num_vars
    negative = [0] * num_vars
    for pos, neg in cubes:
        while pos:
            low = pos & -pos
            positive[low.bit_length() - 1] += 1
            pos ^= low
        while neg:
            low = neg & -neg
            negative[low.bit_length() - 1] += 1
            neg ^= low
    return positive, negative


def cube_from_literals(literals: Iterable[Tuple[int, bool]]) -> Cube:
    """Build a cube from ``(variable, is_complemented)`` pairs."""
    pos = 0
    neg = 0
    for var, negative in literals:
        if negative:
            neg |= 1 << var
        else:
            pos |= 1 << var
    return Cube(pos, neg)
