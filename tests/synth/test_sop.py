"""Tests for the cube/cover representation."""

import pytest

from repro.aig.truth import table_mask
from repro.synth.sop import (
    Cube,
    cover_num_literals,
    cover_support,
    cover_truth_table,
    cube_from_literals,
    literal_counts,
)


def test_cube_rejects_conflicting_polarity():
    with pytest.raises(ValueError):
        Cube(0b01, 0b01)


def test_cube_literals_and_count():
    cube = Cube(pos=0b101, neg=0b010)
    assert cube.num_literals == 3
    assert cube.literals() == [(0, False), (1, True), (2, False)]


def test_cube_contains_and_remove():
    cube = Cube(pos=0b1, neg=0b10)
    assert cube.contains_literal(0, False)
    assert cube.contains_literal(1, True)
    assert not cube.contains_literal(0, True)
    reduced = cube.remove_literal(1, True)
    assert reduced == Cube(pos=0b1, neg=0)


def test_cube_truth_table():
    # x0 & !x1 over 2 variables
    cube = Cube(pos=0b01, neg=0b10)
    assert cube.truth_table(2) == 0b0010


def test_tautology_cube():
    cube = Cube(0, 0)
    assert cube.is_tautology()
    assert cube.truth_table(3) == table_mask(3)


def test_cover_truth_table_is_disjunction():
    c1 = Cube(pos=0b01, neg=0)   # x0
    c2 = Cube(pos=0b10, neg=0)   # x1
    assert cover_truth_table([c1, c2], 2) == 0b1110


def test_cover_literal_count_and_support():
    cover = [Cube(pos=0b011, neg=0), Cube(pos=0b100, neg=0b010)]
    assert cover_num_literals(cover) == 4
    assert cover_support(cover) == 0b111


def test_literal_counts():
    cover = [Cube(pos=0b01, neg=0), Cube(pos=0b01, neg=0b10), Cube(pos=0, neg=0b10)]
    counts = literal_counts(cover, 2)
    assert counts[0] == (2, 0)
    assert counts[1] == (0, 2)


def test_cube_from_literals_roundtrip():
    cube = cube_from_literals([(0, False), (3, True)])
    assert cube.pos == 0b0001
    assert cube.neg == 0b1000
    assert cube.literals() == [(0, False), (3, True)]
