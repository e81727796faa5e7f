"""Tests for in-place node replacement (the graph-update machinery)."""

import pytest

from repro.aig.aig import Aig, AigCycleError, AigError
from repro.aig.equivalence import check_equivalence
from repro.aig.literals import lit_not, lit_var
from repro.synth.scripts import resub_pass, rewrite_pass


def _or_of_two_ands():
    aig = Aig("r")
    x, y, z = aig.add_pi("x"), aig.add_pi("y"), aig.add_pi("z")
    left = aig.add_and(x, y)
    right = aig.add_and(x, z)
    aig.add_po(aig.make_or(left, right), "f")
    return aig, x, y, z, left, right


def test_replace_merges_equivalent_fanouts():
    aig, x, y, z, left, right = _or_of_two_ands()
    # Replacing AND(x,y) by AND(x,z) makes the OR collapse to AND(x,z).
    aig.replace(lit_var(left), right)
    aig.check()
    assert aig.size == 1
    reference = Aig("ref")
    rx, ry, rz = reference.add_pi(), reference.add_pi(), reference.add_pi()
    reference.add_po(reference.add_and(rx, rz), "f")
    assert check_equivalence(aig, reference)


def test_replace_with_constant_propagates_to_po():
    aig, x, y, z, left, right = _or_of_two_ands()
    aig.replace(lit_var(left), 0)   # left cone becomes constant 0
    aig.check()
    reference = Aig("ref")
    rx, ry, rz = reference.add_pi(), reference.add_pi(), reference.add_pi()
    reference.add_po(reference.add_and(rx, rz), "f")
    assert check_equivalence(aig, reference)


def test_replace_with_complemented_literal():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    g = aig.add_and(x, y)
    aig.add_po(g, "f")
    aig.replace(lit_var(g), lit_not(x))
    aig.check()
    assert aig.size == 0
    assert aig.pos()[0] == lit_not(x)


def test_replace_updates_multiple_pos():
    aig = Aig()
    x, y, z = aig.add_pi(), aig.add_pi(), aig.add_pi()
    g = aig.add_and(x, y)
    aig.add_po(g, "a")
    aig.add_po(lit_not(g), "b")
    h = aig.add_and(x, z)
    aig.replace(lit_var(g), h)
    aig.check()
    assert aig.pos()[0] == h
    assert aig.pos()[1] == lit_not(h)


def test_replace_self_is_noop(tiny_aig):
    node = next(iter(tiny_aig.nodes()))
    before = tiny_aig.size
    tiny_aig.replace(node, node * 2)
    assert tiny_aig.size == before
    tiny_aig.check()


def test_replace_refuses_cycles():
    aig = Aig()
    x, y, z = aig.add_pi(), aig.add_pi(), aig.add_pi()
    inner = aig.add_and(x, y)
    outer = aig.add_and(inner, z)
    aig.add_po(outer)
    with pytest.raises(AigCycleError):
        aig.replace(lit_var(inner), outer)
    aig.check()


def test_replace_rejects_freed_node():
    aig, x, y, z, left, right = _or_of_two_ands()
    left_node = lit_var(left)
    aig.replace(left_node, right)
    assert aig.is_free(left_node)
    with pytest.raises(AigError):
        aig.replace(left_node, x)


def test_replace_frees_unreferenced_cone():
    aig = Aig()
    x, y, z, w = (aig.add_pi() for _ in range(4))
    deep = aig.add_and(aig.add_and(x, y), aig.add_and(z, w))
    aig.add_po(deep, "f")
    size_before = aig.size
    aig.replace(lit_var(deep), x)
    aig.check()
    assert aig.size == 0
    assert size_before == 3


def test_replace_keeps_shared_logic_alive():
    aig = Aig()
    x, y, z = aig.add_pi(), aig.add_pi(), aig.add_pi()
    shared = aig.add_and(x, y)
    top = aig.add_and(shared, z)
    aig.add_po(top, "f")
    aig.add_po(shared, "g")  # shared logic observed directly
    aig.replace(lit_var(top), shared)
    aig.check()
    assert aig.size == 1  # shared survives, top is gone
    assert not aig.is_free(lit_var(shared))


def test_cascaded_replacement_preserves_equivalence(medium_random_aig):
    """Many rewrites in sequence must keep the network consistent and equivalent."""
    original = medium_random_aig.copy()
    rewrite_pass(medium_random_aig)
    resub_pass(medium_random_aig)
    medium_random_aig.check()
    assert check_equivalence(original, medium_random_aig)


def test_modification_counter_advances(tiny_aig):
    before = tiny_aig.modification_count
    x = tiny_aig.pi_literals()[0]
    node = next(iter(tiny_aig.nodes()))
    tiny_aig.replace(node, x)
    assert tiny_aig.modification_count > before


def test_replace_keeps_levels_live_both_ways():
    """A replacement that lowers a deep cone's level and one that raises it
    both leave every level equal to a recomputation (``check``)."""
    aig = Aig()
    a, b, c, d = (aig.add_pi() for _ in range(4))
    chain = aig.add_and(aig.add_and(aig.add_and(a, b), c), d)   # level 3
    top = aig.add_and(chain, a)                                  # level 4
    aig.add_po(aig.add_and(top, lit_not(b)), "f")               # level 5
    assert aig.depth() == 5
    shallow = aig.add_and(c, d)                                  # level 1
    aig.replace(lit_var(chain), shallow)
    aig.check()
    assert aig.level(lit_var(shallow)) == 1
    assert aig.depth() == 3
    deep = aig.add_and(aig.add_and(aig.add_and(b, c), d), lit_not(a))  # level 3
    aig.replace(lit_var(shallow), deep)
    aig.check()
    assert aig.depth() == 5
    removed = aig.cleanup()
    aig.check()
    assert removed == 0 and aig.size == 5
