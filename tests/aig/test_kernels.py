"""Tests for the levelized array-backed kernels.

The contract of :mod:`repro.aig.kernels` and the vectorized paths built on it
is *byte-identity*: the level-at-a-time simulation and the bitset cut merge
core must produce exactly the signatures and exactly the cut lists (in the
same order) as the retained scalar reference implementations.  The tests here
check that contract on hand-built networks and on randomized networks with
dangling nodes, freed node slots and complemented outputs.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig, AigError
from repro.aig.cuts import Cut, CutEnumerator, CutSet, _local_region_order, local_cuts
from repro.aig.equivalence import check_equivalence
from repro.aig.kernels import cached_topological_order, levelized
from repro.aig.literals import lit, lit_not, lit_var
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.aig.simulate import (
    exhaustive_patterns,
    random_patterns,
    simulate,
    simulate_matrix,
    simulate_outputs,
    simulate_outputs_reference,
    simulate_reference,
)
from repro.aig.truth import table_var


# --------------------------------------------------------------------------- #
# Network zoo: clean, dangling, and mutated (freed slots) networks
# --------------------------------------------------------------------------- #
def _random_network(seed: int, num_pis: int = 8, num_ands: int = 120) -> Aig:
    return random_aig(
        RandomAigSpec(
            num_pis=num_pis,
            num_pos=3,
            num_ands=num_ands,
            seed=seed,
            name=f"zoo{seed}",
        )
    )


def _with_dangling(aig: Aig, seed: int) -> Aig:
    """Add a few AND nodes that feed no output (and some complemented POs)."""
    rng = random.Random(seed)
    literals = [lit(node) for node in aig.nodes()] + [lit(p) for p in aig.pis()]
    for _ in range(6):
        a = rng.choice(literals)
        b = rng.choice(literals)
        maybe = aig.add_and(a, lit_not(b))
        literals.append(maybe)
    aig.add_po(lit_not(literals[-1]), "dangling_po")
    return aig


def _with_freed_slots(aig: Aig, seed: int) -> Aig:
    """Run a few random replacements so node ids become sparse (FREE slots)."""
    rng = random.Random(seed)
    for _ in range(8):
        ands = list(aig.nodes())
        if len(ands) < 4:
            break
        node = rng.choice(ands)
        target = rng.choice(ands)
        if node == target:
            continue
        try:
            aig.replace(node, lit(target, rng.random() < 0.5))
        except AigError:
            pass  # cycle-producing replacement: skip
    return aig


def _network_zoo():
    for seed in (1, 7, 23):
        yield _random_network(seed)
    yield _with_dangling(_random_network(40, num_pis=6, num_ands=60), seed=40)
    yield _with_freed_slots(_random_network(77, num_pis=7, num_ands=90), seed=77)
    yield _with_freed_slots(
        _with_dangling(_random_network(99, num_pis=5, num_ands=50), seed=99), seed=99
    )


# --------------------------------------------------------------------------- #
# LevelizedAig structure
# --------------------------------------------------------------------------- #
def test_levelized_levels_match_aig(medium_random_aig):
    view = levelized(medium_random_aig)
    for node in medium_random_aig.all_live_nodes():
        assert view.levels[node] == medium_random_aig.level(node)


def test_levelized_arrays_are_level_major(medium_random_aig):
    view = levelized(medium_random_aig)
    keys = [(int(view.levels[n]), int(n)) for n in view.and_ids]
    assert keys == sorted(keys)
    assert set(int(n) for n in view.and_ids) == set(medium_random_aig.nodes())


def test_levelized_csr_offsets(medium_random_aig):
    view = levelized(medium_random_aig)
    for level in range(1, view.depth + 1):
        start = int(view.level_offsets[level - 1])
        stop = int(view.level_offsets[level])
        block = view.and_ids[start:stop]
        assert len(block) > 0
        assert all(int(view.levels[n]) == level for n in block)


def test_levelized_interface_arrays(medium_random_aig):
    view = levelized(medium_random_aig)
    assert list(view.pi_ids) == list(medium_random_aig.pis())
    assert len(view.po_vars) == medium_random_aig.num_pos()


def test_levelized_cache_reuses_and_invalidates(tiny_aig):
    first = levelized(tiny_aig)
    assert levelized(tiny_aig) is first
    x = tiny_aig.pis()[0]
    tiny_aig.add_and(lit(x, True), lit(tiny_aig.pis()[1]))
    second = levelized(tiny_aig)
    assert second is not first
    assert second.version == tiny_aig.modification_count


def test_levelized_cache_sees_new_pos(tiny_aig):
    view = levelized(tiny_aig)
    assert view.num_pos == 1
    tiny_aig.add_po(lit(tiny_aig.pis()[0], True), "extra")
    assert levelized(tiny_aig).num_pos == 2


def test_levelized_snapshot_dropped_by_every_mutation(tiny_aig):
    x, y, z = (lit(pi) for pi in tiny_aig.pis())
    and_node = lit_var(tiny_aig.add_and(x, lit_not(z)))
    mutations = [
        lambda: tiny_aig.add_pi("w"),
        lambda: tiny_aig.add_and(lit_not(x), y),
        lambda: tiny_aig.add_po(lit_not(y), "g"),
        lambda: tiny_aig.set_po_driver(1, z),
        lambda: tiny_aig.replace(and_node, y),
        tiny_aig.cleanup,  # frees the dangling AND added above
    ]
    for mutate in mutations:
        levelized(tiny_aig)
        mutate()
        assert tiny_aig._view is None
    # A cleanup that removes nothing changes no version and keeps the snapshot.
    view = levelized(tiny_aig)
    assert tiny_aig.cleanup() == 0
    assert levelized(tiny_aig) is view


def test_cached_topological_order_reuses_and_invalidates(tiny_aig):
    order = cached_topological_order(tiny_aig)
    assert order == tiny_aig.topological_order()
    assert cached_topological_order(tiny_aig) is order
    x, y = tiny_aig.pis()[:2]
    tiny_aig.add_and(lit(x, True), lit(y))
    assert cached_topological_order(tiny_aig) is not order


# --------------------------------------------------------------------------- #
# Vectorized simulation == scalar reference, byte for byte
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("num_patterns", [64, 1000])
def test_simulate_matches_reference(index, num_patterns):
    aig = list(_network_zoo())[index]
    patterns = random_patterns(aig.num_pis(), num_patterns, seed=index)
    reference = simulate_reference(aig, patterns)
    vectorized = simulate(aig, patterns)
    assert set(reference) == set(vectorized)
    for node, signature in reference.items():
        assert signature.tobytes() == vectorized[node].tobytes(), f"node {node}"


@pytest.mark.parametrize("index", range(6))
def test_simulate_outputs_match_reference(index):
    aig = list(_network_zoo())[index]
    patterns = random_patterns(aig.num_pis(), 256, seed=100 + index)
    reference = simulate_outputs_reference(aig, patterns)
    vectorized = simulate_outputs(aig, patterns)
    assert len(reference) == len(vectorized)
    for sig_ref, sig_vec in zip(reference, vectorized):
        assert sig_ref.tobytes() == sig_vec.tobytes()


def test_simulate_matrix_rows_are_node_signatures(small_random_aig):
    patterns = random_patterns(small_random_aig.num_pis(), 128, seed=3)
    matrix = simulate_matrix(small_random_aig, patterns)
    assert matrix.shape == (small_random_aig.num_nodes(), 2)
    reference = simulate_reference(small_random_aig, patterns)
    for node, signature in reference.items():
        assert matrix[node].tobytes() == signature.tobytes()


def test_simulate_constant_only_network():
    aig = Aig("const")
    aig.add_po(1)  # constant-1 output
    aig.add_po(0)  # constant-0 output
    patterns = np.zeros((0, 2), dtype=np.uint64)
    outputs = simulate_outputs(aig, patterns)
    assert outputs[0].tobytes() == np.full(2, np.iinfo(np.uint64).max, np.uint64).tobytes()
    assert outputs[1].tobytes() == np.zeros(2, np.uint64).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    st.builds(
        RandomAigSpec,
        num_pis=st.integers(min_value=2, max_value=8),
        num_pos=st.integers(min_value=1, max_value=3),
        num_ands=st.integers(min_value=4, max_value=80),
        redundancy=st.floats(min_value=0.0, max_value=0.8),
        xor_fraction=st.floats(min_value=0.0, max_value=0.3),
        mux_fraction=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.integers(min_value=0, max_value=1000),
)
def test_property_simulate_matches_reference(spec, pattern_seed):
    aig = random_aig(spec)
    patterns = random_patterns(aig.num_pis(), 192, seed=pattern_seed)
    reference = simulate_reference(aig, patterns)
    vectorized = simulate(aig, patterns)
    assert set(reference) == set(vectorized)
    for node, signature in reference.items():
        assert signature.tobytes() == vectorized[node].tobytes()


# --------------------------------------------------------------------------- #
# Pattern generators and truth-table construction
# --------------------------------------------------------------------------- #
def _exhaustive_patterns_reference(num_pis: int) -> np.ndarray:
    """The original O(2^n * n) bit-at-a-time construction."""
    num_patterns = 1 << num_pis
    num_words = (num_patterns + 63) // 64
    patterns = np.zeros((num_pis, num_words), dtype=np.uint64)
    indices = np.arange(num_patterns, dtype=np.uint64)
    for k in range(num_pis):
        bits = (indices >> np.uint64(k)) & np.uint64(1)
        for word in range(num_words):
            chunk = bits[word * 64 : (word + 1) * 64]
            value = np.uint64(0)
            for offset, bit in enumerate(chunk):
                value |= np.uint64(int(bit)) << np.uint64(offset)
            patterns[k, word] = value
    return patterns


@pytest.mark.parametrize("num_pis", range(9))
def test_exhaustive_patterns_match_reference(num_pis):
    fast = exhaustive_patterns(num_pis)
    reference = _exhaustive_patterns_reference(num_pis)
    assert fast.shape == reference.shape
    assert fast.dtype == reference.dtype
    assert fast.tobytes() == reference.tobytes()


def _table_var_reference(index: int, num_vars: int) -> int:
    """The original bit-at-a-time variable-table construction."""
    num_bits = 1 << num_vars
    block = 1 << index
    pattern = 0
    bit = 0
    while bit < num_bits:
        if (bit // block) % 2 == 1:
            pattern |= 1 << bit
        bit += 1
    return pattern


@pytest.mark.parametrize("num_vars", range(1, 11))
def test_table_var_matches_reference(num_vars):
    for index in range(num_vars):
        assert table_var(index, num_vars) == _table_var_reference(index, num_vars)


def test_table_var_out_of_range():
    with pytest.raises(ValueError):
        table_var(3, 3)


# --------------------------------------------------------------------------- #
# Bitset cut enumeration == reference, list for list
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("k,limit", [(2, 4), (3, 8), (4, 8), (4, 3)])
def test_enumerate_matches_reference(index, k, limit):
    aig = list(_network_zoo())[index]
    enumerator = CutEnumerator(k=k, cuts_per_node=limit)
    reference = enumerator.enumerate_reference(aig)
    bitset = enumerator.enumerate(aig)
    assert list(reference.keys()) == list(bitset.keys())
    for node in reference:
        assert reference[node] == bitset[node], f"cut list of node {node} differs"


def test_enumerate_subset_matches_reference(medium_random_aig):
    enumerator = CutEnumerator(k=4, cuts_per_node=6)
    wanted = list(medium_random_aig.nodes())[::3]
    reference = enumerator.enumerate_reference(medium_random_aig, nodes=wanted)
    bitset = enumerator.enumerate(medium_random_aig, nodes=wanted)
    assert reference == bitset


def local_cuts_reference(
    aig: Aig,
    node: int,
    k: int = 4,
    cuts_per_node: int = 8,
    max_region: int = 40,
    max_depth: int = 6,
):
    """Object-per-merge oracle of :func:`local_cuts` (same cuts, same order)."""
    if not aig.is_and(node):
        return [Cut(node, (node,))]
    cut_sets = {}

    def boundary_cutset(boundary: int) -> CutSet:
        cut_set = cut_sets.get(boundary)
        if cut_set is None:
            cut_set = CutSet(boundary, [Cut(boundary, (boundary,))])
            cut_sets[boundary] = cut_set
        return cut_set

    for current in _local_region_order(aig, node, max_region, max_depth):
        f0 = lit_var(aig.fanin0(current))
        f1 = lit_var(aig.fanin1(current))
        set0 = cut_sets.get(f0) or boundary_cutset(f0)
        set1 = cut_sets.get(f1) or boundary_cutset(f1)
        merged = CutSet(current)
        for cut0 in set0.cuts:
            for cut1 in set1.cuts:
                leaves = tuple(sorted(set(cut0.leaves) | set(cut1.leaves)))
                if len(leaves) > k:
                    continue
                merged.add(Cut(current, leaves), cuts_per_node)
        merged.add(Cut(current, (current,)), cuts_per_node + 1)
        cut_sets[current] = merged

    return list(cut_sets[node].cuts) if node in cut_sets else [Cut(node, (node,))]


@pytest.mark.parametrize("index", range(6))
def test_local_cuts_match_reference(index):
    aig = list(_network_zoo())[index]
    for node in list(aig.nodes())[:40]:
        assert local_cuts(aig, node, k=4, cuts_per_node=6) == local_cuts_reference(
            aig, node, k=4, cuts_per_node=6
        )


@settings(max_examples=20, deadline=None)
@given(
    st.builds(
        RandomAigSpec,
        num_pis=st.integers(min_value=2, max_value=7),
        num_pos=st.integers(min_value=1, max_value=3),
        num_ands=st.integers(min_value=4, max_value=60),
        redundancy=st.floats(min_value=0.0, max_value=0.8),
        xor_fraction=st.floats(min_value=0.0, max_value=0.3),
        mux_fraction=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.integers(min_value=2, max_value=5),
)
def test_property_enumerate_matches_reference(spec, k):
    aig = random_aig(spec)
    enumerator = CutEnumerator(k=k, cuts_per_node=8)
    reference = enumerator.enumerate_reference(aig)
    bitset = enumerator.enumerate(aig)
    assert list(reference.keys()) == list(bitset.keys())
    for node in reference:
        assert reference[node] == bitset[node]


# --------------------------------------------------------------------------- #
# End-to-end sanity: the vectorized paths drive real consumers
# --------------------------------------------------------------------------- #
def test_equivalence_check_still_works_on_zoo():
    for aig in _network_zoo():
        clone = aig.copy()
        assert check_equivalence(aig, clone, exhaustive_limit=8)
