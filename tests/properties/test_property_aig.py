"""Property-based tests of the AIG data structure and its invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig, AigCycleError
from repro.aig.equivalence import check_equivalence
from repro.aig.literals import lit_var
from repro.aig.random_aig import RandomAigSpec, random_aig
from repro.synth.rewrite_lib import RewriteLibrary
from repro.aig.truth import cut_truth_table, table_mask

aig_specs = st.builds(
    RandomAigSpec,
    num_pis=st.integers(min_value=3, max_value=8),
    num_pos=st.integers(min_value=1, max_value=3),
    num_ands=st.integers(min_value=5, max_value=60),
    redundancy=st.floats(min_value=0.0, max_value=0.8),
    xor_fraction=st.floats(min_value=0.0, max_value=0.3),
    mux_fraction=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=40, deadline=None)
@given(aig_specs)
def test_random_aig_invariants_hold(spec):
    aig = random_aig(spec)
    aig.check()
    assert aig.num_pis() == spec.num_pis
    assert aig.num_pos() == max(1, spec.num_pos)
    # No dangling nodes after generation.
    assert all(aig.fanout_count(node) > 0 for node in aig.nodes())


@settings(max_examples=25, deadline=None)
@given(aig_specs)
def test_copy_is_equivalent_and_not_larger(spec):
    aig = random_aig(spec)
    clone = aig.copy()
    clone.check()
    assert clone.size <= aig.size
    assert check_equivalence(aig, clone)


@settings(max_examples=20, deadline=None)
@given(aig_specs, st.integers(min_value=0, max_value=1_000))
def test_replace_with_equivalent_structure_preserves_function(spec, node_selector):
    """Re-synthesizing a random node's cut function and splicing it back in
    must never change the network's functionality."""
    aig = random_aig(spec)
    nodes = list(aig.nodes())
    if not nodes:
        return
    node = nodes[node_selector % len(nodes)]
    from repro.aig.cuts import local_cuts

    cuts = [cut for cut in local_cuts(aig, node, k=4) if 2 <= cut.size <= 4]
    if not cuts:
        return
    cut = cuts[0]
    table = cut_truth_table(aig, node, cut.leaves)
    fragment = RewriteLibrary().lookup(table, len(cut.leaves))
    original = aig.copy()
    output = fragment.instantiate(aig, [leaf * 2 for leaf in cut.leaves])
    from repro.aig.aig import AigCycleError

    try:
        aig.replace(node, output)
    except AigCycleError:
        return
    aig.cleanup()
    aig.check()
    assert check_equivalence(original, aig)


@settings(max_examples=25, deadline=None)
@given(aig_specs)
def test_cut_truth_tables_consistent_with_simulation(spec):
    """The cut function evaluated on PIs equals the node's simulated signature."""
    import numpy as np

    from repro.aig.simulate import exhaustive_patterns, simulate

    aig = random_aig(spec)
    if aig.num_pis() > 8 or aig.size == 0:
        return
    node = list(aig.nodes())[-1]
    leaves = list(aig.pis())
    # Only valid if the node's support is covered by all PIs (always true).
    table = cut_truth_table(aig, node, leaves)
    patterns = exhaustive_patterns(aig.num_pis())
    signature = simulate(aig, patterns, nodes=[node])[node]
    num_patterns = 1 << aig.num_pis()
    simulated = 0
    for pattern in range(num_patterns):
        word, offset = divmod(pattern, 64)
        bit = (int(signature[word]) >> offset) & 1
        simulated |= bit << pattern
    assert simulated == table & table_mask(aig.num_pis())


#: One mutation step: (operation, two selectors, a complement bit).  A
#: "cycle" step replaces a node by a literal from its own transitive fanout.
mutation_steps = st.lists(
    st.tuples(
        st.sampled_from(["and", "replace", "replace", "cycle", "cleanup"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    min_size=3,
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(aig_specs, mutation_steps)
def test_live_levels_and_bounded_cycle_check_under_random_mutations(spec, steps):
    """Levels and the AND count stay live through add_and/replace/cleanup,
    and the level-bounded cycle check agrees with the full fanin walk."""
    aig = random_aig(spec)
    for operation, first, second, complement in steps:
        live = list(aig.all_live_nodes())
        if operation == "and":
            aig.add_and(2 * live[first % len(live)] + complement, 2 * live[second % len(live)])
        elif operation == "cleanup":
            aig.cleanup()
        else:
            targets = [node for node in live if aig.is_and(node) or aig.is_pi(node)]
            old = targets[first % len(targets)]
            sources = live
            if operation == "cycle":
                sources = sorted(aig.transitive_fanout(old)) or live
            new_node = sources[second % len(sources)]
            cyclic = old in aig.transitive_fanin(new_node, include_node=True)
            assert aig._fanin_cone_contains(new_node, old) == cyclic
            version = aig.modification_count
            if cyclic and new_node != old:
                with pytest.raises(AigCycleError):
                    aig.replace(old, 2 * new_node + complement)
                assert aig.modification_count == version
            else:
                aig.replace(old, 2 * new_node + complement)
        aig.check()
