"""Tests for the network's traversals: topological order and transitive cones."""

from repro.aig.literals import lit_var


def test_topological_order_respects_dependencies(medium_random_aig):
    order = medium_random_aig.topological_order()
    position = {node: index for index, node in enumerate(order)}
    assert len(order) == medium_random_aig.size
    for node in order:
        for fanin in medium_random_aig.fanins(node):
            fanin_node = lit_var(fanin)
            if medium_random_aig.is_and(fanin_node):
                assert position[fanin_node] < position[node]


def test_transitive_fanin_and_fanout(tiny_aig):
    pos_driver = lit_var(tiny_aig.pos()[0])
    tfi = tiny_aig.transitive_fanin(pos_driver, include_node=True)
    assert pos_driver in tfi
    assert all(tiny_aig.is_pi(n) or tiny_aig.is_and(n) for n in tfi)
    pi = tiny_aig.pis()[0]
    tfo = tiny_aig.transitive_fanout(pi)
    assert pos_driver in tfo
