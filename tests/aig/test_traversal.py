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


def _recursive_dfs_order(aig):
    """Reference order: post-order DFS from each live AND in id order, fanin0 first."""
    order, seen = [], set()

    def visit(node):
        if node in seen or not aig.is_and(node):
            return
        seen.add(node)
        for fanin in aig.fanins(node):
            visit(lit_var(fanin))
        order.append(node)

    for node in aig.nodes():
        visit(node)
    return order


def test_topological_order_is_the_recursive_dfs_order(medium_random_aig):
    from repro.synth.scripts import resub_pass, rewrite_pass

    aig = medium_random_aig.copy()
    assert aig.topological_order() == _recursive_dfs_order(aig)
    # After in-place rewiring (ids no longer follow the order) and with a
    # dangling root left by an added gate.
    rewrite_pass(aig)
    resub_pass(aig)
    first, second = list(aig.nodes())[:2]
    aig.add_and(2 * first, 2 * second + 1)
    assert aig.topological_order() == _recursive_dfs_order(aig)


def test_transitive_fanin_and_fanout(tiny_aig):
    pos_driver = lit_var(tiny_aig.pos()[0])
    tfi = tiny_aig.transitive_fanin(pos_driver, include_node=True)
    assert pos_driver in tfi
    assert all(tiny_aig.is_pi(n) or tiny_aig.is_and(n) for n in tfi)
    pi = tiny_aig.pis()[0]
    tfo = tiny_aig.transitive_fanout(pi)
    assert pos_driver in tfo
