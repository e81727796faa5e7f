"""AND-tree balancing (``b``).

Balancing reduces AIG depth by collecting maximal multi-input AND "super
gates" and rebuilding them as balanced trees ordered by arrival level (the
classic ``balance`` pass of ABC/SIS).  It rarely changes the node count but is
part of the standard compound synthesis scripts, so it is provided both for
completeness and for the depth-oriented ablation benchmarks.
"""

from __future__ import annotations

from typing import Dict, List

from repro.aig.aig import Aig
from repro.aig.literals import lit_is_compl, lit_not, lit_var


def balance(aig: Aig) -> Aig:
    """Return a depth-balanced copy of ``aig`` (the input is left untouched)."""
    result = Aig(aig.name)
    mapping: Dict[int, int] = {0: 0}
    for index, pi in enumerate(aig.pis()):
        mapping[pi] = result.add_pi(aig.pi_name(index))

    # Arrival times are the partially built result's live levels.
    def arrival(literal: int) -> int:
        return result.level(lit_var(literal))

    def collect_conjuncts(node: int, conjuncts: List[int], visited: set) -> None:
        """Flatten the maximal AND tree rooted at ``node`` into its conjunct literals."""
        for fanin in aig.fanins(node):
            fanin_node = lit_var(fanin)
            if (
                not lit_is_compl(fanin)
                and aig.is_and(fanin_node)
                and aig.fanout_count(fanin_node) == 1
                and fanin_node not in visited
            ):
                visited.add(fanin_node)
                collect_conjuncts(fanin_node, conjuncts, visited)
            else:
                conjuncts.append(fanin)

    rebuilt: Dict[int, int] = {}
    for node in aig.topological_order():
        conjuncts: List[int] = []
        collect_conjuncts(node, conjuncts, {node})
        mapped = []
        for literal in conjuncts:
            base = mapping[lit_var(literal)]
            mapped.append(base ^ int(lit_is_compl(literal)))
        # Build a balanced tree, always combining the two earliest-arriving
        # operands first (Huffman-style), which minimizes the tree depth.
        operands = sorted(mapped, key=arrival, reverse=True)
        while len(operands) > 1:
            operands.sort(key=arrival, reverse=True)
            first = operands.pop()
            second = operands.pop()
            operands.append(result.add_and(first, second))
        mapping[node] = operands[0] if operands else 1
        rebuilt[node] = mapping[node]

    for index, driver in enumerate(aig.pos()):
        mapped = mapping[lit_var(driver)] ^ int(lit_is_compl(driver))
        result.add_po(mapped, aig.po_name(index))
    result.cleanup()
    return result
