"""Independent output checks: ASCII AIGER parsing and bit-parallel simulation.

Nothing here imports the program under test.  Netlists arrive as the AIGER
text the program emits; they are parsed by hand and simulated on seeded
random patterns held in plain Python integers (one bit per pattern), so a
bug in the program's own simulator, backend or equivalence checker cannot
hide a wrong result.  Every benchmark design has 20-60 primary inputs, so
the check is random rather than exhaustive; :data:`PATTERNS` patterns are
applied per comparison.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Random input patterns per equivalence comparison.
PATTERNS = 1 << 14

#: How the check is reported next to the metrics.
METHOD = f"random simulation, {PATTERNS} patterns"


class CheckError(Exception):
    """A program output failed an independent check."""


@dataclass
class Netlist:
    """A parsed combinational ASCII AIGER netlist."""

    num_inputs: int
    outputs: List[int]
    #: ``(lhs, rhs0, rhs1)`` literal triples in file order.
    ands: List[Tuple[int, int, int]]

    @property
    def size(self) -> int:
        return len(self.ands)


def parse_aag(text: str) -> Netlist:
    """Parse ASCII AIGER (``aag``) text; latches are rejected."""
    lines = text.splitlines()
    if not lines:
        raise CheckError("empty AIGER text")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "aag":
        raise CheckError(f"bad AIGER header {lines[0]!r}")
    try:
        max_var, num_in, num_latch, num_out, num_and = (int(field) for field in header[1:])
    except ValueError:
        raise CheckError(f"bad AIGER header {lines[0]!r}") from None
    if num_latch:
        raise CheckError("latches are not supported")
    body = lines[1 : 1 + num_in + num_out + num_and]
    if len(body) != num_in + num_out + num_and:
        raise CheckError("truncated AIGER text")
    try:
        inputs = [int(line) for line in body[:num_in]]
        outputs = [int(line) for line in body[num_in : num_in + num_out]]
        ands = []
        for line in body[num_in + num_out :]:
            lhs, rhs0, rhs1 = (int(field) for field in line.split())
            ands.append((lhs, rhs0, rhs1))
    except ValueError:
        raise CheckError("malformed AIGER body line") from None
    if inputs != [2 * (index + 1) for index in range(num_in)]:
        raise CheckError("inputs are not the first variables in order")
    defined = set(range(num_in + 1))
    for lhs, rhs0, rhs1 in ands:
        if lhs & 1 or lhs // 2 in defined or lhs // 2 > max_var:
            raise CheckError(f"bad AND definition {lhs}")
        defined.add(lhs // 2)
    for literal in outputs + [rhs for _, r0, r1 in ands for rhs in (r0, r1)]:
        if literal // 2 not in defined:
            raise CheckError(f"literal {literal} references an undefined variable")
    return Netlist(num_in, outputs, ands)


def _resolve_order(netlist: Netlist) -> List[Tuple[int, int, int]]:
    """AND gates in an order where every fanin is computed first."""
    ready = set(range(netlist.num_inputs + 1))
    pending = list(netlist.ands)
    order: List[Tuple[int, int, int]] = []
    while pending:
        waiting = []
        for gate in pending:
            if gate[1] // 2 in ready and gate[2] // 2 in ready:
                order.append(gate)
                ready.add(gate[0] // 2)
            else:
                waiting.append(gate)
        if len(waiting) == len(pending):
            raise CheckError("combinational cycle in AIGER netlist")
        pending = waiting
    return order


def simulate(netlist: Netlist, patterns: Sequence[int], width: int) -> List[int]:
    """Output words of ``netlist`` for per-input pattern words of ``width`` bits."""
    if len(patterns) != netlist.num_inputs:
        raise CheckError("pattern count does not match the input count")
    full = (1 << width) - 1
    values: Dict[int, int] = {0: 0}
    for index, word in enumerate(patterns):
        values[index + 1] = word

    def literal(lit: int) -> int:
        word = values[lit >> 1]
        return word ^ full if lit & 1 else word

    for lhs, rhs0, rhs1 in _resolve_order(netlist):
        values[lhs >> 1] = literal(rhs0) & literal(rhs1)
    return [literal(lit) for lit in netlist.outputs]


def depth(netlist: Netlist) -> int:
    """Largest number of AND levels from any input to any output."""
    level = {var: 0 for var in range(netlist.num_inputs + 1)}
    for lhs, rhs0, rhs1 in _resolve_order(netlist):
        level[lhs >> 1] = 1 + max(level[rhs0 >> 1], level[rhs1 >> 1])
    return max((level[lit >> 1] for lit in netlist.outputs), default=0)


def random_patterns(num_inputs: int, seed: int, width: int = PATTERNS) -> List[int]:
    """Seeded random pattern words, one ``width``-bit integer per input."""
    rng = random.Random(seed)
    return [rng.getrandbits(width) for _ in range(num_inputs)]


@functools.lru_cache(maxsize=16)
def _reference_outputs(original: str, seed: int) -> Tuple[int, Tuple[int, ...]]:
    """Input count and output words of an input design (shared by its results)."""
    netlist = parse_aag(original)
    patterns = random_patterns(netlist.num_inputs, seed)
    return netlist.num_inputs, tuple(simulate(netlist, patterns, PATTERNS))


def check_equivalent(original: str, optimized: str, seed: int) -> Netlist:
    """Parse both netlists and require equal outputs on random patterns.

    Returns the parsed optimized netlist; raises :class:`CheckError` with the
    first differing output on a mismatch.
    """
    num_inputs, expected = _reference_outputs(original, seed)
    second = parse_aag(optimized)
    if num_inputs != second.num_inputs or len(expected) != len(second.outputs):
        raise CheckError(
            f"interface mismatch: {num_inputs}/{len(expected)} vs "
            f"{second.num_inputs}/{len(second.outputs)} inputs/outputs"
        )
    actual = simulate(second, random_patterns(num_inputs, seed), PATTERNS)
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            bit = ((want ^ got) & -(want ^ got)).bit_length() - 1
            raise CheckError(f"output {index} differs from the input design on pattern {bit}")
    return second


def canonical_bytes(payload: Dict) -> bytes:
    """Canonical JSON bytes of a result payload (sorted keys, ASCII)."""
    return json.dumps(payload, sort_keys=True).encode("ascii")


def digest(payload: Dict) -> str:
    """SHA-256 of a payload's canonical bytes."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckError(message)
