"""The mutable, structurally hashed And-Inverter Graph.

The class below is the Python equivalent of ABC's AIG manager.  It supports

* constructing networks bottom-up (:meth:`Aig.add_pi`, :meth:`Aig.add_and`,
  :meth:`Aig.add_po`) with one-level structural hashing and constant/trivial
  propagation,
* convenience Boolean constructors (``make_or``, ``make_xor``, ``make_mux``…),
* fanout tracking and reference counting,
* ABC-style in-place node replacement (:meth:`Aig.replace`) with the full
  cascade of re-hashing and dead-cone removal — this is the machinery behind
  ``Dec_GraphUpdateNetwork`` that rewriting / refactoring / resubstitution use
  to update the network after a local transformation,
* size / depth metrics and copying.

Levels are live
---------------
Every slot's logic level is kept current through every mutation, as ABC's
``Abc_AigReplace`` keeps them: a new AND sits one above its deeper fanin, a
freed slot drops to 0, and :meth:`Aig.replace` re-levels the gates its cascade
rewired and their fanout cones.  :meth:`Aig.level`, :meth:`Aig.depth` and the
levelized snapshot read the array without a walk, and the replacement's
cycle check uses it to bound its own walk.  The number of live AND nodes
(:attr:`Aig.size`) is counted alongside.

Node identity
-------------
Nodes are identified by dense integer ids.  Node ``0`` is the constant node.
Edges are *literals* (``2 * node + complement``, see :mod:`repro.aig.literals`).
Deleted nodes keep their id (marked :attr:`NodeType.FREE`) so that ids held by
callers never get reused within the lifetime of an :class:`Aig` instance.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.aig.literals import (
    CONST0,
    CONST1,
    lit,
    lit_is_compl,
    lit_not,
    lit_pair_key,
    lit_var,
)


class NodeType(enum.IntEnum):
    """Kind of an AIG node."""

    CONST = 0
    PI = 1
    AND = 2
    FREE = 3


class AigError(RuntimeError):
    """Raised on malformed operations on an :class:`Aig`."""


class AigCycleError(AigError):
    """Raised when a replacement would introduce a combinational cycle."""


class Aig:
    """A combinational And-Inverter Graph with structural hashing.

    Parameters
    ----------
    name:
        Optional design name carried through optimizations and reports.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        # Per-node storage.  Index 0 is the constant node.
        self._type: List[NodeType] = [NodeType.CONST]
        self._fanin0: List[int] = [CONST0]
        self._fanin1: List[int] = [CONST0]
        self._fanouts: List[set] = [set()]
        self._po_refs: List[int] = [0]
        # Interface.
        self._pis: List[int] = []
        self._pi_names: List[Optional[str]] = []
        self._pos: List[int] = []          # PO driver literals
        self._po_names: List[Optional[str]] = []
        # Structural hash: (fanin0, fanin1) sorted -> node id.
        self._strash: Dict[Tuple[int, int], int] = {}
        # Live per-slot logic levels (PIs, the constant and freed slots are
        # 0) and the live AND count; see the module docstring.
        self._levels: List[int] = [0]
        self._num_ands = 0
        #: Incremented on every structural change; lets caches (cut sets,
        #: simulation signatures, …) detect that they are stale.
        self.modification_count = 0
        # The LevelizedAig snapshot of the current version (see
        # repro.aig.kernels.levelized): dropped with every version change so
        # no stale snapshot outlives it, and never pickled.
        self._view = None
        # Populated only while a replacement cascade is running (see replace()).
        self._forwarding: Dict[int, int] = {}
        # Optional mutation journal (see journal_begin/journal_end): while
        # active, the id of every *pre-existing* node whose fanins, fanout
        # set, PO references or liveness change is recorded.  The batched
        # sweep-and-commit engine uses it for exact conflict detection
        # between transformations committed against one frozen snapshot.
        self._mutation_journal: Optional[set] = None

    # ------------------------------------------------------------------ #
    # Mutation journal
    # ------------------------------------------------------------------ #
    def journal_begin(self) -> set:
        """Start recording the ids of nodes touched by subsequent mutations.

        Returns the (live) journal set.  Newly created node ids are *not*
        recorded — only pre-existing nodes whose structure, reference counts
        or liveness change.  Journaling must be closed with
        :meth:`journal_end`; nesting is not supported.
        """
        if self._mutation_journal is not None:
            raise AigError("mutation journal already active")
        self._mutation_journal = set()
        return self._mutation_journal

    def journal_end(self) -> set:
        """Stop journaling and return the set of touched node ids."""
        journal = self._mutation_journal
        if journal is None:
            raise AigError("no mutation journal active")
        self._mutation_journal = None
        return journal

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input and return its (positive) literal."""
        node = self._new_node(NodeType.PI, CONST0, CONST0)
        self._pis.append(node)
        self._pi_names.append(name)
        return lit(node)

    def add_po(self, driver: int, name: Optional[str] = None) -> int:
        """Register ``driver`` (a literal) as a primary output; return the PO index."""
        self._check_literal(driver)
        self.modification_count += 1
        self._view = None
        self._pos.append(driver)
        self._po_names.append(name)
        self._po_refs[lit_var(driver)] += 1
        if self._mutation_journal is not None:
            self._mutation_journal.add(lit_var(driver))
        return len(self._pos) - 1

    def add_and(self, lit0: int, lit1: int) -> int:
        """Return the literal of ``AND(lit0, lit1)``, creating a node if needed.

        One-level structural hashing and trivial simplifications are applied:
        ``AND(x, x) = x``, ``AND(x, !x) = 0``, ``AND(x, 0) = 0``,
        ``AND(x, 1) = x`` and commutativity.
        """
        self._check_literal(lit0)
        self._check_literal(lit1)
        simplified = self._trivial_and(lit0, lit1)
        if simplified is not None:
            return simplified
        key = lit_pair_key(lit0, lit1)
        existing = self._strash.get(key)
        if existing is not None:
            return lit(existing)
        node = self._new_node(NodeType.AND, key[0], key[1])
        self._strash[key] = node
        self._fanouts[lit_var(key[0])].add(node)
        self._fanouts[lit_var(key[1])].add(node)
        journal = self._mutation_journal
        if journal is not None:
            # The fanins gained a reference: their fanout sets (and hence
            # their MFFC membership as seen by other candidates) changed.
            journal.add(lit_var(key[0]))
            journal.add(lit_var(key[1]))
        return lit(node)

    def find_and(self, lit0: int, lit1: int) -> Optional[int]:
        """Return the literal ``AND(lit0, lit1)`` would evaluate to *without* creating nodes.

        Trivial simplifications are applied and the structural hash table is
        consulted; ``None`` is returned when the gate does not already exist.
        Used by the optimization passes to estimate how many new nodes a
        replacement structure would really add.
        """
        self._check_literal(lit0)
        self._check_literal(lit1)
        simplified = self._trivial_and(lit0, lit1)
        if simplified is not None:
            return simplified
        existing = self._strash.get(lit_pair_key(lit0, lit1))
        if existing is None:
            return None
        return lit(existing)

    # Convenience Boolean constructors -------------------------------- #
    def make_not(self, lit0: int) -> int:
        """Return the complement literal (purely an edge attribute)."""
        self._check_literal(lit0)
        return lit_not(lit0)

    def make_or(self, lit0: int, lit1: int) -> int:
        """Return ``OR(lit0, lit1)`` using De Morgan's rule."""
        return lit_not(self.add_and(lit_not(lit0), lit_not(lit1)))

    def make_nand(self, lit0: int, lit1: int) -> int:
        """Return ``NAND(lit0, lit1)``."""
        return lit_not(self.add_and(lit0, lit1))

    def make_nor(self, lit0: int, lit1: int) -> int:
        """Return ``NOR(lit0, lit1)``."""
        return self.add_and(lit_not(lit0), lit_not(lit1))

    def make_xor(self, lit0: int, lit1: int) -> int:
        """Return ``XOR(lit0, lit1)`` as three AND nodes."""
        return lit_not(
            self.add_and(
                lit_not(self.add_and(lit0, lit_not(lit1))),
                lit_not(self.add_and(lit_not(lit0), lit1)),
            )
        )

    def make_xnor(self, lit0: int, lit1: int) -> int:
        """Return ``XNOR(lit0, lit1)``."""
        return lit_not(self.make_xor(lit0, lit1))

    def make_mux(self, sel: int, lit_true: int, lit_false: int) -> int:
        """Return ``sel ? lit_true : lit_false``."""
        return self.make_or(
            self.add_and(sel, lit_true),
            self.add_and(lit_not(sel), lit_false),
        )

    def make_and_n(self, literals: Sequence[int]) -> int:
        """Return the conjunction of ``literals`` as a balanced AND tree."""
        return self._reduce_balanced(list(literals), self.add_and, CONST1)

    def make_or_n(self, literals: Sequence[int]) -> int:
        """Return the disjunction of ``literals`` as a balanced OR tree."""
        return self._reduce_balanced(list(literals), self.make_or, CONST0)

    def make_xor_n(self, literals: Sequence[int]) -> int:
        """Return the parity of ``literals`` as a balanced XOR tree."""
        return self._reduce_balanced(list(literals), self.make_xor, CONST0)

    def _reduce_balanced(self, literals: List[int], op, empty: int) -> int:
        if not literals:
            return empty
        while len(literals) > 1:
            nxt = []
            for i in range(0, len(literals) - 1, 2):
                nxt.append(op(literals[i], literals[i + 1]))
            if len(literals) % 2:
                nxt.append(literals[-1])
            literals = nxt
        return literals[0]

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of live AND nodes (the paper's primary AIG *size* metric)."""
        return self._num_ands

    def num_ands(self) -> int:
        """Alias for :attr:`size`."""
        return self.size

    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    def num_nodes(self) -> int:
        """Total number of node slots ever allocated (including freed slots)."""
        return len(self._type)

    def max_node_id(self) -> int:
        """Largest node id allocated so far."""
        return len(self._type) - 1

    def node_type(self, node: int) -> NodeType:
        """Return the :class:`NodeType` of ``node``."""
        return self._type[node]

    def is_and(self, node: int) -> bool:
        """Return whether ``node`` is a live AND gate."""
        return self._type[node] == NodeType.AND

    def is_pi(self, node: int) -> bool:
        """Return whether ``node`` is a primary input."""
        return self._type[node] == NodeType.PI

    def is_const(self, node: int) -> bool:
        """Return whether ``node`` is the constant node."""
        return self._type[node] == NodeType.CONST

    def is_free(self, node: int) -> bool:
        """Return whether ``node`` has been deleted."""
        return self._type[node] == NodeType.FREE

    def fanin0(self, node: int) -> int:
        """Return the first fanin literal of an AND node."""
        return self._fanin0[node]

    def fanin1(self, node: int) -> int:
        """Return the second fanin literal of an AND node."""
        return self._fanin1[node]

    def fanins(self, node: int) -> Tuple[int, int]:
        """Return both fanin literals of an AND node."""
        return self._fanin0[node], self._fanin1[node]

    def fanouts(self, node: int) -> Iterable[int]:
        """Return the ids of the AND nodes that use ``node`` as a fanin."""
        return tuple(self._fanouts[node])

    def fanout_count(self, node: int) -> int:
        """Return the total reference count of ``node`` (AND fanouts + PO uses)."""
        return len(self._fanouts[node]) + self._po_refs[node]

    def po_ref_count(self, node: int) -> int:
        """Return how many primary outputs are driven by ``node``."""
        return self._po_refs[node]

    def pis(self) -> Tuple[int, ...]:
        """Return the node ids of the primary inputs, in creation order."""
        return tuple(self._pis)

    def pi_literals(self) -> Tuple[int, ...]:
        """Return the positive literals of the primary inputs."""
        return tuple(lit(n) for n in self._pis)

    def pi_name(self, index: int) -> Optional[str]:
        """Return the name of the ``index``-th primary input (may be ``None``)."""
        return self._pi_names[index]

    def pos(self) -> Tuple[int, ...]:
        """Return the driver literals of the primary outputs, in creation order."""
        return tuple(self._pos)

    def po_name(self, index: int) -> Optional[str]:
        """Return the name of the ``index``-th primary output (may be ``None``)."""
        return self._po_names[index]

    def set_po_driver(self, index: int, driver: int) -> None:
        """Re-point the ``index``-th primary output at a new driver literal."""
        self._check_literal(driver)
        self.modification_count += 1
        self._view = None
        old = self._pos[index]
        self._po_refs[lit_var(old)] -= 1
        self._pos[index] = driver
        self._po_refs[lit_var(driver)] += 1
        journal = self._mutation_journal
        if journal is not None:
            journal.add(lit_var(old))
            journal.add(lit_var(driver))

    def nodes(self) -> Iterator[int]:
        """Iterate over live AND node ids in increasing-id order."""
        for node, node_type in enumerate(self._type):
            if node_type == NodeType.AND:
                yield node

    def all_live_nodes(self) -> Iterator[int]:
        """Iterate over constant, PI and AND node ids (everything not freed)."""
        for node, node_type in enumerate(self._type):
            if node_type != NodeType.FREE:
                yield node

    def has_node(self, node: int) -> bool:
        """Return whether ``node`` is a valid live node id."""
        return 0 <= node < len(self._type) and self._type[node] != NodeType.FREE

    # ------------------------------------------------------------------ #
    # Levels / depth
    # ------------------------------------------------------------------ #
    def level(self, node: int) -> int:
        """Return the logic level of ``node`` (PIs and the constant are level 0)."""
        return self._levels[node]

    def depth(self) -> int:
        """Return the largest PO level, i.e. the AIG depth.

        Without POs, the largest level of any live AND node (0 if none).
        """
        levels = self._levels
        if not self._pos:
            return max(levels)
        return max(levels[lit_var(po)] for po in self._pos)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[int]:
        """Return live AND node ids such that fanins precede fanouts.

        Because node ids are assigned as nodes are created *and* replacement
        only rewires existing nodes toward previously existing (hence lower or
        independently created) logic, an explicit DFS is used rather than
        relying on id ordering.
        """
        node_type = self._type
        fanin0, fanin1 = self._fanin0, self._fanin1
        and_type = NodeType.AND
        order: List[int] = []
        visited = bytearray(len(node_type))
        # Iterative DFS from every live AND node (covers dangling roots too).
        # A pushed ``~node`` (negative) emits ``node`` once its fanins are
        # done; fanins that are not unvisited ANDs are never pushed.
        for root, kind in enumerate(node_type):
            if kind != and_type or visited[root]:
                continue
            stack = [root]
            while stack:
                node = stack.pop()
                if node < 0:
                    order.append(~node)
                    continue
                if visited[node]:
                    continue
                visited[node] = 1
                stack.append(~node)
                fanin = fanin1[node] >> 1
                if not visited[fanin] and node_type[fanin] == and_type:
                    stack.append(fanin)
                fanin = fanin0[node] >> 1
                if not visited[fanin] and node_type[fanin] == and_type:
                    stack.append(fanin)
        return order

    def transitive_fanin(self, node: int, include_node: bool = False) -> set:
        """Return the set of AND/PI node ids in the transitive fanin cone of ``node``."""
        cone: set = set()
        stack = [node] if include_node else [
            lit_var(f) for f in self.fanins(node)
        ] if self.is_and(node) else []
        while stack:
            current = stack.pop()
            if current in cone or self._type[current] == NodeType.CONST:
                continue
            cone.add(current)
            if self._type[current] == NodeType.AND:
                stack.append(lit_var(self._fanin0[current]))
                stack.append(lit_var(self._fanin1[current]))
        return cone

    def transitive_fanout(self, node: int, include_node: bool = False) -> set:
        """Return the set of AND node ids in the transitive fanout cone of ``node``."""
        cone: set = set()
        stack = list(self._fanouts[node]) if not include_node else [node]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(self._fanouts[current])
        return cone

    # ------------------------------------------------------------------ #
    # In-place replacement (the ABC "update network" machinery)
    # ------------------------------------------------------------------ #
    def replace(self, old_node: int, new_lit: int) -> None:
        """Replace all uses of ``old_node`` by the literal ``new_lit``.

        Every fanout of ``old_node`` is rewired to ``new_lit`` (honouring edge
        complements) and re-hashed.  When the rewired gate simplifies away or
        collides with an existing gate, that fanout is itself replaced — the
        cascade is processed depth-first *immediately*, so the target of every
        sub-replacement is guaranteed to still be alive when it acquires its
        new references.  Afterwards the now unreferenced cone rooted at
        ``old_node`` is deleted.  This mirrors ``Abc_AigReplace`` /
        ``Dec_GraphUpdateNetwork`` in ABC and is the primitive used by all
        optimization passes.

        Levels stay live: the gates the cascade rewired in place are
        re-leveled with their fanout cones (:meth:`_relevel`).  The cycle
        check reads them: a fanin cone lies below its root, so the check
        walks only the part of ``new_lit``'s cone above ``old_node``'s level,
        and not at all when ``new_lit`` sits no higher.

        Raises
        ------
        AigError
            If ``old_node`` lies in the transitive fanin of ``new_lit`` — such
            a replacement would create a combinational cycle.
        """
        if not self.is_and(old_node) and not self.is_pi(old_node):
            raise AigError(f"cannot replace node {old_node} of type {self._type[old_node]}")
        self._check_literal(new_lit)
        if lit_var(new_lit) == old_node:
            return
        if self._fanin_cone_contains(lit_var(new_lit), old_node):
            raise AigCycleError(
                f"replacing node {old_node} with literal {new_lit} would create a cycle"
            )
        self.modification_count += 1
        self._view = None
        # ``_forwarding`` records, for every node currently being dismantled by
        # this replacement (the original node and any fanout that dissolved
        # during the cascade), the literal it is being replaced with.  Every
        # literal written while the cascade runs is resolved through this map
        # so nothing can ever be re-pointed at a half-dismantled node.
        self._forwarding: Dict[int, int] = {}
        # Gates whose fanins the cascade changed in place: the seeds of the
        # re-leveling (a local list, so nothing of it reaches the pickle).
        rewired: List[int] = []
        try:
            self._replace_recursive(old_node, new_lit, rewired)
        finally:
            self._forwarding = {}
        self._relevel(rewired)

    def _fanin_cone_contains(self, root: int, node: int) -> bool:
        """Return whether ``node`` is ``root`` or lies in its transitive fanin.

        A node at or below ``node``'s level is ``node`` or cannot reach it,
        so the walk stays above that level.
        """
        levels = self._levels
        bound = levels[node]
        if levels[root] <= bound:
            return root == node
        fanin0, fanin1 = self._fanin0, self._fanin1
        seen = {root}
        stack = [root]
        while stack:
            current = stack.pop()
            for fanin in (fanin0[current] >> 1, fanin1[current] >> 1):
                if fanin == node:
                    return True
                if levels[fanin] > bound and fanin not in seen:
                    seen.add(fanin)
                    stack.append(fanin)
        return False

    def _relevel(self, nodes: List[int]) -> None:
        """Re-level ``nodes`` (gates whose fanins changed) and their fanout cones.

        Freed nodes are skipped; a node whose level changes queues its
        fanouts, until no level moves.  First in, first out keeps the walk
        close to level order, so few nodes change twice; an exact
        level-ordered queue changes fewer but costs more per visit.
        """
        levels = self._levels
        node_type = self._type
        fanin0, fanin1 = self._fanin0, self._fanin1
        fanouts = self._fanouts
        and_type = NodeType.AND
        queue = deque(nodes)
        while queue:
            node = queue.popleft()
            if node_type[node] != and_type:
                continue
            l0 = levels[fanin0[node] >> 1]
            l1 = levels[fanin1[node] >> 1]
            level = (l0 if l0 >= l1 else l1) + 1
            if level != levels[node]:
                levels[node] = level
                queue.extend(fanouts[node])

    def _resolve_forwarding(self, literal: int) -> int:
        """Follow the forwarding chain of ``literal`` to its final live target."""
        guard = 0
        while True:
            target = self._forwarding.get(lit_var(literal))
            if target is None:
                return literal
            literal = target ^ (literal & 1)
            guard += 1
            if guard > len(self._type):
                raise AigError("forwarding chain does not terminate")

    def _replace_recursive(self, old: int, new: int, rewired: List[int]) -> None:
        new = self._resolve_forwarding(new)
        if self.is_free(old) or lit_var(new) == old:
            return
        self._forwarding[old] = new
        if self._mutation_journal is not None:
            self._mutation_journal.add(old)
        if self._po_refs[old]:
            self._rewire_pos(old, new)
        for fanout in sorted(self._fanouts[old]):
            if self.is_free(fanout) or fanout not in self._fanouts[old]:
                continue
            self._rewire_fanout(fanout, old, rewired)
        if self.is_and(old) and self.fanout_count(old) == 0:
            self._delete_cone(old)

    def _rewire_pos(self, old: int, new: int) -> None:
        for index, driver in enumerate(self._pos):
            if lit_var(driver) == old:
                compl = lit_is_compl(driver)
                self.set_po_driver(index, new ^ int(compl))

    def _rewire_fanout(self, fanout: int, old: int, rewired: List[int]) -> None:
        """Re-express ``fanout`` without referencing ``old`` (or any other
        node currently being dismantled).

        Both fanins are resolved through the forwarding map; if the rewired
        gate simplifies or merges with an existing gate, the fanout is
        detached and immediately replaced by that literal (depth-first
        cascade).  A gate updated in place is appended to ``rewired``.
        """
        f0, f1 = self._fanin0[fanout], self._fanin1[fanout]
        nf0 = self._resolve_forwarding(f0)
        nf1 = self._resolve_forwarding(f1)
        if lit_var(nf0) == fanout or lit_var(nf1) == fanout:
            raise AigError(
                f"replacement cascade would make node {fanout} reference itself"
            )
        journal = self._mutation_journal
        if journal is not None:
            # The gate changes fanins; old and new fanin sources change their
            # fanout sets.
            journal.add(fanout)
            journal.add(lit_var(f0))
            journal.add(lit_var(f1))
            journal.add(lit_var(nf0))
            journal.add(lit_var(nf1))
        # Detach from current fanins and the structural hash table.
        self._strash.pop(lit_pair_key(f0, f1), None)
        self._fanouts[lit_var(f0)].discard(fanout)
        self._fanouts[lit_var(f1)].discard(fanout)
        simplified = self._trivial_and(nf0, nf1)
        if simplified is None:
            key = lit_pair_key(nf0, nf1)
            existing = self._strash.get(key)
            if existing is None:
                # In-place update: the gate keeps its identity with new fanins.
                self._fanin0[fanout], self._fanin1[fanout] = key
                self._strash[key] = fanout
                self._fanouts[lit_var(key[0])].add(fanout)
                self._fanouts[lit_var(key[1])].add(fanout)
                rewired.append(fanout)
                return
            if existing == fanout:
                return
            simplified = lit(existing)
        # The gate dissolved into ``simplified``: detach it and cascade now.
        self._detach(fanout)
        self._replace_recursive(fanout, simplified, rewired)

    def _detach(self, node: int) -> None:
        """Mark ``node`` as having no fanins (it is about to be replaced)."""
        self._fanin0[node] = CONST0
        self._fanin1[node] = CONST0
        # Keep the node's own fanouts: they are rewired by the cascade that
        # immediately follows this detachment.

    def _delete_cone(self, node: int) -> None:
        """Free ``node`` and recursively free fanins that lose their last reference."""
        self.modification_count += 1
        self._view = None
        journal = self._mutation_journal
        stack = [node]
        while stack:
            current = stack.pop()
            if not self.is_and(current) or self.fanout_count(current) > 0:
                continue
            f0, f1 = self._fanin0[current], self._fanin1[current]
            self._strash.pop(lit_pair_key(f0, f1), None)
            if journal is not None:
                journal.add(current)
                journal.add(lit_var(f0))
                journal.add(lit_var(f1))
            for fanin_lit in (f0, f1):
                fanin = lit_var(fanin_lit)
                self._fanouts[fanin].discard(current)
                if self.is_and(fanin) and self.fanout_count(fanin) == 0:
                    stack.append(fanin)
            self._type[current] = NodeType.FREE
            self._fanin0[current] = CONST0
            self._fanin1[current] = CONST0
            self._fanouts[current] = set()
            self._levels[current] = 0
            self._num_ands -= 1

    def cleanup(self) -> int:
        """Delete AND nodes not reachable from any PO; return how many were removed.

        An AND reachable from a PO drives that PO or a reachable AND, so the
        dangling roots are exactly the ANDs with no reference at all; each
        one's cone goes with it.  The count is of those roots.
        """
        removed = 0
        for node in list(self.nodes()):
            if self.is_and(node) and self.fanout_count(node) == 0:
                self._delete_cone(node)
                removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # Copy / export
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "Aig":
        """Return a compacted structural copy of this AIG.

        Freed node slots are not carried over, so the copy's ids are dense but
        generally different from the original's.  When the correspondence
        between original and copied node ids matters (e.g. a decision vector
        or feature matrix indexed by the original ids must be transferred),
        use :meth:`copy_with_mapping` instead.
        """
        other, _ = self.copy_with_mapping(name)
        return other

    def copy_with_mapping(self, name: Optional[str] = None) -> Tuple["Aig", Dict[int, int]]:
        """Return ``(copy, node_map)`` where ``node_map[old_id] = new_id``.

        The map covers the constant node, PIs and live AND nodes.  Note that
        structural hashing in the copy can merge nodes that were kept distinct
        in a mutated original, in which case several old ids map to the same
        new id.
        """
        from repro.aig.kernels import cached_topological_order

        other = Aig(name or self.name)
        mapping: Dict[int, int] = {0: CONST0}
        for index, pi_node in enumerate(self._pis):
            mapping[pi_node] = other.add_pi(self._pi_names[index])
        # The cached order makes repeated copies of an unchanged network (the
        # access pattern of batch decision-vector evaluation) skip the DFS.
        for node in cached_topological_order(self):
            f0, f1 = self._fanin0[node], self._fanin1[node]
            new0 = mapping[lit_var(f0)] ^ int(lit_is_compl(f0))
            new1 = mapping[lit_var(f1)] ^ int(lit_is_compl(f1))
            mapping[node] = other.add_and(new0, new1)
        for index, driver in enumerate(self._pos):
            mapped = mapping.get(lit_var(driver))
            if mapped is None:
                # Driver was a dangling/freed node: should not happen on a
                # consistent network, but keep the copy total anyway.
                mapped = CONST0
            other.add_po(mapped ^ int(lit_is_compl(driver)), self._po_names[index])
        node_map = {old: lit_var(new_lit) for old, new_lit in mapping.items()}
        return other, node_map

    def __getstate__(self) -> Dict[str, object]:
        """Canonical pickle state.

        Fanout sets iterate in hash-table order, which depends on the mutation
        history of the network; serializing them sorted makes equal networks
        pickle to equal bytes, so results shipped back from evaluator worker
        processes are bit-for-bit comparable across backends.
        """
        state = self.__dict__.copy()
        state.pop("_view", None)
        state["_fanouts"] = [sorted(fanouts) for fanouts in self._fanouts]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        state = dict(state)
        state["_fanouts"] = [set(fanouts) for fanouts in state["_fanouts"]]
        self.__dict__.update(state)
        self._view = None

    def to_networkx(self):
        """Export the AIG as a ``networkx.DiGraph`` (edges carry ``inverted`` flags)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node in self.all_live_nodes():
            graph.add_node(node, type=self._type[node].name)
        for node in self.nodes():
            for fanin_lit in self.fanins(node):
                graph.add_edge(
                    lit_var(fanin_lit), node, inverted=lit_is_compl(fanin_lit)
                )
        for index, driver in enumerate(self._pos):
            po_label = f"po{index}"
            graph.add_node(po_label, type="PO")
            graph.add_edge(lit_var(driver), po_label, inverted=lit_is_compl(driver))
        return graph

    def edge_list(self) -> List[Tuple[int, int, bool]]:
        """Return ``(source, target, inverted)`` triples for every AND fanin edge."""
        edges = []
        for node in self.nodes():
            for fanin_lit in self.fanins(node):
                edges.append((lit_var(fanin_lit), node, lit_is_compl(fanin_lit)))
        return edges

    # ------------------------------------------------------------------ #
    # Consistency checking
    # ------------------------------------------------------------------ #
    def check(self) -> None:
        """Raise :class:`AigError` if internal invariants are violated.

        Besides the structure, the live state is checked: ``size`` equals the
        number of live AND nodes, and every slot's level equals a
        recomputation over a fresh DFS (freed slots at 0).
        """
        live_ands = sum(1 for t in self._type if t == NodeType.AND)
        if self._num_ands != live_ands:
            raise AigError(f"live AND count {self._num_ands} != {live_ands} AND nodes")
        order = self.topological_order()
        position = {node: index for index, node in enumerate(order)}
        if len(order) != live_ands:
            raise AigError("cycle detected: topological order misses live nodes")
        for index, node in enumerate(order):
            for fanin_lit in self.fanins(node):
                fanin = lit_var(fanin_lit)
                if self.is_and(fanin) and position[fanin] > index:
                    raise AigError(f"cycle detected around node {node}")
        for node in self.nodes():
            f0, f1 = self.fanins(node)
            if f0 > f1:
                raise AigError(f"node {node}: fanins not normalized ({f0}, {f1})")
            for fanin_lit in (f0, f1):
                fanin = lit_var(fanin_lit)
                if self.is_free(fanin):
                    raise AigError(f"node {node} references freed node {fanin}")
                if node not in self._fanouts[fanin]:
                    raise AigError(f"fanout set of {fanin} is missing {node}")
            if self._strash.get(lit_pair_key(f0, f1)) != node:
                raise AigError(f"node {node} missing from the structural hash table")
        for driver in self._pos:
            if self.is_free(lit_var(driver)):
                raise AigError(f"PO driver {driver} references a freed node")
        for node, fanout_set in enumerate(self._fanouts):
            for fanout in fanout_set:
                if self.is_free(fanout):
                    raise AigError(f"node {node} lists freed fanout {fanout}")
                if lit_var(self._fanin0[fanout]) != node and lit_var(self._fanin1[fanout]) != node:
                    raise AigError(f"stale fanout entry {fanout} on node {node}")
        levels = [0] * len(self._type)
        for node in order:
            l0 = levels[lit_var(self._fanin0[node])]
            l1 = levels[lit_var(self._fanin1[node])]
            levels[node] = 1 + max(l0, l1)
        if len(self._levels) != len(levels):
            raise AigError(f"{len(self._levels)} levels for {len(levels)} node slots")
        for node, level in enumerate(levels):
            if self._levels[node] != level:
                raise AigError(f"node {node}: level {self._levels[node]}, recomputed {level}")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _new_node(self, node_type: NodeType, f0: int, f1: int) -> int:
        self.modification_count += 1
        self._view = None
        self._type.append(node_type)
        self._fanin0.append(f0)
        self._fanin1.append(f1)
        self._fanouts.append(set())
        self._po_refs.append(0)
        levels = self._levels
        if node_type == NodeType.AND:
            l0 = levels[f0 >> 1]
            l1 = levels[f1 >> 1]
            levels.append((l0 if l0 >= l1 else l1) + 1)
            self._num_ands += 1
        else:
            levels.append(0)
        return len(self._type) - 1

    def _trivial_and(self, lit0: int, lit1: int) -> Optional[int]:
        """Return the simplified literal of ``AND(lit0, lit1)`` or ``None``."""
        if lit0 == CONST0 or lit1 == CONST0:
            return CONST0
        if lit0 == CONST1:
            return lit1
        if lit1 == CONST1:
            return lit0
        if lit0 == lit1:
            return lit0
        if lit0 == lit_not(lit1):
            return CONST0
        return None

    def _check_literal(self, literal: int) -> None:
        if literal < 0:
            raise AigError(f"negative literal {literal}")
        node = lit_var(literal)
        if node >= len(self._type):
            raise AigError(f"literal {literal} references unknown node {node}")
        if self._type[node] == NodeType.FREE:
            raise AigError(f"literal {literal} references freed node {node}")

    def __repr__(self) -> str:
        return (
            f"Aig(name={self.name!r}, pis={self.num_pis()}, pos={self.num_pos()}, "
            f"ands={self.size}, depth={self.depth()})"
        )

    def stats(self) -> Dict[str, int]:
        """Return a dictionary with the headline metrics of the network."""
        return {
            "pis": self.num_pis(),
            "pos": self.num_pos(),
            "ands": self.size,
            "depth": self.depth(),
        }
