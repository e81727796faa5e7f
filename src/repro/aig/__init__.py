"""And-Inverter-Graph (AIG) substrate.

The AIG is the multi-level technology-independent logic representation used by
BoolGebra and by ABC.  Every internal node is a two-input AND gate and every
edge carries an optional inverter (the *complement* bit of a literal).

The submodules provide:

``literals``
    Integer literal encoding (``2 * variable + complement``) and helpers.
``aig``
    The mutable, structurally hashed :class:`~repro.aig.aig.Aig` network with
    fanout tracking and ABC-style in-place node replacement.
``cuts``
    K-feasible priority-cut enumeration.
``reconv_cut``
    Reconvergence-driven cut computation used by refactoring/resubstitution.
``truth``
    Truth-table computation for cuts and small-function manipulation helpers.
``npn``
    NPN canonicalization for functions of up to four variables.
``kernels``
    Levelized struct-of-arrays snapshots (cached per structural version) that
    back the vectorized simulation and cut-enumeration kernels.
``simulate``
    Bit-parallel random / exhaustive simulation (level-at-a-time vectorized).
``equivalence``
    Combinational equivalence checking built on simulation.
``random_aig``
    Seeded random AIG generation (used by tests and the synthetic benchmarks).
"""

from repro.aig.aig import Aig, NodeType
from repro.aig.kernels import LevelizedAig, cached_topological_order, levelized
from repro.aig.literals import (
    CONST0,
    CONST1,
    lit,
    lit_compl,
    lit_is_compl,
    lit_not,
    lit_regular,
    lit_var,
)

__all__ = [
    "Aig",
    "NodeType",
    "LevelizedAig",
    "levelized",
    "cached_topological_order",
    "CONST0",
    "CONST1",
    "lit",
    "lit_compl",
    "lit_is_compl",
    "lit_not",
    "lit_regular",
    "lit_var",
]
