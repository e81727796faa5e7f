"""The compute-backend protocol: a fixed vocabulary of numeric inner-loop ops.

Every numeric inner loop of the optimizer and the learning pipeline is
routed through one of the operations below, so a faster implementation (the
native backend's compiled C loops, raw scipy SpMM and preallocated
workspaces) can be swapped in without touching pass or training semantics.

The contract of every op is **bit-identity**: an implementation must return
byte-for-byte the same result as :class:`repro.backend.reference
.ReferenceBackend`, which holds the canonical numpy code and is always
available.  This is the same pattern PR 2-4 used for vectorized kernels —
the reference stays, and the test-suite plus the benchmark harness assert
the identity on every op.

Op vocabulary
-------------

===========================  =================================================
``simulate_level_step``      one CSR level of uint64 AND/complement
                             propagation (:meth:`LevelizedAig.simulate`)
``cut_merge_filter``         folded-signature k-feasibility prefilter of one
                             level's fanin cut pairs (cut enumeration)
``cut_table_exact``          exact cone-walk cut truth table (sweep rewrite
                             scoring)
``resub_zero_match``         0-resub divisor scan (table equality)
``resub_rank_divisors``      similarity ranking of resub divisors
``resub_one_match``          1-resub AND/OR pair search over ranked divisors
``sweep_commit``             apply a batch of footprint-disjoint rewrites in
                             one journalled mutation sweep
``csr_aggregate``            sparse aggregation ``A @ X`` (GraphSAGE mean)
``csr_aggregate_t``          the transposed product ``A.T @ G`` (backward)
``sage_layer_fused``         fused affine + ReLU6 + dropout of one GraphSAGE
                             block (forward)
``sage_layer_backward``      the matching fused backward step
``adam_step_fused``          one allocation-free Adam update
===========================  =================================================

Selection is handled by :mod:`repro.backend.registry`
(``BOOLGEBRA_BACKEND`` env var / ``FlowConfig.backend`` /
``set_default_backend``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The fixed op vocabulary, in protocol order.  ``op_support()`` reports one
#: entry per name so callers (the ``boolgebra backends`` CLI, ``/metrics``)
#: can see which ops an implementation accelerates and which fell back.
OPS: Tuple[str, ...] = (
    "simulate_level_step",
    "cut_merge_filter",
    "cut_table_exact",
    "resub_zero_match",
    "resub_rank_divisors",
    "resub_one_match",
    "sweep_commit",
    "csr_aggregate",
    "csr_aggregate_t",
    "sage_layer_fused",
    "sage_layer_backward",
    "adam_step_fused",
)


class Backend:
    """Abstract compute backend.

    Implementations override any subset of the ops; whatever they do not
    override falls back to the canonical numpy code they inherit from
    :class:`~repro.backend.reference.ReferenceBackend`.  ``op_support()``
    must tell the truth about which is which.
    """

    #: Registry name of the backend ("reference" or "native").
    name: str = "abstract"

    def op_support(self) -> Dict[str, str]:
        """Per-op implementation report, e.g. ``{"csr_aggregate": "scipy"}``.

        Values are free-form short strings; the convention is the mechanism
        name for native implementations ("numpy", "scipy", "cc:cone-walk")
        and ``"fallback:<reason>"`` for inherited reference code.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # AIG simulation / cut enumeration
    # ------------------------------------------------------------------ #
    def simulate_level_step(
        self,
        values: np.ndarray,
        ids: np.ndarray,
        f0v: np.ndarray,
        f0m: np.ndarray,
        f1v: np.ndarray,
        f1m: np.ndarray,
    ) -> None:
        """Propagate one CSR level in place: ``values[ids] = (values[f0v] ^ f0m) & (values[f1v] ^ f1m)``."""
        raise NotImplementedError

    def cut_merge_filter(
        self, sig0: np.ndarray, sig1: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feasible fanin cut pairs of one level.

        ``sig0`` / ``sig1`` are ``(nodes_in_level, limit + 1)`` uint64 folded
        leaf-signature matrices (unused slots padded with an always-infeasible
        signature).  Returns the ``(row, a, b)`` index triples, in C order,
        of every pair whose OR'd signature has popcount <= k.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Sweep scoring
    # ------------------------------------------------------------------ #
    def cut_table_exact(self, view: Any, root: int, leaves: Tuple[int, ...]) -> int:
        """Exact cut truth table from a scalar cone walk over the snapshot."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Resubstitution matching
    # ------------------------------------------------------------------ #
    def resub_zero_match(
        self,
        divisors: Sequence[int],
        tables: Dict[int, int],
        target: int,
        mask: int,
    ) -> Optional[Tuple[int, bool]]:
        """First divisor whose table equals the target (or its complement).

        Scans ``divisors`` in order; per divisor the plain table is checked
        before the complemented one.  Returns ``(divisor, complemented)``.
        """
        raise NotImplementedError

    def resub_rank_divisors(
        self,
        divisors: Sequence[int],
        tables: Dict[int, int],
        target: int,
        mask: int,
    ) -> List[int]:
        """Divisors stably ordered by signature similarity to the target."""
        raise NotImplementedError

    def resub_one_match(
        self,
        ranked: Sequence[int],
        tables: Dict[int, int],
        target: int,
        mask: int,
    ) -> Optional[Tuple[int, int, bool, bool, bool]]:
        """First ``target == maybe_not(AND(±a, ±b))`` pair over ranked divisors.

        Pair order is ``(i, j > i)`` row-major over ``ranked``; per pair the
        complement combinations are tried in the reference order
        ``(a, b) in FF, FT, TF, TT``, direct before complemented output.
        Returns ``(first, second, compl_a, compl_b, compl_out)``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #
    def sweep_commit(
        self, aig: Any, candidates: Sequence[Any]
    ) -> Tuple[List[Any], set, int]:
        """Apply scored winners in one journalled mutation sweep.

        Exact semantics documented on :func:`repro.synth.sweep
        .commit_candidates` (decreasing-gain order, journal-based conflict
        detection, re-validation).  Returns ``(applied, dirty, conflicts)``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # GNN training
    # ------------------------------------------------------------------ #
    def csr_aggregate(self, matrix: Any, x: np.ndarray, key: Any = None) -> np.ndarray:
        """Sparse aggregation ``matrix @ x`` (CSR x dense).

        ``key`` is an optional workspace-identity hint: calls with the same
        key may return the same (overwritten) buffer, so the caller owns the
        result only until its next same-key call.
        """
        raise NotImplementedError

    def csr_aggregate_t(self, matrix: Any, grad: np.ndarray, key: Any = None) -> np.ndarray:
        """The transposed product ``matrix.T @ grad`` (backward pass)."""
        raise NotImplementedError

    def sage_layer_fused(
        self, conv: Any, activation: Any, dropout: Any, x: np.ndarray,
        aggregation: Any, training: bool, key: Any = None,
    ) -> np.ndarray:
        """One GraphSAGE block forward: conv affine + ReLU6 + dropout.

        Must populate exactly the caches the layer objects' own ``forward``
        methods would (``conv._cache``, ``activation._mask``,
        ``dropout._mask``) so that any backward implementation — fused or
        layer-by-layer — sees identical state, and must consume the dropout
        layer's random stream identically.
        """
        raise NotImplementedError

    def sage_layer_backward(
        self, conv: Any, activation: Any, dropout: Any, grad: np.ndarray,
        input_grad: bool, key: Any = None,
    ) -> Optional[np.ndarray]:
        """The matching fused backward step (dropout, ReLU6, conv gradients)."""
        raise NotImplementedError

    def adam_step_fused(self, optimizer: Any) -> None:
        """One Adam update over ``optimizer.parameters`` (allocation-free)."""
        raise NotImplementedError
