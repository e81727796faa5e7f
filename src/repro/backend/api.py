"""The compute-backend protocol: a fixed vocabulary of numeric inner-loop ops.

The float inner loops of GNN training are routed through the operations
below, so a faster implementation (the native backend's raw scipy SpMM and
preallocated workspaces) can be swapped in without touching training
semantics.  The optimizer's integer loops (simulation, the commit sweep) run
the plain numpy and Python code directly; only the capability ops further
down replace parts of them.

The contract of every op is **bit-identity**: an implementation must return
byte-for-byte the same result as :class:`repro.backend.reference
.ReferenceBackend`, which holds the canonical numpy code and is always
available.  This is the same pattern PR 2-4 used for vectorized kernels —
the reference stays, and the test-suite plus the benchmark harness assert
the identity on every op.

Op vocabulary
-------------

===========================  =================================================
``csr_aggregate``            sparse aggregation ``A @ X`` (GraphSAGE mean)
``csr_aggregate_t``          the transposed product ``A.T @ G`` (backward)
``sage_layer_fused``         fused affine + ReLU6 + dropout of one GraphSAGE
                             block (forward)
``sage_layer_backward``      the matching fused backward step
===========================  =================================================

Beyond the vocabulary, the native backend offers *capability* ops that
replace whole Python loops of the sweep scorers and of fragment synthesis.
Callers feature-detect them with ``getattr`` and run the Python loop when
one is missing or returns ``None``; the test-suite holds each to that loop:

===========================  =================================================
``snapshot_cut_tables``      every priority cut of a snapshot with its truth
                             table (global rewrite scoring, cut enumeration)
``rewrite_scan``             the MFFC-ordered fragment dry-run scan (global
                             rewrite scoring and refactor scoring)
``local_cut_tables``         local-region cuts with their truth tables
                             (rewrite rescoring and the analysis)
``refactor_cut_tables``      reconvergence-driven cuts with their truth
                             tables (refactor scoring)
``resub_scan``               the windowed 0/1/2-resub matching (resub
                             scoring)
``factored_fragment``        ISOP, quick factoring and the balanced-AND
                             fragment of one truth table (a miss of the
                             refactoring fragment memo)
===========================  =================================================

Selection is handled by :mod:`repro.backend.registry`
(``BOOLGEBRA_BACKEND`` env var / ``FlowConfig.backend`` /
``set_default_backend``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

#: The fixed op vocabulary, in protocol order.  ``op_support()`` reports one
#: entry per name so callers (the ``boolgebra backends`` CLI, ``/metrics``)
#: can see which ops an implementation accelerates and which fell back.
OPS: Tuple[str, ...] = (
    "csr_aggregate",
    "csr_aggregate_t",
    "sage_layer_fused",
    "sage_layer_backward",
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
        name for native implementations ("numpy", "scipy",
        "cc:whole-snapshot-cuts") and ``"fallback:<reason>"`` for an op that a
        degraded engine serves from the inherited reference code.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # GNN training
    # ------------------------------------------------------------------ #
    def csr_aggregate(self, matrix: Any, x: np.ndarray, key: Any = None) -> np.ndarray:
        """Sparse aggregation ``matrix @ x`` (CSR x dense).

        ``key`` is an optional workspace-identity hint: calls with the same
        key may return the same (overwritten) buffer, so the caller owns the
        result only until its next same-key call.  Without a key the result
        is a fresh array, as ``matrix @ x`` is.
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
