"""The canonical numpy backend.

This module holds the *reference* implementation of every op in the backend
protocol — the plain GNN training arithmetic, layer by layer.  It is always
available, depends only on numpy (plus whatever sparse matrix type the
caller hands in, which it treats opaquely through ``@``), and defines the
bit-exact contract every other backend is gated against.

Do not "optimize" this file: its value is being the plainly-readable ground
truth.  Speed work goes into :mod:`repro.backend.native`, which must
reproduce these results byte for byte and falls back to this code op by op.
"""

from __future__ import annotations

from typing import Dict

from repro.backend.api import OPS, Backend

class ReferenceBackend(Backend):
    """Canonical numpy implementations of the whole op vocabulary."""

    name = "reference"

    def op_support(self) -> Dict[str, str]:
        return {op: "numpy" for op in OPS}

    # ------------------------------------------------------------------ #
    # GNN training
    # ------------------------------------------------------------------ #
    def csr_aggregate(self, matrix, x, key=None):
        return matrix @ x

    def csr_aggregate_t(self, matrix, grad, key=None):
        return matrix.T @ grad

    def sage_layer_fused(self, conv, activation, dropout, x, aggregation, training, key=None):
        x = conv.forward(x, aggregation, training=training, backend=self)
        x = activation.forward(x, training=training)
        return dropout.forward(x, training=training)

    def sage_layer_backward(self, conv, activation, dropout, grad, input_grad, key=None):
        grad = dropout.backward(grad)
        grad = activation.backward(grad)
        return conv.backward(grad, input_grad=input_grad, backend=self)
