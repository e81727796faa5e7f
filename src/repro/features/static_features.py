"""Static node features (Figure 3(b)/(c) of the paper).

For every AND node the static attribute vector has eight entries:

====  =========================================================
bits  meaning
====  =========================================================
0–1   complementation of the left / right fanin edge (1 = inverted)
2–3   ``rw`` transformability flag and local gain (``0`` / ``-1`` when not applicable)
4–5   ``rs`` transformability flag and local gain
6–7   ``rf`` transformability flag and local gain
====  =========================================================

Primary inputs have no fanins and receive the sentinel ``-99`` in every
position.  Static features depend only on the design structure: they are
computed once per design and shared by all optimization samples.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.aig.aig import Aig
from repro.aig.literals import lit_is_compl
from repro.features.encoding import GraphEncoding, PI_SENTINEL, scatter_features
from repro.orchestration.transformability import OperationParams, analyze_network

#: Width of the static feature vector.
STATIC_FEATURE_DIM = 8


def static_node_features(
    aig: Aig, params: Optional[OperationParams] = None
) -> Dict[int, np.ndarray]:
    """Return the 8-dimensional static feature vector of every AND node.

    The transformability bits come from the memoized
    :func:`~repro.orchestration.transformability.analyze_network`, so the
    analysis the priority-guided sampler already ran is not repeated.
    """
    analysis = analyze_network(aig, params)
    features: Dict[int, np.ndarray] = {}
    for node in aig.nodes():
        info = analysis.get(node)
        f0, f1 = aig.fanins(node)
        vector = np.empty(STATIC_FEATURE_DIM, dtype=np.float64)
        vector[0] = float(lit_is_compl(f0))
        vector[1] = float(lit_is_compl(f1))
        if info is None:
            vector[2:] = [0.0, -1.0, 0.0, -1.0, 0.0, -1.0]
        else:
            vector[2] = float(info.rewrite_applicable)
            vector[3] = float(info.rewrite_gain if info.rewrite_applicable else -1)
            vector[4] = float(info.resub_applicable)
            vector[5] = float(info.resub_gain if info.resub_applicable else -1)
            vector[6] = float(info.refactor_applicable)
            vector[7] = float(info.refactor_gain if info.refactor_applicable else -1)
        features[node] = vector
    return features


def static_feature_matrix(
    aig: Aig,
    encoding: GraphEncoding,
    params: Optional[OperationParams] = None,
) -> np.ndarray:
    """Return the ``(num_nodes, 8)`` static feature matrix aligned with ``encoding``.

    Primary-input rows are filled with the ``-99`` sentinel, exactly as in the
    paper's embedding example.
    """
    per_node = static_node_features(aig, params=params)
    return scatter_features(encoding, per_node, STATIC_FEATURE_DIM, pi_value=PI_SENTINEL)
