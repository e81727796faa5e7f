"""Per-design feature context, computed once and shared across samples.

Everything *static* about one design's attributed graph — the node ordering,
the edge list, the 8-column static feature matrix and the dynamic-feature
base template — depends only on the network structure and the operation
parameters, never on the individual decision sample.  The seed code rebuilt
all of it per dataset (and the dynamic base per *sample*); this module
computes it once per ``(structure version, parameters)`` and caches it on the
side, keyed weakly by the :class:`~repro.aig.aig.Aig` instance exactly like
the levelized kernel snapshots of :mod:`repro.aig.kernels`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.aig.aig import Aig
from repro.features.dynamic_features import dynamic_feature_template
from repro.features.encoding import GraphEncoding, encode_graph
from repro.features.static_features import static_feature_matrix
from repro.orchestration.transformability import OperationParams, params_tag


@dataclass
class FeatureContext:
    """Immutable static-feature snapshot of one design version."""

    design: str
    version: int
    encoding: GraphEncoding
    static: np.ndarray            # (num_nodes, STATIC_FEATURE_DIM)
    dynamic_template: np.ndarray  # (num_nodes, DYNAMIC_FEATURE_DIM), slot-0 base

    @property
    def num_nodes(self) -> int:
        """Number of encoded nodes (PIs + AND gates)."""
        return self.encoding.num_nodes


#: aig -> (cache tag, FeatureContext); weak keys so contexts die with designs.
_CONTEXT_CACHE: "weakref.WeakKeyDictionary[Aig, tuple]" = weakref.WeakKeyDictionary()


def feature_context(
    aig: Aig,
    params: Optional[OperationParams] = None,
    undirected: bool = True,
) -> FeatureContext:
    """Return the (cached) static feature context of ``aig``.

    The context is invalidated by any structural edit (via the modification
    counter) or by a change of operation parameters.
    """
    tag = (aig.modification_count, params_tag(params), undirected)
    entry = _CONTEXT_CACHE.get(aig)
    if entry is not None and entry[0] == tag:
        return entry[1]
    encoding = encode_graph(aig, undirected=undirected)
    static = static_feature_matrix(aig, encoding, params=params)
    context = FeatureContext(
        design=aig.name,
        version=aig.modification_count,
        encoding=encoding,
        static=static,
        dynamic_template=dynamic_feature_template(aig, encoding),
    )
    _CONTEXT_CACHE[aig] = (tag, context)
    return context
