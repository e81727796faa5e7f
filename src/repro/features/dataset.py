"""Dataset assembly and label normalization (Section III-C.1 of the paper).

A training example pairs the attributed graph of one optimization sample
(static features ⊕ dynamic features per node, plus the AIG edge list) with a
normalized label.  The label is the *gap-to-best ratio*:

``label_i = (best_reduction - reduction_i) / best_reduction``

so the best sample of the dataset gets label ``0`` and a sample that removes
no nodes gets label ``1``.  Normalizing against the best observed reduction —
rather than predicting absolute sizes — is the paper's answer to the tiny
dynamic range of raw optimization results (a 50-node swing on a 1000-node
design), and it is what lets the model *rank* candidate samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.aig.aig import Aig
from repro.features.dynamic_features import DYNAMIC_FEATURE_DIM
from repro.features.encoding import GraphEncoding
from repro.features.static_features import STATIC_FEATURE_DIM
from repro.orchestration.sampling import SampleRecord
from repro.orchestration.transformability import OperationParams

#: Total per-node feature width (static ⊕ dynamic).
FEATURE_DIM = STATIC_FEATURE_DIM + DYNAMIC_FEATURE_DIM


@dataclass
class GraphSample:
    """One attributed-graph training/inference example."""

    design: str
    features: np.ndarray        # (num_nodes, FEATURE_DIM)
    edge_index: np.ndarray      # (2, num_edges)
    label: float                # normalized gap-to-best, 0 = best
    reduction: int              # absolute node reduction of the sample
    size_after: int             # optimized AIG size of the sample
    record: Optional[SampleRecord] = None

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the attributed graph."""
        return self.features.shape[0]


@dataclass
class BoolGebraDataset:
    """A set of :class:`GraphSample` sharing one design and one normalization."""

    design: str
    samples: List[GraphSample] = field(default_factory=list)
    best_reduction: int = 0
    encoding: Optional[GraphEncoding] = None
    #: Content-addressed key under which the artifact store holds (or would
    #: hold) this dataset; ``None`` for datasets built outside the store.
    cache_key: Optional[str] = None

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> GraphSample:
        return self.samples[index]

    def __iter__(self):
        return iter(self.samples)

    def labels(self) -> np.ndarray:
        """Return all labels as one vector."""
        return np.array([sample.label for sample in self.samples], dtype=np.float64)

    def split(
        self, train_fraction: float = 0.8, seed: int = 0
    ) -> Tuple["BoolGebraDataset", "BoolGebraDataset"]:
        """Shuffle-split the dataset into training and held-out test portions."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.samples))
        cut = max(1, int(round(train_fraction * len(self.samples))))
        cut = min(cut, len(self.samples) - 1) if len(self.samples) > 1 else cut
        train = [self.samples[i] for i in order[:cut]]
        test = [self.samples[i] for i in order[cut:]]
        return (
            BoolGebraDataset(self.design, train, self.best_reduction, self.encoding),
            BoolGebraDataset(self.design, test, self.best_reduction, self.encoding),
        )


def normalized_labels(reductions: Sequence[int]) -> Tuple[np.ndarray, int]:
    """Return the gap-to-best labels and the best reduction of the set.

    When no sample achieves any reduction every label is ``1.0`` (there is no
    "best" direction to learn from).
    """
    reductions = np.asarray(list(reductions), dtype=np.float64)
    best = float(reductions.max(initial=0.0))
    if best <= 0:
        return np.ones_like(reductions), 0
    return (best - reductions) / best, int(best)


def build_dataset(
    aig: Aig,
    records: Sequence[SampleRecord],
    params: Optional[OperationParams] = None,
    undirected: bool = True,
) -> BoolGebraDataset:
    """Assemble the attributed-graph dataset of one design.

    Parameters
    ----------
    aig:
        The design the samples were drawn from (the graph structure and the
        static features are computed once from this network).
    records:
        Evaluated samples (each must carry its :class:`OrchestrationResult`).
    """
    missing = [index for index, record in enumerate(records) if record.result is None]
    if missing:
        raise ValueError(
            f"records at positions {missing[:5]} have not been evaluated yet"
        )
    from repro.features.dynamic_features import dynamic_feature_batch
    from repro.features.incremental import feature_context

    context = feature_context(aig, params=params, undirected=undirected)
    encoding = context.encoding
    static = context.static
    reductions = [record.result.reduction for record in records]
    labels, best_reduction = normalized_labels(reductions)

    # One batched pass over all samples: the shared slot-0 template is copied
    # per sample and only the applied-node rows are rewritten.
    dynamic = dynamic_feature_batch(
        aig,
        encoding,
        [record.result.applied_nodes for record in records],
        template=context.dynamic_template,
    )
    samples: List[GraphSample] = []
    for index, (record, label) in enumerate(zip(records, labels)):
        features = np.concatenate([static, dynamic[index]], axis=1)
        samples.append(
            GraphSample(
                design=aig.name,
                features=features,
                edge_index=encoding.edge_index,
                label=float(label),
                reduction=record.result.reduction,
                size_after=record.result.size_after,
                record=record,
            )
        )
    return BoolGebraDataset(
        design=aig.name,
        samples=samples,
        best_reduction=best_reduction,
        encoding=encoding,
    )
