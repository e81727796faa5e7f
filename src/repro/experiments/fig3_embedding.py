"""Figure 3: the attributed-graph embedding walk-through.

Figure 3 of the paper illustrates the BoolGebra flow on a five-node example:
the vanilla AIG is converted to an attributed graph, static per-node features
(edge complementation, per-operation transformability and gain) are attached,
two different decision samples produce two different dynamic one-hot
embeddings, and the normalized optimization results become the labels.

This experiment reproduces that walk-through programmatically on the
motivating-example AIG: it returns (and renders) the static feature table, the
dynamic feature table of two contrasting samples and their normalized labels,
so the embedding conventions can be inspected end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.aig.aig import Aig
from repro.circuits.generators import paper_example_aig
from repro.features.dataset import build_dataset
from repro.features.encoding import encode_graph
from repro.flow.reporting import format_table
from repro.orchestration.sampling import PriorityGuidedSampler, RandomSampler, evaluate_samples


@dataclass
class Fig3Result:
    """Feature tables and labels of the embedding walk-through."""

    design: str
    node_rows: List[List[object]] = field(default_factory=list)
    sample_labels: List[float] = field(default_factory=list)
    feature_dim: int = 12
    num_nodes: int = 0


def run_fig3_embedding(aig: Optional[Aig] = None, num_samples: int = 4, seed: int = 0) -> Fig3Result:
    """Build the attributed-graph dataset of a small example and tabulate it."""
    aig = aig if aig is not None else paper_example_aig()
    sampler = PriorityGuidedSampler(aig, seed=seed)
    vectors = sampler.generate(max(2, num_samples - 1))
    vectors += RandomSampler(aig, seed=seed + 1).generate(1)
    records = evaluate_samples(aig, vectors)
    dataset = build_dataset(aig, records)
    encoding = encode_graph(aig)

    result = Fig3Result(design=aig.name, num_nodes=encoding.num_nodes)
    first_sample = dataset.samples[0]
    for row_index, node in enumerate(encoding.node_ids):
        features = first_sample.features[row_index]
        kind = "PI" if encoding.is_pi_row(row_index) else "AND"
        static = " ".join(f"{value:g}" for value in features[:8])
        dynamic = " ".join(f"{value:g}" for value in features[8:])
        result.node_rows.append([node, kind, static, dynamic])
    result.sample_labels = [sample.label for sample in dataset.samples]
    result.feature_dim = first_sample.features.shape[1]
    return result


def format_fig3(result: Fig3Result, max_rows: int = 16) -> str:
    """Render the embedding tables in the style of Figure 3(c)/(d)."""
    table = format_table(
        headers=["node", "kind", "static features (8)", "dynamic features (4)"],
        rows=result.node_rows[:max_rows],
        title=f"Figure 3 — attributed-graph embedding of {result.design}",
    )
    labels = ", ".join(f"{label:.2f}" for label in result.sample_labels)
    return f"{table}\n\nnormalized sample labels (0 = best): {labels}"
