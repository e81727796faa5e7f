"""Tests for graph batching."""

import numpy as np
import pytest

from repro.features.dataset import build_dataset
from repro.nn.graph import GraphBatch, batch_iterator, default_feature_scale
from repro.orchestration.sampling import PriorityGuidedSampler, evaluate_samples


@pytest.fixture
def dataset(example_aig):
    sampler = PriorityGuidedSampler(example_aig, seed=0)
    records = evaluate_samples(example_aig, sampler.generate(4))
    return build_dataset(example_aig, records)


def test_batch_shapes(dataset):
    batch = GraphBatch.from_samples(dataset.samples)
    nodes_per_graph = dataset.samples[0].num_nodes
    assert batch.num_graphs == len(dataset)
    assert batch.num_nodes == nodes_per_graph * len(dataset)
    assert batch.features.shape == (batch.num_nodes, 12)
    assert batch.labels.shape == (len(dataset), 1)
    assert batch.aggregation.shape == (batch.num_nodes, batch.num_nodes)
    assert batch.pooling.shape == (len(dataset), batch.num_nodes)


def test_aggregation_rows_are_normalized(dataset):
    batch = GraphBatch.from_samples(dataset.samples)
    row_sums = np.asarray(batch.aggregation.sum(axis=1)).ravel()
    nonzero = row_sums[row_sums > 0]
    assert np.allclose(nonzero, 1.0)


def test_pooling_rows_average_each_graph(dataset):
    batch = GraphBatch.from_samples(dataset.samples)
    row_sums = np.asarray(batch.pooling.sum(axis=1)).ravel()
    assert np.allclose(row_sums, 1.0)
    # Block structure: the pooling row of graph g covers exactly its nodes.
    for graph_id in range(batch.num_graphs):
        nodes = np.where(batch.graph_index == graph_id)[0]
        row = batch.pooling.getrow(graph_id).toarray().ravel()
        assert np.allclose(row[nodes], 1.0 / len(nodes))
        others = np.setdiff1d(np.arange(batch.num_nodes), nodes)
        assert np.allclose(row[others], 0.0)


def test_blocks_do_not_mix_between_graphs(dataset):
    batch = GraphBatch.from_samples(dataset.samples[:2])
    coo = batch.aggregation.tocoo()
    for row, col in zip(coo.row, coo.col):
        assert batch.graph_index[row] == batch.graph_index[col]


def test_feature_scaling_applied(dataset):
    unscaled = GraphBatch.from_samples(dataset.samples, normalize_features=False)
    scaled = GraphBatch.from_samples(dataset.samples)
    scale = default_feature_scale(12)
    assert np.allclose(scaled.features, unscaled.features / scale)


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        GraphBatch.from_samples([])


def test_batch_iterator_covers_all_samples(dataset):
    seen = 0
    for batch in batch_iterator(dataset.samples, batch_size=3, shuffle=True, seed=1):
        seen += batch.num_graphs
    assert seen == len(dataset)


def test_batch_iterator_rejects_bad_batch_size(dataset):
    with pytest.raises(ValueError):
        list(batch_iterator(dataset.samples, 0))
