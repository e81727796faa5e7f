"""Tests for dataset assembly and label normalization."""

import numpy as np
import pytest

from repro.features.dataset import (
    FEATURE_DIM,
    BoolGebraDataset,
    build_dataset,
    normalized_labels,
)
from repro.orchestration.sampling import (
    PriorityGuidedSampler,
    SampleRecord,
    evaluate_samples,
)


def _records(example_aig, count=5, seed=0):
    sampler = PriorityGuidedSampler(example_aig, seed=seed)
    return sampler, evaluate_samples(example_aig, sampler.generate(count))


def test_normalized_labels_gap_to_best():
    labels, best = normalized_labels([3, 1, 0])
    assert best == 3
    assert np.allclose(labels, [0.0, 2 / 3, 1.0])


def test_normalized_labels_no_reduction():
    labels, best = normalized_labels([0, 0])
    assert best == 0
    assert np.allclose(labels, [1.0, 1.0])


def test_normalized_labels_match_paper_example():
    """Paper: best sample reduces 3 nodes (label 0), other reduces 1 (label 0.66)."""
    labels, _ = normalized_labels([3, 1])
    assert labels[0] == 0.0
    assert abs(labels[1] - 2 / 3) < 1e-9


def test_build_dataset_shapes_and_labels(example_aig):
    sampler, records = _records(example_aig)
    dataset = build_dataset(example_aig, records)
    assert len(dataset) == len(records)
    assert dataset.design == example_aig.name
    for sample in dataset:
        assert sample.features.shape[1] == FEATURE_DIM
        assert sample.features.shape[0] == example_aig.num_pis() + example_aig.size
        assert 0.0 <= sample.label <= 1.0
    best = max(record.reduction for record in records)
    assert dataset.best_reduction == best
    assert min(dataset.labels()) == 0.0


def test_build_dataset_rejects_unevaluated_records(example_aig):
    from repro.orchestration.decision import DecisionVector

    with pytest.raises(ValueError):
        build_dataset(example_aig, [SampleRecord(decisions=DecisionVector())])


def test_dataset_split(example_aig):
    sampler, records = _records(example_aig, count=8)
    dataset = build_dataset(example_aig, records)
    train, test = dataset.split(0.75, seed=1)
    assert len(train) + len(test) == len(dataset)
    assert len(train) >= len(test)
    assert train.design == test.design == dataset.design


def test_dataset_split_bounds(example_aig):
    sampler, records = _records(example_aig, count=4)
    dataset = build_dataset(example_aig, records)
    with pytest.raises(ValueError):
        dataset.split(1.5)


def test_static_part_is_shared_across_samples(example_aig):
    sampler, records = _records(example_aig, count=3)
    dataset = build_dataset(example_aig, records)
    static_parts = [sample.features[:, :8] for sample in dataset]
    assert np.array_equal(static_parts[0], static_parts[1])
    assert np.array_equal(static_parts[1], static_parts[2])


def test_dynamic_part_differs_between_samples(example_aig):
    sampler, records = _records(example_aig, count=4, seed=3)
    dataset = build_dataset(example_aig, records)
    dynamic_parts = [sample.features[:, 8:] for sample in dataset]
    assert any(
        not np.array_equal(dynamic_parts[0], other) for other in dynamic_parts[1:]
    )


def test_getitem_and_iteration(example_aig):
    sampler, records = _records(example_aig, count=3)
    dataset = build_dataset(example_aig, records)
    assert dataset[0] is dataset.samples[0]
    assert list(iter(dataset)) == dataset.samples
