"""Tests for the BoolGebra predictor model."""

import numpy as np
import pytest

from repro.features.dataset import build_dataset
from repro.nn.graph import GraphBatch
from repro.nn.loss import MSELoss
from repro.nn.model import BoolGebraPredictor, ModelConfig
from repro.orchestration.sampling import PriorityGuidedSampler, evaluate_samples


@pytest.fixture(scope="module")
def dataset():
    from repro.circuits.generators import paper_example_aig

    aig = paper_example_aig()
    sampler = PriorityGuidedSampler(aig, seed=0)
    records = evaluate_samples(aig, sampler.generate(6))
    return build_dataset(aig, records)


@pytest.fixture
def tiny_model():
    config = ModelConfig(
        input_dim=12, conv_hidden_dim=8, conv_output_dim=6, dense_dims=(10, 4, 1), seed=3
    )
    return BoolGebraPredictor(config)


def test_paper_config_dimensions():
    config = ModelConfig.paper()
    assert config.conv_hidden_dim == 512
    assert config.conv_output_dim == 64
    assert config.dense_dims == (1000, 200, 1)
    assert config.dropout_rate == 0.1


def test_model_rejects_multi_output_head():
    with pytest.raises(ValueError):
        BoolGebraPredictor(ModelConfig(dense_dims=(10, 5)))


def test_forward_output_shape_and_range(tiny_model, dataset):
    batch = GraphBatch.from_samples(dataset.samples)
    predictions = tiny_model.forward(batch, training=False)
    assert predictions.shape == (len(dataset), 1)
    assert np.all((predictions >= 0.0) & (predictions <= 1.0))


def test_forward_deterministic_in_eval_mode(tiny_model, dataset):
    batch = GraphBatch.from_samples(dataset.samples)
    first = tiny_model.forward(batch, training=False)
    second = tiny_model.forward(batch, training=False)
    assert np.array_equal(first, second)


def test_predict_matches_forward(tiny_model, dataset):
    batch = GraphBatch.from_samples(dataset.samples)
    assert np.allclose(tiny_model.predict(batch), tiny_model.forward(batch).ravel())


def test_num_parameters_positive_and_consistent(tiny_model):
    assert tiny_model.num_parameters() == sum(
        parameter.value.size for parameter in tiny_model.parameters()
    )
    assert tiny_model.num_parameters() > 100


def test_full_model_gradient_check(tiny_model, dataset):
    """End-to-end analytic gradients must match numerical gradients."""
    batch = GraphBatch.from_samples(dataset.samples[:3])
    loss = MSELoss()

    def compute_loss():
        return loss.forward(tiny_model.forward(batch, training=False), batch.labels)

    base_parameters = tiny_model.parameters()
    for parameter in base_parameters:
        parameter.zero_grad()
    value = compute_loss()
    tiny_model.backward(loss.backward())

    rng = np.random.default_rng(0)
    eps = 1e-6
    checked = 0
    for parameter in (base_parameters[0], base_parameters[4], base_parameters[-1]):
        for _ in range(3):
            index = tuple(rng.integers(0, dim) for dim in parameter.value.shape)
            original = parameter.value[index]
            parameter.value[index] = original + eps
            plus = compute_loss()
            parameter.value[index] = original - eps
            minus = compute_loss()
            parameter.value[index] = original
            numeric = (plus - minus) / (2 * eps)
            analytic = parameter.grad[index]
            assert numeric == pytest.approx(analytic, rel=1e-3, abs=1e-7), parameter.name
            checked += 1
    assert checked == 9


def test_state_dict_roundtrip(tiny_model, dataset, tmp_path):
    batch = GraphBatch.from_samples(dataset.samples)
    reference = tiny_model.forward(batch, training=False)
    path = tmp_path / "model.npz"
    tiny_model.save(path)
    config = ModelConfig(
        input_dim=12, conv_hidden_dim=8, conv_output_dim=6, dense_dims=(10, 4, 1), seed=99
    )
    restored = BoolGebraPredictor.load(path, config)
    assert np.allclose(restored.forward(batch, training=False), reference)


def test_load_state_dict_shape_mismatch(tiny_model):
    state = tiny_model.state_dict()
    state["conv0.weight_self"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        tiny_model.load_state_dict(state)


def test_load_state_dict_missing_key(tiny_model):
    state = tiny_model.state_dict()
    del state["conv0.weight_self"]
    with pytest.raises(KeyError):
        tiny_model.load_state_dict(state)
