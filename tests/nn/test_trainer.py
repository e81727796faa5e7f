"""Tests for the training loop."""

import numpy as np
import pytest

from repro.features.dataset import build_dataset
from repro.nn.model import ModelConfig
from repro.nn.trainer import Trainer, TrainingConfig
from repro.orchestration.sampling import PriorityGuidedSampler, evaluate_samples


@pytest.fixture(scope="module")
def dataset():
    from repro.circuits.generators import paper_example_aig

    aig = paper_example_aig()
    sampler = PriorityGuidedSampler(aig, seed=1)
    records = evaluate_samples(aig, sampler.generate(10))
    return build_dataset(aig, records)


def _tiny_trainer(epochs=20, seed=0):
    model_config = ModelConfig(
        input_dim=12, conv_hidden_dim=8, conv_output_dim=6, dense_dims=(12, 4, 1), seed=seed
    )
    return Trainer(config=TrainingConfig.fast(epochs=epochs, seed=seed), model_config=model_config)


def test_paper_training_config():
    config = TrainingConfig.paper()
    assert config.epochs == 1500
    assert config.batch_size == 100
    assert config.learning_rate == pytest.approx(8e-7)
    assert config.lr_decay_every == 100
    assert config.lr_decay_factor == 0.5


def test_training_reduces_loss(dataset):
    trainer = _tiny_trainer(epochs=40)
    history = trainer.train_on_dataset(dataset, train_fraction=0.8)
    assert history.epochs == 40
    assert history.train_loss[-1] < history.train_loss[0]
    assert len(history.test_loss) == 40
    assert history.best_test_loss() <= history.test_loss[0]
    assert history.runtime_seconds > 0.0


def test_history_final_report_contains_metrics(dataset):
    trainer = _tiny_trainer(epochs=10)
    history = trainer.train_on_dataset(dataset)
    assert set(history.final_report) >= {"mse", "pearson", "spearman"}


def test_training_without_test_set(dataset):
    trainer = _tiny_trainer(epochs=5)
    history = trainer.train(dataset.samples)
    assert history.test_loss == []
    assert history.best_test_loss() == float("inf")


def test_training_requires_samples():
    trainer = _tiny_trainer(epochs=1)
    with pytest.raises(ValueError):
        trainer.train([])


def test_predict_shape_and_determinism(dataset):
    trainer = _tiny_trainer(epochs=5)
    trainer.train(dataset.samples)
    first = trainer.predict(dataset.samples)
    second = trainer.predict(dataset.samples)
    assert first.shape == (len(dataset),)
    assert np.array_equal(first, second)
    assert np.all((first >= 0.0) & (first <= 1.0))


def test_predict_empty_returns_empty(dataset):
    trainer = _tiny_trainer(epochs=1)
    assert trainer.predict([]).size == 0


def test_evaluate_returns_report(dataset):
    trainer = _tiny_trainer(epochs=5)
    trainer.train(dataset.samples)
    report = trainer.evaluate(dataset.samples)
    assert "mse" in report and report["mse"] >= 0.0


def test_learning_rate_decays_during_training(dataset):
    trainer = _tiny_trainer(epochs=45)
    history = trainer.train(dataset.samples)
    assert history.learning_rates[0] > history.learning_rates[-1]
