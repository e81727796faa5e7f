"""Cache-backed assembly of the learning pipeline stages.

These helpers are the store-aware versions of the three expensive steps of
the BoolGebra flow — *sample + evaluate*, *build dataset*, *train model* —
shared by :class:`repro.flow.boolgebra.BoolGebraFlow`, the experiment harness
and the benchmark suite.  Every helper degrades gracefully: with
``store=None`` it simply computes (seed behaviour), with a store it looks up
the content-addressed key first and persists fresh results after computing.

Cache keys combine the design's structural fingerprint with a configuration
fingerprint of everything that shapes the artifact (sampler kind / count /
seed, operation parameters, orchestration strategy, model architecture,
training schedule, split fraction) — see :mod:`repro.store.fingerprint`.
Evaluation *backends* are deliberately excluded from the key: serial and
process-pool evaluation produce identical records, so artifacts are shared
across backends.
"""

from __future__ import annotations

from typing import List, Optional

from repro.aig.aig import Aig
from repro.features.dataset import BoolGebraDataset, build_dataset
from repro.orchestration.sampling import (
    PriorityGuidedSampler,
    RandomSampler,
    SampleRecord,
    evaluate_samples,
)
from repro.orchestration.transformability import OperationParams
from repro.store.artifacts import ArtifactStore
from repro.store.fingerprint import aig_fingerprint, combine_keys, config_fingerprint


def dataset_key(
    aig: Aig,
    num_samples: int,
    guided: bool,
    seed: int,
    params: Optional[OperationParams] = None,
    strategy: str = "sweep",
) -> str:
    """Content-addressed key of one evaluated-and-built sample batch."""
    return combine_keys(
        aig_fingerprint(aig),
        config_fingerprint(
            {
                "kind": "dataset/v1",
                "num_samples": num_samples,
                "guided": guided,
                "seed": seed,
                "params": params or OperationParams(),
                "strategy": strategy,
            }
        ),
    )


def sample_records(
    aig: Aig,
    num_samples: int,
    guided: bool,
    seed: int,
    params: Optional[OperationParams] = None,
    evaluator=None,
    store: Optional[ArtifactStore] = None,
    key: Optional[str] = None,
) -> List[SampleRecord]:
    """Draw and evaluate ``num_samples`` decision vectors, cache-backed."""
    key = key or dataset_key(aig, num_samples, guided, seed, params=params)
    if store is not None:
        cached = store.load_samples(key)
        if cached is not None:
            return cached
    if guided:
        sampler = PriorityGuidedSampler(aig, seed=seed, params=params)
    else:
        sampler = RandomSampler(aig, seed=seed)
    vectors = sampler.generate(num_samples)
    records = evaluate_samples(aig, vectors, params=params, evaluator=evaluator)
    if store is not None:
        store.save_samples(key, records)
    return records


def dataset_for(
    aig: Aig,
    num_samples: int,
    guided: bool,
    seed: int,
    params: Optional[OperationParams] = None,
    evaluator=None,
    store: Optional[ArtifactStore] = None,
) -> BoolGebraDataset:
    """Sample, evaluate and embed a dataset for ``aig``, cache-backed.

    On a warm store the fully built dataset (features, labels, encoding,
    records) is loaded without re-running the sampler, the evaluator or the
    transformability analysis.
    """
    key = dataset_key(aig, num_samples, guided, seed, params=params)
    if store is not None:
        cached = store.load_dataset(key)
        if cached is not None:
            return cached
    records = sample_records(
        aig,
        num_samples,
        guided,
        seed,
        params=params,
        evaluator=evaluator,
        store=store,
        key=key,
    )
    dataset = build_dataset(aig, records, params=params)
    dataset.cache_key = key
    if store is not None:
        store.save_dataset(key, dataset)
    return dataset


def _dataset_fingerprint(dataset: BoolGebraDataset) -> str:
    """Fallback content key for datasets that did not come from the store.

    Hashes the actual training inputs — the feature matrices, the edge list
    and the decisions behind each sample — not just the label vector, so two
    hand-built datasets with coincidentally equal outcomes cannot alias to
    one checkpoint.
    """
    import hashlib

    content = hashlib.sha256()
    for sample in dataset.samples:
        content.update(sample.features.tobytes())
        content.update(sample.edge_index.tobytes())
        if sample.record is not None:
            content.update(
                repr(sorted(
                    (int(node), int(op)) for node, op in sample.record.decisions.items()
                )).encode("ascii")
            )
    return config_fingerprint(
        {
            "kind": "dataset-content/v2",
            "design": dataset.design,
            "best_reduction": dataset.best_reduction,
            "content_sha256": content.hexdigest(),
            "labels": [float(sample.label) for sample in dataset.samples],
            "reductions": [int(sample.reduction) for sample in dataset.samples],
            "size_afters": [int(sample.size_after) for sample in dataset.samples],
        }
    )


def model_key(
    dataset: BoolGebraDataset,
    model_config,
    training_config,
    train_fraction: float,
) -> str:
    """Content-addressed key of one trained checkpoint."""
    base = getattr(dataset, "cache_key", None) or _dataset_fingerprint(dataset)
    return combine_keys(
        base,
        config_fingerprint(
            {
                "kind": "model/v1",
                "model": model_config,
                "training": training_config,
                "train_fraction": train_fraction,
            }
        ),
    )


def train_or_load(
    dataset: BoolGebraDataset,
    model_config,
    training_config,
    train_fraction: float = 0.8,
    store: Optional[ArtifactStore] = None,
    prebatch: bool = True,
):
    """Train a predictor on ``dataset`` — or load the cached checkpoint.

    Returns ``(trainer, history, cache_hit)``.  On a hit the trainer wraps
    the restored model (identical parameters and batch-norm statistics, so
    predictions reproduce the cold run exactly) and the history is rebuilt
    from its stored JSON rendering.
    """
    from repro.nn.trainer import Trainer, TrainingHistory

    key = model_key(dataset, model_config, training_config, train_fraction)
    if store is not None:
        model = store.load_model(key, model_config)
        payload = store.load_result(key)
        if model is not None and payload is not None:
            trainer = Trainer(model=model, config=training_config)
            return trainer, TrainingHistory.from_dict(payload), True
    trainer = Trainer(config=training_config, model_config=model_config)
    history = trainer.train_on_dataset(dataset, train_fraction, prebatch=prebatch)
    if store is not None:
        store.save_model(key, trainer.model)
        store.save_result(key, history.to_dict())
    return trainer, history, False
