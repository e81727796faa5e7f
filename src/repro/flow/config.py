"""Configuration of the BoolGebra flow.

Two ready-made configurations are provided:

* :func:`paper_config` — the exact settings reported in the paper (600 samples
  per design, top-10 evaluation, 1500 training epochs, batch size 100, Adam
  with learning rate ``8e-7`` halved every 100 epochs, GraphSAGE widths
  512/512/64 and dense widths 1000/200/1).  Running this on a CPU-only numpy
  backend is possible but slow; it exists so the paper-scale experiment is one
  flag away on faster hardware.
* :func:`fast_config` — a scaled-down configuration (fewer samples, smaller
  model, fewer epochs) that exercises exactly the same code path in minutes on
  a laptop CPU.  The benchmark harness uses it by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.nn.model import ModelConfig
from repro.nn.trainer import TrainingConfig
from repro.orchestration.transformability import OperationParams


@dataclass
class FlowConfig:
    """All knobs of the end-to-end BoolGebra flow."""

    #: Number of decision samples drawn per design (paper: 600).
    num_samples: int = 600
    #: Number of top predicted candidates evaluated exactly (paper: 10).
    top_k: int = 10
    #: Number of samples used to train the predictor (defaults to all).
    num_training_samples: Optional[int] = None
    #: Fraction of the training samples held out for the test-loss curve.
    train_fraction: float = 0.8
    #: Use priority-guided sampling (True, as in the paper) or purely random.
    guided_sampling: bool = True
    #: Random seed for sampling, splitting and model initialization.
    seed: int = 0
    #: Batch-evaluation backend for candidate samples: ``None``/``"serial"``
    #: for the in-process loop, ``"process"`` (optionally ``"process:N"``) for
    #: a worker pool, or an :class:`~repro.engine.evaluator.Evaluator`.
    evaluator: Optional[str] = None
    #: Artifact store backing the run: ``None`` disables caching (the seed
    #: behaviour), a path string roots a store there, or pass an
    #: :class:`~repro.store.ArtifactStore` instance to share one across runs.
    store: Optional[object] = None
    #: Train through the pinned batch cache (:meth:`Trainer.fit`); the
    #: per-epoch-rebatch reference loop is byte-identical but slower.
    prebatch: bool = True
    #: Compute backend for the numeric inner loops: ``None`` defers to the
    #: ``BOOLGEBRA_BACKEND`` environment variable (default ``"auto"``, which
    #: is ``"native"``), otherwise ``"reference"``, ``"native"`` or
    #: ``"auto"``.  Both backends are gated bit-identical, so this changes
    #: speed, never results.
    backend: Optional[str] = None
    #: Architecture of the GNN predictor.
    model: ModelConfig = field(default_factory=ModelConfig.paper)
    #: Training schedule.
    training: TrainingConfig = field(default_factory=TrainingConfig.paper)
    #: Parameters of the three orchestrated operations.
    operations: OperationParams = field(default_factory=OperationParams)

    def with_seed(self, seed: int) -> "FlowConfig":
        """Return a copy of this configuration with a different seed."""
        return replace(
            self,
            seed=seed,
            model=replace(self.model, seed=seed),
            training=replace(self.training, seed=seed),
        )


def paper_config() -> FlowConfig:
    """The configuration matching the paper's experimental setup."""
    return FlowConfig()


def fast_config(
    num_samples: int = 60,
    top_k: int = 5,
    epochs: int = 60,
    seed: int = 0,
) -> FlowConfig:
    """A CPU-friendly configuration exercising the identical flow."""
    return FlowConfig(
        num_samples=num_samples,
        top_k=top_k,
        train_fraction=0.8,
        guided_sampling=True,
        seed=seed,
        model=ModelConfig.small(seed=seed),
        training=TrainingConfig.fast(epochs=epochs, seed=seed),
    )
