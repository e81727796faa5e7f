"""Optimizers and learning-rate schedules."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.layers import Parameter


class Adam:
    """The Adam optimizer (Kingma & Ba, 2014), as used to train the paper's model."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 8e-7,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._first_moments: List[np.ndarray] = [
            np.zeros_like(parameter.value) for parameter in self.parameters
        ]
        self._second_moments: List[np.ndarray] = [
            np.zeros_like(parameter.value) for parameter in self.parameters
        ]
        # Reusable per-parameter scratch buffers: the update below is written
        # with explicit ``out=`` targets so one step allocates nothing.  The
        # arithmetic (values *and* operation order) is identical to the
        # textbook rendering, so trajectories are bit-for-bit unchanged.
        self._scratch_a: List[np.ndarray] = [
            np.empty_like(parameter.value) for parameter in self.parameters
        ]
        self._scratch_b: List[np.ndarray] = [
            np.empty_like(parameter.value) for parameter in self.parameters
        ]

    def zero_grad(self) -> None:
        """Clear the accumulated gradients of all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one Adam update using the currently accumulated gradients."""
        self._step += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step
        bias_correction2 = 1.0 - self.beta2 ** self._step
        for index, parameter in enumerate(self.parameters):
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.value
            first = self._first_moments[index]
            second = self._second_moments[index]
            scratch = self._scratch_a[index]
            denominator = self._scratch_b[index]
            # first = beta1 * first + (1 - beta1) * grad
            first *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=scratch)
            first += scratch
            # second = beta2 * second + (1 - beta2) * grad * grad (the factor
            # order matches the textbook expression so rounding is identical)
            second *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=scratch)
            scratch *= grad
            second += scratch
            # value -= lr * (first / bc1) / (sqrt(second / bc2) + eps)
            np.divide(second, bias_correction2, out=denominator)
            np.sqrt(denominator, out=denominator)
            denominator += self.eps
            np.divide(first, bias_correction1, out=scratch)
            scratch *= self.lr
            scratch /= denominator
            parameter.value -= scratch


class StepLR:
    """Step decay schedule: multiply the learning rate by ``gamma`` every ``step_size`` epochs.

    The paper decays the rate by 0.5 every 100 epochs.
    """

    def __init__(self, optimizer: Adam, step_size: int = 100, gamma: float = 0.5) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0
        self.base_lr = optimizer.lr

    def step(self) -> None:
        """Advance one epoch and update the optimizer's learning rate."""
        self._epoch += 1
        decays = self._epoch // self.step_size
        self.optimizer.lr = self.base_lr * (self.gamma ** decays)

    @property
    def current_lr(self) -> float:
        """The learning rate currently applied by the optimizer."""
        return self.optimizer.lr
