"""Adam, the one update rule every model trains with, and its trainer config."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, NumericError
from .tensor import Parameter


@dataclass
class TrainerConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    epochs: int = 30
    # per-epoch caps; parser counts sentences, tagger counts words
    max_sentences_per_epoch: int = 15_000
    max_words_per_epoch: int = 500_000
    explore_probability: float = 0.1
    explore_burnin_epochs: int = 1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DataError("learning rate must be > 0")
        if self.max_sentences_per_epoch <= 0 or self.max_words_per_epoch <= 0:
            raise DataError("epoch caps must be > 0")


@dataclass
class Optimizer:
    params: list[Parameter]
    config: TrainerConfig
    step_count: int = 0
    _moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def step(self):
        """Apply one Adam update, then zero the gradients."""
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        cfg = self.config
        self.step_count += 1
        t = self.step_count
        for p in self.params:
            if p.name not in self._moments:
                self._moments[p.name] = (np.zeros_like(p.data), np.zeros_like(p.data))
            m, v = self._moments[p.name]
            m *= cfg.beta1
            m += (1 - cfg.beta1) * p.grad
            v *= cfg.beta2
            v += (1 - cfg.beta2) * p.grad * p.grad
            m_hat = m / (1 - cfg.beta1**t)
            v_hat = v / (1 - cfg.beta2**t)
            p.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        for p in self.params:
            p.zero_grad()
