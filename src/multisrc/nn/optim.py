"""Adam with fixed BETA1, BETA2 and EPS, the one update rule every model
trains with, its trainer config, and `fit`, the one training loop."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, NumericError
from . import tensor as T
from .tensor import Parameter

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class TrainerConfig:
    learning_rate: float = 1e-3
    seed: int = 0
    epochs: int = 30
    # per-epoch caps; parser counts sentences, tagger counts words
    max_sentences_per_epoch: int = 15_000
    max_words_per_epoch: int = 500_000

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
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
        self.step_count += 1
        t = self.step_count
        for p in self.params:
            if p.name not in self._moments:
                self._moments[p.name] = (np.zeros_like(p.data), np.zeros_like(p.data))
            m, v = self._moments[p.name]
            m *= BETA1
            m += (1 - BETA1) * p.grad
            v *= BETA2
            v += (1 - BETA2) * p.grad * p.grad
            m_hat = m / (1 - BETA1**t)
            v_hat = v / (1 - BETA2**t)
            p.data -= self.config.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
        for p in self.params:
            p.zero_grad()


def fit(model, items: list, mode: str, trainer: TrainerConfig, cap: int,
        size: Callable[[object], int]) -> dict:
    """Shuffled epochs, each stopping before the item that would push its
    summed `size` past `cap` (the first item is always taken), and one Adam
    update per item from `model.sentence_losses(item, mode, rng, epoch)`,
    where `rng` also shuffles the epochs.  An item without losses counts
    toward the cap but makes no update."""
    if not items:
        raise DataError("empty training data")
    optimizer = Optimizer(model.params.all(), trainer)
    rng = np.random.default_rng(trainer.seed)
    history = {"epoch_loss": [], "epoch_updates": []}
    for epoch in range(trainer.epochs):
        used, epoch_loss, updates = 0, 0.0, 0
        for position in rng.permutation(len(items)):
            item = items[position]
            if used and used + size(item) > cap:
                break
            used += size(item)
            losses = model.sentence_losses(item, mode, rng, epoch)
            if not losses:
                continue
            loss = T.total(losses)
            epoch_loss += float(loss.data)
            updates += 1
            loss.backward()
            optimizer.step()
        history["epoch_loss"].append(epoch_loss)
        history["epoch_updates"].append(updates)
    return history
