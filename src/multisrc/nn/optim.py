"""Adam with fixed BETA1, BETA2 and EPS, the one update rule every model
trains with, its trainer config, and `fit`, the one training loop.

A step sweeps only the rows it can change: every row of a dense parameter
and the seen rows of an embedding table (`Parameter.seen`).  A table row
that has never had a gradient has a zero gradient and zero moments, so
Adam would move it by 0 / (sqrt(0) + EPS) = +0, which leaves it bit for bit
as it is: skipping it is exact.  The swept rows go in blocks of at most
CHUNK elements through the same element-wise expressions, in the same
order, as a dense update, written into scratch buffers instead of new
arrays, so every bit matches the dense update."""

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
# elements in one block of a step's sweep (a block holds one row at least)
CHUNK = 1 << 14


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
    # six flat scratch rows: two for the update's terms, four for the
    # gradient, moments and values gathered from scattered table rows
    _scratch: np.ndarray = field(default_factory=lambda: np.empty((6, 0)))

    def step(self):
        """Apply one Adam update to the rows a step can change, then zero
        their gradients.  Every parameter is checked for a non-finite
        gradient before any is updated; a row outside the sweep has a zero
        gradient by construction."""
        sweeps = [(p, _blocks(p)) for p in self.params]
        for p, blocks in sweeps:
            if not all(np.isfinite(p.grad[rows]).all() for rows in blocks):
                raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        self.step_count += 1
        t = self.step_count
        c1, c2 = 1 - BETA1**t, 1 - BETA2**t
        for p, blocks in sweeps:
            if p.name not in self._moments:
                self._moments[p.name] = (np.zeros_like(p.data), np.zeros_like(p.data))
            m, v = self._moments[p.name]
            for rows in blocks:
                self._sweep(p, m, v, rows, c1, c2)

    def _sweep(self, p: Parameter, m: np.ndarray, v: np.ndarray, rows: slice | np.ndarray,
               c1: float, c2: float):
        """Update the block `rows` of `p` in place: through views for a
        slice, through gathered copies scattered back for an index array."""
        count = rows.stop - rows.start if isinstance(rows, slice) else len(rows)
        shape = (count, *p.data.shape[1:])
        size = math.prod(shape)
        if self._scratch.shape[1] < size:
            self._scratch = np.empty((6, size))
        a, b = (row[:size].reshape(shape) for row in self._scratch[:2])
        if isinstance(rows, slice):
            g, m_rows, v_rows, data = p.grad[rows], m[rows], v[rows], p.data[rows]
        else:
            g, m_rows, v_rows, data = (
                np.take(x, rows, axis=0, out=row[:size].reshape(shape), mode="clip")
                for x, row in zip((p.grad, m, v, p.data), self._scratch[2:]))
        # the dense update's expressions, in its order: m, v, m_hat, v_hat,
        # sqrt(v_hat) + EPS, lr * m_hat, the quotient, the subtraction
        m_rows *= BETA1
        m_rows += np.multiply(g, 1 - BETA1, out=a)
        v_rows *= BETA2
        np.multiply(g, 1 - BETA2, out=a)
        v_rows += np.multiply(a, g, out=a)
        np.divide(m_rows, c1, out=a)
        np.divide(v_rows, c2, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a *= self.config.learning_rate
        a /= b
        data -= a
        if not isinstance(rows, slice):
            m[rows], v[rows], p.data[rows] = m_rows, v_rows, data
        p.grad[rows] = 0.0


def _blocks(p: Parameter) -> list[slice | np.ndarray]:
    """The rows of `p` that a step sweeps, in blocks of at most CHUNK
    elements: every row of a dense parameter, the seen rows of a table.  A
    block of consecutive rows is a slice, any other an index array."""
    n, per_block = len(p.data), max(1, CHUNK // math.prod(p.data.shape[1:]))
    if p.seen is None:
        return [slice(lo, min(lo + per_block, n)) for lo in range(0, n, per_block)]
    blocks = []
    seen = np.flatnonzero(p.seen)
    for lo in range(0, len(seen), per_block):
        ids = seen[lo:lo + per_block]
        first, last = int(ids[0]), int(ids[-1])
        blocks.append(slice(first, last + 1) if last - first == len(ids) - 1 else ids)
    return blocks


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
