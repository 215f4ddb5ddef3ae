"""Scalar reference for the source classifier's SGD and scoring.

These are the per-(feature, count) Python loops that `multisrc.classifier`
replaced with numpy fancy indexing. Tests require the vectorised code to
match them bit for bit (`np.array_equal`), because the arithmetic, and the
order in which each margin is summed, is unchanged.
"""

from __future__ import annotations

import numpy as np

from multisrc.classifier import ClassifierHyper, LinearModel, NGramConfig, SparseVector
from multisrc.errors import DataError


def scores_reference(model: LinearModel, vec: SparseVector) -> np.ndarray:
    out = model.biases.copy()
    for idx, count in vec.entries:
        out += model.weights[:, idx] * count
    return out


def train_linear_reference(
    data: list[tuple[SparseVector, str]], cfg: NGramConfig, hyper: ClassifierHyper
) -> tuple[LinearModel, int]:
    """The scalar one-vs-rest hinge SGD; also returns how often the lazy
    L2 scale was folded back into the weights."""
    if not data:
        raise DataError("empty training data")
    class_ids = sorted({label for _, label in data})
    if len(class_ids) < 2:
        raise DataError(f"need >= 2 classes, got {class_ids}")
    class_index = {c: i for i, c in enumerate(class_ids)}
    data = sorted(data, key=lambda pair: (pair[1], pair[0].entries))
    weights = np.zeros((len(class_ids), cfg.feature_space_size))
    biases = np.zeros(len(class_ids))
    rng = np.random.default_rng(hyper.seed)
    order = np.arange(len(data))
    lam = 1.0 / (hyper.regularization_c * max(len(data), 1))
    scale = 1.0
    renormalised = 0
    for epoch in range(hyper.epochs):
        rng.shuffle(order)
        lr = hyper.learning_rate / (1.0 + epoch)
        decay = 1.0 - lr * lam
        for pos in order:
            vec, label = data[pos]
            target = class_index[label]
            margins = biases.copy()
            for idx, count in vec.entries:
                margins += weights[:, idx] * (count * scale)
            scale *= decay
            if scale < 1e-9:
                weights *= scale
                scale = 1.0
                renormalised += 1
            for k in range(len(class_ids)):
                y = 1.0 if k == target else -1.0
                if y * margins[k] < 1.0:
                    step = lr * y / scale
                    for idx, count in vec.entries:
                        weights[k, idx] += step * count
                    biases[k] += lr * y
    weights *= scale
    model = LinearModel(class_ids=class_ids, weights=weights, biases=biases, cfg=cfg, hyper=hyper)
    return model, renormalised
