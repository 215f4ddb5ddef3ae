"""Sentence-level data-source classifier.

A linear max-margin model over hashed word and character n-grams of the
raw sentence text (no tokenization beyond whitespace for the word family).
Supports grid search over n-gram ranges and k-fold jack-knifing so that
training-time source labels carry test-time noise.

SGD and scoring touch only an example's non-zero columns, through numpy
fancy indexing. They give bit for bit the results of a per-feature loop:
margins are summed left to right by `np.cumsum`, never by a reordering
matmul, and a vector's indices never repeat, so a fancy-indexed `+=`
applies each update once. Checkpoints store only the weight columns that
are not all +0.0 and rebuild the dense matrix exactly on load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .conllu import Treebank
from .errors import DataError
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .schema import from_dict, to_dict

WORD_JOINER = "⁣"  # invisible separator; reserved, not expected in text

_WORD_FAMILY = b"w\x00"
_CHAR_FAMILY = b"c\x00"


@dataclass(frozen=True)
class NGramConfig:
    word_min: int = 1
    word_max: int = 2
    char_min: int = 1
    char_max: int = 5
    feature_space_size: int = 2**20

    def __post_init__(self):
        for lo, hi, fam in ((self.word_min, self.word_max, "word"), (self.char_min, self.char_max, "char")):
            if not 1 <= lo <= hi <= 7:
                raise DataError(f"{fam} n-gram range [{lo},{hi}] outside 1..7")
        size = self.feature_space_size
        if size <= 0 or size & (size - 1):
            raise DataError(f"feature_space_size {size} is not a power of two")


@dataclass
class SparseVector:
    """Sorted (feature_index, count) pairs."""

    entries: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        last = -1
        for index, count in self.entries:
            if index <= last:
                raise DataError("SparseVector indices must be strictly increasing")
            if count <= 0:
                raise DataError("SparseVector counts must be positive")
            last = index

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else -1

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Feature indices (intp) and counts (float64), in index order."""
        indices = np.array([index for index, _ in self.entries], dtype=np.intp)
        counts = np.array([count for _, count in self.entries], dtype=np.float64)
        return indices, counts


def _margins(biases: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per row, biases + terms[:, 0] + terms[:, 1] + ..., added left to right.

    `np.cumsum` accumulates strictly in order, so this equals a scalar loop
    over the terms bit for bit; `terms.sum(1)` or a matmul would not.
    """
    return np.cumsum(np.concatenate((biases[:, None], terms), axis=1), axis=1)[:, -1]


def _hash_feature(family: bytes, gram: str, size: int) -> int:
    digest = hashlib.blake2b(family + gram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % size


def featurize(sentence_text: str, cfg: NGramConfig) -> SparseVector:
    """Hash word and char n-grams into a sparse count vector.

    The two families use distinct hash-key prefixes, so a word unigram and
    the identical character string can never share a feature index family.
    """
    counts: dict[int, int] = {}
    words = sentence_text.split()
    for n in range(cfg.word_min, cfg.word_max + 1):
        for i in range(len(words) - n + 1):
            gram = WORD_JOINER.join(words[i : i + n])
            idx = _hash_feature(_WORD_FAMILY, gram, cfg.feature_space_size)
            counts[idx] = counts.get(idx, 0) + 1
    for n in range(cfg.char_min, cfg.char_max + 1):
        for i in range(len(sentence_text) - n + 1):
            idx = _hash_feature(_CHAR_FAMILY, sentence_text[i : i + n], cfg.feature_space_size)
            counts[idx] = counts.get(idx, 0) + 1
    return SparseVector(sorted(counts.items()))


@dataclass
class ClassifierHyper:
    regularization_c: float = 1.0
    epochs: int = 20
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # `not x > 0` also rejects NaN
        if not self.regularization_c > 0:
            raise DataError(f"regularization_c must be > 0, got {self.regularization_c}")
        if not self.learning_rate > 0:
            raise DataError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LinearModel:
    class_ids: list[str]
    weights: np.ndarray  # (n_classes, feature_space_size), float64
    biases: np.ndarray  # (n_classes,)
    cfg: NGramConfig
    hyper: ClassifierHyper

    def scores(self, vec: SparseVector) -> np.ndarray:
        if vec.max_index >= self.weights.shape[1]:
            raise DataError(
                f"feature index {vec.max_index} exceeds model dimensionality {self.weights.shape[1]}"
            )
        indices, counts = vec.arrays()
        return _margins(self.biases, self.weights[:, indices] * counts)


def train_linear(
    data: list[tuple[SparseVector, str]], cfg: NGramConfig, hyper: ClassifierHyper
) -> LinearModel:
    """One-vs-rest L2-regularized hinge loss via seeded SGD.

    Deterministic, and invariant to the caller's data order: examples are
    put into a canonical order first, then only the seed controls the
    per-epoch shuffling.
    """
    if not data:
        raise DataError("empty training data")
    class_ids = sorted({label for _, label in data})
    if len(class_ids) < 2:
        raise DataError(f"need >= 2 classes, got {class_ids}")
    class_index = {c: i for i, c in enumerate(class_ids)}
    data = sorted(data, key=lambda pair: (pair[1], pair[0].entries))
    examples = [(*vec.arrays(), class_index[label]) for vec, label in data]
    weights = np.zeros((len(class_ids), cfg.feature_space_size))
    biases = np.zeros(len(class_ids))
    rng = np.random.default_rng(hyper.seed)
    order = np.arange(len(data))
    lam = 1.0 / (hyper.regularization_c * len(data))
    # L2 decay applied via a lazy scalar so each step touches only the
    # example's nonzero columns
    scale = 1.0
    for epoch in range(hyper.epochs):
        rng.shuffle(order)
        lr = hyper.learning_rate / (1.0 + epoch)
        decay = 1.0 - lr * lam
        for pos in order:
            indices, counts, target = examples[pos]
            margins = _margins(biases, weights[:, indices] * (counts * scale))
            scale *= decay
            if scale < 1e-9:
                weights *= scale
                scale = 1.0
            for k in range(len(class_ids)):
                y = 1.0 if k == target else -1.0
                if y * margins[k] < 1.0:
                    # indices are strictly increasing, so no column is updated twice
                    weights[k, indices] += (lr * y / scale) * counts
                    biases[k] += lr * y
    weights *= scale
    return LinearModel(class_ids=class_ids, weights=weights, biases=biases, cfg=cfg, hyper=hyper)


def predict_source(model: LinearModel, vec: SparseVector) -> tuple[str, dict[str, float]]:
    """Argmax class and raw per-class scores; ties break by class order."""
    scores = model.scores(vec)
    best = int(np.argmax(scores))  # argmax returns the first maximum
    return model.class_ids[best], {c: float(s) for c, s in zip(model.class_ids, scores)}


def default_grid(feature_space_size: int = 2**20) -> list[NGramConfig]:
    """All sequential ranges starting at 1, for both families: 49 combos."""
    return [
        NGramConfig(1, wmax, 1, cmax, feature_space_size)
        for wmax in range(1, 8)
        for cmax in range(1, 8)
    ]


def macro_f1(gold: list[str], predicted: list[str]) -> float:
    """Unweighted mean of per-class F1 over classes present in gold or pred."""
    if len(gold) != len(predicted):
        raise DataError(f"label list length mismatch: {len(gold)} vs {len(predicted)}")
    if not gold:
        raise DataError("empty label lists")
    classes = sorted(set(gold) | set(predicted))
    f1_sum = 0.0
    for cls in classes:
        tp = sum(1 for g, p in zip(gold, predicted) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(gold, predicted) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(gold, predicted) if g == cls and p != cls)
        denom = 2 * tp + fp + fn
        f1_sum += (2 * tp / denom) if denom else 0.0
    return f1_sum / len(classes)


def grid_search(
    train: list[tuple[str, str]],
    dev: list[tuple[str, str]],
    candidates: list[NGramConfig],
    hyper: ClassifierHyper,
) -> tuple[NGramConfig, float]:
    """Pick the n-gram config maximizing dev macro F1.

    `train` and `dev` are (sentence_text, source_id) pairs.  Ties prefer
    the smaller word_max + char_max, then the smaller word_max.
    """
    if not candidates:
        raise DataError("empty candidate list")
    if not dev:
        raise DataError("empty dev data")
    best: tuple[float, int, int] | None = None
    best_cfg, best_f1 = None, -1.0
    for cfg in candidates:
        model = train_linear([(featurize(text, cfg), label) for text, label in train], cfg, hyper)
        predictions = [predict_source(model, featurize(text, cfg))[0] for text, _ in dev]
        f1 = macro_f1([label for _, label in dev], predictions)
        key = (-f1, cfg.word_max + cfg.char_max, cfg.word_max)
        if best is None or key < best:
            best, best_cfg, best_f1 = key, cfg, f1
    return best_cfg, best_f1


@dataclass
class JackknifeResult:
    gold: list[str]  # each pooled sentence's source, in pooled order
    predictions: list[str]  # aligned with `gold`
    fold_of_sentence: list[int]
    k: int
    model: LinearModel  # fit on every fold, for labelling unseen sentences


def jackknife_labels(
    treebanks: list[Treebank], cfg: NGramConfig, hyper: ClassifierHyper
) -> JackknifeResult:
    """Predict a source id for every train sentence via k-fold jack-knifing.

    Sentences are pooled in treebank order; fold assignment is the sentence
    index modulo k within each source, so the split is stratified and
    reproducible without stored randomness.  Each sentence is labeled by
    the model trained on all other folds; the returned model is fit on all
    folds from the same feature vectors.
    """
    pooled: list[tuple[str, str]] = []  # (text, gold source)
    per_source_counts: dict[str, int] = {}
    for tb in treebanks:
        if len(tb.sentences) == 0:
            raise DataError(f"source {tb.source_id!r} has zero train sentences")
        for sent in tb.sentences:
            pooled.append((sent.text, tb.source_id))
        per_source_counts[tb.source_id] = per_source_counts.get(tb.source_id, 0) + len(tb.sentences)
    if len(per_source_counts) < 2:
        raise DataError("jack-knifing needs sentences from >= 2 sources")
    k = min(5, min(per_source_counts.values()), len(pooled) // 2)
    if k < 2:
        raise DataError(f"not enough sentences per source to form folds (k={k})")

    fold_of_sentence = []
    within_source: dict[str, int] = {}
    for _, source in pooled:
        i = within_source.get(source, 0)
        fold_of_sentence.append(i % k)
        within_source[source] = i + 1

    labelled = [(featurize(text, cfg), source) for text, source in pooled]
    predictions: list[str | None] = [None] * len(pooled)
    for fold in range(k):
        train_data = [labelled[i] for i in range(len(pooled)) if fold_of_sentence[i] != fold]
        model = train_linear(train_data, cfg, hyper)
        for i in range(len(pooled)):
            if fold_of_sentence[i] == fold:
                predictions[i], _ = predict_source(model, labelled[i][0])
    return JackknifeResult(
        gold=[source for _, source in pooled],
        predictions=list(predictions),
        fold_of_sentence=fold_of_sentence,
        k=k,
        model=train_linear(labelled, cfg, hyper),
    )


@dataclass
class ClassifierHeader:
    """The classifier checkpoint's header keys beside `ngram` and `hyper`."""

    class_ids: list[str]


def save_model(path, model: LinearModel):
    """Write the biases and only the weight columns that are not all +0.0."""
    meta = {
        "class_ids": model.class_ids,
        "ngram": to_dict(model.cfg),
        "hyper": to_dict(model.hyper),
    }
    # compare bit patterns, so a column holding -0.0 is kept
    columns = np.flatnonzero(model.weights.view(np.uint64).any(axis=0))
    arrays = {"columns": columns, "weights": model.weights[:, columns], "biases": model.biases}
    save_checkpoint(path, "source_classifier", meta, arrays)


def load_model(path) -> LinearModel:
    kind, meta, arrays = load_checkpoint(path)
    if kind != "source_classifier":
        raise DataError(f"{path}: expected a source_classifier checkpoint, got {kind!r}")
    for name in ("columns", "weights", "biases"):
        if name not in arrays:
            raise DataError(f"{path}: source_classifier checkpoint has no {name!r} array")
    class_ids = from_dict(ClassifierHeader, meta, f"{path} header", extra={"ngram", "hyper"},
                          require_all=True).class_ids
    cfg = from_dict(NGramConfig, meta.get("ngram"), f"{path} ngram", require_all=True)
    hyper = from_dict(ClassifierHyper, meta.get("hyper"), f"{path} hyper", require_all=True)
    # checkpoints hold float64 arrays, so the column indices come back as floats
    columns, block, biases = arrays["columns"], arrays["weights"], arrays["biases"]
    if columns.ndim != 1 or not np.array_equal(columns, np.trunc(columns)):
        raise DataError(f"{path}: weight column indices are not integers")
    if np.any(np.diff(columns) <= 0):
        raise DataError(f"{path}: weight column indices are not strictly increasing")
    if columns.size and (columns[0] < 0 or columns[-1] >= cfg.feature_space_size):
        raise DataError(f"{path}: weight column indices outside [0, {cfg.feature_space_size})")
    if block.shape != (len(class_ids), columns.size) or biases.shape != (len(class_ids),):
        raise DataError(
            f"{path}: weights {block.shape} and biases {biases.shape} do not match "
            f"{len(class_ids)} classes and {columns.size} columns"
        )
    weights = np.zeros((len(class_ids), cfg.feature_space_size))
    weights[:, columns.astype(np.intp)] = block
    return LinearModel(class_ids=class_ids, weights=weights, biases=biases, cfg=cfg, hyper=hyper)
