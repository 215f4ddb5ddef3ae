"""Evaluation metrics: LAS, morphological F1, lemma accuracy, aggregation.

All treebank pairs are assumed gold-tokenized and aligned sentence by
sentence; any token-count mismatch is an error, never silently skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conllu import Treebank
from .errors import DataError


@dataclass
class EvalResult:
    metric: str
    value: float  # in [0, 100]
    correct: int
    total: int

    @classmethod
    def from_counts(cls, metric: str, correct: int, total: int) -> "EvalResult":
        value = 100.0 * correct / total if total else 0.0
        return cls(metric=metric, value=value, correct=correct, total=total)


def _aligned_tokens(gold: Treebank, pred: Treebank):
    if len(gold.sentences) != len(pred.sentences):
        raise DataError(
            f"sentence count mismatch: {len(gold.sentences)} vs {len(pred.sentences)}"
        )
    for i, (gs, ps) in enumerate(zip(gold.sentences, pred.sentences)):
        if len(gs) != len(ps):
            raise DataError(f"sentence {i}: token count mismatch {len(gs)} vs {len(ps)}")
        yield from zip(gs.tokens, ps.tokens)


def las(gold: Treebank, pred: Treebank) -> EvalResult:
    """Labeled attachment score: correct head AND deprel, over all tokens."""
    correct = total = 0
    for g, p in _aligned_tokens(gold, pred):
        total += 1
        if g.head == p.head and g.deprel == p.deprel:
            correct += 1
    return EvalResult.from_counts("las", correct, total)


def morph_f1(gold: Treebank, pred: Treebank) -> EvalResult:
    """Micro F1 over per-token morphological feature sets (UPOS excluded)."""
    tp = fp = fn = 0
    for g, p in _aligned_tokens(gold, pred):
        tp += len(g.morph & p.morph)
        fp += len(p.morph - g.morph)
        fn += len(g.morph - p.morph)
    denom = 2 * tp + fp + fn
    result = EvalResult.from_counts("morph_f1", 0, 0)
    result.correct, result.total = tp, tp + fp + fn
    # no features on either side = perfect agreement
    result.value = 100.0 * 2 * tp / denom if denom else 100.0
    return result


def lemma_accuracy(gold: Treebank, pred: Treebank) -> EvalResult:
    """Exact-string lemma match rate."""
    correct = total = 0
    for g, p in _aligned_tokens(gold, pred):
        total += 1
        if g.lemma == p.lemma:
            correct += 1
    return EvalResult.from_counts("lemma_acc", correct, total)


METRIC_FUNCTIONS = {"las": las, "morph_f1": morph_f1, "lemma_acc": lemma_accuracy}


@dataclass
class AggregateRow:
    bucket: str
    mode: str
    setting: str
    metric: str
    value: float
    n_sources: int


# filter-name -> (FilterReport attribute, truthy label, falsy label)
FILTER_BUCKETS = [
    ("is_small", "small", "large"),
    ("is_multilang_group", "multi-lang", "single-lang"),
    ("exists_same_lang", "same-lang-exists", "no-same-lang"),
    ("svm_above_95", "svm>95", "svm<=95"),
    ("high_word_overlap", "high-overlap", "low-overlap"),
]


def aggregate(rows, filter_reports: dict) -> list[AggregateRow]:
    """Unweighted means per (filter bucket, mode, setting, metric).

    `rows` hold one score per source and (mode, setting, metric), in
    `source_id`, `mode`, `setting`, `metric` and `value`.  Modes never
    blend: zero-shot and in-dataset scores are averaged apart.  Buckets
    with no members are omitted.
    """
    per_source: dict[str, dict[tuple[str, str, str], float]] = {}
    for row in rows:
        per_source.setdefault(row.source_id, {})[(row.mode, row.setting, row.metric)] = row.value
    keys = sorted({key for scores in per_source.values() for key in scores})
    buckets: list[tuple[str, list[str]]] = [("all", sorted(per_source))]
    for attr, label_true, label_false in FILTER_BUCKETS:
        flags = {sid: getattr(filter_reports[sid], attr) for sid in per_source if sid in filter_reports}
        # a flag of None (nothing measured it) puts the source in neither bucket
        buckets.append((label_true, sorted(sid for sid, flag in flags.items() if flag is True)))
        buckets.append((label_false, sorted(sid for sid, flag in flags.items() if flag is False)))
    aggregated = []
    for bucket_name, members in buckets:
        for key in keys:
            values = [per_source[sid][key] for sid in members if key in per_source[sid]]
            if values:
                aggregated.append(AggregateRow(bucket_name, *key, sum(values) / len(values), len(values)))
    return aggregated
