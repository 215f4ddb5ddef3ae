"""Correctness checks made apart from the program under test.

The CoNLL-U reader, tree checker and metric loops here are the
benchmark's own.  Only `oracle_rebuilds` drives program code (the oracle
and the transition system), and it compares the result against the gold
tree, a property the oracle must have.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass
class Tok:
    form: str
    lemma: str
    feats: frozenset[str]
    head: int | None
    deprel: str


def read_conllu(path: Path) -> list[list[Tok]]:
    sentences: list[list[Tok]] = []
    current: list[Tok] = []
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        if not line:
            if current:
                sentences.append(current)
                current = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if "-" in cols[0] or "." in cols[0]:
            continue
        feats = frozenset() if cols[5] == "_" else frozenset(cols[5].split("|"))
        head = None if cols[6] == "_" else int(cols[6])
        current.append(Tok(cols[1], "" if cols[2] == "_" else cols[2], feats, head,
                           "" if cols[7] == "_" else cols[7]))
    if current:
        sentences.append(current)
    return sentences


def tree_problem(heads: list[int | None]) -> str | None:
    """Why `heads` (head of token i+1 at index i) is not a tree, or None."""
    n = len(heads)
    if n == 0:
        return "empty sentence"
    for i, head in enumerate(heads, start=1):
        if head is None or not 0 <= head <= n:
            return f"token {i}: head {head} out of range"
    roots = [i for i, head in enumerate(heads, start=1) if head == 0]
    if len(roots) != 1:
        return f"{len(roots)} roots"
    for start in range(1, n + 1):
        node, steps = start, 0
        while node != 0:
            node = heads[node - 1]
            steps += 1
            if steps > n:
                return f"cycle through token {start}"
    return None


def _aligned(gold: list[list[Tok]], pred: list[list[Tok]]):
    if len(gold) != len(pred):
        raise ValueError(f"sentence count {len(pred)} != gold {len(gold)}")
    for i, (gs, ps) in enumerate(zip(gold, pred)):
        if len(gs) != len(ps) or [t.form for t in gs] != [t.form for t in ps]:
            raise ValueError(f"sentence {i}: tokens differ from gold")
        yield from zip(gs, ps)


def las_counts(gold, pred) -> tuple[float, int, int]:
    correct = total = 0
    for g, p in _aligned(gold, pred):
        total += 1
        if g.head == p.head and g.deprel == p.deprel:
            correct += 1
    return 100.0 * correct / total, correct, total


def morph_f1_counts(gold, pred) -> tuple[float, int, int]:
    """Micro F1 over feature sets; `correct` is tp and `total` is tp+fp+fn."""
    tp = fp = fn = 0
    for g, p in _aligned(gold, pred):
        tp += len(g.feats & p.feats)
        fp += len(p.feats - g.feats)
        fn += len(g.feats - p.feats)
    denom = 2 * tp + fp + fn
    return (100.0 * 2 * tp / denom if denom else 100.0), tp, tp + fp + fn


def lemma_counts(gold, pred) -> tuple[float, int, int]:
    correct = total = 0
    for g, p in _aligned(gold, pred):
        total += 1
        if g.lemma == p.lemma:
            correct += 1
    return 100.0 * correct / total, correct, total


METRICS = {"las": las_counts, "morph_f1": morph_f1_counts, "lemma_acc": lemma_counts}


def read_results(path: Path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:] if line]


def row_problem(row: dict, expected: tuple[float, int, int]) -> str | None:
    """Compare one results.tsv row with an independent (value, correct, total)."""
    value, correct, total = expected
    got = (float(row["value"]), int(row["correct"]), int(row["total"]))
    if got[1:] != (correct, total) or abs(got[0] - value) > 1e-9 * max(1.0, abs(value)):
        return (f"{row['source_id']}/{row['setting']}/{row['metric']}: "
                f"results.tsv {got} != recomputed {(value, correct, total)}")
    return None


def lemma_problem(form: str, lemma: str, lemma_chars: set[str]) -> str | None:
    if len(lemma) > 2 * len(form) + 8:
        return f"lemma {lemma!r} of {form!r} exceeds 2*|form|+8"
    stray = set(lemma) - lemma_chars
    if stray:
        return f"lemma {lemma!r} uses characters {sorted(stray)} not in the training lemmas"
    return None


def oracle_rebuilds(heads: list[int], deprels: list[str]) -> tuple[bool, int]:
    """Follow a zero-cost transition at every step; (rebuilt gold?, swaps taken).

    Prefers SWAP, then arcs, then SHIFT among the zero-cost kinds, so the
    path is fixed.
    """
    from multisrc.oracle import DynamicOracle
    from multisrc.transitions import (LEFT_ARC, RIGHT_ARC, SHIFT, SWAP, ParserState,
                                      Transition, apply_transition)
    from multisrc.trees import DependencyTree

    gold = DependencyTree(heads=list(heads), deprels=list(deprels))
    oracle = DynamicOracle(gold)
    state = ParserState.initial(len(heads))
    swaps, steps = 0, 0
    while not state.is_terminal():
        steps += 1
        if steps > 4 * len(heads) ** 2 + 50:
            return False, swaps
        costs = oracle.costs(state)
        zero = [k for k in (SWAP, LEFT_ARC, RIGHT_ARC, SHIFT) if costs.get(k) == 0]
        if not zero:
            return False, swaps
        kind = zero[0]
        swaps += kind == SWAP
        label = deprels[state.stack[-1] - 1] if kind in (LEFT_ARC, RIGHT_ARC) else None
        oracle.advance(state, kind)
        state = apply_transition(state, Transition(kind, label))
    tree = state.to_tree()
    return tree.heads == list(heads) and tree.deprels == list(deprels), swaps
