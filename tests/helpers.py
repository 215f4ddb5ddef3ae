"""Shared builders used across tests: small synthetic treebanks, random
gold trees, a projectivity test, a one-shot oracle cost query and the
dense Adam step that `Optimizer.step` must match bit for bit."""

import heapq

import numpy as np

from multisrc.conllu import Sentence, Token, Treebank
from multisrc.errors import DataError, NumericError
from multisrc.nn.optim import BETA1, BETA2, EPS
from multisrc.oracle import DynamicOracle
from multisrc.transitions import ParserState
from multisrc.trees import ROOT, DependencyTree


def sentence_from_words(words, heads=None, deprels=None, lemmas=None,
                        morphs=None, source_id=None):
    n = len(words)
    heads = heads if heads is not None else [0 if i == n - 1 else i + 2 for i in range(n)]
    deprels = deprels or ["dep"] * n
    lemmas = lemmas or list(words)
    morphs = morphs or [set() for _ in range(n)]
    tokens = [
        Token(id=i + 1, form=words[i], lemma=lemmas[i], upos="X",
              morph=set(morphs[i]), head=heads[i], deprel=deprels[i])
        for i in range(n)
    ]
    return Sentence(tokens=tokens, source_id=source_id)


def treebank_from_sentences(source_id, word_lists, split="train"):
    sentences = [sentence_from_words(words) for words in word_lists]
    return Treebank(source_id=source_id, split=split, sentences=sentences)


def is_projective(tree: DependencyTree) -> bool:
    """A tree is projective iff every arc's span contains only descendants."""
    n = len(tree)
    for dep in range(1, n + 1):
        head = tree.head_of(dep)
        lo, hi = min(head, dep), max(head, dep)
        for between in range(lo + 1, hi):
            node = between
            while node != ROOT and node != head:
                node = tree.head_of(node)
            if node != head:
                return False
    return True


def random_tree(n: int, rng, labels=("dep", "mod", "arg")) -> DependencyTree:
    """Uniform random labeled tree via a Prüfer sequence, randomly rooted."""
    if n < 1:
        raise DataError("tree needs at least one token")
    if n == 1:
        return DependencyTree(heads=[0], deprels=[rng.choice(labels)])
    if n == 2:
        root = rng.choice([1, 2])
        heads = [0, 1] if root == 1 else [2, 0]
        return DependencyTree(heads=heads, deprels=[rng.choice(labels) for _ in range(2)])
    prufer = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in prufer:
        degree[v] += 1
    adjacency: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        adjacency[leaf].append(v)
        adjacency[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    adjacency[u].append(w)
    adjacency[w].append(u)
    root = rng.randrange(1, n + 1)
    heads = [0] * n
    stack = [root]
    seen = {root}
    while stack:
        node = stack.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                heads[neighbor - 1] = node
                stack.append(neighbor)
    return DependencyTree(heads=heads, deprels=[rng.choice(labels) for _ in range(n)])


def random_projective_tree(n: int, rng, labels=("dep", "mod", "arg")) -> DependencyTree:
    """Random projective tree by recursive span splitting (not uniform)."""
    if n < 1:
        raise DataError("tree needs at least one token")
    heads = [0] * n

    def build(lo: int, hi: int, head_parent: int):
        # attach a head for span [lo, hi] to head_parent, recurse on the rest
        head = rng.randrange(lo, hi + 1)
        heads[head - 1] = head_parent
        for side_lo, side_hi in ((lo, head - 1), (head + 1, hi)):
            start = side_lo
            while start <= side_hi:
                end = rng.randrange(start, side_hi + 1)
                build(start, end, head)
                start = end + 1

    build(1, n, ROOT)
    return DependencyTree(heads=heads, deprels=[rng.choice(labels) for _ in range(n)])


def oracle_costs(state: ParserState, gold: DependencyTree, use_swap: bool = True):
    """One-shot cost query for a state reached by zero-cost transitions.

    Training keeps a DynamicOracle and advances it along the followed
    trajectory.  This wrapper reconstructs the bookkeeping from the arcs
    built so far, which is exact on zero-cost (oracle-following) paths;
    off-oracle trajectories must use DynamicOracle.advance.
    """
    if not isinstance(gold, DependencyTree):
        raise DataError("gold must be a DependencyTree")
    oracle = DynamicOracle(gold, use_swap=use_swap)
    for dependent in state.arcs:
        oracle.remaining[oracle.heads[dependent]].discard(dependent)
        oracle.remaining[dependent] = set()
    return oracle.costs(state)


def dense_adam_reference(optimizer):
    """One Adam step over every element of every parameter, with full-size
    temporaries: the update that `Optimizer.step` replaced.  It shares the
    optimizer's step count and moments, so it can stand in for `step`.
    Tests require the sweep of `step` to match it bit for bit
    (`np.array_equal`), because it runs the same expressions in the same
    order and skips only rows whose update is exactly zero."""
    for p in optimizer.params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in parameter {p.name!r}")
    optimizer.step_count += 1
    t = optimizer.step_count
    for p in optimizer.params:
        if p.name not in optimizer._moments:
            optimizer._moments[p.name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = optimizer._moments[p.name]
        m *= BETA1
        m += (1 - BETA1) * p.grad
        v *= BETA2
        v += (1 - BETA2) * p.grad * p.grad
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        p.data -= optimizer.config.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
    for p in optimizer.params:
        p.zero_grad()
