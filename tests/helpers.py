"""Shared builders used across tests: small synthetic treebanks, random
gold trees, a projectivity test, a one-shot oracle cost query, the oracle
without SWAP, the dense Adam step that `Optimizer.step` must match bit for
bit, the per-token encoder and tagger losses that the sentence-matrix ones
must agree with, and the per-transition parser scorer and hinge loss that
the fused slot-projection scorer must agree with."""

import heapq

import numpy as np

from multisrc.conllu import Sentence, Token, Treebank
from multisrc.encoder import MODE_GOLD, MODE_NONE
from multisrc.errors import DataError, NumericError
from multisrc.nn import tensor as T
from multisrc.nn.optim import BETA1, BETA2, EPS
from multisrc.oracle import DynamicOracle
from multisrc.parser_model import _choose_transition, _partition_indices, slot_ids
from multisrc.tagger import bundle_string
from multisrc.transitions import ParserState, apply_transition
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


def oracle_costs(state: ParserState, gold: DependencyTree):
    """One-shot cost query for a state reached by zero-cost transitions.

    Training keeps a DynamicOracle and advances it along the followed
    trajectory.  This wrapper reconstructs the bookkeeping from the arcs
    built so far, which is exact on zero-cost (oracle-following) paths;
    off-oracle trajectories must use DynamicOracle.advance.
    """
    if not isinstance(gold, DependencyTree):
        raise DataError("gold must be a DependencyTree")
    oracle = DynamicOracle(gold)
    for dependent in state.arcs:
        oracle.remaining[oracle.heads[dependent]].discard(dependent)
        oracle.remaining[dependent] = set()
    return oracle.costs(state)


class NoSwapOracle(DynamicOracle):
    """The oracle of the arc-hybrid system without SWAP: costs against the
    surface order instead of the projectivized one.  No item ever precedes
    another item in that order that it follows on the surface, so SWAP is
    never prescribed and no SHIFT is free; a legal SWAP costs FORCED_COST,
    and callers that run without SWAP drop it."""

    def __init__(self, gold: DependencyTree):
        super().__init__(gold)
        self.proj = {d: d for d in range(1, len(gold) + 1)}


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


def embed_word(encoder, form: str) -> tuple[T.Tensor, T.Tensor]:
    """A form's per-character encodings, and its char summary ++ word
    embedding as one vector: a row of `token_inputs`' matrix, one token at
    a time."""
    per_char, summary = encoder.char_sequence(form)
    return per_char, T.concat([summary, encoder.word_emb(encoder.vocab.word_id(form))])


def reference_encodings(encoder, sentence: Sentence, mode: str) -> tuple[list, list]:
    """`encode_sentence` one token at a time: each token's input vector
    joined to e(d) (one lookup shared by every token) in gold and pred
    modes, the sentence BiLSTM over their stack, and its states as one `row`
    node per token.  Returns those rows and the per-character encodings."""
    embedded = [embed_word(encoder, tok.form) for tok in sentence.tokens]
    inputs = [word for _, word in embedded]
    if mode != MODE_NONE:
        table = encoder.source_table
        source_id = sentence.source_id if mode == MODE_GOLD else sentence.predicted_source_id
        source = table.emb(table.index[source_id])
        inputs = [T.concat([word, source]) for word in inputs]
    states = encoder.sentence_bilstm.run(T.stack(inputs))
    return [T.row(states, i) for i in range(len(inputs))], [per_char for per_char, _ in embedded]


def reference_cross_entropy(logits: T.Tensor, target: int) -> T.Tensor:
    """Softmax cross-entropy of one logit vector against one target index."""
    z = logits.data
    zmax = z.max()
    lse = zmax + np.log(np.exp(z - zmax).sum())

    def backward(g):
        p = np.exp(z - lse)
        p[target] -= 1.0
        logits._accumulate(g * p)

    return T.Tensor(lse - z[target], (logits,), backward)


def reference_tagger_losses(model, sentence: Sentence, mode: str) -> list[T.Tensor]:
    """`JointTagger.sentence_losses` one token at a time, on
    `reference_encodings`: each token's tag cross-entropy from its own
    `affine` node, then its lemma loss if it has a lemma."""
    encodings, chars = reference_encodings(model.encoder, sentence, mode)
    losses = []
    for tok, encoding, per_char in zip(sentence.tokens, encodings, chars):
        bundle = bundle_string(tok.morph)
        losses.append(reference_cross_entropy(model.tag_head(encoding), model.bundle_index[bundle]))
        if tok.lemma:
            losses.append(model.lemma_loss(encoding, per_char, tok.lemma, bundle))
    return losses


def reference_scores(model, state: ParserState, encodings: list) -> T.Tensor:
    """The parser's scores before slot projection: the four slot vectors
    joined by `concat`, then affine, tanh and affine, one graph per
    transition.  `encodings` are `reference_encodings`' per-token rows."""
    slots = [model.special(0), *encodings, model.special(1)]
    features = T.concat([slots[i] for i in slot_ids(state)])
    return model.out(T.tanh(model.hidden(features)))


def reference_hinge(scores: T.Tensor, costly: list[int], zero: list[int]) -> T.Tensor:
    """Margin `1 + (scores[c] - scores[z])` of the best costly index c over
    the best zero-cost index z, ties to the lowest index, as one node whose
    subgradient is +g at c and -g at z."""
    if not costly or not zero:
        raise DataError("hinge needs non-empty costly and zero-cost index sets")
    c = max(costly, key=lambda i: (scores.data[i], -i))
    z = max(zero, key=lambda i: (scores.data[i], -i))

    def backward(g):
        if scores.grad is None:
            scores.grad = np.zeros_like(scores.data)
        scores.grad[c] += g
        scores.grad[z] -= g

    return T.Tensor(1.0 + (scores.data[c] - scores.data[z]), (scores,), backward)


def reference_sentence_pass(model, item, mode: str):
    """`sentence_losses`'s pass in epoch 0, before exploration starts, on
    `reference_encodings` and scored by `reference_scores` with one
    `reference_hinge` per violated margin.
    Returns the fused pass's inputs next to the reference: the visited
    (state, reference scores) pairs and the summed margins as one `total`
    node, or None when no margin is violated."""
    sentence, gold = item
    oracle = DynamicOracle(gold)
    encodings, _ = reference_encodings(model.encoder, sentence, mode)
    state = ParserState.initial(len(gold))
    visited, margins = [], []
    while not state.is_terminal():
        scores = reference_scores(model, state, encodings)
        visited.append((state, scores.data))
        costs = oracle.costs(state)
        zero_idx, costly_idx = _partition_indices(model, state, gold, costs)
        if zero_idx and costly_idx:
            margin = reference_hinge(scores, costly_idx, zero_idx)
            if float(margin.data) > 0.0:
                margins.append(margin)
        transition = _choose_transition(model, scores.data, costs, oracle.allowed(state),
                                        zero_idx, False, None)
        oracle.advance(state, transition.kind)
        state = apply_transition(state, transition)
    return visited, (T.total(margins) if margins else None)
