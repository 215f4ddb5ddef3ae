"""Transition-based dependency parser over the shared encoder.

Scoring: a 2-layer feed-forward network over the contextual encodings of
the top three stack items and the first buffer item (learned vectors for
the artificial root and for empty slots), over arc-hybrid transitions
with SWAP.  Training follows the error-exploration regime of Kiperwasser &
Goldberg (2016): hinge between the best costly and best zero-cost
transition under the static-dynamic oracle, following the model's own
argmax with probability EXPLORE_PROBABILITY after EXPLORE_BURNIN_EPOCHS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .conllu import Sentence, Treebank
from .encoder import (
    MODE_NONE,
    EncoderConfig,
    SentenceEncoder,
    Vocabulary,
    require_distinct,
    require_positive,
)
from .errors import DataError, NumericError
from .nn import Affine, Embedding, ParamSet, TrainerConfig, fit
from .nn import tensor as T
from .oracle import DynamicOracle
from .trees import DependencyTree
from .transitions import (
    ARC_KINDS,
    LEFT_ARC,
    RIGHT_ARC,
    SHIFT,
    SWAP,
    ParserState,
    Transition,
    apply_transition,
    legal_transitions,
)

STACK_SLOTS = 3  # top-3 stack items feed the scorer, plus the buffer front
EXPLORE_PROBABILITY = 0.1
EXPLORE_BURNIN_EPOCHS = 1


@dataclass
class ParserConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    scorer_hidden: int = 64

    def __post_init__(self):
        require_positive(self, ["scorer_hidden"])


@dataclass
class ParserHeader:
    """What a parser is built from beside its config, and what its checkpoint
    header stores beside it."""

    labels: list[str]
    members: list[str]  # dataset group; empty without source conditioning
    seed: int  # parameter initialisation
    vocab: Vocabulary

    def __post_init__(self):
        if not self.labels:
            raise DataError("parser needs a non-empty label inventory")
        require_distinct("labels", self.labels)

    @classmethod
    def build(cls, treebanks: list[Treebank], members: list[str], seed: int) -> "ParserHeader":
        """Sorted labels and the vocabulary of the training tokens."""
        sentences = [s for tb in treebanks for s in tb.sentences]
        labels = sorted({t.deprel for s in sentences for t in s.tokens})
        return cls(labels, list(members), seed, Vocabulary.build(sentences))


class DependencyParser:
    KIND = "dep_parser"

    def __init__(self, config: ParserConfig, header: ParserHeader):
        self.config = config
        self.header = header
        self.labels = header.labels
        self.params = ParamSet(np.random.default_rng(header.seed))
        self.encoder = SentenceEncoder(self.params, config.encoder, header.vocab, header.members)
        enc_dim = config.encoder.output_dim
        # row 0: artificial root encoding, row 1: empty-slot padding
        self.special = Embedding(self.params, "special_slots", 2, enc_dim)
        # score i rates transitions[i]: SHIFT, SWAP, then each label's LEFT_ARC,
        # then each label's RIGHT_ARC; kind_indices lists each kind's scores
        self.transitions = [Transition(SHIFT), Transition(SWAP)] + [
            Transition(kind, label) for kind in (LEFT_ARC, RIGHT_ARC) for label in self.labels
        ]
        self.kind_indices: dict[str, list[int]] = {}
        for index, transition in enumerate(self.transitions):
            self.kind_indices.setdefault(transition.kind, []).append(index)
        self.hidden = Affine(self.params, "scorer_hidden", (STACK_SLOTS + 1) * enc_dim, config.scorer_hidden)
        self.out = Affine(self.params, "scorer_out", config.scorer_hidden, len(self.transitions))

    def legal_indices(self, state: ParserState) -> list[int]:
        return [i for kind in legal_transitions(state) for i in self.kind_indices[kind]]

    # -- scoring ------------------------------------------------------------

    def scorer_slots(self, encodings: list[T.Tensor]) -> list[T.Tensor]:
        """The scorer's inputs for one sentence, indexed by token id: the
        root vector at 0, the encodings at 1..n and the empty-slot vector
        at -1 (index n+1)."""
        return [self.special(0), *encodings, self.special(1)]

    def score_transitions(self, state: ParserState, slots: list[T.Tensor]) -> T.Tensor:
        """One score per (kind, label) plus SHIFT and SWAP, from `scorer_slots`."""
        stack_items = [state.stack[-1 - i] if len(state.stack) > i else -1 for i in range(STACK_SLOTS)]
        front = -1 if state.front is None else state.front
        features = [slots[t] for t in stack_items] + [slots[front]]
        return self.out(T.tanh(self.hidden(T.concat(features))))

    # -- decoding -------------------------------------------------------------

    def parse_sentence(self, sentence: Sentence, mode: str = MODE_NONE) -> DependencyTree:
        """Greedy argmax over legal transitions; total by construction."""
        encodings, _ = self.encoder.encode_sentence(sentence, mode)
        slots = self.scorer_slots(encodings)
        state = ParserState.initial(len(sentence.tokens))
        while not state.is_terminal():
            scores = self.score_transitions(state, slots).data
            indices = self.legal_indices(state)
            best = max(indices, key=lambda i: (scores[i], -i))
            state = apply_transition(state, self.transitions[best])
        return state.to_tree()

    def parse_treebank(self, treebank: Treebank, mode: str = MODE_NONE) -> Treebank:
        """Copy of the treebank with predicted heads and labels."""
        out = []
        for sent in treebank.sentences:
            tree = self.parse_sentence(sent, mode)
            tokens = [replace(tok, head=tree.head_of(tok.id), deprel=tree.deprel_of(tok.id))
                      for tok in sent.tokens]
            out.append(replace(sent, tokens=tokens))
        return replace(treebank, sentences=out)

    # -- training -------------------------------------------------------------

    def sentence_losses(self, item: tuple[Sentence, DependencyTree], mode: str,
                        rng: np.random.Generator, epoch: int) -> list[T.Tensor]:
        """The violated hinge margins of one error-exploration pass over a
        (sentence, gold tree) item.  Exploration follows the model's argmax
        among the transitions the static-dynamic policy allows, so oracle
        costs stay exact along every visited trajectory."""
        sentence, gold = item
        oracle = DynamicOracle(gold)
        encodings, _ = self.encoder.encode_sentence(sentence, mode)
        slots = self.scorer_slots(encodings)
        state = ParserState.initial(len(gold))
        losses = []
        explore = epoch >= EXPLORE_BURNIN_EPOCHS
        while not state.is_terminal():
            scores = self.score_transitions(state, slots)
            costs = oracle.costs(state)
            zero_idx, costly_idx = _partition_indices(self, state, gold, costs)
            if zero_idx and costly_idx:
                margin = T.hinge(scores, costly_idx, zero_idx)
                value = float(margin.data)
                if not math.isfinite(value):
                    raise NumericError(f"non-finite parser margin {value}")
                if value > 0.0:
                    losses.append(margin)
            transition = _choose_transition(
                self, scores.data, costs, oracle.allowed(state), zero_idx, explore, rng
            )
            oracle.advance(state, transition.kind)
            state = apply_transition(state, transition)
        return losses


def train_parser(model: DependencyParser, treebanks: list[Treebank], mode: str,
                 trainer: TrainerConfig) -> dict:
    """Error-exploration training on every sentence with tokens, at most
    `max_sentences_per_epoch` of them per epoch; returns `fit`'s history."""
    items = [(s, DependencyTree.from_sentence(s)) for tb in treebanks for s in tb.sentences
             if s.tokens]
    return fit(model, items, mode, trainer, trainer.max_sentences_per_epoch, lambda _: 1)


def _partition_indices(model, state, gold, costs):
    """Score indices of zero-cost transitions vs costly ones.

    Labels are supervised only through the gold arc: an arc kind of cost 0
    contributes just its gold-labeled index to the zero set; every other
    legal (kind, label) index is costly.
    """
    zero_idx, costly_idx = [], []
    for kind, cost in costs.items():
        gold_label = gold.deprel_of(state.stack[-1]) if kind in ARC_KINDS else None
        for index in model.kind_indices[kind]:
            zero = cost == 0 and model.transitions[index].label == gold_label
            (zero_idx if zero else costly_idx).append(index)
    return zero_idx, costly_idx


def _choose_transition(model, score_values, costs, allowed_kinds, zero_idx, explore, rng) -> Transition:
    if explore and rng.random() < EXPLORE_PROBABILITY:
        candidates = [i for kind in allowed_kinds for i in model.kind_indices[kind]]
    elif zero_idx:
        # oracle move: model-preferred among the zero-cost transitions
        candidates = zero_idx
    else:
        # every option is costly (possible off the oracle path): take the
        # cheapest kind, best-scored label
        candidates = model.kind_indices[min(allowed_kinds, key=lambda k: (costs[k], k))]
    return model.transitions[max(candidates, key=lambda i: (score_values[i], -i))]

