"""Joint morphological tagging and lemmatization over the shared encoder.

Tags are whole feature bundles classified per token from the contextual
encoding.  Lemmas are decoded character by character by an attention
decoder over the form's character encodings, with the bundle's tag
embedding concatenated to every decoder input (gold bundle while
training, predicted bundle at inference).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .conllu import Sentence, Treebank
from .encoder import (
    EncoderConfig,
    SentenceEncoder,
    Vocabulary,
    require_distinct,
    require_positive,
)
from .errors import DataError
from .nn import AdditiveAttention, Affine, Embedding, LSTM, ParamSet, TrainerConfig, fit
from .nn import tensor as T

EOS = 0  # output index 0 ends the lemma; input index 0 is begin-of-sequence


def bundle_string(morph: set[str]) -> str:
    """Canonical bundle form: sorted ';'-joined feature assignments."""
    return ";".join(sorted(morph))


def bundle_features(bundle: str) -> set[str]:
    return {part for part in bundle.split(";") if part}


def max_lemma_length(form: str) -> int:
    return 2 * len(form) + 8


@dataclass
class TaggerConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    tag_embedding_dim: int = 16
    decoder_hidden: int = 48
    decoder_char_dim: int = 16
    attention_hidden: int = 24

    def __post_init__(self):
        require_positive(self, ["tag_embedding_dim", "decoder_hidden", "decoder_char_dim",
                                "attention_hidden"])


@dataclass
class TaggerHeader:
    """What a tagger is built from beside its config, and what its checkpoint
    header stores beside it."""

    bundles: list[str]
    lemma_chars: list[str]
    members: list[str]  # dataset group; empty without source conditioning
    seed: int  # parameter initialisation
    vocab: Vocabulary

    def __post_init__(self):
        if not self.bundles:
            raise DataError("tagger needs a non-empty bundle inventory")
        require_distinct("bundles", self.bundles)
        require_distinct("lemma_chars", self.lemma_chars)

    @classmethod
    def build(cls, treebanks: list[Treebank], members: list[str], seed: int) -> "TaggerHeader":
        """Sorted bundles and lemma characters of the training tokens, and
        their vocabulary with the lemma characters added to its characters."""
        sentences = [s for tb in treebanks for s in tb.sentences]
        tokens = [t for s in sentences for t in s.tokens]
        lemma_chars = [c for t in tokens for c in t.lemma]
        return cls(
            bundles=sorted({bundle_string(t.morph) for t in tokens}),
            lemma_chars=sorted(set(lemma_chars)),
            members=list(members),
            seed=seed,
            vocab=Vocabulary.build(sentences, lemma_chars),
        )


class JointTagger:
    KIND = "joint_tagger"

    def __init__(self, config: TaggerConfig, header: TaggerHeader):
        self.config = config
        self.header = header
        self.bundles = header.bundles
        self.bundle_index = {b: i for i, b in enumerate(self.bundles)}
        self.lemma_chars = header.lemma_chars
        self.char_out_index = {c: i + 1 for i, c in enumerate(self.lemma_chars)}
        self.params = ParamSet(np.random.default_rng(header.seed))
        self.encoder = SentenceEncoder(self.params, config.encoder, header.vocab, header.members)
        enc_dim = config.encoder.output_dim
        char_enc_dim = config.encoder.char_dim
        self.tag_head = Affine(self.params, "tag_head", enc_dim, len(self.bundles))
        self.tag_emb = Embedding(self.params, "tag_emb", len(self.bundles), config.tag_embedding_dim)
        self.dec_char_emb = Embedding(
            self.params, "dec_char_emb", len(self.lemma_chars) + 1, config.decoder_char_dim
        )
        self.dec_init = Affine(self.params, "dec_init", enc_dim, config.decoder_hidden)
        self.decoder = LSTM(
            self.params,
            "lemma_decoder",
            config.decoder_char_dim + config.tag_embedding_dim,
            config.decoder_hidden,
        )
        self.attention = AdditiveAttention(
            self.params, "lemma_att", config.decoder_hidden, char_enc_dim, config.attention_hidden
        )
        self.out_head = Affine(
            self.params, "lemma_out", config.decoder_hidden + char_enc_dim, len(self.lemma_chars) + 1
        )

    # -- tagging -----------------------------------------------------------

    def tag_logits(self, encodings):
        return [self.tag_head(e) for e in encodings]

    # -- lemmatization ---------------------------------------------------------

    def _decoder_params(self):
        """The decoder's (LSTM, attention, output head) parameters, as
        `T.lemma_sequence` takes them."""
        dec, att, out = self.decoder, self.attention, self.out_head
        return (dec.w, dec.u, dec.b), (att.w_query, att.w_enc, att.v), (out.w, out.b)

    def decode_lemma(self, token_encoding, char_encodings, form: str, bundle: str) -> str:
        """Greedy decode until EOS or the hard length cap 2*|form|+8.

        `char_encodings` are the form's per-character encodings from the
        sentence's `encode_sentence` pass.  Decoding reads only values, so
        it builds no graph: each step is `LSTM.step` and `T.lemma_logits`
        on plain arrays.
        """
        if not form:
            raise DataError("cannot lemmatize an empty form")
        if bundle not in self.bundle_index:
            raise DataError(f"unknown bundle {bundle!r}")
        _, (w_query, w_enc, v), (w_out, b_out) = self._decoder_params()
        chars = char_encodings.data
        keys = chars @ w_enc.data.T
        tag = self.tag_emb.table.data[self.bundle_index[bundle]]
        h = np.tanh(self.dec_init.w.data @ token_encoding.data + self.dec_init.b.data)
        c = np.zeros_like(h)
        prev = 0  # begin-of-sequence
        lemma = []
        for _ in range(max_lemma_length(form)):
            h, c = self.decoder.step(np.concatenate([self.dec_char_emb.table.data[prev], tag]), h, c)
            *_, logits = T.lemma_logits(h[None], chars, keys, w_query.data, v.data,
                                        w_out.data, b_out.data)
            best = int(np.argmax(logits[0]))
            if best == EOS:
                break
            lemma.append(self.lemma_chars[best - 1])
            prev = best
        return "".join(lemma)

    def lemma_loss(self, token_encoding, char_encodings, gold_lemma: str, gold_bundle: str):
        """Teacher-forced cross-entropy over the gold character sequence, one
        `T.lemma_sequence` node."""
        try:
            targets = [self.char_out_index[ch] for ch in gold_lemma]
        except KeyError as exc:
            raise DataError(f"lemma char {exc.args[0]!r} missing from the inventory") from None
        targets.append(EOS)
        h0 = T.tanh(self.dec_init(token_encoding))
        tag = self.tag_emb(self.bundle_index[gold_bundle])
        # each step reads the previous gold char; the first reads begin-of-sequence (0)
        prev = self.dec_char_emb.rows([0, *targets[:-1]])
        return T.lemma_sequence(h0, char_encodings, tag, prev, targets, *self._decoder_params())

    # -- full-sentence prediction -------------------------------------------

    def annotate_sentence(self, sentence: Sentence, mode: str) -> list[tuple[str, str]]:
        """(bundle, lemma) per token, lemma conditioned on the predicted tag."""
        if not sentence.tokens:
            return []
        encodings, chars = self.encoder.encode_sentence(sentence, mode)
        output = []
        for tok, encoding, char_encodings, logits in zip(
            sentence.tokens, encodings, chars, self.tag_logits(encodings)
        ):
            bundle = self.bundles[int(np.argmax(logits.data))]
            lemma = self.decode_lemma(encoding, char_encodings, tok.form, bundle)
            output.append((bundle, lemma))
        return output

    def annotate_treebank(self, treebank: Treebank, mode: str) -> Treebank:
        out = []
        for sent in treebank.sentences:
            pairs = zip(sent.tokens, self.annotate_sentence(sent, mode))
            tokens = [replace(t, morph=bundle_features(b), lemma=lemma) for t, (b, lemma) in pairs]
            out.append(replace(sent, tokens=tokens))
        return replace(treebank, sentences=out)

    # -- training -------------------------------------------------------------

    def sentence_losses(self, sentence: Sentence, mode: str, rng: np.random.Generator,
                        epoch: int) -> list[T.Tensor]:
        """Each token's tag cross-entropy, then its lemma loss if it has a
        lemma; `rng` and `epoch` are unused."""
        encodings, chars = self.encoder.encode_sentence(sentence, mode)
        losses = []
        for tok, encoding, char_encodings in zip(sentence.tokens, encodings, chars):
            gold_bundle = bundle_string(tok.morph)
            losses.append(T.cross_entropy(self.tag_head(encoding), self.bundle_index[gold_bundle]))
            if tok.lemma:
                losses.append(self.lemma_loss(encoding, char_encodings, tok.lemma, gold_bundle))
        return losses


def train_joint(model: JointTagger, treebanks: list[Treebank], mode: str,
                trainer: TrainerConfig) -> dict:
    """Tag + lemma cross-entropy on every sentence with tokens, at most
    `max_words_per_epoch` words per epoch; returns `fit`'s history."""
    sentences = [s for tb in treebanks for s in tb.sentences if s.tokens]
    return fit(model, sentences, mode, trainer, trainer.max_words_per_epoch, len)
