"""Shared input pipeline for all neural models.

Per token: a character BiLSTM summary concatenated with a learned word
embedding, and — in gold/pred modes — the data-source embedding e(d) of
the sentence's (gold or predicted) source.  A sentence-level BiLSTM over
these inputs yields the contextual encodings consumed by the parser and
the tagger.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conllu import Sentence
from .errors import DataError
from .nn import BiLSTM, Embedding, ParamSet
from .nn import tensor as T
from .nn.tensor import Tensor

MODE_NONE = "none"
MODE_GOLD = "gold"
MODE_PRED = "pred"
MODES = (MODE_NONE, MODE_GOLD, MODE_PRED)

UNK = "<unk>"


def require_positive(config, names: list[str]) -> None:
    """One-line DataError unless every named dimension of `config` is >= 1."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise DataError(f"{name} must be >= 1, got {value}")


@dataclass
class EncoderConfig:
    word_dim: int = 64  # learned word embedding
    char_dim: int = 64  # char BiLSTM summary (split over two directions)
    char_emb_dim: int = 16
    source_dim: int = 12  # e(d)
    hidden_dim: int = 128  # sentence BiLSTM size per direction

    def __post_init__(self):
        require_positive(self, ["word_dim", "char_dim", "char_emb_dim", "source_dim", "hidden_dim"])
        if self.char_dim % 2:
            raise DataError("char_dim must be even (two directions)")

    @property
    def token_input_dim(self) -> int:
        return self.word_dim + self.char_dim

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden_dim


def require_distinct(name: str, values: list[str]) -> None:
    """One-line DataError if `values` holds an entry twice."""
    seen = set()
    for value in values:
        if value in seen:
            raise DataError(f"repeated {name} entry {value!r}")
        seen.add(value)


@dataclass
class Vocabulary:
    """Word and character entries in id order, UNK at id 0; a checkpoint
    header stores exactly these two lists."""

    words: list[str]
    chars: list[str]

    def __post_init__(self):
        require_distinct("vocab.words", self.words)
        require_distinct("vocab.chars", self.chars)
        self.word_ids = {w: i for i, w in enumerate(self.words)}
        self.char_ids = {c: i for i, c in enumerate(self.chars)}

    @classmethod
    def build(cls, sentences: list[Sentence], extra_chars=()) -> "Vocabulary":
        """Forms and their characters in first-seen order, then any new
        characters of `extra_chars`."""
        forms = [tok.form for sent in sentences for tok in sent.tokens]
        chars = [ch for form in forms for ch in form]
        return cls(list(dict.fromkeys([UNK, *forms])),
                   list(dict.fromkeys([UNK, *chars, *extra_chars])))

    def word_id(self, form: str) -> int:
        return self.word_ids.get(form, 0)

    def char_id(self, ch: str) -> int:
        return self.char_ids.get(ch, 0)


class DatasetEmbeddingTable:
    """One learned vector e(d) per member source of a dataset group."""

    def __init__(self, params: ParamSet, members: list[str], dim: int):
        if not members:
            raise DataError("dataset embedding table needs at least one source")
        if len(set(members)) != len(members):
            raise DataError("duplicate source ids in dataset group")
        self.members = list(members)
        self.dim = dim
        self.index = {m: i for i, m in enumerate(self.members)}
        self.emb = Embedding(params, "source_emb", len(self.members), dim)

    def lookup(self, source_id: str) -> Tensor:
        if source_id not in self.index:
            raise DataError(f"source {source_id!r} is not a member of this model's group")
        return self.emb(self.index[source_id])

    def rows(self):
        """(members, matrix) snapshot for export and analysis."""
        return list(self.members), self.emb.table.data.copy()


class SentenceEncoder:
    """Figure-style input pipeline; owns all embedding and BiLSTM parameters.

    `members` is the dataset group served by this model; pass an empty
    list for models trained without source conditioning.
    """

    def __init__(
        self,
        params: ParamSet,
        config: EncoderConfig,
        vocab: Vocabulary,
        members: list[str] | None = None,
    ):
        self.config = config
        self.vocab = vocab
        self.members = list(members or [])
        self.word_emb = Embedding(params, "word_emb", len(vocab.words), config.word_dim)
        self.char_emb = Embedding(params, "char_emb", len(vocab.chars), config.char_emb_dim)
        self.char_bilstm = BiLSTM(params, "char_bilstm", config.char_emb_dim, config.char_dim // 2)
        self.source_table = None
        if self.members:
            self.source_table = DatasetEmbeddingTable(params, self.members, config.source_dim)
        input_dim = config.token_input_dim + (config.source_dim if self.source_table else 0)
        self.sentence_bilstm = BiLSTM(params, "sent_bilstm", input_dim, config.hidden_dim)

    # -- word channel --------------------------------------------------------

    def char_sequence(self, form: str) -> tuple[Tensor, Tensor]:
        """(len(form), char_dim) per-character encodings and the word summary.

        The summary joins the forward state after the last character with
        the backward state after the first.
        """
        if not form:
            raise DataError("cannot embed an empty form")
        embs = self.char_emb.rows([self.vocab.char_id(ch) for ch in form])
        fwd, bwd = self.char_bilstm.directions(embs)
        return T.concat([fwd, bwd]), T.concat([T.row(fwd, -1), T.row(bwd, 0)])

    def embed_word(self, form: str) -> tuple[Tensor, Tensor]:
        """Per-character encodings, and char summary ++ word embedding.

        Unseen forms hit the UNK word row.
        """
        per_char, summary = self.char_sequence(form)
        return per_char, T.concat([summary, self.word_emb(self.vocab.word_id(form))])

    # -- sentence channel ------------------------------------------------------

    def _source_for(self, sentence: Sentence, mode: str) -> str:
        if mode == MODE_GOLD:
            if sentence.source_id is None:
                raise DataError("gold mode requires sentence.source_id")
            return sentence.source_id
        if sentence.predicted_source_id is None:
            raise DataError("pred mode requires sentence.predicted_source_id")
        return sentence.predicted_source_id

    def token_inputs(self, sentence: Sentence, mode: str) -> tuple[list[Tensor], list[Tensor]]:
        """Per token: the encoder input before the BiLSTM, and the per-character encodings."""
        if mode not in MODES:
            raise DataError(f"unknown encoder mode {mode!r}")
        if mode != MODE_NONE and not self.members:
            raise DataError(f"mode {mode!r} requires a model built with source embeddings")
        embedded = [self.embed_word(tok.form) for tok in sentence.tokens]
        chars = [per_char for per_char, _ in embedded]
        word_parts = [word for _, word in embedded]
        if mode == MODE_NONE:
            return word_parts, chars
        source_vec = self.source_table.lookup(self._source_for(sentence, mode))
        return [T.concat([w, source_vec]) for w in word_parts], chars

    def encode_sentence(self, sentence: Sentence, mode: str) -> tuple[list[Tensor], list[Tensor]]:
        """Per token: the contextual encoding e(c_i) of width 2*hidden_dim, and
        the (len(form), char_dim) per-character encodings.
        """
        if not sentence.tokens:
            return [], []
        inputs, chars = self.token_inputs(sentence, mode)
        states = self.sentence_bilstm.run(T.stack(inputs))
        return [T.row(states, i) for i in range(len(inputs))], chars
