import numpy as np
import pytest

from multisrc.encoder import (
    MODE_GOLD,
    MODE_NONE,
    MODE_PRED,
    DatasetEmbeddingTable,
    EncoderConfig,
    SentenceEncoder,
    Vocabulary,
)
from multisrc.conllu import Sentence
from multisrc.errors import DataError
from multisrc.nn import Optimizer, ParamSet, TrainerConfig
from multisrc.nn import tensor as T
from multisrc.schema import from_dict, to_dict

from .gradcheck import mul, vsum
from .helpers import sentence_from_words, treebank_from_sentences

CFG = EncoderConfig(word_dim=8, char_dim=6, char_emb_dim=4, source_dim=3, hidden_dim=5)


def build(members=("src_a", "src_b"), cfg=CFG, seed=42):
    tb = treebank_from_sentences("src_a", [["cats", "sleep"], ["dogs", "bark"]])
    vocab = Vocabulary.build(tb.sentences)
    params = ParamSet(np.random.default_rng(seed))
    encoder = SentenceEncoder(params, cfg, vocab, list(members))
    return encoder, params, vocab


def word_inputs(encoder, *forms):
    """`token_inputs`' (n, d) rows for the forms as one sentence without
    source conditioning."""
    return encoder.token_inputs(sentence_from_words(list(forms)), MODE_NONE)


def test_token_inputs_width_and_determinism():
    encoder, _, _ = build()
    rows, chars = word_inputs(encoder, "cats")
    assert [c.data.shape for c in chars] == [(4, CFG.char_dim)]
    assert rows.data.shape == (1, CFG.word_dim + CFG.char_dim)
    assert np.array_equal(rows.data, word_inputs(encoder, "cats")[0].data)


def test_char_sequence_rejects_an_empty_form():
    # a Token refuses an empty form, so this guards direct callers only
    encoder, _, _ = build()
    with pytest.raises(DataError, match="empty form"):
        encoder.char_sequence("")


def test_unseen_form_uses_unk_word_row_but_char_channel():
    encoder, _, vocab = build()
    assert vocab.word_id("zzz") == 0
    rep, same, known = word_inputs(encoder, "zzz", "qqq", "cat")[0].data
    word_slice = rep[CFG.char_dim :]
    assert np.array_equal(word_slice, encoder.word_emb.table.data[0])
    # unknown chars all map to the UNK char id: same-length unknown forms
    # share a char channel, known chars give a different one
    assert np.array_equal(rep[: CFG.char_dim], same[: CFG.char_dim])
    assert not np.array_equal(rep[: CFG.char_dim], known[: CFG.char_dim])


def test_distinct_forms_without_shared_chars_differ_in_char_channel():
    encoder, _, _ = build()
    a, b = word_inputs(encoder, "cats", "dog")[0].data[:, : CFG.char_dim]
    assert np.abs(a - b).max() > 0


def test_mode_widths():
    encoder, _, _ = build()
    sent = sentence_from_words(["cats", "sleep"], source_id="src_a")
    none_inputs, chars = encoder.token_inputs(sent, MODE_NONE)
    gold_inputs, _ = encoder.token_inputs(sent, MODE_GOLD)
    assert none_inputs.data.shape == (2, CFG.token_input_dim)
    assert gold_inputs.data.shape == (2, CFG.token_input_dim + CFG.source_dim)
    assert [c.data.shape for c in chars] == [(4, CFG.char_dim), (5, CFG.char_dim)]
    states, chars = encoder.encode_sentence(sent, MODE_GOLD)
    assert states.data.shape == (2, 2 * CFG.hidden_dim)
    assert [c.data.shape for c in chars] == [(4, CFG.char_dim), (5, CFG.char_dim)]
    states, chars = encoder.encode_sentence(Sentence(tokens=[]), MODE_GOLD)
    assert states.data.shape == (0, 2 * CFG.hidden_dim) and chars == []


def test_swapping_source_permutes_only_source_slice():
    encoder, _, _ = build()
    sent_a = sentence_from_words(["cats", "sleep"], source_id="src_a")
    sent_b = sentence_from_words(["cats", "sleep"], source_id="src_b")
    in_a, _ = encoder.token_inputs(sent_a, MODE_GOLD)
    in_b, _ = encoder.token_inputs(sent_b, MODE_GOLD)
    d = CFG.token_input_dim
    for ta, tb in zip(in_a.data, in_b.data):
        assert np.array_equal(ta[:d], tb[:d])  # word slice identical
        assert not np.array_equal(ta[d:], tb[d:])  # e(d) differs
        assert np.array_equal(ta[d:], encoder.source_table.emb.table.data[0])
        assert np.array_equal(tb[d:], encoder.source_table.emb.table.data[1])


def test_pred_mode_uses_predicted_source_id():
    encoder, _, _ = build()
    sent = sentence_from_words(["cats"], source_id="src_a")
    sent.predicted_source_id = "src_b"
    gold_in = encoder.token_inputs(sent, MODE_GOLD)[0].data[0]
    pred_in = encoder.token_inputs(sent, MODE_PRED)[0].data[0]
    d = CFG.token_input_dim
    assert np.array_equal(gold_in[d:], encoder.source_table.emb.table.data[0])
    assert np.array_equal(pred_in[d:], encoder.source_table.emb.table.data[1])


def test_mode_errors():
    encoder, _, _ = build()
    sent = sentence_from_words(["cats"])
    sent.source_id = None
    with pytest.raises(DataError, match="source_id"):
        encoder.token_inputs(sent, MODE_GOLD)
    sent.source_id = "unknown_source"
    with pytest.raises(DataError, match="not a member"):
        encoder.token_inputs(sent, MODE_GOLD)
    with pytest.raises(DataError, match="predicted_source_id"):
        encoder.token_inputs(sent, MODE_PRED)
    with pytest.raises(DataError, match="unknown encoder mode"):
        encoder.token_inputs(sent, "bogus")
    none_encoder, _, _ = build(members=())
    with pytest.raises(DataError, match="source embeddings"):
        none_encoder.token_inputs(sentence_from_words(["cats"], source_id="src_a"), MODE_GOLD)


def test_gradients_flow_only_into_used_source_row():
    encoder, params, _ = build()
    sent = sentence_from_words(["cats", "sleep"], source_id="src_a")
    table = encoder.source_table.emb.table
    before = table.data.copy()
    states, _ = encoder.encode_sentence(sent, MODE_GOLD)
    first = T.row(states, 0)
    loss = vsum(mul(first, first))
    loss.backward()
    assert np.abs(table.grad[0]).max() > 0
    assert np.all(table.grad[1] == 0)
    Optimizer(params.all(), TrainerConfig(learning_rate=0.1)).step()
    assert not np.array_equal(table.data[0], before[0])
    assert np.array_equal(table.data[1], before[1])


def test_table_rows_for_validation_and_export():
    params = ParamSet(np.random.default_rng(0))
    table = DatasetEmbeddingTable(params, ["s1", "s2"], 4)
    with pytest.raises(DataError, match="^source 's3' is not a member of this model's group$"):
        table.rows_for("s3", 2)
    assert np.array_equal(table.rows_for("s2", 3).data, np.tile(table.emb.table.data[1], (3, 1)))
    with pytest.raises(DataError):
        DatasetEmbeddingTable(ParamSet(np.random.default_rng(0)), ["x", "x"], 4)
    # rows() is the export that the PCA tables read
    encoder, _, _ = build()
    members, matrix = encoder.source_table.rows()
    assert members == encoder.members and matrix.shape == (2, 3)
    assert np.array_equal(matrix, encoder.source_table.emb.table.data)


def test_vocabulary_meta_roundtrip():
    tb = treebank_from_sentences("s", [["ab", "cd"]])
    vocab = Vocabulary.build(tb.sentences)
    again = from_dict(Vocabulary, to_dict(vocab), "vocab", require_all=True)
    assert again.words == vocab.words
    assert again.chars == vocab.chars
