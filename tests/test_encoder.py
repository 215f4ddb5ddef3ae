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


def test_embed_word_width_and_determinism():
    encoder, _, _ = build()
    per_char, rep = encoder.embed_word("cats")
    assert per_char.data.shape == (4, CFG.char_dim)
    assert rep.data.shape == (CFG.word_dim + CFG.char_dim,)
    assert np.array_equal(rep.data, encoder.embed_word("cats")[1].data)


def test_embed_word_rejects_empty_form():
    encoder, _, _ = build()
    with pytest.raises(DataError):
        encoder.embed_word("")


def test_unseen_form_uses_unk_word_row_but_char_channel():
    encoder, _, vocab = build()
    assert vocab.word_id("zzz") == 0
    _, rep = encoder.embed_word("zzz")
    word_slice = rep.data[CFG.char_dim :]
    assert np.array_equal(word_slice, encoder.word_emb.table.data[0])
    # unknown chars all map to the UNK char id: same-length unknown forms
    # share a char channel, known chars give a different one
    _, same = encoder.embed_word("qqq")
    assert np.array_equal(rep.data[: CFG.char_dim], same.data[: CFG.char_dim])
    _, known = encoder.embed_word("cat")
    assert not np.array_equal(rep.data[: CFG.char_dim], known.data[: CFG.char_dim])


def test_distinct_forms_without_shared_chars_differ_in_char_channel():
    encoder, _, _ = build()
    a = encoder.embed_word("cats")[1].data[: CFG.char_dim]
    b = encoder.embed_word("dog")[1].data[: CFG.char_dim]
    assert np.abs(a - b).max() > 0


def test_mode_widths():
    encoder, _, _ = build()
    sent = sentence_from_words(["cats", "sleep"], source_id="src_a")
    none_inputs, chars = encoder.token_inputs(sent, MODE_NONE)
    gold_inputs, _ = encoder.token_inputs(sent, MODE_GOLD)
    assert none_inputs[0].data.shape == (CFG.token_input_dim,)
    assert gold_inputs[0].data.shape == (CFG.token_input_dim + CFG.source_dim,)
    assert [c.data.shape for c in chars] == [(4, CFG.char_dim), (5, CFG.char_dim)]
    encodings, chars = encoder.encode_sentence(sent, MODE_GOLD)
    assert len(encodings) == 2
    assert encodings[0].data.shape == (2 * CFG.hidden_dim,)
    assert [c.data.shape for c in chars] == [(4, CFG.char_dim), (5, CFG.char_dim)]


def test_swapping_source_permutes_only_source_slice():
    encoder, _, _ = build()
    sent_a = sentence_from_words(["cats", "sleep"], source_id="src_a")
    sent_b = sentence_from_words(["cats", "sleep"], source_id="src_b")
    in_a, _ = encoder.token_inputs(sent_a, MODE_GOLD)
    in_b, _ = encoder.token_inputs(sent_b, MODE_GOLD)
    d = CFG.token_input_dim
    for ta, tb in zip(in_a, in_b):
        assert np.array_equal(ta.data[:d], tb.data[:d])  # word slice identical
        assert not np.array_equal(ta.data[d:], tb.data[d:])  # e(d) differs
        assert np.array_equal(ta.data[d:], encoder.source_table.emb.table.data[0])
        assert np.array_equal(tb.data[d:], encoder.source_table.emb.table.data[1])


def test_pred_mode_uses_predicted_source_id():
    encoder, _, _ = build()
    sent = sentence_from_words(["cats"], source_id="src_a")
    sent.predicted_source_id = "src_b"
    gold_in = encoder.token_inputs(sent, MODE_GOLD)[0][0]
    pred_in = encoder.token_inputs(sent, MODE_PRED)[0][0]
    d = CFG.token_input_dim
    assert np.array_equal(gold_in.data[d:], encoder.source_table.emb.table.data[0])
    assert np.array_equal(pred_in.data[d:], encoder.source_table.emb.table.data[1])


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
    encodings, _ = encoder.encode_sentence(sent, MODE_GOLD)
    loss = vsum(mul(encodings[0], encodings[0]))
    loss.backward()
    assert np.abs(table.grad[0]).max() > 0
    assert np.all(table.grad[1] == 0)
    Optimizer(params.all(), TrainerConfig(learning_rate=0.1)).step()
    assert not np.array_equal(table.data[0], before[0])
    assert np.array_equal(table.data[1], before[1])


def test_table_lookup_validation_and_export():
    params = ParamSet(np.random.default_rng(0))
    table = DatasetEmbeddingTable(params, ["s1", "s2"], 4)
    with pytest.raises(DataError, match="not a member"):
        table.lookup("s3")
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
