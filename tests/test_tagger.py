import numpy as np
import pytest

from multisrc.conllu import Sentence, Token, Treebank
from multisrc.encoder import MODE_NONE, EncoderConfig, SentenceEncoder
from multisrc.errors import DataError
from multisrc.nn import TrainerConfig
from multisrc.nn.checkpoint import load_checkpoint, load_network, save_checkpoint, save_network
from multisrc.nn.tensor import Parameter, Tensor
from multisrc.tagger import (
    JointTagger,
    TaggerConfig,
    TaggerHeader,
    bundle_features,
    bundle_string,
    max_lemma_length,
    train_joint,
)

from . import decoder_reference as R

SMALL = TaggerConfig(
    encoder=EncoderConfig(word_dim=10, char_dim=8, char_emb_dim=6, source_dim=4, hidden_dim=8),
    tag_embedding_dim=6,
    decoder_hidden=16,
    decoder_char_dim=8,
    attention_hidden=10,
)


def make_sentence(rows, source_id="toy"):
    tokens = [
        Token(id=i + 1, form=form, lemma=lemma, morph=set(morph), head=0 if i == 0 else 1,
              deprel="root" if i == 0 else "dep")
        for i, (form, lemma, morph) in enumerate(rows)
    ]
    return Sentence(tokens=tokens, source_id=source_id)


def identity_corpus():
    words = ["cat", "dog", "sun", "map", "cup"]
    sentences = [
        make_sentence([(w, w, ["Pos=N"])]) for w in words
    ] + [
        make_sentence([(a, a, ["Pos=N"]), (b, b, ["Pos=V"])])
        for a, b in zip(words, words[1:])
    ]
    return Treebank(source_id="toy", sentences=sentences)


def plural_corpus():
    # toy suffix rule: "Xs" with Number=Plur lemmatizes to "X"
    stems = ["cat", "dog", "map", "cup", "pin", "bat", "rat", "sun", "leg", "cap"]
    sentences = []
    for stem in stems:
        sentences.append(make_sentence([(stem, stem, ["Number=Sing"])]))
        sentences.append(make_sentence([(stem + "s", stem, ["Number=Plur"])]))
        sentences.append(make_sentence([(stem, stem, ["Number=Sing"]), (stem + "s", stem, ["Number=Plur"])]))
        sentences.append(make_sentence([(stem + "s", stem, ["Number=Plur"]), (stem, stem, ["Number=Sing"])]))
    return Treebank(source_id="toy", sentences=sentences)


def build_model(treebank, seed=2, cfg=SMALL):
    return JointTagger(cfg, TaggerHeader.build([treebank], [], seed))


def trainer(epochs, seed=0, lr=0.02):
    return TrainerConfig(learning_rate=lr, epochs=epochs, seed=seed)


def test_bundle_canonicalization():
    assert bundle_string({"B=2", "A=1"}) == "A=1;B=2"
    assert bundle_string(set()) == ""
    assert bundle_features("A=1;B=2") == {"A=1", "B=2"}
    assert bundle_features("") == set()


def test_bundle_inventory_is_pure_function_of_data():
    tb = identity_corpus()
    assert TaggerHeader.build([tb], [], 0).bundles == TaggerHeader.build([tb], [], 0).bundles
    assert TaggerHeader.build([tb], [], 0).bundles == sorted({"Pos=N", "Pos=V"})


def test_tag_output_length_and_empty_sentence():
    tb = identity_corpus()
    model = build_model(tb)
    sent = tb.sentences[-1]
    assert len(model.annotate_sentence(sent, MODE_NONE)) == len(sent.tokens)
    assert model.annotate_sentence(Sentence(tokens=[]), MODE_NONE) == []


def test_overfit_tags_and_identity_lemmas():
    tb = identity_corpus()
    model = build_model(tb)
    train_joint(model, [tb], MODE_NONE, trainer(40))
    pred = model.annotate_treebank(tb, MODE_NONE)
    tags_right = lemmas_right = total = 0
    for gold_sent, pred_sent in zip(tb.sentences, pred.sentences):
        for g, p in zip(gold_sent.tokens, pred_sent.tokens):
            total += 1
            tags_right += g.morph == p.morph
            lemmas_right += g.lemma == p.lemma
    assert tags_right == total
    assert lemmas_right == total


def test_suffix_rule_learned():
    tb = plural_corpus()
    model = build_model(tb, seed=4)
    train_joint(model, [tb], MODE_NONE, trainer(40))
    pred = model.annotate_treebank(tb, MODE_NONE)
    wrong = []
    for gold_sent, pred_sent in zip(tb.sentences, pred.sentences):
        for g, p in zip(gold_sent.tokens, pred_sent.tokens):
            if g.lemma != p.lemma:
                wrong.append((g.form, g.lemma, p.lemma))
    assert not wrong, f"lemma errors: {wrong[:5]}"


def train_recording_losses(model, tb, epochs):
    """Train, and sum each epoch's tag and lemma losses apart.  Every token
    of `tb` has a lemma, so a sentence's losses alternate tag, lemma."""
    tag, lemma = [0.0] * epochs, [0.0] * epochs
    original = model.sentence_losses

    def recording(sentence, mode, rng, epoch):
        losses = original(sentence, mode, rng, epoch)
        tag[epoch] += sum(float(loss.data) for loss in losses[0::2])
        lemma[epoch] += sum(float(loss.data) for loss in losses[1::2])
        return losses

    model.sentence_losses = recording
    history = train_joint(model, [tb], MODE_NONE, trainer(epochs))
    assert history["epoch_loss"] == pytest.approx([t + m for t, m in zip(tag, lemma)], rel=1e-12)
    return tag, lemma


def test_losses_strictly_decrease_over_first_epochs():
    tb = identity_corpus()
    tag, lemma = train_recording_losses(build_model(tb), tb, 3)
    assert tag[0] > tag[1] > tag[2]
    assert lemma[0] > lemma[1] > lemma[2]


def test_lemma_training_converges_beside_the_tag_loss():
    tb = identity_corpus()
    model = build_model(tb, seed=6)
    _, lemma = train_recording_losses(model, tb, 30)
    assert lemma[-1] < lemma[0] / 5
    pred = model.annotate_treebank(tb, MODE_NONE)
    lemma_hits = sum(
        g.lemma == p.lemma
        for gs, ps in zip(tb.sentences, pred.sentences)
        for g, p in zip(gs.tokens, ps.tokens)
    )
    assert lemma_hits == sum(len(s.tokens) for s in tb.sentences)


@pytest.mark.parametrize("form, lemma", [("cat", "c"), ("ab", "abcabca"), ("moon", "mmooonn")],
                         ids=["one-char", "longer-than-form", "repeated-chars"])
def test_fused_lemma_loss_matches_the_step_composite(form, lemma):
    # the fused op hoists the input projection and the output head, which
    # changes the summation order: it agrees with the step loop to 1e-12
    tb = Treebank(source_id="toy", sentences=[make_sentence([(form, lemma, ["Pos=N"])])])
    model = build_model(tb, cfg=TaggerConfig())
    r = np.random.default_rng(len(lemma))
    for p in model.params.all():  # off the zero-initialized vectors, so every grad is exercised
        p.data = p.data + r.uniform(-0.1, 0.1, p.data.shape)
    encodings, chars = model.encoder.encode_sentence(tb.sentences[0], MODE_NONE)
    results = []
    for lemma_loss in (R.lemma_loss, JointTagger.lemma_loss):
        for p in model.params.all():
            p.zero_grad()
        encoding = Parameter("token_encoding", encodings[0].data.copy())
        per_char = Parameter("char_encodings", chars[0].data.copy())
        loss = lemma_loss(model, encoding, per_char, lemma, "Pos=N")
        loss.backward()
        grads = {p.name: p.grad.copy() for p in [*model.params.all(), encoding, per_char]}
        results.append((float(loss.data), grads))
    (old_loss, old_grads), (new_loss, new_grads) = results
    assert abs(new_loss - old_loss) <= 1e-12 * max(abs(old_loss), 1.0)
    for name, old in old_grads.items():
        assert np.abs(new_grads[name] - old).max() <= 1e-12 * max(np.abs(old).max(), 1.0), name
    assert np.abs(new_grads["char_encodings"]).max() > 0  # the attention's input grad is live


def count_tensors(monkeypatch) -> list:
    """Every Tensor created from now on, in order."""
    created = []
    original = Tensor.__init__

    def counting(node, *args, **kwargs):
        created.append(node)
        original(node, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    return created


def test_lemma_loss_builds_a_handful_of_nodes_per_lemma(monkeypatch):
    tb = identity_corpus()
    model = build_model(tb)
    encodings, chars = model.encoder.encode_sentence(tb.sentences[0], MODE_NONE)
    nodes = count_tensors(monkeypatch)
    model.lemma_loss(encodings[0], chars[0], "cat", "Pos=N")
    assert len(nodes) == 5  # dec_init, tanh, tag row, prev-char rows, lemma_sequence


def test_greedy_decoding_builds_no_graph_and_matches_the_step_composite(monkeypatch):
    tb = plural_corpus()
    model = build_model(tb, seed=4)
    train_joint(model, [tb], MODE_NONE, trainer(12))
    cases = []
    for sent in tb.sentences[:8]:
        encodings, chars = model.encoder.encode_sentence(sent, MODE_NONE)
        for tok, encoding, per_char in zip(sent.tokens, encodings, chars):
            bundle = bundle_string(tok.morph)
            cases.append((encoding, per_char, tok.form, bundle,
                          R.decode_lemma(model, encoding, per_char, tok.form, bundle)))
    nodes = count_tensors(monkeypatch)
    decoded = [model.decode_lemma(*case[:4]) for case in cases]
    assert nodes == []
    assert decoded == [case[4] for case in cases]
    assert len(set(decoded)) > 1  # a trained decoder, not one constant string


def test_tagger_parameters_keep_their_names_and_shapes():
    # checkpoints store parameters by name; a renamed or reshaped one would
    # stop older tagger checkpoints from loading
    model = build_model(plural_corpus())
    assert [(p.name, p.data.shape) for p in model.params.all()] == [
        ("word_emb", (21, 10)), ("char_emb", (17, 6)),
        ("char_bilstm.fwd.w", (16, 6)), ("char_bilstm.fwd.u", (16, 4)), ("char_bilstm.fwd.b", (16,)),
        ("char_bilstm.bwd.w", (16, 6)), ("char_bilstm.bwd.u", (16, 4)), ("char_bilstm.bwd.b", (16,)),
        ("sent_bilstm.fwd.w", (32, 18)), ("sent_bilstm.fwd.u", (32, 8)), ("sent_bilstm.fwd.b", (32,)),
        ("sent_bilstm.bwd.w", (32, 18)), ("sent_bilstm.bwd.u", (32, 8)), ("sent_bilstm.bwd.b", (32,)),
        ("tag_head.w", (2, 16)), ("tag_head.b", (2,)), ("tag_emb", (2, 6)),
        ("dec_char_emb", (17, 8)), ("dec_init.w", (16, 16)), ("dec_init.b", (16,)),
        ("lemma_decoder.w", (64, 14)), ("lemma_decoder.u", (64, 16)), ("lemma_decoder.b", (64,)),
        ("lemma_att.wq", (10, 16)), ("lemma_att.we", (10, 8)), ("lemma_att.v", (10,)),
        ("lemma_out.w", (17, 24)), ("lemma_out.b", (17,)),
    ]


def test_decode_respects_hard_length_cap():
    tb = identity_corpus()
    model = build_model(tb)  # untrained: may babble, must still halt
    sent = tb.sentences[0]
    encodings, chars = model.encoder.encode_sentence(sent, MODE_NONE)
    lemma = model.decode_lemma(encodings[0], chars[0], sent.tokens[0].form, "Pos=N")
    assert len(lemma) <= max_lemma_length(sent.tokens[0].form)
    assert max_lemma_length("cat") == 14


def test_decode_errors():
    tb = identity_corpus()
    model = build_model(tb)
    encodings, chars = model.encoder.encode_sentence(tb.sentences[0], MODE_NONE)
    with pytest.raises(DataError, match="empty form"):
        model.decode_lemma(encodings[0], chars[0], "", "Pos=N")
    with pytest.raises(DataError, match="unknown bundle"):
        model.decode_lemma(encodings[0], chars[0], "cat", "Nope=1")


def test_training_determinism():
    tb = identity_corpus()
    runs = []
    for _ in range(2):
        model = build_model(tb, seed=11)
        train_joint(model, [tb], MODE_NONE, trainer(4, seed=3))
        runs.append({n: p.data.copy() for n, p in model.params.params.items()})
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name])


def test_char_bilstm_runs_once_per_token_in_training_and_annotation(monkeypatch):
    # the lemma decoder attends over the per-char encodings that the
    # sentence's encoder pass already computed; it must not re-encode the form
    tb = identity_corpus()
    model = build_model(tb)
    forms = []
    original = SentenceEncoder.char_sequence

    def counting(encoder, form):
        forms.append(form)
        return original(encoder, form)

    monkeypatch.setattr(SentenceEncoder, "char_sequence", counting)
    train_joint(model, [tb], MODE_NONE, trainer(2))
    tokens = [t.form for s in tb.sentences for t in s.tokens]
    assert sorted(forms) == sorted(2 * tokens)
    forms.clear()
    model.annotate_treebank(tb, MODE_NONE)
    assert forms == tokens


def test_history_holds_one_loss_and_update_count_per_epoch():
    # every sentence with tokens makes one update; a comment-only one none
    tb = identity_corpus()
    with_comment = Treebank("toy", sentences=[Sentence(tokens=[], comments=["# newdoc"])])
    history = train_joint(build_model(tb), [with_comment, tb], MODE_NONE, trainer(3))
    assert list(history) == ["epoch_loss", "epoch_updates"]
    assert history["epoch_updates"] == [len(tb)] * 3 and len(history["epoch_loss"]) == 3


def test_word_cap_limits_epoch():
    tb = identity_corpus()
    model = build_model(tb)
    config = TrainerConfig(learning_rate=0.02, epochs=1, seed=0, max_words_per_epoch=3)
    history = train_joint(model, [tb], MODE_NONE, config)
    assert history["epoch_loss"][0] > 0  # trained on something, capped early
    assert history["epoch_updates"][0] <= 3


def test_checkpoint_roundtrip_reproduces_annotations(tmp_path):
    tb = identity_corpus()
    model = build_model(tb)
    train_joint(model, [tb], MODE_NONE, trainer(8))
    save_network(tmp_path / "tagger.npz", model)
    loaded = load_network(tmp_path / "tagger.npz", JointTagger)
    for sent in tb.sentences[:4]:
        assert model.annotate_sentence(sent, MODE_NONE) == loaded.annotate_sentence(sent, MODE_NONE)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda m: m["config"].pop("decoder_hidden"), "config lacks required key 'decoder_hidden'"),
        (lambda m: m["config"]["encoder"].pop("hidden_dim"), "encoder lacks required key 'hidden_dim'"),
        (lambda m: m["config"].update(bogus=1), "unknown key 'bogus' in .*config"),
        (lambda m: m["config"].update(attention_hidden=2.5), "attention_hidden must be int"),
        (lambda m: m.pop("vocab"), "header lacks required key 'vocab'"),
        (lambda m: m.pop("bundles"), "header lacks required key 'bundles'"),
        (lambda m: m["lemma_chars"].append(7), r"header: lemma_chars\[\d+\] must be str"),
        (lambda m: m.update(seed="0"), "header: seed must be int, got '0'"),
        (lambda m: m.update(bundles=["Pos=N"] * len(m["bundles"])), "^repeated bundles entry 'Pos=N'$"),
        (lambda m: m.update(lemma_chars=["a"] * len(m["lemma_chars"])),
         "^repeated lemma_chars entry 'a'$"),
        (lambda m: m["vocab"]["chars"].__setitem__(2, "c"), "^repeated vocab.chars entry 'c'$"),
    ],
    ids=["missing", "missing-nested", "extra", "wrong-type",
         "no-vocab", "no-bundles", "int-lemma-char", "string-seed",
         "repeated-bundle", "repeated-lemma-char", "repeated-char"],
)
def test_tagger_checkpoint_rejects_a_tampered_config(tmp_path, tamper, message):
    path = tmp_path / "tagger.npz"
    save_network(path, build_model(identity_corpus()))
    kind, meta, arrays = load_checkpoint(path)
    tamper(meta)
    save_checkpoint(path, kind, meta, arrays)
    with pytest.raises(DataError, match=message) as excinfo:
        load_network(path, JointTagger)
    assert "\n" not in str(excinfo.value)
