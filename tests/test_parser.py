import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisrc.conllu import Sentence, Treebank
from multisrc.encoder import MODE_NONE, EncoderConfig, Vocabulary
from multisrc.errors import DataError, NumericError
from multisrc.metrics import las
from multisrc.nn import TrainerConfig
from multisrc.nn import tensor as T
from multisrc.nn.checkpoint import load_checkpoint, load_network, save_checkpoint, save_network
from multisrc.parser_model import (
    DependencyParser,
    ParserConfig,
    ParserHeader,
    best_index,
    train_parser,
)
from multisrc.trees import DependencyTree
from multisrc.transitions import LEFT_ARC, RIGHT_ARC, SHIFT, SWAP, ParserState

from .helpers import (
    random_projective_tree,
    random_tree,
    reference_sentence_pass,
    sentence_from_words,
    treebank_from_sentences,
)

SMALL = EncoderConfig(word_dim=12, char_dim=8, char_emb_dim=6, source_dim=4, hidden_dim=10)
TINY = EncoderConfig(word_dim=4, char_dim=4, char_emb_dim=4, source_dim=2, hidden_dim=4)


def toy_corpus():
    # five short sentences with consistent head-final-ish structure
    specs = [
        (["the", "cat", "sleeps"], [2, 3, 0], ["det", "nsubj", "root"]),
        (["a", "dog", "barks"], [2, 3, 0], ["det", "nsubj", "root"]),
        (["the", "dog", "sleeps"], [2, 3, 0], ["det", "nsubj", "root"]),
        (["cats", "chase", "dogs"], [2, 0, 2], ["nsubj", "root", "obj"]),
        (["dogs", "see", "cats"], [2, 0, 2], ["nsubj", "root", "obj"]),
    ]
    sentences = [sentence_from_words(words, heads=heads, deprels=rels, source_id="toy")
                 for words, heads, rels in specs]
    return Treebank(source_id="toy", sentences=sentences)


def build_model(treebank, cfg=None, seed=5):
    return DependencyParser(
        ParserConfig(encoder=cfg or SMALL, scorer_hidden=24),
        ParserHeader.build([treebank], [], seed),
    )


def trainer(epochs, seed=1):
    return TrainerConfig(learning_rate=0.01, epochs=epochs, seed=seed)


def test_score_vector_shape_and_determinism():
    tb = toy_corpus()
    model = build_model(tb)
    sent = tb.sentences[0]
    states, _ = model.encoder.encode_sentence(sent, MODE_NONE)
    slots = model.scorer_slots(states)
    assert slots[0].shape == (len(sent) + 2, model.config.encoder.output_dim)
    assert slots[1].shape == (4, len(sent) + 2, model.config.scorer_hidden)
    state = ParserState.initial(len(sent))
    scores = model.score_transitions(state, slots)
    assert type(scores) is np.ndarray  # plain scores: no graph node
    assert scores.shape == (2 * len(model.labels) + 2,)
    assert np.array_equal(scores, model.score_transitions(state, slots))


def test_best_index_ties_go_to_the_lowest_index():
    scores = np.array([0.5, 2.0, 2.0, -1.0, -1.0])
    assert best_index(scores, [2, 1]) == 1
    assert best_index(scores, [4, 3]) == 3
    assert best_index(scores, [0, 4]) == 0


def agreement_model(gold: DependencyTree, seed: int) -> tuple[DependencyParser, tuple]:
    words = [f"w{i % 7}" for i in range(len(gold))]
    sentence = sentence_from_words(words, heads=list(gold.heads), deprels=list(gold.deprels))
    model = DependencyParser(ParserConfig(encoder=TINY, scorer_hidden=6),
                             ParserHeader(["arg", "dep", "mod"], [], seed, Vocabulary.build([sentence])))
    return model, (sentence, gold)


def fused_and_reference_grads(model, item):
    """The summed margins and every parameter's grad, from `sentence_losses`
    in epoch 0 and from the per-transition reference pass."""
    out = []
    for run in ("fused", "reference"):
        for p in model.params.all():
            p.zero_grad()
        if run == "fused":
            losses = model.sentence_losses(item, MODE_NONE, np.random.default_rng(0), 0)
            loss = T.total(losses) if losses else None
        else:
            _, loss = reference_sentence_pass(model, item, MODE_NONE)
        if loss is not None:
            loss.backward()
        out.append((None if loss is None else float(loss.data),
                    {p.name: p.grad.copy() for p in model.params.all()}))
    return out


@given(n=st.integers(min_value=1, max_value=40), projective=st.booleans(),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_fused_scorer_and_margins_agree_with_the_per_transition_reference(n, projective, rng):
    gold = random_projective_tree(n, rng) if projective else random_tree(n, rng)
    model, item = agreement_model(gold, rng.randrange(1000))
    visited, _ = reference_sentence_pass(model, item, MODE_NONE)
    states, _ = model.encoder.encode_sentence(item[0], MODE_NONE)
    slots = model.scorer_slots(states)
    for state, reference in visited:
        scores = model.score_transitions(state, slots)
        assert np.abs(scores - reference).max() <= 1e-12 * np.abs(reference).max()
    (fused_loss, fused), (reference_loss, reference) = fused_and_reference_grads(model, item)
    if reference_loss is None:
        assert fused_loss is None
        return
    assert abs(fused_loss - reference_loss) <= 1e-10 * max(1.0, abs(reference_loss))
    for name, grad in reference.items():
        assert np.abs(fused[name] - grad).max() <= 1e-10 * max(1.0, np.abs(grad).max()), name


@pytest.mark.parametrize("bias", [[0.0] * 8, [1.0, 1.0, 0.5, 0.5, 0.5, -1.0, 2.0, 2.0]])
def test_margin_selection_ties_go_to_the_lowest_index(bias):
    # with a zero output weight every state scores the bias, so a margin's
    # costly and zero-cost indices are picked from tied scores; the reference
    # hinge picks the lowest index of a tie, and the out.b grads, a sum of
    # +1 at each margin's costly and -1 at its zero-cost index, must match
    rng = random.Random(5)
    for n in (2, 5, 9):
        model, item = agreement_model(random_tree(n, rng), 3)
        model.out.w.data[:] = 0.0
        model.out.b.data[:] = bias
        (fused_loss, fused), (reference_loss, reference) = fused_and_reference_grads(model, item)
        assert reference_loss is not None and fused_loss == reference_loss
        assert np.array_equal(fused["scorer_out.b"], reference["scorer_out.b"])


def test_transition_index_roundtrip():
    model = build_model(toy_corpus())
    n = len(model.labels)
    assert model.kind_indices == {SHIFT: [0], SWAP: [1], LEFT_ARC: list(range(2, 2 + n)),
                                  RIGHT_ARC: list(range(2 + n, 2 + 2 * n))}
    for kind, indices in model.kind_indices.items():
        for position, i in enumerate(indices):
            assert model.transitions[i].kind == kind
            label = model.labels[position] if kind in (LEFT_ARC, RIGHT_ARC) else None
            assert model.transitions[i].label == label
    assert len(model.transitions) == model.out.b.data.size


def test_one_token_sentence_parses_to_root():
    model = build_model(toy_corpus())
    sent = sentence_from_words(["hello"], heads=[0], deprels=["root"])
    tree = model.parse_sentence(sent, MODE_NONE)
    assert tree.heads == [0]
    assert tree.deprels[0] in model.labels


def test_untrained_parse_always_valid_tree():
    model = build_model(toy_corpus())
    rng = random.Random(0)
    for _ in range(80):
        n = rng.randrange(1, 8)
        words = [rng.choice(["the", "cat", "dog", "zzz"]) for _ in range(n)]
        sent = sentence_from_words(words, heads=[0] + [1] * (n - 1),
                                   deprels=["root"] + ["dep"] * (n - 1))
        tree = model.parse_sentence(sent, MODE_NONE)
        assert len(tree) == n  # DependencyTree validates structure on build


_form = st.sampled_from(["the", "cat", "dog"]) | st.text(alphabet="abxyz_", min_size=1, max_size=6)


@given(words=st.lists(_form, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_untrained_parse_is_a_tree_on_sentences_up_to_40_tokens(words):
    # greedy decoding is total at any length, whatever the untrained scores
    model = build_model(toy_corpus(), cfg=TINY)
    tree = model.parse_sentence(sentence_from_words(words), MODE_NONE)
    assert len(tree) == len(words) and set(tree.deprels) <= set(model.labels)
    DependencyTree(heads=list(tree.heads), deprels=list(tree.deprels))  # validates


def test_overfit_toy_corpus_reaches_perfect_las():
    gold_tb = toy_corpus()
    model = build_model(gold_tb)
    history = train_parser(model, [gold_tb], MODE_NONE, trainer(60))
    pred_tb = model.parse_treebank(gold_tb, MODE_NONE)
    assert las(gold_tb, pred_tb).value == 100.0
    assert history["epoch_loss"][-1] <= history["epoch_loss"][0]


def test_nonprojective_tree_needs_swap():
    words = ["w1", "w2", "w3", "w4"]
    heads = [0, 4, 1, 1]
    rels = ["root", "obj", "mod", "arg"]
    sent = sentence_from_words(words, heads=heads, deprels=rels, source_id="toy")
    tb = Treebank(source_id="toy", sentences=[sent])

    model = build_model(tb, seed=3)
    train_parser(model, [tb], MODE_NONE, trainer(80))
    assert model.parse_sentence(sent, MODE_NONE).heads == heads


def test_training_is_deterministic_across_runs():
    tb = toy_corpus()
    results = []
    for _ in range(2):
        model = build_model(tb, seed=9)
        train_parser(model, [tb], MODE_NONE, trainer(8, seed=4))
        results.append({name: p.data.copy() for name, p in model.params.params.items()})
    for name in results[0]:
        assert np.array_equal(results[0][name], results[1][name])


def test_epoch_sentence_cap_limits_updates():
    tb = toy_corpus()
    model = build_model(tb)
    config = TrainerConfig(learning_rate=0.01, epochs=1, seed=0, max_sentences_per_epoch=2)
    history = train_parser(model, [tb], MODE_NONE, config)
    assert history["epoch_updates"][0] <= 2


def test_train_errors():
    model = build_model(toy_corpus())
    with pytest.raises(DataError, match="empty training data"):
        train_parser(model, [], MODE_NONE, trainer(1))
    comment_only = Treebank("toy", sentences=[Sentence(tokens=[], comments=["# newdoc"])])
    with pytest.raises(DataError, match="empty training data"):
        train_parser(model, [comment_only], MODE_NONE, trainer(1))


def test_sentence_without_tokens_parses_to_the_empty_tree():
    model = build_model(toy_corpus())
    assert len(model.parse_sentence(Sentence(tokens=[]), MODE_NONE)) == 0


def test_history_holds_one_loss_and_update_count_per_epoch():
    tb = toy_corpus()
    history = train_parser(build_model(tb), [tb], MODE_NONE, trainer(3))
    assert list(history) == ["epoch_loss", "epoch_updates"]
    assert [len(values) for values in history.values()] == [3, 3]
    assert all(0 <= updates <= len(tb) for updates in history["epoch_updates"])


def test_non_finite_margin_stops_training():
    # a NaN margin fails the `> 0` test that keeps a margin, so without the
    # check no loss is built, no step runs and training ends "successfully"
    tb = toy_corpus()
    model = build_model(tb)
    model.out.b.data[:] = np.nan
    with pytest.raises(NumericError, match="^non-finite parser margin nan$"):
        train_parser(model, [tb], MODE_NONE, trainer(1))


def test_parser_checkpoint_roundtrip_reproduces_parses(tmp_path):
    tb = toy_corpus()
    model = build_model(tb)
    train_parser(model, [tb], MODE_NONE, trainer(5))
    path = tmp_path / "parser.npz"
    save_network(path, model)
    loaded = load_network(path, DependencyParser)
    for sent in tb.sentences:
        t1 = model.parse_sentence(sent, MODE_NONE)
        t2 = loaded.parse_sentence(sent, MODE_NONE)
        assert t1.heads == t2.heads
        assert t1.deprels == t2.deprels


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda m: m["config"].pop("scorer_hidden"), "config lacks required key 'scorer_hidden'"),
        (lambda m: m["config"].pop("encoder"), "config lacks required key 'encoder'"),
        (lambda m: m["config"]["encoder"].update(bogus=1), "unknown key 'bogus' in encoder"),
        (lambda m: m["config"]["encoder"].update(word_dim="12"), "encoder.word_dim must be int"),
        (lambda m: m.pop("config"), "config must be a JSON object"),
        (lambda m: m.pop("vocab"), "header lacks required key 'vocab'"),
        (lambda m: m["vocab"].pop("chars"), "header: vocab lacks required key 'chars'"),
        (lambda m: m.pop("labels"), "header lacks required key 'labels'"),
        (lambda m: m.update(seed="0"), "header: seed must be int, got '0'"),
        (lambda m: m["config"].update(use_swap=True), "unknown key 'use_swap' in .* config$"),
        (lambda m: m.update(labels=["det"] * len(m["labels"])), "^repeated labels entry 'det'$"),
        (lambda m: m["vocab"]["words"].__setitem__(2, "the"), "^repeated vocab.words entry 'the'$"),
    ],
    ids=["missing", "missing-defaulted", "extra", "wrong-type", "no-config",
         "no-vocab", "no-vocab-chars", "no-labels", "string-seed", "stale-use-swap",
         "repeated-label", "repeated-word"],
)
def test_parser_checkpoint_rejects_a_tampered_config(tmp_path, tamper, message):
    path = tmp_path / "parser.npz"
    save_network(path, build_model(toy_corpus()))
    kind, meta, arrays = load_checkpoint(path)
    tamper(meta)
    save_checkpoint(path, kind, meta, arrays)
    with pytest.raises(DataError, match=message) as excinfo:
        load_network(path, DependencyParser)
    assert "\n" not in str(excinfo.value)
