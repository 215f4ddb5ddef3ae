import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisrc.classifier import (
    WORD_JOINER,
    ClassifierHyper,
    JackknifeResult,
    LinearModel,
    NGramConfig,
    SparseVector,
    default_grid,
    featurize,
    grid_search,
    jackknife_labels,
    load_model,
    macro_f1,
    predict_source,
    save_model,
    train_linear,
)
from multisrc.errors import DataError
from multisrc.nn.checkpoint import load_checkpoint, save_checkpoint

from .classifier_reference import scores_reference, train_linear_reference
from .helpers import treebank_from_sentences

FAST = ClassifierHyper(epochs=10, seed=3)
SMALL_SPACE = 2**12


def cfg(word_max=2, char_max=0, char_min=1, word_min=1):
    if char_max == 0:
        # word-family only: shrink the char range to a unit that matches nothing
        return NGramConfig(word_min, word_max, 7, 7, SMALL_SPACE)
    return NGramConfig(word_min, word_max, char_min, char_max, SMALL_SPACE)


def gram_count(vec: SparseVector) -> int:
    return sum(count for _, count in vec.entries)


def test_featurize_word_bigrams_hand_enumerated():
    vec = featurize("ab cd", NGramConfig(1, 2, 7, 7, SMALL_SPACE))
    # {"ab", "cd", "ab<sep>cd"}; "ab cd" has no 7-gram... it has length 5 -> none
    assert gram_count(vec) == 3
    assert len(vec.entries) == 3


def test_featurize_char_bigrams_hand_enumerated():
    vec = featurize("ab cd", NGramConfig(7, 7, 1, 2, SMALL_SPACE))
    # chars: a,b,space,c,d + bigrams: ab, b_, _c, cd -> 9 total (word 7-grams absent)
    assert gram_count(vec) == 9


def test_featurize_empty_string():
    assert featurize("", NGramConfig(1, 2, 1, 5, SMALL_SPACE)).entries == []


def test_featurize_counts_accumulate():
    vec = featurize("x x", NGramConfig(1, 1, 7, 7, SMALL_SPACE))
    assert vec.entries[0][1] == 2  # "x" twice


def test_word_and_char_families_do_not_collide():
    # "ab" is both a word unigram and a char bigram; families must not collide
    word_only = featurize("ab", NGramConfig(1, 1, 7, 7, SMALL_SPACE))
    char_only = featurize("ab", NGramConfig(7, 7, 2, 2, SMALL_SPACE))
    assert word_only.entries and char_only.entries
    assert word_only.entries[0][0] != char_only.entries[0][0]


def test_featurize_deterministic():
    config = NGramConfig(1, 2, 1, 5, SMALL_SPACE)
    assert featurize("some text here", config).entries == featurize("some text here", config).entries


def test_ngram_config_validation():
    with pytest.raises(DataError):
        NGramConfig(0, 2, 1, 5)
    with pytest.raises(DataError):
        NGramConfig(3, 2, 1, 5)
    with pytest.raises(DataError):
        NGramConfig(1, 2, 1, 8)
    with pytest.raises(DataError):
        NGramConfig(1, 2, 1, 5, feature_space_size=1000)


def test_sparse_vector_invariants():
    with pytest.raises(DataError):
        SparseVector([(3, 1), (1, 1)])
    with pytest.raises(DataError):
        SparseVector([(1, 0)])


def separable_data(per_class=10):
    config = cfg(word_max=1)
    data = []
    for i in range(per_class):
        data.append((featurize("aaa", config), "A"))
        data.append((featurize("bbb", config), "B"))
    return config, data


def test_separable_training_reaches_full_accuracy():
    config, data = separable_data()
    model = train_linear(data, config, FAST)
    correct = sum(1 for vec, label in data if predict_source(model, vec)[0] == label)
    assert correct == len(data)


def test_training_is_bit_deterministic():
    config, data = separable_data()
    m1 = train_linear(data, config, FAST)
    m2 = train_linear(data, config, FAST)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.biases, m2.biases)


def test_training_invariant_to_input_permutation():
    import random as pyrandom

    config, data = separable_data()
    shuffled = list(data)
    pyrandom.Random(99).shuffle(shuffled)
    m1 = train_linear(data, config, FAST)
    m2 = train_linear(shuffled, config, FAST)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.biases, m2.biases)


def test_single_class_rejected():
    config = cfg()
    with pytest.raises(DataError):
        train_linear([(featurize("x", config), "A")], config, FAST)
    with pytest.raises(DataError):
        train_linear([], config, FAST)


def test_predict_returns_score_per_class_and_breaks_ties_by_class_order():
    config, data = separable_data()
    model = train_linear(data, config, FAST)
    label, scores = predict_source(model, featurize("aaa", config))
    assert label == "A"
    assert set(scores) == {"A", "B"}
    # all-zero vector: decided by biases; with equal biases the first class wins
    zero_model = LinearModel(
        class_ids=["A", "B"], weights=np.zeros((2, SMALL_SPACE)), biases=np.zeros(2),
        cfg=config, hyper=FAST,
    )
    assert predict_source(zero_model, SparseVector([]))[0] == "A"


def test_predict_dimension_mismatch():
    config, data = separable_data()
    model = train_linear(data, config, FAST)
    with pytest.raises(DataError, match="dimensionality"):
        model.scores(SparseVector([(SMALL_SPACE + 5, 1)]))


def test_macro_f1_hand_computed():
    assert macro_f1(["A", "B"], ["A", "B"]) == 1.0
    assert macro_f1(["A", "A", "B", "B"], ["A", "B", "B", "B"]) == pytest.approx(11 / 15)
    assert macro_f1(["A", "A"], ["B", "B"]) == 0.0
    with pytest.raises(DataError):
        macro_f1(["A"], ["A", "B"])
    with pytest.raises(DataError):
        macro_f1([], [])


def test_default_grid_is_49_sequential_ranges():
    grid = default_grid()
    assert len(grid) == 49
    assert all(c.word_min == 1 and c.char_min == 1 for c in grid)
    assert {(c.word_max, c.char_max) for c in grid} == {
        (w, c) for w in range(1, 8) for c in range(1, 8)
    }


def test_grid_search_single_candidate():
    train = [("aaa xx", "A"), ("bbb yy", "B")] * 5
    dev = [("aaa xx", "A"), ("bbb yy", "B")]
    only = NGramConfig(1, 1, 1, 1, SMALL_SPACE)
    best, f1 = grid_search(train, dev, [only], FAST)
    assert best == only
    assert 0.0 <= f1 <= 1.0


def test_grid_search_needs_char_trigrams_when_classes_differ_in_them():
    # "aba aaa" and "aaa aba" share word unigrams and char uni/bigrams;
    # only char 3-grams (and word order) tell them apart
    train = [("aba aaa", "A"), ("aaa aba", "B")] * 8
    dev = [("aba aaa", "A"), ("aaa aba", "B")] * 2
    candidates = [NGramConfig(1, 1, 1, c, SMALL_SPACE) for c in (1, 2, 3)]
    assert featurize("aba aaa", candidates[1]).entries == featurize("aaa aba", candidates[1]).entries
    best, f1 = grid_search(train, dev, candidates, FAST)
    assert best.char_max >= 3
    assert f1 == 1.0


def test_grid_search_tie_prefers_smaller_ranges():
    train = [("aaa", "A"), ("bbb", "B")] * 6
    dev = [("aaa", "A"), ("bbb", "B")]
    big = NGramConfig(1, 4, 1, 4, SMALL_SPACE)
    small = NGramConfig(1, 1, 1, 2, SMALL_SPACE)
    best, f1 = grid_search(train, dev, [big, small], FAST)
    assert f1 == 1.0
    assert best == small


def disjoint_treebanks(n_per_source=50):
    sents_a = [[f"apple{i % 7}", f"ant{i % 5}"] for i in range(n_per_source)]
    sents_b = [[f"boat{i % 7}", f"bear{i % 5}"] for i in range(n_per_source)]
    return [
        treebank_from_sentences("src_a", sents_a),
        treebank_from_sentences("src_b", sents_b),
    ]


def test_jackknife_disjoint_vocabulary_recovers_gold():
    banks = disjoint_treebanks(50)
    result = jackknife_labels(banks, NGramConfig(1, 2, 1, 3, SMALL_SPACE), FAST)
    gold = ["src_a"] * 50 + ["src_b"] * 50
    assert result.k == 5
    assert result.predictions == gold


def test_jackknife_no_sentence_labeled_by_own_fold():
    # shared random vocabulary: a model that saw a sentence labels it
    # differently from one that did not, so an own-fold leak would show
    rng = random.Random(4)
    words = [f"w{i}" for i in range(12)]
    banks = [treebank_from_sentences(source, [[rng.choice(words) for _ in range(3)]
                                              for _ in range(10)])
             for source in ("src_a", "src_b")]
    ngram = NGramConfig(1, 1, 1, 2, SMALL_SPACE)
    result = jackknife_labels(banks, ngram, FAST)
    labelled = [(featurize(s.text, ngram), tb.source_id) for tb in banks for s in tb.sentences]
    for fold in range(result.k):
        model = train_linear([ex for ex, f in zip(labelled, result.fold_of_sentence) if f != fold],
                             ngram, FAST)
        for i, f in enumerate(result.fold_of_sentence):
            if f == fold:
                assert result.predictions[i] == predict_source(model, labelled[i][0])[0]
    seen = [predict_source(result.model, vector)[0] for vector, _ in labelled]
    assert seen != result.predictions
    # 5 folds over 2x10: each fold holds 2 sentences per source pair count
    counts = [result.fold_of_sentence.count(f) for f in range(result.k)]
    assert counts == [4, 4, 4, 4, 4]


def test_jackknife_small_source_reduces_k():
    banks = [
        treebank_from_sentences("a", [["a1"], ["a2"], ["a3"]]),
        treebank_from_sentences("b", [["b1"], ["b2"], ["b3"], ["b4"]]),
    ]
    result = jackknife_labels(banks, NGramConfig(1, 1, 1, 2, SMALL_SPACE), FAST)
    assert result.k == 3


def test_jackknife_empty_source_rejected():
    banks = [
        treebank_from_sentences("a", []),
        treebank_from_sentences("b", [["x"]]),
    ]
    with pytest.raises(DataError, match="zero train sentences"):
        jackknife_labels(banks, NGramConfig(1, 1, 1, 2, SMALL_SPACE), FAST)


def test_model_checkpoint_roundtrip_bit_exact(tmp_path):
    config, data = separable_data()
    model = train_linear(data, config, FAST)
    path = tmp_path / "clf.npz"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.class_ids == model.class_ids
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.biases, model.biases)
    assert loaded.cfg == model.cfg
    for text in ("aaa", "bbb", "aaa bbb"):
        vec = featurize(text, config)
        assert predict_source(loaded, vec) == predict_source(model, vec)


def test_model_checkpoint_stores_only_nonzero_columns(tmp_path):
    config, data = separable_data()
    model = train_linear(data, config, FAST)
    model.weights[1, 7] = -0.0  # a column that is zero by value but not by bits
    path = tmp_path / "clf.npz"
    save_model(path, model)
    _, _, arrays = load_checkpoint(path)
    touched = np.flatnonzero(np.any(model.weights != 0, axis=0))
    assert arrays["columns"].tolist() == sorted(touched.tolist() + [7])
    assert arrays["weights"].shape == (2, len(touched) + 1)
    loaded = load_model(path)
    assert loaded.weights.tobytes() == model.weights.tobytes()


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda a: a.update(columns=a["columns"] + 0.5), "not integers"),
        (lambda a: a.update(columns=a["columns"][::-1].copy(), weights=a["weights"][:, ::-1]),
         "not strictly increasing"),
        (lambda a: a.update(columns=np.append(a["columns"][:-1], SMALL_SPACE)), "outside"),
        (lambda a: a.update(weights=a["weights"][:, 1:]), "do not match"),
        (lambda a: a.pop("columns"), "no 'columns' array"),
    ],
    ids=["fractional", "decreasing", "out-of-range", "block-shape", "dense-layout"],
)
def test_model_checkpoint_rejects_bad_columns(tmp_path, tamper, message):
    config, data = separable_data()
    path = tmp_path / "clf.npz"
    save_model(path, train_linear(data, config, FAST))
    kind, meta, arrays = load_checkpoint(path)
    tamper(arrays)
    save_checkpoint(path, kind, meta, arrays)
    with pytest.raises(DataError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda m: m.update(hyper=[1.0, 10, 0.1]), "hyper must be a JSON object"),
        (lambda m: m["hyper"].update(epochs="3"), "hyper: epochs must be int"),
        (lambda m: m["ngram"].pop("feature_space_size"),
         "ngram lacks required key 'feature_space_size'"),
        (lambda m: m["ngram"].update(bogus=1), "unknown key 'bogus' in .*ngram"),
        (lambda m: m.pop("class_ids"), "header lacks required key 'class_ids'"),
        (lambda m: m.update(class_ids="ab"), "header: class_ids must be list"),
        (lambda m: m.update(bogus=1), "unknown key 'bogus' in .*header"),
    ],
    ids=["positional-hyper", "wrong-type", "missing", "extra",
         "no-class-ids", "string-class-ids", "extra-header-key"],
)
def test_model_checkpoint_rejects_a_tampered_config(tmp_path, tamper, message):
    config, data = separable_data()
    model = train_linear(data, config, FAST)
    path = tmp_path / "clf.npz"
    save_model(path, model)
    assert load_model(path).hyper == model.hyper
    kind, meta, arrays = load_checkpoint(path)
    tamper(meta)
    save_checkpoint(path, kind, meta, arrays)
    with pytest.raises(DataError, match=message) as excinfo:
        load_model(path)
    assert "\n" not in str(excinfo.value)


def test_jackknife_model_equals_fit_on_all_sentences():
    banks = disjoint_treebanks(10)
    config = NGramConfig(1, 1, 1, 2, SMALL_SPACE)
    result = jackknife_labels(banks, config, FAST)
    data = [(featurize(s.text, config), tb.source_id) for tb in banks for s in tb.sentences]
    model = train_linear(data, config, FAST)
    assert result.model.class_ids == model.class_ids
    assert np.array_equal(result.model.weights, model.weights)
    assert np.array_equal(result.model.biases, model.biases)


@pytest.mark.parametrize(
    "field, value",
    [("regularization_c", 0.0), ("regularization_c", -1.0), ("regularization_c", float("nan")),
     ("learning_rate", 0.0), ("epochs", 0)],
)
def test_classifier_hyper_validation(field, value):
    with pytest.raises(DataError, match=field):
        ClassifierHyper(**{field: value})


# -- exactness against the scalar reference -------------------------------------

REF_SPACE = 32

sparse_vectors = st.dictionaries(
    st.integers(0, REF_SPACE - 1), st.integers(1, 10**12), max_size=6
).map(lambda counts: SparseVector(sorted(counts.items())))


def assert_matches_reference(data, hyper, probes):
    config = NGramConfig(1, 1, 1, 1, REF_SPACE)
    model = train_linear(data, config, hyper)
    reference, renormalised = train_linear_reference(data, config, hyper)
    assert model.class_ids == reference.class_ids
    assert np.array_equal(model.weights, reference.weights)
    assert np.array_equal(model.biases, reference.biases)
    for vec in probes:
        assert np.array_equal(model.scores(vec), scores_reference(model, vec))
    return renormalised


@settings(max_examples=60, deadline=None)
@given(
    labelled=st.lists(st.tuples(sparse_vectors, st.integers(0, 3)), min_size=1, max_size=12),
    n_classes=st.integers(2, 4),
    probes=st.lists(sparse_vectors, max_size=4),
    epochs=st.integers(1, 4),
    learning_rate=st.floats(1e-3, 2.0),
    regularization_c=st.floats(0.05, 10.0),
    seed=st.integers(0, 2**16),
)
def test_vectorised_sgd_and_scores_equal_scalar_reference(
    labelled, n_classes, probes, epochs, learning_rate, regularization_c, seed
):
    classes = [f"c{i}" for i in range(n_classes)]
    data = [(vec, classes[label % n_classes]) for vec, label in labelled]
    # every class present, plus an empty and a single-feature vector
    data += [(SparseVector([]), classes[0])]
    data += [(SparseVector([(REF_SPACE - 1, 3)]), c) for c in classes[1:]]
    hyper = ClassifierHyper(regularization_c, epochs, learning_rate, seed)
    assert_matches_reference(data, hyper, probes + [SparseVector([])])


def test_vectorised_sgd_equals_reference_through_scale_renormalisation():
    # lr * lambda = 0.99: the lazy L2 scale shrinks 100-fold per step in
    # the first epoch and falls below 1e-9 within five steps
    data = [(SparseVector([(i, 1 + i), (i + 8, 2)]), "AB"[i % 2]) for i in range(6)]
    hyper = ClassifierHyper(regularization_c=1 / 6, epochs=20, learning_rate=0.99, seed=5)
    assert assert_matches_reference(data, hyper, [vec for vec, _ in data]) > 0
