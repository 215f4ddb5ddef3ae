import random

import pytest

from multisrc.conllu import Sentence, Token, Treebank
from multisrc.errors import DataError
from multisrc.harness import ResultRow
from multisrc.metrics import aggregate, las, lemma_accuracy, morph_f1
from multisrc.registry import FilterReport

from .helpers import sentence_from_words


def build_treebank(rows, source="s"):
    """rows: list of sentences, each a list of (form, lemma, morph, head, deprel)."""
    sentences = []
    for row in rows:
        tokens = [
            Token(id=i + 1, form=f, lemma=l, morph=set(m), head=h, deprel=d)
            for i, (f, l, m, h, d) in enumerate(row)
        ]
        sentences.append(Sentence(tokens=tokens))
    return Treebank(source_id=source, sentences=sentences)


def test_las_identical_trees():
    tb = build_treebank([[("a", "a", [], 2, "x"), ("b", "b", [], 0, "root")]])
    assert las(tb, tb).value == 100.0


def test_las_hand_counted():
    gold = build_treebank(
        [[("w1", "", [], 2, "a"), ("w2", "", [], 0, "root"),
          ("w3", "", [], 2, "b"), ("w4", "", [], 2, "c")]]
    )
    pred = build_treebank(
        [[("w1", "", [], 2, "a"), ("w2", "", [], 0, "root"),
          ("w3", "", [], 2, "WRONG"), ("w4", "", [], 1, "c")]]
    )
    result = las(gold, pred)
    assert result.value == 50.0
    assert (result.correct, result.total) == (2, 4)


def test_las_token_count_mismatch():
    gold = build_treebank([[("a", "", [], 0, "root")]])
    pred = build_treebank([[("a", "", [], 0, "root"), ("b", "", [], 1, "x")]])
    with pytest.raises(DataError, match="token count mismatch"):
        las(gold, pred)


def test_morph_f1_hand_counted():
    gold = build_treebank([[("w", "", ["Number=Sing", "POS=N"], 0, "r")]])
    pred = build_treebank([[("w", "", ["Number=Plur", "POS=N"], 0, "r")]])
    result = morph_f1(gold, pred)
    assert result.value == 50.0


def test_morph_f1_edges():
    gold = build_treebank([[("w", "", ["A=1"], 0, "r")]])
    assert morph_f1(gold, gold).value == 100.0
    empty_pred = build_treebank([[("w", "", [], 0, "r")]])
    assert morph_f1(gold, empty_pred).value == 0.0


def test_lemma_accuracy():
    gold = build_treebank(
        [[("a", "la", [], 0, "r")], [("b", "lb", [], 0, "r")],
         [("c", "lc", [], 0, "r")], [("d", "ld", [], 0, "r")]]
    )
    pred = build_treebank(
        [[("a", "la", [], 0, "r")], [("b", "lb", [], 0, "r")],
         [("c", "lc", [], 0, "r")], [("d", "XX", [], 0, "r")]]
    )
    assert lemma_accuracy(gold, pred).value == 75.0
    assert lemma_accuracy(gold, gold).value == 100.0


def test_lemma_accuracy_case_sensitive():
    gold = build_treebank([[("Cat", "Cat", [], 0, "r")]])
    pred = build_treebank([[("Cat", "cat", [], 0, "r")]])
    assert lemma_accuracy(gold, pred).value == 0.0


# --- independent nested-loop oracle ---------------------------------------


def naive_las(gold, pred):
    correct, total = 0, 0
    for gs, ps in zip(gold.sentences, pred.sentences):
        for gt in gs.tokens:
            for pt in ps.tokens:
                if pt.id == gt.id:
                    total += 1
                    if pt.head == gt.head and pt.deprel == gt.deprel:
                        correct += 1
    return 100.0 * correct / total if total else 0.0


def naive_morph_f1(gold, pred):
    tp = fp = fn = 0
    for gs, ps in zip(gold.sentences, pred.sentences):
        for gt in gs.tokens:
            for pt in ps.tokens:
                if pt.id != gt.id:
                    continue
                for feat in gt.morph:
                    if feat in pt.morph:
                        tp += 1
                    else:
                        fn += 1
                for feat in pt.morph:
                    if feat not in gt.morph:
                        fp += 1
    denom = 2 * tp + fp + fn
    return 100.0 * 2 * tp / denom if denom else 100.0


def naive_lemma_acc(gold, pred):
    correct, total = 0, 0
    for gs, ps in zip(gold.sentences, pred.sentences):
        for gt in gs.tokens:
            for pt in ps.tokens:
                if pt.id == gt.id:
                    total += 1
                    if pt.lemma == gt.lemma:
                        correct += 1
    return 100.0 * correct / total if total else 0.0


def random_pair(rng):
    feats = ["Number=Sing", "Number=Plur", "Case=Nom", "Tense=Past"]
    deprels = ["nsubj", "obj", "det", "amod"]

    def rand_sentence(n):
        root = rng.randrange(1, n + 1)
        tokens = []
        for i in range(1, n + 1):
            head = 0 if i == root else rng.choice([h for h in range(1, n + 1) if h != i])
            tokens.append(
                Token(id=i, form=f"w{i}", lemma=rng.choice(["la", "lb", "lc"]),
                      morph=set(rng.sample(feats, rng.randrange(0, 3))),
                      head=head, deprel=rng.choice(deprels))
            )
        return Sentence(tokens=tokens)

    sizes = [rng.randrange(1, 7) for _ in range(rng.randrange(1, 5))]
    gold = Treebank(source_id="g", sentences=[rand_sentence(n) for n in sizes])
    pred = Treebank(source_id="g", sentences=[rand_sentence(n) for n in sizes])
    return gold, pred


def test_metrics_match_nested_loop_oracle_on_100_random_pairs():
    rng = random.Random(2024)
    for _ in range(100):
        gold, pred = random_pair(rng)
        assert las(gold, pred).value == naive_las(gold, pred)
        assert morph_f1(gold, pred).value == naive_morph_f1(gold, pred)
        assert lemma_accuracy(gold, pred).value == naive_lemma_acc(gold, pred)
        for fn in (las, morph_f1, lemma_accuracy):
            assert 0.0 <= fn(gold, pred).value <= 100.0
            assert fn(gold, gold).value == 100.0


def test_metrics_permutation_invariant():
    rng = random.Random(7)
    gold, pred = random_pair(rng)
    while len(gold.sentences) < 2:
        gold, pred = random_pair(rng)
    order = list(range(len(gold.sentences)))
    rng.shuffle(order)
    gold2 = Treebank(source_id="g", sentences=[gold.sentences[i] for i in order])
    pred2 = Treebank(source_id="g", sentences=[pred.sentences[i] for i in order])
    assert las(gold, pred).value == las(gold2, pred2).value
    assert morph_f1(gold, pred).value == morph_f1(gold2, pred2).value


# --- aggregation -----------------------------------------------------------


def report(sid, **kw):
    defaults = dict(word_count=1000, max_overlap=0.5,
                    is_small=True, is_multilang_group=False, exists_same_lang=True,
                    svm_above_95=False, high_word_overlap=True)
    defaults.update(kw)
    return FilterReport(source_id=sid, **defaults)


def avg_row(sid, setting, value, mode="in_dataset"):
    return ResultRow("g", sid, setting, mode, "avg", "las", value, 0, 0)


def test_aggregate_single_dataset_equals_its_value():
    rows = aggregate([avg_row("a", "gold", 81.5)], {"a": report("a")})
    all_row = [r for r in rows if r.bucket == "all"][0]
    assert (all_row.mode, all_row.setting, all_row.metric) == ("in_dataset", "gold", "las")
    assert all_row.value == 81.5
    assert all_row.n_sources == 1


def test_aggregate_mean_and_bucket_membership():
    results = [avg_row("a", "gold", 80.0), avg_row("b", "gold", 60.0)]
    reports = {"a": report("a", is_small=True), "b": report("b", is_small=False)}
    rows = aggregate(results, reports)
    by_bucket = {(r.bucket, r.setting): r for r in rows}
    assert by_bucket[("all", "gold")].value == 70.0
    assert by_bucket[("small", "gold")].value == 80.0
    assert by_bucket[("large", "gold")].value == 60.0
    # empty buckets omitted entirely
    assert ("multi-lang", "gold") not in by_bucket


def test_aggregate_keeps_modes_apart():
    results = [avg_row("a", "concat", 80.0), avg_row("b", "concat", 60.0),
               avg_row("c", "concat", 10.0, mode="zero_shot")]
    rows = aggregate(results, {sid: report(sid) for sid in "abc"})
    by_key = {(r.bucket, r.mode, r.setting): (r.value, r.n_sources) for r in rows}
    assert by_key[("all", "in_dataset", "concat")] == (70.0, 2)
    assert by_key[("all", "zero_shot", "concat")] == (10.0, 1)


def test_aggregate_matches_bruteforce_reaggregation():
    rng = random.Random(5)
    results, reports = {}, {}
    for i in range(8):
        sid = f"s{i}"
        results[sid] = {
            setting: rng.uniform(0, 100) for setting in ("base", "concat", "gold", "pred")
        }
        reports[sid] = report(sid, is_small=bool(rng.randrange(2)))
    rows = aggregate([avg_row(sid, setting, value) for sid, scores in results.items()
                      for setting, value in scores.items()], reports)
    for row in rows:
        if row.bucket == "all":
            members = sorted(results)
        elif row.bucket in ("small", "large"):
            members = [s for s in sorted(results) if reports[s].is_small == (row.bucket == "small")]
        else:
            continue
        expected = sum(results[s][row.setting] for s in members) / len(members)
        assert row.value == expected
