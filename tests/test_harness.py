import numpy as np
import pytest

from multisrc.classifier import ClassifierHyper, NGramConfig
from multisrc.encoder import EncoderConfig
from multisrc.errors import DataError
from multisrc.harness import (
    ExperimentConfig,
    ResultRow,
    run_experiment,
    run_setting,
    run_zero_shot,
    seed_averages,
    load_experiment_file,
)
from multisrc.nn import TrainerConfig
from multisrc.registry import DataSource, DatasetGroup, Registry
from multisrc.synth import ambiguity_corpus, mixture_corpus, write_corpus
from multisrc.tagger import TaggerConfig

from .helpers import treebank_from_sentences

TINY_ENC = EncoderConfig(word_dim=8, char_dim=6, char_emb_dim=4, source_dim=4, hidden_dim=6)
TINY_TRAINER = TrainerConfig(optimizer="adam", learning_rate=0.02, epochs=4, seed=0)
TINY_NGRAM = NGramConfig(1, 1, 1, 2, 2**12)
TINY_CLF = ClassifierHyper(epochs=6, seed=0)


def tiny_config(task="parse", **kw):
    defaults = dict(
        task=task,
        group_id="g",
        settings=["base", "concat", "gold", "pred"],
        seeds=[0],
        trainer=TINY_TRAINER,
        encoder=TINY_ENC,
        scorer_hidden=12,
        ngram=TINY_NGRAM,
        classifier_hyper=TINY_CLF,
    )
    defaults.update(kw)
    if task == "tag_lemma" and "tagger" not in kw:
        defaults["tagger"] = TaggerConfig(
            encoder=TINY_ENC, tag_embedding_dim=4, decoder_hidden=8,
            decoder_char_dim=4, attention_hidden=6,
        )
    return ExperimentConfig(**defaults)


def disjoint_registry(n=8):
    """Two sources with disjoint vocabularies; dev copies train."""
    registry = Registry()
    for source_id, stem in (("src_a", "apple"), ("src_b", "boat")):
        word_lists = [[f"{stem}{i}", f"{stem}verb{i % 3}"] for i in range(n)]
        train = treebank_from_sentences(source_id, word_lists)
        dev = treebank_from_sentences(source_id, word_lists[: max(2, n // 2)], split="dev")
        registry.add_source(DataSource(source_id=source_id, language="syn", train=train, dev=dev))
    registry.add_group(DatasetGroup(group_id="g", members=["src_a", "src_b"]))
    return registry


def test_run_setting_produces_rows_for_each_member_and_setting():
    registry = disjoint_registry()
    config = tiny_config()
    group = registry.groups["g"]
    for setting in ("base", "concat", "gold", "pred"):
        outcome = run_setting(registry, group, config, setting, seed=0)
        assert {r.source_id for r in outcome.rows} == {"src_a", "src_b"}
        assert all(r.setting == setting for r in outcome.rows)
        assert all(r.metric == "las" for r in outcome.rows)
        assert set(outcome.predictions) == {"src_a", "src_b"}
        for row in outcome.rows:
            assert 0.0 <= row.value <= 100.0


def test_pred_computes_jackknife_f1_and_routes_dev():
    registry = disjoint_registry()
    config = tiny_config()
    outcome = run_setting(registry, registry.groups["g"], config, "pred", seed=0)
    assert outcome.classifier_f1 == 1.0  # disjoint vocab: perfect jackknife
    assert set(outcome.routing) == {"src_a", "src_b"}
    assert all(r == "src_a" for r in outcome.routing["src_a"])
    assert all(r == "src_b" for r in outcome.routing["src_b"])


def test_pred_equals_gold_bitwise_when_classifier_is_perfect():
    registry = disjoint_registry()
    config = tiny_config()
    group = registry.groups["g"]
    gold_outcome = run_setting(registry, group, config, "gold", seed=3)
    pred_outcome = run_setting(registry, group, config, "pred", seed=3)
    gold_by_key = {(r.source_id, r.metric): r for r in gold_outcome.rows}
    for row in pred_outcome.rows:
        twin = gold_by_key[(row.source_id, row.metric)]
        assert row.value == twin.value and row.correct == twin.correct
    # predicted trees identical token by token
    for member in ("src_a", "src_b"):
        for gs, ps in zip(gold_outcome.predictions[member].sentences,
                          pred_outcome.predictions[member].sentences):
            assert [t.head for t in gs.tokens] == [t.head for t in ps.tokens]
            assert [t.deprel for t in gs.tokens] == [t.deprel for t in ps.tokens]
    gold_model = gold_outcome.models["model"]
    pred_model = pred_outcome.models["model"]
    for name, param in gold_model.params.params.items():
        assert np.array_equal(param.data, pred_model.params.params[name].data)


def test_single_member_group_base_concat_gold_identical_with_zero_source_dim():
    registry = Registry()
    words = [["solo0", "solov0"], ["solo1", "solov1"], ["solo2", "solov2"]]
    registry.add_source(
        DataSource(
            source_id="solo",
            language="syn",
            train=treebank_from_sentences("solo", words),
            dev=treebank_from_sentences("solo", words[:2], split="dev"),
        )
    )
    registry.add_group(DatasetGroup(group_id="g", members=["solo"]))
    enc0 = EncoderConfig(word_dim=8, char_dim=6, char_emb_dim=4, source_dim=0, hidden_dim=6)
    config = tiny_config(encoder=enc0, settings=["base", "concat", "gold"])
    group = registry.groups["g"]
    values = {}
    models = {}
    for setting in ("base", "concat", "gold"):
        outcome = run_setting(registry, group, config, setting, seed=1)
        values[setting] = [r.value for r in outcome.rows]
        models[setting] = outcome.models
    assert values["base"] == values["concat"] == values["gold"]
    base_params = models["base"]["solo"].params.params
    for other in ("concat", "gold"):
        other_params = models[other]["model"].params.params
        assert set(base_params) == set(other_params)
        for name in base_params:
            assert np.array_equal(base_params[name].data, other_params[name].data)


def mixture_registry():
    registry = Registry()
    corpus = mixture_corpus(seed=4, n_train=12, n_dev=6, n_held_dev=10)
    for source_id, splits in corpus.items():
        registry.add_source(
            DataSource(source_id=source_id, language="syn",
                       train=splits["train"], dev=splits["dev"])
        )
    registry.add_group(
        DatasetGroup(group_id="mix", members=["style_a", "style_b", "style_mix"])
    )
    return registry


def test_zero_shot_isolation_routing_and_rows():
    registry = mixture_registry()
    config = tiny_config(
        task="tag_lemma", group_id="mix", mode="zero_shot", held_out_source="style_mix"
    )
    outcome = run_zero_shot(registry, registry.groups["mix"], config, seed=0)
    assert registry.accessed("style_mix", phases={"training", "classifier"}) == []
    assert registry.accessed("style_a", phases={"training"})
    routed = outcome.routing["style_mix"]
    assert len(routed) == 10
    assert set(routed) <= {"style_a", "style_b"}
    settings = {r.setting for r in outcome.rows}
    assert settings == {"concat", "pred"}
    assert all(r.mode == "zero_shot" for r in outcome.rows)
    assert all(r.source_id == "style_mix" for r in outcome.rows)


def test_zero_shot_experiment_reports_jackknife_f1_in_filters(tmp_path):
    registry = disjoint_registry()
    registry.add_source(DataSource(
        source_id="src_c", language="syn",
        train=treebank_from_sentences("src_c", [["cat0", "catverb0"], ["cat1", "catverb1"]]),
        dev=treebank_from_sentences("src_c", [["apple0", "boatverb1"]], split="dev"),
    ))
    registry.add_group(DatasetGroup(group_id="g3", members=["src_a", "src_b", "src_c"]))
    config = tiny_config(group_id="g3", mode="zero_shot", held_out_source="src_c")
    run_experiment(registry, config, tmp_path)
    buckets = {line.split("\t")[0] for line in (tmp_path / "filters.tsv").read_text().splitlines()}
    # disjoint vocabularies: the jack-knife is perfect, so the held-out
    # source sits in the svm>95 bucket
    assert "svm>95" in buckets
    assert "svm<=95" not in buckets


def test_zero_shot_requires_three_members():
    registry = disjoint_registry()
    config = tiny_config(mode="zero_shot", held_out_source="src_a")
    with pytest.raises(DataError, match="more than 2 members"):
        run_zero_shot(registry, registry.groups["g"], config, seed=0)


def test_trained_gold_model_encodes_same_sentence_differently_per_source():
    from multisrc.encoder import MODE_GOLD, MODE_NONE
    from multisrc.synth import ambiguity_corpus

    corpus = ambiguity_corpus(seed=21, n_conflict_train=6, n_shared_train=4,
                              n_conflict_dev=4, n_shared_dev=2)
    registry = Registry()
    for source_id, splits in corpus.items():
        registry.add_source(DataSource(source_id=source_id, language="syn",
                                       train=splits["train"], dev=splits["dev"]))
    registry.add_group(DatasetGroup(group_id="g", members=sorted(corpus)))
    config = tiny_config(task="tag_lemma", settings=["concat", "gold"])
    group = registry.groups["g"]
    gold_model = run_setting(registry, group, config, "gold", seed=0).models["model"]
    none_model = run_setting(registry, group, config, "concat", seed=0).models["model"]

    sent = corpus["dialect_a"]["dev"].sentences[0]
    as_a = sent
    as_b = deepcopy_sentence(sent, "dialect_b")
    enc_a = gold_model.encoder.encode_sentence(as_a, MODE_GOLD)
    enc_b = gold_model.encoder.encode_sentence(as_b, MODE_GOLD)
    diff = max(float(np.abs(a.data - b.data).max()) for a, b in zip(enc_a, enc_b))
    assert diff > 0.0
    none_a = none_model.encoder.encode_sentence(as_a, "none")
    none_b = none_model.encoder.encode_sentence(as_b, "none")
    for a, b in zip(none_a, none_b):
        assert np.array_equal(a.data, b.data)


def deepcopy_sentence(sent, new_source):
    from copy import deepcopy

    twin = deepcopy(sent)
    twin.source_id = new_source
    return twin


def test_eval_falls_back_to_test_split_when_dev_missing():
    from multisrc.harness import eval_split

    registry = Registry()
    words = [["w0", "w1"], ["w2", "w3"]]
    registry.add_source(
        DataSource(
            source_id="nodev",
            language="syn",
            train=treebank_from_sentences("nodev", words),
            test=treebank_from_sentences("nodev", words[:1], split="test"),
        )
    )
    tb = eval_split(registry, "nodev")
    assert tb.split == "test"
    with pytest.raises(DataError):
        registry.split("nodev", "dev")


def test_seed_averages_exact_mean():
    rows = [
        ResultRow("g", "s", "gold", "in_dataset", "0", "las", 80.0, 8, 10),
        ResultRow("g", "s", "gold", "in_dataset", "1", "las", 70.0, 7, 10),
        ResultRow("g", "s", "gold", "in_dataset", "2", "las", 90.0, 9, 10),
    ]
    avg = seed_averages(rows)
    assert len(avg) == 1
    assert avg[0].seed == "avg"
    assert avg[0].value == (80.0 + 70.0 + 90.0) / 3


def test_run_experiment_layout_and_determinism(tmp_path):
    registry_dir = tmp_path / "data"
    write_corpus(ambiguity_corpus(seed=9, n_conflict_train=6, n_shared_train=6,
                                  n_conflict_dev=4, n_shared_dev=2),
                 registry_dir, group_id="amb")
    experiment = {
        "registry": "data/registry.json",
        "task": "parse",
        "group_id": "amb",
        "settings": ["concat", "gold"],
        "seeds": [0, 1],
        "trainer": {"optimizer": "adam", "learning_rate": 0.02, "epochs": 2, "seed": 0},
        "encoder": {"word_dim": 8, "char_dim": 6, "char_emb_dim": 4, "source_dim": 4,
                    "hidden_dim": 6},
        "scorer_hidden": 12,
        "ngram": {"word_min": 1, "word_max": 1, "char_min": 1, "char_max": 2,
                  "feature_space_size": 4096},
        "classifier_hyper": {"epochs": 4, "seed": 0},
    }
    import json

    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(experiment))
    registry, config = load_experiment_file(config_path)

    out1 = tmp_path / "out1"
    rows = run_experiment(registry, config, out1)
    assert (out1 / "summary.tsv").exists()
    assert (out1 / "filters.tsv").exists()
    for setting in ("concat", "gold"):
        for seed in ("0", "1"):
            cell = out1 / "runs" / "amb" / setting / seed
            assert (cell / "results.tsv").exists()
            assert (cell / "predictions_dialect_a.conllu").exists()
            assert (cell / "checkpoint_model.npz").exists()
    assert (out1 / "pca" / "amb.tsv").exists()
    # seed-averaged rows present and exact
    lines = (out1 / "summary.tsv").read_text().strip().split("\n")
    avg_lines = [l for l in lines if "\tavg\t" in l]
    assert avg_lines

    registry2, config2 = load_experiment_file(config_path)
    out2 = tmp_path / "out2"
    run_experiment(registry2, config2, out2)
    for rel in ("summary.tsv", "filters.tsv", "runs/amb/gold/0/results.tsv",
                "runs/amb/gold/0/predictions_dialect_a.conllu", "pca/amb.tsv"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


@pytest.mark.parametrize("section", [None, "trainer", "encoder", "tagger", "ngram",
                                     "classifier_hyper"])
def test_experiment_config_from_dict_rejects_unknown_keys(section):
    raw = {"task": "tag_lemma", "group_id": "g", "tagger": {"decoder_hidden": 8}}
    if section is None:
        raw["bogus_key"] = 1
    else:
        raw.setdefault(section, {})["bogus_key"] = 1
    with pytest.raises(DataError, match="bogus_key"):
        ExperimentConfig.from_dict(raw)


def test_experiment_config_from_dict_rejects_missing_and_misplaced_keys():
    with pytest.raises(DataError, match="'group_id'"):
        ExperimentConfig.from_dict({"task": "parse"})
    with pytest.raises(DataError, match="'encoder' in tagger"):
        ExperimentConfig.from_dict({"task": "tag_lemma", "group_id": "g",
                                    "tagger": {"encoder": {}}})
    with pytest.raises(DataError, match="trainer must be a JSON object"):
        ExperimentConfig.from_dict({"task": "parse", "group_id": "g", "trainer": [1]})


def test_experiment_config_validation():
    with pytest.raises(DataError, match="unknown task"):
        ExperimentConfig(task="nope", group_id="g")
    with pytest.raises(DataError, match="unknown setting"):
        ExperimentConfig(task="parse", group_id="g", settings=["bogus"])
    with pytest.raises(DataError, match="held_out_source"):
        ExperimentConfig(task="parse", group_id="g", mode="zero_shot")
