import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from multisrc.classifier import ClassifierHyper, NGramConfig
from multisrc.conllu import write_conllu
from multisrc.encoder import EncoderConfig
from multisrc.errors import DataError
from multisrc.harness import (
    SETTING_ENCODER_MODE,
    ExperimentConfig,
    ResultRow,
    compute_cell,
    run_cell,
    run_experiment,
    seed_averages,
    load_experiment_file,
)
from multisrc.nn import TrainerConfig
from multisrc.nn.checkpoint import load_network
from multisrc.parser_model import DependencyParser
from multisrc.registry import DataSource, DatasetGroup, Registry
from multisrc.synth import ambiguity_corpus, mixture_corpus, write_corpus
from multisrc.tagger import JointTagger, TaggerConfig

from .helpers import treebank_from_sentences

TINY_ENC = EncoderConfig(word_dim=8, char_dim=6, char_emb_dim=4, source_dim=4, hidden_dim=6)
TINY_TRAINER = TrainerConfig(learning_rate=0.02, epochs=4, seed=0)
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
        outcome = compute_cell(registry, group, config, setting, seed=0)
        assert {r.source_id for r in outcome.rows} == {"src_a", "src_b"}
        assert all(r.setting == setting for r in outcome.rows)
        assert all(r.metric == "las" for r in outcome.rows)
        assert set(outcome.predictions) == {"src_a", "src_b"}
        for row in outcome.rows:
            assert 0.0 <= row.value <= 100.0


def test_pred_computes_jackknife_f1_and_routes_dev():
    registry = disjoint_registry()
    config = tiny_config()
    outcome = compute_cell(registry, registry.groups["g"], config, "pred", seed=0)
    assert outcome.classifier_f1 == 1.0  # disjoint vocab: perfect jackknife
    assert set(outcome.routing) == {"src_a", "src_b"}
    assert all(r == "src_a" for r in outcome.routing["src_a"])
    assert all(r == "src_b" for r in outcome.routing["src_b"])


def test_pred_equals_gold_bitwise_when_classifier_is_perfect():
    registry = disjoint_registry()
    config = tiny_config()
    group = registry.groups["g"]
    gold_outcome = compute_cell(registry, group, config, "gold", seed=3)
    pred_outcome = compute_cell(registry, group, config, "pred", seed=3)
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


def test_single_member_group_base_and_concat_are_identical():
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
    config = tiny_config(settings=["base", "concat"])
    group = registry.groups["g"]
    base = compute_cell(registry, group, config, "base", seed=1)
    concat = compute_cell(registry, group, config, "concat", seed=1)
    assert [r.value for r in base.rows] == [r.value for r in concat.rows]
    base_params = base.models["solo"].params.params
    concat_params = concat.models["model"].params.params
    assert set(base_params) == set(concat_params)
    for name in base_params:
        assert np.array_equal(base_params[name].data, concat_params[name].data)


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
    outcome = compute_cell(registry, registry.groups["mix"], config, "zero_shot", seed=0)
    assert registry.accessed("style_mix", phases={"training", "classifier"}) == []
    assert registry.accessed("style_a", phases={"training"})
    routed = outcome.routing["style_mix"]
    assert len(routed) == 10
    assert set(routed) <= {"style_a", "style_b"}
    settings = {r.setting for r in outcome.rows}
    assert settings == {"concat", "pred"}
    assert all(r.mode == "zero_shot" for r in outcome.rows)
    assert all(r.source_id == "style_mix" for r in outcome.rows)


@pytest.mark.parametrize("task", ["parse", "tag_lemma"])
def test_zero_shot_fits_the_pooled_settings_on_the_remaining_members(task):
    """Zero-shot's concat and pred models are the in-dataset concat and pred
    models of a group holding only the remaining members, bit for bit."""
    registry = mixture_registry()
    one_epoch = replace(TINY_TRAINER, epochs=1)
    zero_shot = tiny_config(task=task, group_id="mix", trainer=one_epoch, mode="zero_shot",
                            held_out_source="style_mix")
    outcome = compute_cell(registry, registry.groups["mix"], zero_shot, "zero_shot", seed=1)
    remaining = DatasetGroup(group_id="rest", members=["style_a", "style_b"])
    config = tiny_config(task=task, group_id="rest", trainer=one_epoch)
    for setting in ("concat", "pred"):
        pooled = compute_cell(registry, remaining, config, setting, seed=1)
        expected, actual = pooled.models["model"].params.params, outcome.models[setting].params.params
        assert expected.keys() == actual.keys()
        for name, param in expected.items():
            assert np.array_equal(param.data, actual[name].data), (setting, name)
    classifier = outcome.models["classifier"]
    assert classifier.class_ids == pooled.models["classifier"].class_ids
    assert np.array_equal(classifier.weights, pooled.models["classifier"].weights)
    assert np.array_equal(classifier.biases, pooled.models["classifier"].biases)
    assert outcome.classifier_f1 == pooled.classifier_f1


def test_zero_shot_isolation_reads_only_its_own_cell(tmp_path):
    # the in-dataset cell reads style_mix's train split; a later zero-shot
    # cell on the same registry must not count those reads as its own
    registry = mixture_registry()
    one_epoch = replace(TINY_TRAINER, epochs=1)
    run_experiment(registry, tiny_config(group_id="mix", settings=["concat"], trainer=one_epoch),
                   tmp_path / "in")
    assert registry.accessed("style_mix", phases={"training"})
    zero_shot = tiny_config(group_id="mix", trainer=one_epoch, mode="zero_shot",
                            held_out_source="style_mix")
    rows = run_experiment(registry, zero_shot, tmp_path / "zero")
    assert {(r.setting, r.source_id, r.mode) for r in rows} == {
        ("concat", "style_mix", "zero_shot"), ("pred", "style_mix", "zero_shot")}


def test_zero_shot_cell_that_reads_the_held_out_source_is_refused(monkeypatch):
    from multisrc import harness

    fit = harness._fit

    def leaky_fit(registry, config, setting, members, trainer):
        with registry.phase("training"):
            registry.split("style_mix", "train")
        return fit(registry, config, setting, members, trainer)

    monkeypatch.setattr(harness, "_fit", leaky_fit)
    registry = mixture_registry()
    config = tiny_config(group_id="mix", trainer=replace(TINY_TRAINER, epochs=1), mode="zero_shot",
                         held_out_source="style_mix")
    with pytest.raises(DataError, match=r"^zero-shot isolation violated: \[\('training', 'style_mix'"):
        compute_cell(registry, registry.groups["mix"], config, "zero_shot", seed=0)


def test_a_cell_must_match_the_experiment_mode():
    registry = mixture_registry()
    group = registry.groups["mix"]
    zero_shot = tiny_config(group_id="mix", mode="zero_shot", held_out_source="style_mix")
    with pytest.raises(DataError, match="^setting 'base' does not run in zero_shot mode$"):
        compute_cell(registry, group, zero_shot, "base", seed=0)
    in_dataset = tiny_config(group_id="mix", held_out_source="style_mix")
    with pytest.raises(DataError, match="^setting 'zero_shot' does not run in in_dataset mode$"):
        compute_cell(registry, group, in_dataset, "zero_shot", seed=0)
    assert registry.access_log == []


def registry_snapshot(registry):
    """Every split's CoNLL-U text and predicted source ids."""
    return {
        (source_id, split): (write_conllu(tb), [s.predicted_source_id for s in tb.sentences])
        for source_id, source in registry.sources.items()
        for split in ("train", "dev", "test")
        if (tb := getattr(source, split)) is not None
    }


@pytest.mark.parametrize("task", ["parse", "tag_lemma"])
def test_cells_leave_the_registry_untouched(task):
    registry = mixture_registry()
    group = registry.groups["mix"]
    one_epoch = replace(TINY_TRAINER, epochs=1)
    config = tiny_config(task=task, group_id="mix", trainer=one_epoch)
    before = registry_snapshot(registry)
    registry_objects = {
        id(obj)
        for source in registry.sources.values()
        for tb in (source.train, source.dev)
        for sent in tb.sentences
        for obj in (sent, *sent.tokens)
    }
    zero_shot = tiny_config(task=task, group_id="mix", trainer=one_epoch, mode="zero_shot",
                            held_out_source="style_mix")
    outcomes = [compute_cell(registry, group, zero_shot, "zero_shot", seed=0)]
    outcomes += [compute_cell(registry, group, config, setting, seed=0)
                 for setting in ("base", "concat", "gold", "pred")]
    assert registry_snapshot(registry) == before
    for outcome in outcomes:
        for predicted in outcome.predictions.values():
            for sent in predicted.sentences:
                assert id(sent) not in registry_objects
                assert not any(id(tok) in registry_objects for tok in sent.tokens)


@pytest.fixture(scope="module")
def written_cells(tmp_path_factory):
    """A parser gold cell and a tagger pred cell, written by run_cell."""
    cells = {}
    for task, setting in (("parse", "gold"), ("tag_lemma", "pred")):
        registry = mixture_registry()
        config = tiny_config(task=task, group_id="mix", settings=[setting],
                             trainer=replace(TINY_TRAINER, epochs=1))
        outcome, cell_dir = run_cell(registry, registry.groups["mix"], config, setting, 0,
                                     tmp_path_factory.mktemp(task))
        cells[task] = (registry, setting, outcome, cell_dir)
    return cells


@pytest.mark.parametrize("task, cls, predict", [
    ("parse", DependencyParser, DependencyParser.parse_treebank),
    ("tag_lemma", JointTagger, JointTagger.annotate_treebank),
])
def test_cell_checkpoint_reloads_to_the_cell_predictions(written_cells, task, cls, predict):
    registry, setting, outcome, cell_dir = written_cells[task]
    model = load_network(cell_dir / "checkpoint_model.npz", cls)
    for source in registry.groups["mix"].members:
        eval_tb = registry.split(source, "dev")
        if setting == "pred":
            routes = outcome.routing[source]
            eval_tb = replace(eval_tb, sentences=[replace(sent, predicted_source_id=route)
                                                  for sent, route in zip(eval_tb.sentences, routes)])
        predicted = predict(model, eval_tb, SETTING_ENCODER_MODE[setting])
        written = (cell_dir / f"predictions_{source}.conllu").read_text(encoding="utf-8")
        assert write_conllu(predicted, embed_source_in_misc=True) == written


@pytest.mark.parametrize("task, checkpoint, cls, kind", [
    ("tag_lemma", "model", DependencyParser, "joint_tagger"),
    ("parse", "model", JointTagger, "dep_parser"),
    ("tag_lemma", "classifier", DependencyParser, "source_classifier"),
    ("tag_lemma", "classifier", JointTagger, "source_classifier"),
])
def test_a_checkpoint_of_another_kind_is_refused(written_cells, task, checkpoint, cls, kind):
    path = written_cells[task][3] / f"checkpoint_{checkpoint}.npz"
    with pytest.raises(DataError, match=f"expected a {cls.KIND} checkpoint, got '{kind}'$") as excinfo:
        load_network(path, cls)
    assert "\n" not in str(excinfo.value)


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


def test_gold_only_experiment_files_no_source_under_an_svm_bucket(tmp_path):
    # no cell fits a classifier, so no source has a classifier F1 to bucket by
    registry = disjoint_registry()
    run_experiment(registry, tiny_config(settings=["gold"], trainer=replace(TINY_TRAINER, epochs=1)),
                   tmp_path)
    buckets = {line.split("\t")[0] for line in (tmp_path / "filters.tsv").read_text().splitlines()}
    assert {"all", "small", "single-lang"} <= buckets
    assert not {b for b in buckets if b.startswith("svm")}


def test_parser_fit_builds_each_training_tree_once(monkeypatch):
    from multisrc.trees import DependencyTree

    built = []
    original = DependencyTree.from_sentence.__func__

    def counting(cls, sentence):
        built.append(sentence)
        return original(cls, sentence)

    monkeypatch.setattr(DependencyTree, "from_sentence", classmethod(counting))
    registry = disjoint_registry()
    compute_cell(registry, registry.groups["g"], tiny_config(trainer=replace(TINY_TRAINER, epochs=1)),
                 "concat", seed=0)
    training = [s for m in ("src_a", "src_b") for s in registry.split(m, "train").sentences]
    assert len(built) == len(training)
    assert {id(s) for s in built} == {id(s) for s in training}


def test_zero_shot_requires_three_members():
    registry = disjoint_registry()
    config = tiny_config(mode="zero_shot", held_out_source="src_a")
    with pytest.raises(DataError, match="more than 2 members"):
        compute_cell(registry, registry.groups["g"], config, "zero_shot", seed=0)


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
    gold_model = compute_cell(registry, group, config, "gold", seed=0).models["model"]
    none_model = compute_cell(registry, group, config, "concat", seed=0).models["model"]

    sent = corpus["dialect_a"]["dev"].sentences[0]
    as_a = sent
    as_b = deepcopy_sentence(sent, "dialect_b")
    enc_a, _ = gold_model.encoder.encode_sentence(as_a, MODE_GOLD)
    enc_b, _ = gold_model.encoder.encode_sentence(as_b, MODE_GOLD)
    diff = max(float(np.abs(a.data - b.data).max()) for a, b in zip(enc_a, enc_b))
    assert diff > 0.0
    none_a, _ = none_model.encoder.encode_sentence(as_a, "none")
    none_b, _ = none_model.encoder.encode_sentence(as_b, "none")
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
        "trainer": {"learning_rate": 0.02, "epochs": 2},
        "encoder": {"word_dim": 8, "char_dim": 6, "char_emb_dim": 4, "source_dim": 4,
                    "hidden_dim": 6},
        "scorer_hidden": 12,
        "ngram": {"word_min": 1, "word_max": 1, "char_min": 1, "char_max": 2,
                  "feature_space_size": 4096},
        "classifier_hyper": {"epochs": 4, "seed": 0},
    }
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
    with pytest.raises(DataError, match="'seed' in trainer: the trainer takes each cell's seed"):
        ExperimentConfig.from_dict({"task": "parse", "group_id": "g", "trainer": {"seed": 3}})
    with pytest.raises(DataError, match="trainer must be a JSON object"):
        ExperimentConfig.from_dict({"task": "parse", "group_id": "g", "trainer": [1]})


def test_experiment_config_validation():
    with pytest.raises(DataError, match="unknown task"):
        ExperimentConfig(task="nope", group_id="g")
    with pytest.raises(DataError, match="unknown setting"):
        ExperimentConfig(task="parse", group_id="g", settings=["bogus"])
    with pytest.raises(DataError, match="held_out_source"):
        ExperimentConfig(task="parse", group_id="g", mode="zero_shot")
    # a repeated cell ran again and counted twice in summary.tsv's avg rows;
    # an empty grid ran nothing and exited 0
    for key, values in (("settings", ["concat", "concat"]), ("settings", []),
                        ("seeds", [0, 0]), ("seeds", [])):
        message = f"{key} must be non-empty and distinct, got {values}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(task="parse", group_id="g", **{key: values})


def test_readme_experiment_config_example_is_a_valid_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Experiment config", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert "registry" in example
    config = ExperimentConfig.from_dict(example)
    assert config.settings == ["base", "concat", "gold", "pred"]


def readme_output_patterns():
    """One regex per file name in the README's "Outputs" block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Outputs land under `--out`:", 1)[1].split("```\n")[1]
    names = [line.split()[0] for line in block.splitlines() if line[:1] not in ("", " ")]
    return [re.sub(r"<\w+>", "[^/]+", re.escape(name)) for name in names]


def test_every_written_file_is_named_in_the_readme_outputs_block(tmp_path):
    patterns = readme_output_patterns()
    registry = mixture_registry()
    one_epoch = replace(TINY_TRAINER, epochs=1)
    run_experiment(registry, tiny_config(group_id="mix", settings=["pred"], trainer=one_epoch),
                   tmp_path / "pred")
    run_experiment(registry, tiny_config(group_id="mix", trainer=one_epoch, mode="zero_shot",
                                         held_out_source="style_mix"), tmp_path / "zero")
    assert (tmp_path / "pred" / "pca" / "mix_pred.tsv").exists()
    for out in (tmp_path / "pred", tmp_path / "zero"):
        written = [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()]
        assert len(written) >= 8
        for name in written:
            assert any(re.fullmatch(pattern, name) for pattern in patterns), name


@pytest.mark.parametrize(
    "section, path",
    [
        ({"classifier_hyper": {"epochs": "3"}}, "classifier_hyper.epochs"),
        ({"trainer": {"epochs": "3"}}, "trainer.epochs"),
        ({"trainer": {"epochs": True}}, "trainer.epochs"),
        ({"trainer": {"learning_rate": "1"}}, "trainer.learning_rate"),
        ({"seeds": "012"}, "seeds"),
        ({"seeds": [0, "1"]}, "seeds[1]"),
        ({"scorer_hidden": 2.5}, "scorer_hidden"),
        ({"settings": "gold"}, "settings"),
        ({"encoder": {"word_dim": None}}, "encoder.word_dim"),
        ({"trainer": {"learning_rate": True}}, "trainer.learning_rate"),
    ],
)
def test_experiment_config_from_dict_rejects_wrong_value_types(section, path):
    with pytest.raises(DataError, match=rf"^experiment config: {re.escape(path)} must be ") as excinfo:
        ExperimentConfig.from_dict({"task": "parse", "group_id": "g", **section})
    assert "\n" not in str(excinfo.value)


def test_experiment_config_from_dict_tagger_shares_the_encoder():
    config = ExperimentConfig.from_dict({"task": "tag_lemma", "group_id": "g",
                                         "encoder": {"word_dim": 8},
                                         "tagger": {"decoder_hidden": 8}})
    assert config.tagger.encoder is config.encoder
    assert config.tagger == TaggerConfig(encoder=EncoderConfig(word_dim=8), decoder_hidden=8)
