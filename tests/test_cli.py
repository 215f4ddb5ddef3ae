import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from multisrc.classifier import ClassifierHyper, NGramConfig, featurize, save_model, train_linear
from multisrc.cli import build_parser, main
from multisrc.conllu import Treebank, parse_conllu
from multisrc.encoder import EncoderConfig
from multisrc.nn.checkpoint import load_checkpoint, save_checkpoint, save_network
from multisrc.parser_model import DependencyParser, ParserConfig, ParserHeader
from multisrc.synth import ambiguity_corpus, mixture_corpus, write_corpus

from .helpers import sentence_from_words

TWO_TOKEN = (
    "1\tcats\tcat\tNOUN\t_\tNumber=Plur\t2\tnsubj\t_\t_\n"
    "2\tsleep\tsleep\tVERB\t_\t_\t0\troot\t_\t_\n\n"
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def experiment_json(**fields):
    # json.dumps writes a NaN float as the NaN literal, which json.loads accepts
    return json.dumps({"registry": "data/registry.json", "task": "parse", "group_id": "amb",
                       **fields}).encode()


def test_unknown_verb_is_usage_error(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == 1
    assert err.startswith("error: UsageError:")


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(["eval", "--gold", "x", "--pred", "y", "--metric", "las", "--bogus"], capsys)
    assert code == 1
    assert "UsageError" in err


def test_eval_identical_files_prints_100(tmp_path, capsys):
    path = tmp_path / "g.conllu"
    path.write_text(TWO_TOKEN)
    code, out, _ = run(["eval", "--gold", str(path), "--pred", str(path), "--metric", "las"], capsys)
    assert code == 0
    assert out.strip() == "100.0"


def test_eval_missing_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "g.conllu"
    path.write_text(TWO_TOKEN)
    code, _, err = run(["eval", "--gold", str(path), "--pred", str(tmp_path / "nope"), "--metric", "las"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_eval_reads_misc_stamped_predictions(tmp_path, capsys):
    gold = tmp_path / "g.conllu"
    gold.write_text(TWO_TOKEN)
    stamped = tmp_path / "p.conllu"
    stamped.write_text(TWO_TOKEN.replace("\t_\n", "\tdataset=en_x\n"))
    code, out, _ = run(["eval", "--gold", str(gold), "--pred", str(stamped), "--metric", "las"], capsys)
    assert code == 0
    assert out.strip() == "100.0"


def test_eval_malformed_file_is_data_error(tmp_path, capsys):
    good = tmp_path / "g.conllu"
    good.write_text(TWO_TOKEN)
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tonly\tfour\tcols\n\n")
    code, _, err = run(["eval", "--gold", str(good), "--pred", str(bad), "--metric", "las"], capsys)
    assert code == 2
    assert "ConlluParseError" in err


def test_convert_roundtrip_and_stamp(tmp_path, capsys):
    src = tmp_path / "in.conllu"
    src.write_text(TWO_TOKEN)
    out = tmp_path / "out.conllu"
    code, stdout, _ = run(
        ["convert", "--in", str(src), "--source-id", "en_x", "--out", str(out), "--stamp-misc"],
        capsys,
    )
    assert code == 0
    assert "2 words" in stdout
    stamped = parse_conllu(out.read_text(), "en_x")
    assert all("dataset" in t.misc for s in stamped.sentences for t in s.tokens)


def test_synth_same_seed_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run(["synth", "--kind", "ambiguity", "--seed", "7", "--out", str(out1)], capsys)[0] == 0
    assert run(["synth", "--kind", "ambiguity", "--seed", "7", "--out", str(out2)], capsys)[0] == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    different = tmp_path / "c3"
    run(["synth", "--kind", "ambiguity", "--seed", "8", "--out", str(different)], capsys)
    assert (out1 / "dialect_a-train.conllu").read_bytes() != (
        different / "dialect_a-train.conllu"
    ).read_bytes()


def test_group_pairing_and_filters(tmp_path, capsys):
    write_corpus(ambiguity_corpus(seed=3), tmp_path / "data", group_id="amb")
    exp = tmp_path / "exp.json"
    exp.write_bytes(experiment_json())
    out = tmp_path / "groups"
    code, stdout, _ = run(
        ["group", "--config", str(exp), "--out", str(out),
         "--pair", "dialect_a", "--classifier-f1", "0.99"],
        capsys,
    )
    assert code == 0
    assert (out / "pairing.tsv").read_text().splitlines()[1] == "dialect_a\tdialect_b"
    filters = (out / "filters.tsv").read_text().splitlines()
    assert filters[0].startswith("source_id\t")
    assert len(filters) == 3


def test_group_without_classifier_f1_writes_no_svm_verdict(tmp_path, capsys):
    write_corpus(ambiguity_corpus(seed=3), tmp_path / "data", group_id="amb")
    exp = tmp_path / "exp.json"
    exp.write_bytes(experiment_json())
    verdicts = {}
    for flag in ([], ["--classifier-f1", "0.99"]):
        out = tmp_path / f"groups{len(flag)}"
        code, _, _ = run(["group", "--config", str(exp), "--out", str(out), *flag], capsys)
        assert code == 0
        header, *rows = (out / "filters.tsv").read_text().splitlines()
        column = header.split("\t").index("svm_above_95")
        verdicts[tuple(flag)] = [row.split("\t")[column] for row in rows]
    assert verdicts == {(): ["", ""], ("--classifier-f1", "0.99"): ["1", "1"]}


def test_classify_train_predict_jackknife(tmp_path, capsys):
    data_dir = tmp_path / "data"
    write_corpus(ambiguity_corpus(seed=5), data_dir, group_id="amb")
    exp = tmp_path / "exp.json"
    exp.write_bytes(experiment_json(ngram={"feature_space_size": 4096},
                                    classifier_hyper={"epochs": 6}))
    model_path = tmp_path / "clf.npz"
    code, _, _ = run(["classify", "train", "--config", str(exp), "--out", str(model_path)], capsys)
    assert code == 0 and model_path.exists()

    preds = tmp_path / "preds.tsv"
    code, stdout, _ = run(
        ["classify", "predict", "--model", str(model_path), "--in",
         str(data_dir / "dialect_a-dev.conllu"), "--source-id", "dialect_a",
         "--out", str(preds)],
        capsys,
    )
    assert code == 0
    header = preds.read_text().splitlines()[0].split("\t")
    assert header[:3] == ["sentence_index", "gold", "predicted"]
    assert set(header[3:]) == {"dialect_a", "dialect_b"}

    jk = tmp_path / "jk.tsv"
    code, stdout, _ = run(["classify", "jackknife", "--config", str(exp), "--out", str(jk)], capsys)
    assert code == 0
    assert "k=5" in stdout


def test_classify_gridsearch(tmp_path, capsys):
    data_dir = tmp_path / "data"
    write_corpus(
        ambiguity_corpus(seed=6, n_conflict_train=4, n_shared_train=4,
                         n_conflict_dev=2, n_shared_dev=2),
        data_dir, group_id="amb",
    )
    exp = tmp_path / "exp.json"
    exp.write_bytes(experiment_json(ngram={"feature_space_size": 4096},
                                    classifier_hyper={"epochs": 3}))
    grid_out = tmp_path / "grid.tsv"
    code, stdout, _ = run(["classify", "gridsearch", "--config", str(exp), "--out", str(grid_out)],
                          capsys)
    assert code == 0
    header, row = grid_out.read_text().strip().split("\n")
    assert header.split("\t") == ["word_min", "word_max", "char_min", "char_max", "macro_f1"]
    cols = row.split("\t")
    assert cols[0] == cols[2] == "1"  # grid ranges start at 1


def test_classify_gridsearch_scores_a_source_without_dev_on_its_test_split(tmp_path, capsys):
    # the cells score such a source on its test split, and so does the grid
    # search: naming the same sentences `test` instead of `dev` changes nothing
    grids = []
    for held_split in ("dev", "test"):
        corpus = ambiguity_corpus(seed=6, n_conflict_train=4, n_shared_train=4,
                                  n_conflict_dev=2, n_shared_dev=2)
        corpus["dialect_b"][held_split] = corpus["dialect_b"].pop("dev")
        write_corpus(corpus, tmp_path / held_split / "data", group_id="amb")
        exp = tmp_path / held_split / "exp.json"
        exp.write_bytes(experiment_json(ngram={"feature_space_size": 4096},
                                        classifier_hyper={"epochs": 3}))
        grid_out = tmp_path / held_split / "grid.tsv"
        code, _, err = run(["classify", "gridsearch", "--config", str(exp), "--out", str(grid_out)],
                           capsys)
        assert (code, err) == (0, "")
        grids.append(grid_out.read_bytes())
    assert grids[0] == grids[1]


def test_experiment_and_train_verbs(tmp_path, capsys):
    data_dir = tmp_path / "data"
    write_corpus(
        ambiguity_corpus(seed=2, n_conflict_train=4, n_shared_train=4,
                         n_conflict_dev=2, n_shared_dev=2),
        data_dir, group_id="amb",
    )
    experiment = {
        "registry": "data/registry.json",
        "task": "parse",
        "group_id": "amb",
        "settings": ["concat"],
        "seeds": [0],
        "trainer": {"learning_rate": 0.02, "epochs": 1},
        "encoder": {"word_dim": 6, "char_dim": 4, "char_emb_dim": 4, "source_dim": 2,
                    "hidden_dim": 4},
        "scorer_hidden": 8,
        "ngram": {"word_min": 1, "word_max": 1, "char_min": 1, "char_max": 1,
                  "feature_space_size": 1024},
        "classifier_hyper": {"epochs": 2, "seed": 0},
    }
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(experiment))

    out = tmp_path / "exp_out"
    code, stdout, _ = run(["experiment", "--config", str(config_path), "--out", str(out)], capsys)
    assert code == 0
    assert (out / "summary.tsv").exists()

    cell_out = tmp_path / "cell_out"
    code, stdout, _ = run(
        ["train", "--config", str(config_path), "--setting", "concat", "--seed", "0",
         "--out", str(cell_out)],
        capsys,
    )
    assert code == 0
    assert (cell_out / "runs" / "amb" / "concat" / "0" / "results.tsv").exists()
    # the standalone cell is byte-identical to the experiment's cell
    assert (cell_out / "runs" / "amb" / "concat" / "0" / "results.tsv").read_bytes() == (
        out / "runs" / "amb" / "concat" / "0" / "results.tsv"
    ).read_bytes()


def test_train_unknown_group_is_one_line_data_error(tmp_path, capsys):
    write_corpus(ambiguity_corpus(seed=2, n_conflict_train=2, n_shared_train=2,
                                  n_conflict_dev=1, n_shared_dev=1),
                 tmp_path / "data", group_id="amb")
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(
        {"registry": "data/registry.json", "task": "parse", "group_id": "nope"}
    ))
    code, _, err = run(["train", "--config", str(config_path), "--setting", "concat",
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == "error: DataError: unknown group 'nope'\n"


@pytest.mark.parametrize("verb", [["classify", "train"], ["group"]])
def test_unknown_group_is_one_line_data_error(tmp_path, capsys, verb):
    write_corpus(ambiguity_corpus(seed=2, n_conflict_train=2, n_shared_train=2,
                                  n_conflict_dev=1, n_shared_dev=1),
                 tmp_path / "data", group_id="amb")
    exp = tmp_path / "exp.json"
    exp.write_bytes(experiment_json(group_id="nope"))
    code, _, err = run(verb + ["--config", str(exp), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == "error: DataError: unknown group 'nope'\n"


def test_classify_without_config_is_one_line_usage_error(tmp_path, capsys):
    for action in ("train", "gridsearch", "jackknife"):
        code, _, err = run(["classify", action, "--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert err == f"error: UsageError: classify {action}: needs --config\n"


NOT_UTF8 = b"\xff\xfe# not UTF-8\n"


def _npy_and_npz_bytes():
    npy, npz = io.BytesIO(), io.BytesIO()
    np.save(npy, np.zeros(2))
    np.savez(npz, w=np.zeros(100))
    return npy.getvalue(), npz.getvalue()


NPY_BYTES, NPZ_BYTES = _npy_and_npz_bytes()
CLASSIFY_PREDICT = ["classify", "predict", "--model", "{model}", "--in",
                    "{data}/dialect_a-dev.conllu", "--source-id", "dialect_a"]
PCA = ["pca", "--model", "{model}"]
EXPERIMENT = ["experiment", "--config", "{exp}"]


@pytest.mark.parametrize(
    "bad_file, content, argv, message",
    [
        ("exp.json", b"{", ["train", "--config", "{exp}", "--setting", "concat"],
         "bad experiment config"),
        ("exp.json", NOT_UTF8, ["train", "--config", "{exp}", "--setting", "concat"],
         "not UTF-8"),
        ("data/registry.json", NOT_UTF8, ["group", "--config", "{exp}"], "not UTF-8"),
        ("data/dialect_a-train.conllu", NOT_UTF8, ["group", "--config", "{exp}"], "not UTF-8"),
        ("data/dialect_a-dev.conllu", NOT_UTF8,
         ["eval", "--gold", "{data}/dialect_a-dev.conllu", "--pred", "{data}/dialect_b-dev.conllu",
          "--metric", "las"], "not UTF-8"),
        ("data/registry.json", b'{"sources": [{"language": "syn"}]}', ["group", "--config", "{exp}"],
         "sources[0] lacks required key 'id'"),
        ("data/registry.json", b"[]", ["group", "--config", "{exp}"], "must be a JSON object"),
        ("data/registry.json",
         b'{"sources": [{"id": "a", "language": "syn"}, {"id": "b", "language": "syn"}],'
         b' "groups": [{"id": "g", "members": "ab"}]}',
         ["group", "--config", "{exp}"], "groups[0].members must be list, got 'ab'"),
        ("model.npz", b"hello", CLASSIFY_PREDICT, "not an .npz archive"),
        ("model.npz", NPY_BYTES, CLASSIFY_PREDICT, "not an .npz archive"),
        ("model.npz", NPZ_BYTES[: len(NPZ_BYTES) // 2], CLASSIFY_PREDICT, "not an .npz archive"),
        ("model.npz", b"hello", PCA, "not an .npz archive"),
        ("exp.json", experiment_json(trainer={"beta1": 0.8}), EXPERIMENT,
         "experiment config: unknown key 'beta1' in trainer"),
        ("exp.json", experiment_json(trainer={"explore_probability": 0.0}), EXPERIMENT,
         "experiment config: unknown key 'explore_probability' in trainer"),
        ("exp.json", experiment_json(trainer={"seed": 0}), EXPERIMENT,
         "experiment config: unknown key 'seed' in trainer: "),
        ("exp.json", experiment_json(trainer={"learning_rate": float("nan")}), EXPERIMENT,
         "learning rate must be finite and > 0, got nan"),
        ("exp.json", experiment_json(trainer={"epochs": -2}), EXPERIMENT,
         "epochs must be >= 1, got -2"),
        ("exp.json", experiment_json(seeds=[0, 0]), EXPERIMENT,
         "seeds must be non-empty and distinct, got [0, 0]"),
        ("exp.json", experiment_json(settings=["concat", "concat"]), EXPERIMENT,
         "settings must be non-empty and distinct"),
        ("exp.json", experiment_json(seeds=[]), EXPERIMENT,
         "seeds must be non-empty and distinct, got []"),
        ("exp.json", experiment_json(encoder={"hidden_dim": 0}), EXPERIMENT,
         "hidden_dim must be >= 1, got 0"),
        ("exp.json", experiment_json(encoder={"word_dim": -3}), EXPERIMENT,
         "word_dim must be >= 1, got -3"),
        ("exp.json", experiment_json(encoder={"source_dim": 0}), EXPERIMENT,
         "source_dim must be >= 1, got 0"),
        ("exp.json", experiment_json(encoder={"char_dim": 5}), EXPERIMENT,
         "char_dim must be even"),
        ("exp.json", experiment_json(scorer_hidden=0), EXPERIMENT,
         "scorer_hidden must be >= 1, got 0"),
        ("exp.json", experiment_json(tagger={"attention_hidden": 0}), EXPERIMENT,
         "attention_hidden must be >= 1, got 0"),
        ("exp.json", experiment_json(seeds=[-1]), EXPERIMENT, "seeds must be >= 0, got [-1]"),
        ("exp.json", experiment_json(classifier_hyper={"seed": -2}), EXPERIMENT,
         "seed must be >= 0, got -2"),
    ],
    ids=["train-bad-json", "train-experiment", "group-registry", "group-conllu", "eval-conllu",
         "group-source-without-id", "group-registry-list", "group-members-string",
         "model-text-file", "model-npy-array", "model-truncated-zip", "pca-text-file",
         "exp-beta1", "exp-explore",
         "exp-trainer-seed", "exp-nan-lr", "exp-epochs-neg", "exp-seeds-twice",
         "exp-settings-twice", "exp-no-seeds", "exp-hidden-dim-0", "exp-word-dim-neg",
         "exp-source-dim-0", "exp-char-dim-odd", "exp-scorer-hidden-0", "exp-attention-0",
         "exp-seed-neg", "exp-classifier-seed-neg"],
)
def test_malformed_input_file_is_one_line_data_error(tmp_path, capsys, bad_file, content, argv,
                                                     message):
    write_corpus(ambiguity_corpus(seed=2, n_conflict_train=2, n_shared_train=2,
                                  n_conflict_dev=1, n_shared_dev=1),
                 tmp_path / "data", group_id="amb")
    exp = tmp_path / "exp.json"
    exp.write_bytes(experiment_json())
    (tmp_path / bad_file).write_bytes(content)
    paths = {"exp": exp, "data": tmp_path / "data", "model": tmp_path / "model.npz"}
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] != "eval":
        argv += ["--out", str(tmp_path / "out")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: DataError: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, fields", [
    (["train", "--config", "{exp}", "--setting", "concat", "--seed", "-1"], {}),
    (["classify", "train", "--config", "{exp}"], {"classifier_hyper": {"seed": -1}}),
], ids=["train", "classify-train"])
def test_negative_seed_flag_is_one_line_data_error(tmp_path, capsys, argv, fields):
    # classify takes its seed from the experiment's classifier_hyper
    write_corpus(ambiguity_corpus(seed=2, n_conflict_train=2, n_shared_train=2,
                                  n_conflict_dev=1, n_shared_dev=1),
                 tmp_path / "data", group_id="amb")
    exp = tmp_path / "exp.json"
    exp.write_bytes(experiment_json(**fields))
    argv = [arg.format(exp=exp) for arg in argv]
    code, _, err = run([*argv, "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == "error: DataError: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("fields, setting", [
    ({"mode": "zero_shot", "held_out_source": "style_mix"}, "base"),
    ({"held_out_source": "style_mix"}, "zero_shot"),
], ids=["base-in-zero-shot", "zero-shot-in-in-dataset"])
def test_train_setting_must_match_the_experiment_mode(tmp_path, capsys, fields, setting):
    # a cell's rows are labelled with the experiment's mode, so a cell of the
    # other kind would be mislabelled
    write_corpus(mixture_corpus(seed=4, n_train=6, n_dev=3, n_held_dev=4), tmp_path / "data",
                 group_id="mix")
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({
        "registry": "data/registry.json", "task": "parse", "group_id": "mix",
        "trainer": {"learning_rate": 0.02, "epochs": 1},
        "encoder": {"word_dim": 4, "char_dim": 4, "char_emb_dim": 4, "source_dim": 2,
                    "hidden_dim": 4},
        "scorer_hidden": 4, **fields,
    }))
    code, _, err = run(["train", "--config", str(exp), "--setting", setting,
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    mode = fields.get("mode", "in_dataset")
    assert err == f"error: DataError: setting {setting!r} does not run in {mode} mode\n"
    assert not (tmp_path / "out").exists()


def test_classify_predict_on_a_malformed_checkpoint_is_data_error(tmp_path, capsys):
    ngram = NGramConfig(1, 1, 1, 2, 1024)
    data = [(featurize(text, ngram), label) for text, label in (("aa", "a"), ("bb", "b"))]
    model_path = tmp_path / "clf.npz"
    save_model(model_path, train_linear(data, ngram, ClassifierHyper(epochs=2)))
    kind, meta, arrays = load_checkpoint(model_path)
    meta["hyper"] = [1.0, 2, 0.1]  # the positional layout of format version 1
    save_checkpoint(model_path, kind, meta, arrays)
    conllu = tmp_path / "in.conllu"
    conllu.write_text(TWO_TOKEN)
    code, _, err = run(["classify", "predict", "--model", str(model_path), "--in", str(conllu),
                        "--source-id", "a", "--out", str(tmp_path / "preds.tsv")], capsys)
    assert code == 2
    assert err.startswith("error: DataError: ") and err.endswith("hyper must be a JSON object\n")
    assert err.count("\n") == 1


TINY_PARSE = {
    "seeds": [0],
    "trainer": {"learning_rate": 0.02, "epochs": 1},
    "encoder": {"word_dim": 6, "char_dim": 4, "char_emb_dim": 4, "source_dim": 3,
                "hidden_dim": 4},
    "scorer_hidden": 8,
    "ngram": {"word_min": 1, "word_max": 1, "char_min": 1, "char_max": 2,
              "feature_space_size": 4096},
    "classifier_hyper": {"epochs": 4, "seed": 0},
}


@pytest.fixture(scope="module")
def experiments(tmp_path_factory):
    """An in-dataset (concat, gold, pred) and a zero-shot parser experiment,
    each run by `multisrc experiment`: {mode: (config path, output dir)}."""
    root = tmp_path_factory.mktemp("experiments")
    write_corpus(ambiguity_corpus(seed=2, n_conflict_train=4, n_shared_train=4,
                                  n_conflict_dev=2, n_shared_dev=2),
                 root / "data", group_id="amb")
    write_corpus(mixture_corpus(seed=4, n_train=6, n_dev=3, n_held_dev=4), root / "mixdata",
                 group_id="mix")
    configs = {
        "in_dataset": experiment_json(**TINY_PARSE, settings=["concat", "gold", "pred"]),
        "zero_shot": json.dumps({
            **TINY_PARSE, "registry": "mixdata/registry.json", "task": "parse", "group_id": "mix",
            "mode": "zero_shot", "held_out_source": "style_mix",
            "classifier_hyper": {"epochs": 4, "seed": 0, "learning_rate": 0.05},
        }).encode(),
    }
    runs = {}
    for mode, config in configs.items():
        (root / f"{mode}.json").write_bytes(config)
        assert main(["experiment", "--config", str(root / f"{mode}.json"),
                     "--out", str(root / mode)]) == 0
        runs[mode] = (root / f"{mode}.json", root / mode)
    return runs


@pytest.mark.parametrize("mode, cell", [("in_dataset", "amb/pred/0"), ("zero_shot", "mix/zero_shot/0")])
def test_classify_train_writes_the_cells_classifier(experiments, tmp_path, capsys, mode, cell):
    # the zero-shot classifier leaves the held-out source out and uses a
    # non-default learning rate: both come from the config
    config, out = experiments[mode]
    model_path = tmp_path / "clf.npz"
    code, _, _ = run(["classify", "train", "--config", str(config), "--out", str(model_path)],
                     capsys)
    assert code == 0
    written = out / "runs" / cell / "checkpoint_classifier.npz"
    assert model_path.read_bytes() == written.read_bytes()


def test_pca_verb(experiments, tmp_path, capsys):
    # pca on a cell's checkpoint writes the experiment's own projection
    _, out = experiments["in_dataset"]
    for setting, table in (("gold", "amb.tsv"), ("pred", "amb_pred.tsv")):
        coords = tmp_path / table
        code, stdout, _ = run(["pca", "--model", str(out / "runs" / "amb" / setting / "0" /
                                                     "checkpoint_model.npz"),
                               "--out", str(coords)], capsys)
        assert code == 0 and stdout == "pca: projected 2 sources\n"
        assert coords.read_bytes() == (out / "pca" / table).read_bytes()
        assert coords.read_text().splitlines()[0] == "source_id\tpc1\tpc2"


def one_dim_gold_checkpoint(path):
    """An untrained gold parser whose source table has one dimension."""
    data = [Treebank("s1", sentences=[sentence_from_words(["a", "b"])])]
    config = ParserConfig(encoder=EncoderConfig(word_dim=4, char_dim=4, char_emb_dim=4,
                                                source_dim=1, hidden_dim=4), scorer_hidden=4)
    save_network(path, DependencyParser(config, ParserHeader.build(data, ["s1", "s2"], 0)))


@pytest.mark.parametrize("checkpoint, message", [
    ("runs/amb/pred/0/checkpoint_classifier.npz",
     "expected a dep_parser or joint_tagger checkpoint, got 'source_classifier'"),
    ("runs/amb/concat/0/checkpoint_model.npz", "the model has no source embedding table"),
    ("one_dim.npz", "PCA needs dimension >= 2, got 1"),
], ids=["classifier", "concat", "one-dimension"])
def test_pca_without_a_projectable_source_table_is_one_line_data_error(experiments, tmp_path, capsys,
                                                                      checkpoint, message):
    _, out = experiments["in_dataset"]
    path = out / checkpoint
    if checkpoint == "one_dim.npz":
        path = tmp_path / checkpoint
        one_dim_gold_checkpoint(path)
    code, _, err = run(["pca", "--model", str(path), "--out", str(tmp_path / "coords.tsv")], capsys)
    assert code == 2
    assert err.startswith("error: DataError: ") and err.endswith(f"{message}\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "coords.tsv").exists()


def readme_cli_examples():
    """Every `multisrc …` command in the README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("multisrc ")]


def test_readme_cli_examples_parse():
    examples = readme_cli_examples()
    verbs = {argv[0] for argv in examples}
    assert {"group", "classify", "train", "experiment", "pca"} <= verbs
    for argv in examples:
        build_parser().parse_args(argv)  # a stale flag raises UsageError
