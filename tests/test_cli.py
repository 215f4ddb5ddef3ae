import json

import pytest

from multisrc.cli import main
from multisrc.conllu import parse_conllu
from multisrc.synth import ambiguity_corpus, write_corpus

TWO_TOKEN = (
    "1\tcats\tcat\tNOUN\t_\tNumber=Plur\t2\tnsubj\t_\t_\n"
    "2\tsleep\tsleep\tVERB\t_\t_\t0\troot\t_\t_\n\n"
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    out = tmp_path / "groups"
    code, stdout, _ = run(
        ["group", "--config", str(tmp_path / "data" / "registry.json"), "--out", str(out),
         "--pair", "dialect_a", "--group-id", "amb", "--classifier-f1", "0.99"],
        capsys,
    )
    assert code == 0
    assert (out / "pairing.tsv").read_text().splitlines()[1] == "dialect_a\tdialect_b"
    filters = (out / "filters.tsv").read_text().splitlines()
    assert filters[0].startswith("source_id\t")
    assert len(filters) == 3


def test_classify_train_predict_jackknife(tmp_path, capsys):
    data_dir = tmp_path / "data"
    write_corpus(ambiguity_corpus(seed=5), data_dir, group_id="amb")
    registry = str(data_dir / "registry.json")
    model_path = tmp_path / "clf.npz"
    code, _, _ = run(
        ["classify", "train", "--config", registry, "--group-id", "amb",
         "--out", str(model_path), "--feature-space", "4096", "--epochs", "6"],
        capsys,
    )
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
    code, stdout, _ = run(
        ["classify", "jackknife", "--config", registry, "--group-id", "amb",
         "--out", str(jk), "--feature-space", "4096", "--epochs", "6"],
        capsys,
    )
    assert code == 0
    assert "k=5" in stdout


def test_classify_gridsearch(tmp_path, capsys):
    data_dir = tmp_path / "data"
    write_corpus(
        ambiguity_corpus(seed=6, n_conflict_train=4, n_shared_train=4,
                         n_conflict_dev=2, n_shared_dev=2),
        data_dir, group_id="amb",
    )
    grid_out = tmp_path / "grid.tsv"
    code, stdout, _ = run(
        ["classify", "gridsearch", "--config", str(data_dir / "registry.json"),
         "--group-id", "amb", "--out", str(grid_out),
         "--feature-space", "4096", "--epochs", "3"],
        capsys,
    )
    assert code == 0
    header, row = grid_out.read_text().strip().split("\n")
    assert header.split("\t") == ["word_min", "word_max", "char_min", "char_max", "macro_f1"]
    cols = row.split("\t")
    assert cols[0] == cols[2] == "1"  # grid ranges start at 1


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
        "trainer": {"optimizer": "adam", "learning_rate": 0.02, "epochs": 1, "seed": 0},
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


def test_pca_verb(tmp_path, capsys):
    table = tmp_path / "table.tsv"
    table.write_text(
        "source_id\tdim_0\tdim_1\tdim_2\n"
        "a\t1.0\t0.0\t2.0\n"
        "b\t-1.0\t1.0\t0.0\n"
        "c\t0.5\t-0.5\t1.0\n"
    )
    out = tmp_path / "coords.tsv"
    code, stdout, _ = run(["pca", "--table", str(table), "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "source_id\tpc1\tpc2"
    assert len(lines) == 4
