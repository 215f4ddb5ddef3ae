"""Command-line entry point: every pipeline stage behind one binary.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Output is machine-first: TSV files under --out, terse status on stdout,
one-line errors on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .classifier import (
    ClassifierHyper,
    NGramConfig,
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
from .conllu import parse_conllu, write_conllu
from .errors import MultisrcError, UsageError
from .harness import load_experiment_file, run_experiment, run_setting, run_zero_shot, _write_cell
from .metrics import METRIC_FUNCTIONS
from .pca import pca_project, pca_tsv
from .registry import compute_filters, load_registry, pair_by_overlap
from .synth import ambiguity_corpus, mixture_corpus, write_corpus


class ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(prog="multisrc", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    convert = sub.add_parser("convert", help="CoNLL-U round-trip / MISC source stamping")
    convert.add_argument("--in", dest="input", required=True)
    convert.add_argument("--source-id", required=True)
    convert.add_argument("--out", required=True)
    convert.add_argument("--stamp-misc", action="store_true")

    group = sub.add_parser("group", help="overlap pairing and dataset filters")
    group.add_argument("--config", required=True, help="registry JSON")
    group.add_argument("--out", required=True, help="output directory")
    group.add_argument("--pair", help="source id to pair by word overlap")
    group.add_argument("--group-id", help="group to compute filters for")
    group.add_argument("--classifier-f1", type=float, default=0.0)

    classify = sub.add_parser("classify", help="data-source classifier")
    classify.add_argument("action", choices=["train", "predict", "gridsearch", "jackknife"])
    classify.add_argument("--config", help="registry JSON")
    classify.add_argument("--group-id")
    classify.add_argument("--model")
    classify.add_argument("--in", dest="input")
    classify.add_argument("--source-id")
    classify.add_argument("--out", required=True)
    classify.add_argument("--word-min", type=int, default=1)
    classify.add_argument("--word-max", type=int, default=2)
    classify.add_argument("--char-min", type=int, default=1)
    classify.add_argument("--char-max", type=int, default=5)
    classify.add_argument("--feature-space", type=int, default=2**20)
    classify.add_argument("--epochs", type=int, default=20)
    classify.add_argument("--seed", type=int, default=0)

    train = sub.add_parser("train", help="train one (task x setting x seed) cell")
    train.add_argument("--config", required=True, help="experiment JSON")
    train.add_argument("--setting", required=True,
                       choices=["base", "concat", "gold", "pred", "zero_shot"])
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True)

    evaluate = sub.add_parser("eval", help="score two CoNLL-U files")
    evaluate.add_argument("--gold", required=True)
    evaluate.add_argument("--pred", required=True)
    evaluate.add_argument("--metric", required=True, choices=sorted(METRIC_FUNCTIONS))

    experiment = sub.add_parser("experiment", help="run the full configured grid")
    experiment.add_argument("--config", required=True, help="experiment JSON")
    experiment.add_argument("--out", required=True)

    pca = sub.add_parser("pca", help="project an exported embedding table to 2-D")
    pca.add_argument("--table", required=True, help="TSV from a trained model")
    pca.add_argument("--out", required=True)

    synth = sub.add_parser("synth", help="generate the synthetic corpora")
    synth.add_argument("--kind", choices=["ambiguity", "mixture"], default="ambiguity")
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--out", required=True)
    return parser


def _ngram_from_args(args) -> NGramConfig:
    return NGramConfig(args.word_min, args.word_max, args.char_min, args.char_max,
                       args.feature_space)


def _group_texts(registry, group_id, split="train"):
    if group_id not in registry.groups:
        raise UsageError(f"unknown group {group_id!r}")
    group = registry.groups[group_id]
    texts = []
    for member in group.members:
        for sent in registry.split(member, split).sentences:
            texts.append((sent.text, member))
    return group, texts


def cmd_convert(args) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    treebank = parse_conllu(text, args.source_id)
    Path(args.out).write_text(
        write_conllu(treebank, embed_source_in_misc=args.stamp_misc), encoding="utf-8"
    )
    print(f"convert: {len(treebank)} sentences, {treebank.word_count} words")
    return 0


def cmd_group(args) -> int:
    registry = load_registry(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.pair:
        group = pair_by_overlap(registry, args.pair)
        (out_dir / "pairing.tsv").write_text(
            "target\tpartner\n" + f"{group.members[0]}\t{group.members[1]}\n", encoding="utf-8"
        )
        print(f"group: paired {group.members[0]} with {group.members[1]}")
    if args.group_id:
        if args.group_id not in registry.groups:
            raise UsageError(f"unknown group {args.group_id!r}")
        reports = compute_filters(registry, registry.groups[args.group_id], args.classifier_f1)
        lines = ["source_id\tword_count\tmax_overlap\tis_small\tis_multilang_group"
                 "\texists_same_lang\tsvm_above_95\thigh_word_overlap"]
        for source_id in sorted(reports):
            r = reports[source_id]
            lines.append(
                f"{r.source_id}\t{r.word_count}\t{format(r.max_overlap, '.12g')}\t"
                f"{int(r.is_small)}\t{int(r.is_multilang_group)}\t{int(r.exists_same_lang)}\t"
                f"{int(r.svm_above_95)}\t{int(r.high_word_overlap)}"
            )
        (out_dir / "filters.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"group: filters for {len(reports)} sources")
    if not args.pair and not args.group_id:
        raise UsageError("group: pass --pair and/or --group-id")
    return 0


def cmd_classify(args) -> int:
    ngram = _ngram_from_args(args)
    hyper = ClassifierHyper(epochs=args.epochs, seed=args.seed)
    out = Path(args.out)
    if args.action in ("train", "gridsearch", "jackknife") and not (args.config and args.group_id):
        raise UsageError(f"classify {args.action}: needs --config and --group-id")

    if args.action == "train":
        registry = load_registry(args.config)
        _, texts = _group_texts(registry, args.group_id)
        data = [(featurize(text, ngram), label) for text, label in texts]
        model = train_linear(data, ngram, hyper)
        save_model(out, model)
        print(f"classify train: {len(model.class_ids)} classes, {len(data)} sentences")
        return 0

    if args.action == "predict":
        if not (args.model and args.input and args.source_id):
            raise UsageError("classify predict: needs --model, --in, --source-id")
        model = load_model(args.model)
        treebank = parse_conllu(Path(args.input).read_text(encoding="utf-8"), args.source_id)
        lines = ["sentence_index\tgold\tpredicted\t" + "\t".join(model.class_ids)]
        correct = 0
        for index, sent in enumerate(treebank.sentences):
            predicted, scores = predict_source(model, featurize(sent.text, model.cfg))
            correct += predicted == args.source_id
            score_cols = "\t".join(format(scores[c], ".12g") for c in model.class_ids)
            lines.append(f"{index}\t{args.source_id}\t{predicted}\t{score_cols}")
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"classify predict: {correct}/{len(treebank)} match the declared source")
        return 0

    if args.action == "gridsearch":
        registry = load_registry(args.config)
        _, train_texts = _group_texts(registry, args.group_id, "train")
        _, dev_texts = _group_texts(registry, args.group_id, "dev")
        best, f1 = grid_search(train_texts, dev_texts, default_grid(args.feature_space), hyper)
        out.write_text(
            "word_min\tword_max\tchar_min\tchar_max\tmacro_f1\n"
            f"{best.word_min}\t{best.word_max}\t{best.char_min}\t{best.char_max}\t"
            f"{format(f1, '.12g')}\n",
            encoding="utf-8",
        )
        print(f"classify gridsearch: words 1-{best.word_max} chars 1-{best.char_max} f1 {f1:.4f}")
        return 0

    # jackknife
    registry = load_registry(args.config)
    group, _ = _group_texts(registry, args.group_id)
    banks = [registry.split(m, "train") for m in group.members]
    result = jackknife_labels(banks, ngram, hyper)
    gold = [tb.source_id for tb in banks for _ in tb.sentences]
    lines = ["sentence_index\tgold\tpredicted\tfold"]
    for index, (g, p, f) in enumerate(zip(gold, result.predictions, result.fold_of_sentence)):
        lines.append(f"{index}\t{g}\t{p}\t{f}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"classify jackknife: k={result.k} macro_f1={macro_f1(gold, result.predictions):.4f}")
    return 0


def cmd_train(args) -> int:
    registry, config = load_experiment_file(args.config)
    group = registry.group(config.group_id)
    if args.setting == "zero_shot":
        outcome = run_zero_shot(registry, group, config, args.seed)
        cell_dir = Path(args.out) / "runs" / group.group_id / "zero_shot" / str(args.seed)
    else:
        outcome = run_setting(registry, group, config, args.setting, args.seed)
        cell_dir = Path(args.out) / "runs" / group.group_id / args.setting / str(args.seed)
    _write_cell(cell_dir, config, outcome)
    print(f"train: wrote {cell_dir} ({len(outcome.rows)} result rows)")
    return 0


def cmd_eval(args) -> int:
    gold = parse_conllu(Path(args.gold).read_text(encoding="utf-8"))
    pred = parse_conllu(Path(args.pred).read_text(encoding="utf-8"))
    result = METRIC_FUNCTIONS[args.metric](gold, pred)
    print(result.value)
    return 0


def cmd_experiment(args) -> int:
    registry, config = load_experiment_file(args.config)
    rows = run_experiment(registry, config, args.out)
    print(f"experiment: {len(rows)} result rows under {args.out}")
    return 0


def cmd_pca(args) -> int:
    lines = Path(args.table).read_text(encoding="utf-8").strip().split("\n")
    if len(lines) < 2:
        raise UsageError("pca: table has no data rows")
    members, vectors = [], []
    for line in lines[1:]:
        cols = line.split("\t")
        members.append(cols[0])
        vectors.append([float(v) for v in cols[1:]])
    coordinates, _, _ = pca_project(np.asarray(vectors))
    Path(args.out).write_text(pca_tsv(members, coordinates), encoding="utf-8")
    print(f"pca: projected {len(members)} sources")
    return 0


def cmd_synth(args) -> int:
    if args.kind == "ambiguity":
        corpus = ambiguity_corpus(seed=args.seed)
        group_id = "ambiguity"
    else:
        corpus = mixture_corpus(seed=args.seed)
        group_id = "mixture"
    registry_path = write_corpus(corpus, args.out, group_id=group_id)
    print(f"synth: wrote {args.kind} corpus with registry {registry_path}")
    return 0


COMMANDS = {
    "convert": cmd_convert,
    "group": cmd_group,
    "classify": cmd_classify,
    "train": cmd_train,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
    "pca": cmd_pca,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.verb](args)
    except MultisrcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: DataError: missing file {exc.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
