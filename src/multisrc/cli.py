"""Command-line entry point: every pipeline stage behind one binary.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Output is machine-first: TSV files under --out, terse status on stdout,
one-line errors on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classifier import (
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
from .errors import DataError, MultisrcError, UsageError
from .harness import (SETTINGS, cell_plan, eval_split, load_experiment_file, run_cell,
                      run_experiment)
from .metrics import METRIC_FUNCTIONS
from .nn.checkpoint import load_checkpoint, load_network
from .parser_model import DependencyParser
from .pca import PcaRow, pca_rows
from .registry import FilterReport, compute_filters, pair_by_overlap
from .schema import to_tsv
from .synth import ambiguity_corpus, mixture_corpus, write_corpus
from .tagger import JointTagger

NETWORKS = {cls.KIND: cls for cls in (DependencyParser, JointTagger)}


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
    group.add_argument("--config", required=True, help="experiment JSON")
    group.add_argument("--out", required=True, help="output directory")
    group.add_argument("--pair", help="source id to pair by word overlap")
    group.add_argument("--classifier-f1", type=float,
                       help="classifier macro F1; without it, svm_above_95 is left empty")

    classify = sub.add_parser("classify", help="data-source classifier")
    classify.add_argument("action", choices=["train", "predict", "gridsearch", "jackknife"])
    classify.add_argument("--config", help="experiment JSON (train, gridsearch, jackknife)")
    classify.add_argument("--model")
    classify.add_argument("--in", dest="input")
    classify.add_argument("--source-id")
    classify.add_argument("--out", required=True)

    train = sub.add_parser("train", help="train one (task x setting x seed) cell")
    train.add_argument("--config", required=True, help="experiment JSON")
    train.add_argument("--setting", required=True, choices=[*SETTINGS, "zero_shot"])
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True)

    evaluate = sub.add_parser("eval", help="score two CoNLL-U files")
    evaluate.add_argument("--gold", required=True)
    evaluate.add_argument("--pred", required=True)
    evaluate.add_argument("--metric", required=True, choices=sorted(METRIC_FUNCTIONS))

    experiment = sub.add_parser("experiment", help="run the full configured grid")
    experiment.add_argument("--config", required=True, help="experiment JSON")
    experiment.add_argument("--out", required=True)

    pca = sub.add_parser("pca", help="project a trained model's source embeddings to 2-D")
    pca.add_argument("--model", required=True, help="parser or tagger checkpoint")
    pca.add_argument("--out", required=True)

    synth = sub.add_parser("synth", help="generate the synthetic corpora")
    synth.add_argument("--kind", choices=["ambiguity", "mixture"], default="ambiguity")
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--out", required=True)
    return parser


def _classifier_pool(registry, config) -> list[str]:
    """The members whose train splits the config's pred model fits on."""
    setting = "zero_shot" if config.mode == "zero_shot" else "pred"
    (entry,) = [e for e in cell_plan(registry.group(config.group_id), config, setting)
                if e.setting == "pred"]
    return entry.pool


def _pool_texts(pool, treebanks):
    return [(sent.text, member) for member, tb in zip(pool, treebanks) for sent in tb.sentences]


def cmd_convert(args) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    treebank = parse_conllu(text, args.source_id)
    Path(args.out).write_text(
        write_conllu(treebank, embed_source_in_misc=args.stamp_misc), encoding="utf-8"
    )
    print(f"convert: {len(treebank)} sentences, {treebank.word_count} words")
    return 0


def cmd_group(args) -> int:
    registry, config = load_experiment_file(args.config)
    group = registry.group(config.group_id)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.pair:
        pair = pair_by_overlap(registry, args.pair)
        (out_dir / "pairing.tsv").write_text(
            "target\tpartner\n" + f"{pair.members[0]}\t{pair.members[1]}\n", encoding="utf-8"
        )
        print(f"group: paired {pair.members[0]} with {pair.members[1]}")
    reports = compute_filters(registry, group, args.classifier_f1)
    (out_dir / "filters.tsv").write_text(
        to_tsv(FilterReport, [reports[sid] for sid in sorted(reports)]), encoding="utf-8"
    )
    print(f"group: filters for {len(reports)} sources")
    return 0


def cmd_classify(args) -> int:
    out = Path(args.out)
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

    if not args.config:
        raise UsageError(f"classify {args.action}: needs --config")
    registry, config = load_experiment_file(args.config)
    pool = _classifier_pool(registry, config)
    train_banks = [registry.split(m, "train") for m in pool]
    ngram, hyper = config.ngram, config.classifier_hyper

    if args.action == "train":
        data = [(featurize(text, ngram), label) for text, label in _pool_texts(pool, train_banks)]
        model = train_linear(data, ngram, hyper)
        save_model(out, model)
        print(f"classify train: {len(model.class_ids)} classes, {len(data)} sentences")
        return 0

    if args.action == "gridsearch":
        train = _pool_texts(pool, train_banks)
        # each member is scored on the split its cells score: dev, else test
        dev = _pool_texts(pool, [eval_split(registry, m) for m in pool])
        best, f1 = grid_search(train, dev, default_grid(ngram.feature_space_size), hyper)
        out.write_text(
            "word_min\tword_max\tchar_min\tchar_max\tmacro_f1\n"
            f"{best.word_min}\t{best.word_max}\t{best.char_min}\t{best.char_max}\t"
            f"{format(f1, '.12g')}\n",
            encoding="utf-8",
        )
        print(f"classify gridsearch: words 1-{best.word_max} chars 1-{best.char_max} f1 {f1:.4f}")
        return 0

    # jackknife
    result = jackknife_labels(train_banks, ngram, hyper)
    lines = ["sentence_index\tgold\tpredicted\tfold"]
    for index, (g, p, f) in enumerate(zip(result.gold, result.predictions, result.fold_of_sentence)):
        lines.append(f"{index}\t{g}\t{p}\t{f}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    f1 = macro_f1(result.gold, result.predictions)
    print(f"classify jackknife: k={result.k} macro_f1={f1:.4f}")
    return 0


def cmd_train(args) -> int:
    registry, config = load_experiment_file(args.config)
    group = registry.group(config.group_id)
    outcome, cell_dir = run_cell(registry, group, config, args.setting, args.seed, args.out)
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
    kind = load_checkpoint(args.model)[0]
    if kind not in NETWORKS:
        raise DataError(f"{args.model}: expected a {' or '.join(NETWORKS)} checkpoint, got {kind!r}")
    table = load_network(args.model, NETWORKS[kind]).encoder.source_table
    if table is None:
        raise DataError(f"{args.model}: the model has no source embedding table")
    rows = pca_rows(*table.rows())
    Path(args.out).write_text(to_tsv(PcaRow, rows), encoding="utf-8")
    print(f"pca: projected {len(rows)} sources")
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
    except UnicodeDecodeError as exc:
        print(f"error: DataError: input file is not UTF-8: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
