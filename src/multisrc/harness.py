"""Experiment harness: the four training settings plus the zero-shot protocol.

Settings over a dataset group:
  base    one model per source, trained on that source alone, no source info
  concat  one model on the pooled group, no source info
  gold    one pooled model conditioned on gold source ids (train and eval)
  pred    one pooled model conditioned on classifier ids: jack-knifed labels
          for training sentences, classifier predictions at evaluation

Zero-shot holds one source out entirely: concat and pred models train on
the rest, the classifier routes every held-out dev sentence to a proxy
source, and the registry access log proves the held-out data was never
read during training or classifier fitting.
"""

from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .classifier import (
    ClassifierHyper,
    NGramConfig,
    featurize,
    jackknife_labels,
    macro_f1,
    predict_source,
    save_model,
)
from .conllu import Sentence, Treebank, write_conllu
from .encoder import MODE_GOLD, MODE_NONE, MODE_PRED, EncoderConfig
from .errors import DataError
from .metrics import EvalResult, aggregate, las, lemma_accuracy, morph_f1
from .nn import TrainerConfig
from .parser_model import DependencyParser, ParserConfig, label_inventory, save_parser, train_parser
from .pca import pca_project, pca_tsv
from .registry import DatasetGroup, Registry, compute_filters
from .tagger import (
    JointTagger,
    TaggerConfig,
    bundle_inventory,
    lemma_char_inventory,
    save_tagger,
    train_joint,
)
from .encoder import Vocabulary
from .trees import DependencyTree

SETTINGS = ("base", "concat", "gold", "pred")
TASKS = ("parse", "tag_lemma")
MODES = ("in_dataset", "zero_shot")

SETTING_ENCODER_MODE = {
    "base": MODE_NONE,
    "concat": MODE_NONE,
    "gold": MODE_GOLD,
    "pred": MODE_PRED,
}


@dataclass
class ExperimentConfig:
    task: str
    group_id: str
    settings: list[str] = field(default_factory=lambda: list(SETTINGS))
    mode: str = "in_dataset"
    held_out_source: str | None = None
    seeds: list[int] | None = None  # default: 3 seeds for parsing, 1 for tagging
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    scorer_hidden: int = 64
    tagger: TaggerConfig | None = None
    ngram: NGramConfig = field(default_factory=NGramConfig)
    classifier_hyper: ClassifierHyper = field(default_factory=ClassifierHyper)

    def __post_init__(self):
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}")
        if self.mode not in MODES:
            raise DataError(f"unknown experiment mode {self.mode!r}")
        if self.seeds is None:
            self.seeds = [0, 1, 2] if self.task == "parse" else [0]
        for setting in self.settings:
            if setting not in SETTINGS:
                raise DataError(f"unknown setting {setting!r}")
        if self.mode == "zero_shot" and self.held_out_source is None:
            raise DataError("zero_shot requires held_out_source")
        if self.tagger is None:
            self.tagger = TaggerConfig(encoder=self.encoder)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        kwargs = _checked_keys(cls, raw, "experiment config", extra={"registry"})
        kwargs.pop("registry", None)
        for name, section in (("trainer", TrainerConfig), ("encoder", EncoderConfig),
                              ("ngram", NGramConfig), ("classifier_hyper", ClassifierHyper)):
            if name in kwargs:
                kwargs[name] = section(**_checked_keys(section, kwargs[name], name))
        if "tagger" in kwargs:
            # the tagger shares the experiment's encoder
            tagger_raw = _checked_keys(TaggerConfig, kwargs["tagger"], "tagger", drop={"encoder"})
            tagger_raw["encoder"] = kwargs.get("encoder", EncoderConfig())
            kwargs["tagger"] = TaggerConfig(**tagger_raw)
        return cls(**kwargs)


def _checked_keys(cls, raw, where: str, extra=frozenset(), drop=frozenset()) -> dict:
    """A copy of `raw` after checking its keys against dataclass `cls`."""
    if not isinstance(raw, dict):
        raise DataError(f"{where} must be a JSON object")
    known = {f.name for f in fields(cls)} - set(drop) | set(extra)
    for key in raw:
        if key not in known:
            raise DataError(f"unknown key {key!r} in {where}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
            raise DataError(f"{where} lacks required key {f.name!r}")
    return dict(raw)


@dataclass
class ResultRow:
    group_id: str
    source_id: str
    setting: str
    mode: str
    seed: str  # seed number or "avg"
    metric: str
    value: float
    correct: int
    total: int

    def tsv(self) -> str:
        return "\t".join(
            [
                self.group_id,
                self.source_id,
                self.setting,
                self.mode,
                str(self.seed),
                self.metric,
                format(self.value, ".12g"),
                str(self.correct),
                str(self.total),
            ]
        )


TSV_HEADER = "group_id\tsource_id\tsetting\tmode\tseed\tmetric\tvalue\tcorrect\ttotal"


@dataclass
class CellOutcome:
    """One (setting, seed) run: result rows plus the predicted treebanks."""

    rows: list[ResultRow]
    predictions: dict[str, Treebank]
    models: dict[str, object]
    routing: dict[str, list[str]] = field(default_factory=dict)
    classifier_f1: float | None = None  # jackknife macro F1 on train (pred and zero-shot)


def seed_averages(rows: list[ResultRow]) -> list[ResultRow]:
    """Arithmetic mean over seeds per (group, source, setting, mode, metric)."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        if row.seed == "avg":
            continue
        key = (row.group_id, row.source_id, row.setting, row.mode, row.metric)
        groups.setdefault(key, []).append(row)
    averaged = []
    for key in sorted(groups):
        members = groups[key]
        value = sum(r.value for r in members) / len(members)
        averaged.append(
            ResultRow(*key[:4], "avg", key[4], value,
                      sum(r.correct for r in members), sum(r.total for r in members))
        )
    return averaged


# -- data assembly -------------------------------------------------------------


def copy_treebank(tb: Treebank) -> Treebank:
    return deepcopy(tb)


def eval_split(registry: Registry, source_id: str) -> Treebank:
    """Dev split, falling back to test when no dev exists."""
    if registry.has_split(source_id, "dev"):
        return registry.split(source_id, "dev")
    return registry.split(source_id, "test")


def _parse_data(treebanks: list[Treebank]):
    data = []
    for tb in treebanks:
        for sent in tb.sentences:
            data.append((sent, DependencyTree.from_sentence(sent)))
    return data


def _build_parser(config: ExperimentConfig, treebanks, members, seed) -> DependencyParser:
    vocab = Vocabulary.build(treebanks)
    labels = label_inventory(_parse_data(treebanks))
    encoder = replace(config.encoder)
    parser_config = ParserConfig(encoder=encoder, scorer_hidden=config.scorer_hidden)
    return DependencyParser(parser_config, vocab, labels, members=members, seed=seed)


def _build_tagger(config: ExperimentConfig, treebanks, members, seed) -> JointTagger:
    vocab = Vocabulary.build(treebanks)
    for tb in treebanks:
        for sent in tb.sentences:
            for tok in sent.tokens:
                for ch in tok.lemma:
                    vocab.chars.setdefault(ch, len(vocab.chars))
    tagger_config = replace(config.tagger, encoder=replace(config.encoder))
    return JointTagger(
        tagger_config,
        vocab,
        bundles=bundle_inventory(treebanks),
        lemma_chars=lemma_char_inventory(treebanks),
        members=members,
        seed=seed,
    )


def _train_model(config: ExperimentConfig, treebanks, members, encoder_mode, seed):
    trainer = replace(config.trainer, seed=seed)
    if config.task == "parse":
        model = _build_parser(config, treebanks, members, seed)
        train_parser(model, _parse_data(treebanks), encoder_mode, trainer)
    else:
        model = _build_tagger(config, treebanks, members, seed)
        train_joint(model, treebanks, encoder_mode, trainer)
    return model


def _predict(model, treebank: Treebank, encoder_mode: str) -> Treebank:
    if isinstance(model, DependencyParser):
        return model.parse_treebank(treebank, encoder_mode)
    return model.annotate_treebank(treebank, encoder_mode)


def _evaluate(task: str, gold: Treebank, predicted: Treebank) -> list[EvalResult]:
    if task == "parse":
        return [las(gold, predicted)]
    return [morph_f1(gold, predicted), lemma_accuracy(gold, predicted)]


def _route_sentences(model, sentences: list[Sentence], ngram: NGramConfig) -> list[str]:
    return [predict_source(model, featurize(s.text, ngram))[0] for s in sentences]


# -- in-dataset settings -----------------------------------------------------


def run_setting(
    registry: Registry,
    group: DatasetGroup,
    config: ExperimentConfig,
    setting: str,
    seed: int,
) -> CellOutcome:
    """Train and evaluate one setting for one seed over a dataset group."""
    if setting not in SETTINGS:
        raise DataError(f"unknown setting {setting!r}")
    rows: list[ResultRow] = []
    predictions: dict[str, Treebank] = {}
    models: dict[str, object] = {}
    routing: dict[str, list[str]] = {}

    if setting == "base":
        for member in group.members:
            with registry.phase("training"):
                train_tb = copy_treebank(registry.split(member, "train"))
            model = _train_model(config, [train_tb], [], MODE_NONE, seed)
            models[member] = model
            with registry.phase("evaluation"):
                gold_tb = eval_split(registry, member)
            predicted = _predict(model, gold_tb, MODE_NONE)
            predictions[member] = predicted
            rows.extend(
                _rows_for(config, group, member, setting, seed, _evaluate(config.task, gold_tb, predicted))
            )
        return CellOutcome(rows, predictions, models, routing)

    with registry.phase("training"):
        train_banks = [copy_treebank(registry.split(m, "train")) for m in group.members]

    jackknife_f1 = None
    if setting == "pred":
        with registry.phase("classifier"):
            jackknife = jackknife_labels(train_banks, config.ngram, config.classifier_hyper)
        jackknife_f1 = _apply_jackknife(train_banks, jackknife.predictions)
        models["classifier"] = jackknife.model

    encoder_mode = SETTING_ENCODER_MODE[setting]
    members = group.members if setting in ("gold", "pred") else []
    model = _train_model(config, train_banks, members, encoder_mode, seed)
    models["model"] = model

    for member in group.members:
        with registry.phase("evaluation"):
            gold_tb = eval_split(registry, member)
        eval_tb = copy_treebank(gold_tb)
        if setting == "pred":
            routed = _route_sentences(models["classifier"], eval_tb.sentences, config.ngram)
            routing[member] = routed
            for sent, source in zip(eval_tb.sentences, routed):
                sent.predicted_source_id = source
        predicted = _predict(model, eval_tb, encoder_mode)
        predictions[member] = predicted
        rows.extend(
            _rows_for(config, group, member, setting, seed, _evaluate(config.task, gold_tb, predicted))
        )
    return CellOutcome(rows, predictions, models, routing, classifier_f1=jackknife_f1)


def _apply_jackknife(train_banks: list[Treebank], predictions: list[str]) -> float:
    """Stamp the jack-knifed source ids on the training sentences; their macro F1."""
    position = 0
    for tb in train_banks:
        for sent in tb.sentences:
            sent.predicted_source_id = predictions[position]
            position += 1
    gold_labels = [tb.source_id for tb in train_banks for _ in tb.sentences]
    return macro_f1(gold_labels, predictions)


def _rows_for(config, group, member, setting, seed, results, mode=None):
    return [
        ResultRow(
            group_id=group.group_id,
            source_id=member,
            setting=setting,
            mode=mode or config.mode,
            seed=str(seed),
            metric=res.metric,
            value=res.value,
            correct=res.correct,
            total=res.total,
        )
        for res in results
    ]


# -- zero-shot ------------------------------------------------------------------


def run_zero_shot(
    registry: Registry,
    group: DatasetGroup,
    config: ExperimentConfig,
    seed: int,
) -> CellOutcome:
    """Hold one source out; route its dev sentences to proxy sources.

    Only concat and pred apply: base and gold need in-source data.
    """
    held_out = config.held_out_source
    if len(group.members) < 3:
        raise DataError("zero_shot needs dataset groups with more than 2 members")
    if held_out not in group.members:
        raise DataError(f"held-out source {held_out!r} not in group {group.group_id!r}")
    remaining = [m for m in group.members if m != held_out]

    with registry.phase("training"):
        train_banks = [copy_treebank(registry.split(m, "train")) for m in remaining]
    with registry.phase("classifier"):
        jackknife = jackknife_labels(train_banks, config.ngram, config.classifier_hyper)
    jackknife_f1 = _apply_jackknife(train_banks, jackknife.predictions)
    classifier = jackknife.model

    concat_model = _train_model(config, train_banks, [], MODE_NONE, seed)
    pred_model = _train_model(config, train_banks, remaining, MODE_PRED, seed)

    leaked = registry.accessed(held_out, phases={"training", "classifier"})
    if leaked:
        raise DataError(f"zero-shot isolation violated: {leaked}")

    with registry.phase("evaluation"):
        gold_tb = eval_split(registry, held_out)
    eval_tb = copy_treebank(gold_tb)
    routed = _route_sentences(classifier, eval_tb.sentences, config.ngram)
    if any(route not in remaining for route in routed):
        raise DataError("classifier routed a sentence outside the remaining members")
    for sent, source in zip(eval_tb.sentences, routed):
        sent.predicted_source_id = source

    rows: list[ResultRow] = []
    predictions: dict[str, Treebank] = {}
    concat_predicted = _predict(concat_model, eval_tb, MODE_NONE)
    predictions["concat"] = concat_predicted
    rows.extend(
        _rows_for(config, group, held_out, "concat", seed,
                  _evaluate(config.task, gold_tb, concat_predicted), mode="zero_shot")
    )
    pred_predicted = _predict(pred_model, eval_tb, MODE_PRED)
    predictions["pred"] = pred_predicted
    rows.extend(
        _rows_for(config, group, held_out, "pred", seed,
                  _evaluate(config.task, gold_tb, pred_predicted), mode="zero_shot")
    )
    return CellOutcome(
        rows,
        predictions,
        {"concat": concat_model, "pred": pred_model, "classifier": classifier},
        routing={held_out: routed},
        classifier_f1=jackknife_f1,
    )


# -- reports --------------------------------------------------------------------


def write_rows_tsv(path: Path, rows: list[ResultRow]):
    text = TSV_HEADER + "\n" + "".join(row.tsv() + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")


def emit_reports(out_dir: str | Path, rows: list[ResultRow], filter_reports: dict) -> None:
    """summary.tsv (detail + seed averages) and filters.tsv aggregates."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(
        rows, key=lambda r: (r.group_id, r.source_id, r.setting, r.mode, r.metric, r.seed)
    )
    write_rows_tsv(out_dir / "summary.tsv", ordered + seed_averages(ordered))

    # aggregate zero-shot rows separately from in-dataset rows: the held-out
    # sources' scores must never blend into the in-dataset averages
    per_source: dict[str, dict[str, EvalResult]] = {}
    for row in seed_averages(ordered):
        metric_result = EvalResult(row.metric, row.value, row.correct, row.total)
        key = f"{row.mode}:{row.setting}:{row.metric}"
        per_source.setdefault(row.source_id, {})[key] = metric_result
    lines = ["bucket\tmode\tsetting\tmetric\tvalue\tn_sources"]
    for agg in aggregate(per_source, filter_reports):
        mode, setting, metric = agg.setting.split(":", 2)
        lines.append(
            f"{agg.bucket}\t{mode}\t{setting}\t{metric}\t"
            f"{format(agg.value, '.12g')}\t{agg.n_sources}"
        )
    (out_dir / "filters.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- full experiment ------------------------------------------------------------


def run_experiment(registry: Registry, config: ExperimentConfig, out_dir: str | Path) -> list[ResultRow]:
    """Run the configured grid; write the standard output layout."""
    group = registry.group(config.group_id)
    out_dir = Path(out_dir)
    all_rows: list[ResultRow] = []
    pca_tables: dict[str, tuple[list[str], object]] = {}
    classifier_f1 = 0.0

    for seed in config.seeds:
        if config.mode == "zero_shot":
            outcome = run_zero_shot(registry, group, config, seed)
            cell_dir = out_dir / "runs" / group.group_id / "zero_shot" / str(seed)
            _write_cell(cell_dir, config, outcome)
            all_rows.extend(outcome.rows)
            classifier_f1 = outcome.classifier_f1
            continue
        for setting in config.settings:
            outcome = run_setting(registry, group, config, setting, seed)
            cell_dir = out_dir / "runs" / group.group_id / setting / str(seed)
            _write_cell(cell_dir, config, outcome)
            all_rows.extend(outcome.rows)
            if outcome.classifier_f1 is not None:
                classifier_f1 = outcome.classifier_f1
            if setting in ("gold", "pred") and seed == config.seeds[0]:
                model = outcome.models.get("model")
                table = getattr(getattr(model, "encoder", None), "source_table", None)
                if table is not None and table.dim >= 2 and len(table.members) >= 2:
                    pca_tables[setting] = table.rows()

    filter_reports = compute_filters(registry, group, classifier_f1)
    emit_reports(out_dir, all_rows, filter_reports)

    if pca_tables:
        pca_dir = out_dir / "pca"
        pca_dir.mkdir(parents=True, exist_ok=True)
        for setting, (members, matrix) in sorted(pca_tables.items()):
            coordinates, _, _ = pca_project(matrix)
            suffix = "" if setting == "gold" else f"_{setting}"
            (pca_dir / f"{group.group_id}{suffix}.tsv").write_text(
                pca_tsv(members, coordinates), encoding="utf-8"
            )
    return all_rows


def _write_cell(cell_dir: Path, config: ExperimentConfig, outcome: CellOutcome):
    cell_dir.mkdir(parents=True, exist_ok=True)
    write_rows_tsv(cell_dir / "results.tsv", outcome.rows)
    for name, predicted in sorted(outcome.predictions.items()):
        (cell_dir / f"predictions_{name}.conllu").write_text(
            write_conllu(predicted, embed_source_in_misc=True), encoding="utf-8"
        )
    for name, model in sorted(outcome.models.items()):
        path = cell_dir / f"checkpoint_{name}.npz"
        if isinstance(model, DependencyParser):
            save_parser(path, model)
        elif isinstance(model, JointTagger):
            save_tagger(path, model)
        else:
            save_model(path, model)


def load_experiment_file(path: str | Path) -> tuple[Registry, ExperimentConfig]:
    """Read an experiment JSON (with a `registry` path relative to it)."""
    from .registry import load_registry

    path = Path(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    if "registry" not in raw:
        raise DataError("experiment config must name a registry file")
    registry = load_registry(path.parent / raw["registry"])
    return registry, ExperimentConfig.from_dict(raw)
