"""Experiment harness: the four training settings plus the zero-shot protocol.

Settings over a dataset group:
  base    one model per source, trained on that source alone, no source info
  concat  one model on the pooled group, no source info
  gold    one pooled model conditioned on gold source ids (train and eval)
  pred    one pooled model conditioned on classifier ids: jack-knifed labels
          for training sentences, classifier predictions at evaluation

Zero-shot holds one source out entirely: concat and pred models train on
the rest, the classifier routes every held-out dev sentence to a proxy
source, and the registry accesses made during the cell prove the held-out
data was never read during training or classifier fitting.

A cell is a plan of models (`cell_plan`) that one loop (`compute_cell`)
fits, checks, predicts and scores; `config.mode` decides which cells run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .classifier import (
    ClassifierHyper,
    LinearModel,
    NGramConfig,
    featurize,
    jackknife_labels,
    macro_f1,
    predict_source,
    save_model,
)
from .conllu import Sentence, Treebank, write_conllu
from .encoder import MODE_GOLD, MODE_NONE, MODE_PRED, EncoderConfig, require_positive
from .errors import DataError
from .metrics import AggregateRow, EvalResult, aggregate, las, lemma_accuracy, morph_f1
from .nn import TrainerConfig
from .nn.checkpoint import save_network
from .parser_model import DependencyParser, ParserConfig, ParserHeader, train_parser
from .pca import PcaRow, pca_rows
from .registry import DatasetGroup, Registry, compute_filters
from .schema import from_dict, to_tsv
from .tagger import JointTagger, TaggerConfig, TaggerHeader, train_joint

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
        if any(seed < 0 for seed in self.seeds):
            raise DataError(f"seeds must be >= 0, got {self.seeds}")
        require_positive(self, ["scorer_hidden"])
        for setting in self.settings:
            if setting not in SETTINGS:
                raise DataError(f"unknown setting {setting!r}")
        # a repeated cell would count its rows twice in the seed averages
        for name, values in (("settings", self.settings), ("seeds", self.seeds)):
            if not values or len(set(values)) != len(values):
                raise DataError(f"{name} must be non-empty and distinct, got {values}")
        if self.mode == "zero_shot" and self.held_out_source is None:
            raise DataError("zero_shot requires held_out_source")
        # the tagger uses the experiment's encoder
        self.tagger = replace(self.tagger or TaggerConfig(), encoder=self.encoder)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        for section, key, reason in (
            ("tagger", "encoder", "the tagger uses the experiment's encoder"),
            ("trainer", "seed", "the trainer takes each cell's seed from seeds"),
        ):
            value = raw.get(section) if isinstance(raw, dict) else None
            if isinstance(value, dict) and key in value:
                raise DataError(f"experiment config: unknown key {key!r} in {section}: {reason}")
        return from_dict(cls, raw, "experiment config", extra={"registry"})


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


def eval_split(registry: Registry, source_id: str) -> Treebank:
    """Dev split, falling back to test when no dev exists."""
    if registry.has_split(source_id, "dev"):
        return registry.split(source_id, "dev")
    return registry.split(source_id, "test")


def _train_model(config: ExperimentConfig, treebanks, members, encoder_mode, trainer):
    if config.task == "parse":
        parser_config = ParserConfig(encoder=config.encoder, scorer_hidden=config.scorer_hidden)
        model = DependencyParser(parser_config, ParserHeader.build(treebanks, members, trainer.seed))
        train_parser(model, treebanks, encoder_mode, trainer)
    else:
        model = JointTagger(config.tagger, TaggerHeader.build(treebanks, members, trainer.seed))
        train_joint(model, treebanks, encoder_mode, trainer)
    return model


def _evaluate(task: str, gold: Treebank, predicted: Treebank) -> list[EvalResult]:
    if task == "parse":
        return [las(gold, predicted)]
    return [morph_f1(gold, predicted), lemma_accuracy(gold, predicted)]


def _route_sentences(model, sentences: list[Sentence], ngram: NGramConfig) -> list[str]:
    return [predict_source(model, featurize(s.text, ngram))[0] for s in sentences]


def _with_predicted_ids(treebanks: list[Treebank], source_ids: list[str]) -> list[Treebank]:
    """New treebanks whose sentences carry `source_ids` (in order) as their
    predicted source ids; they share their tokens with `treebanks`."""
    ids = iter(source_ids)
    return [
        replace(tb, sentences=[replace(s, predicted_source_id=next(ids)) for s in tb.sentences])
        for tb in treebanks
    ]


# -- one fit path and one predict path for every cell ----------------------------


def _fit(registry: Registry, config: ExperimentConfig, setting: str, members: list[str],
         trainer: TrainerConfig):
    """Train `setting`'s model on the train splits of `members`.

    Returns (model, classifier, jackknife_f1); the last two are None
    outside pred, whose model trains on jack-knifed predicted ids.
    """
    with registry.phase("training"):
        train_banks = [registry.split(m, "train") for m in members]
    classifier = jackknife_f1 = None
    if setting == "pred":
        with registry.phase("classifier"):
            jackknife = jackknife_labels(train_banks, config.ngram, config.classifier_hyper)
        jackknife_f1 = macro_f1(jackknife.gold, jackknife.predictions)
        train_banks = _with_predicted_ids(train_banks, jackknife.predictions)
        classifier = jackknife.model
    sources = members if setting in ("gold", "pred") else []
    model = _train_model(config, train_banks, sources, SETTING_ENCODER_MODE[setting], trainer)
    return model, classifier, jackknife_f1


def _predict_split(registry: Registry, config: ExperimentConfig, model, setting: str,
                   classifier, source_id: str):
    """Predict `source_id`'s evaluation split; with a classifier, its routes
    become the sentences' predicted ids first.

    Returns (gold treebank, predicted treebank, routes or None).
    """
    with registry.phase("evaluation"):
        gold_tb = eval_split(registry, source_id)
    eval_tb, routed = gold_tb, None
    if classifier is not None:
        routed = _route_sentences(classifier, gold_tb.sentences, config.ngram)
        (eval_tb,) = _with_predicted_ids([gold_tb], routed)
    mode = SETTING_ENCODER_MODE[setting]
    if config.task == "parse":
        return gold_tb, model.parse_treebank(eval_tb, mode), routed
    return gold_tb, model.annotate_treebank(eval_tb, mode), routed


# -- one cell: a plan of models, fit, then predicted and scored -----------------


@dataclass
class PlannedModel:
    """One model of a cell: the setting it trains as, the members whose train
    splits it fits on, its checkpoint name, and the (evaluated source,
    predictions name) pairs it predicts."""

    setting: str
    pool: list[str]
    name: str
    predicts: list[tuple[str, str]]


def cell_plan(group: DatasetGroup, config: ExperimentConfig, setting: str) -> list[PlannedModel]:
    """base fits one model per member; concat, gold and pred one model on all
    members.  zero_shot fits concat and pred on the members left after holding
    one out, and each predicts only the held-out source: base and gold need
    in-source data."""
    if (setting == "zero_shot") != (config.mode == "zero_shot"):
        raise DataError(f"setting {setting!r} does not run in {config.mode} mode")
    if setting == "zero_shot":
        held_out = config.held_out_source
        if len(group.members) < 3:
            raise DataError("zero_shot needs dataset groups with more than 2 members")
        if held_out not in group.members:
            raise DataError(f"held-out source {held_out!r} not in group {group.group_id!r}")
        remaining = [m for m in group.members if m != held_out]
        return [PlannedModel(s, remaining, s, [(held_out, s)]) for s in ("concat", "pred")]
    if setting not in SETTINGS:
        raise DataError(f"unknown setting {setting!r}")
    if setting == "base":
        return [PlannedModel(setting, [m], m, [(m, m)]) for m in group.members]
    return [PlannedModel(setting, group.members, "model", [(m, m) for m in group.members])]


def compute_cell(
    registry: Registry,
    group: DatasetGroup,
    config: ExperimentConfig,
    setting: str,
    seed: int,
) -> CellOutcome:
    """Fit every model of the cell's plan, prove that no zero-shot fit read
    the held-out source, then predict and score."""
    plan = cell_plan(group, config, setting)
    trainer = replace(config.trainer, seed=seed)  # refuses a negative seed before any fit
    log_start = len(registry.access_log)
    fits = [_fit(registry, config, entry.setting, entry.pool, trainer) for entry in plan]
    if config.mode == "zero_shot":
        leaked = registry.accessed(config.held_out_source, phases={"training", "classifier"},
                                   since=log_start)
        if leaked:
            raise DataError(f"zero-shot isolation violated: {leaked}")

    outcome = CellOutcome([], {}, {})
    for entry, (model, classifier, jackknife_f1) in zip(plan, fits):
        outcome.models[entry.name] = model
        if classifier is not None:
            outcome.models["classifier"] = classifier
            outcome.classifier_f1 = jackknife_f1
        for source, name in entry.predicts:
            gold_tb, predicted, routed = _predict_split(registry, config, model, entry.setting,
                                                        classifier, source)
            if routed is not None:
                if any(route not in entry.pool for route in routed):
                    raise DataError("classifier routed a sentence outside the training pool")
                outcome.routing[source] = routed
            outcome.predictions[name] = predicted
            outcome.rows.extend(
                ResultRow(group.group_id, source, entry.setting, config.mode, str(seed),
                          res.metric, res.value, res.correct, res.total)
                for res in _evaluate(config.task, gold_tb, predicted)
            )
    return outcome


# -- reports --------------------------------------------------------------------


def emit_reports(out_dir: str | Path, rows: list[ResultRow], filter_reports: dict) -> None:
    """summary.tsv (detail + seed averages) and filters.tsv aggregates."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(
        rows, key=lambda r: (r.group_id, r.source_id, r.setting, r.mode, r.metric, r.seed)
    )
    averages = seed_averages(ordered)
    (out_dir / "summary.tsv").write_text(to_tsv(ResultRow, ordered + averages), encoding="utf-8")
    # aggregate keeps zero-shot means apart from in-dataset ones
    (out_dir / "filters.tsv").write_text(
        to_tsv(AggregateRow, aggregate(averages, filter_reports)), encoding="utf-8"
    )


# -- full experiment ------------------------------------------------------------


def run_experiment(registry: Registry, config: ExperimentConfig, out_dir: str | Path) -> list[ResultRow]:
    """Run the configured grid; write the standard output layout."""
    group = registry.group(config.group_id)
    out_dir = Path(out_dir)
    all_rows: list[ResultRow] = []
    pca_tables: dict[str, list[PcaRow]] = {}
    classifier_f1 = None  # stays None when no cell fits a classifier: no svm buckets

    settings = ["zero_shot"] if config.mode == "zero_shot" else config.settings
    for seed in config.seeds:
        for setting in settings:
            outcome, _ = run_cell(registry, group, config, setting, seed, out_dir)
            all_rows.extend(outcome.rows)
            if outcome.classifier_f1 is not None:
                classifier_f1 = outcome.classifier_f1
            if setting in ("gold", "pred") and seed == config.seeds[0]:
                table = outcome.models["model"].encoder.source_table
                if table.dim >= 2 and len(table.members) >= 2:
                    pca_tables[setting] = pca_rows(*table.rows())

    filter_reports = compute_filters(registry, group, classifier_f1)
    emit_reports(out_dir, all_rows, filter_reports)

    if pca_tables:
        pca_dir = out_dir / "pca"
        pca_dir.mkdir(parents=True, exist_ok=True)
        for setting, rows in sorted(pca_tables.items()):
            suffix = "" if setting == "gold" else f"_{setting}"
            path = pca_dir / f"{group.group_id}{suffix}.tsv"
            path.write_text(to_tsv(PcaRow, rows), encoding="utf-8")
    return all_rows


def run_cell(
    registry: Registry,
    group: DatasetGroup,
    config: ExperimentConfig,
    setting: str,
    seed: int,
    out_dir: str | Path,
) -> tuple[CellOutcome, Path]:
    """Compute one (setting, seed) cell, or the zero-shot cell for setting
    "zero_shot", and write it to out_dir/runs/<group>/<setting>/<seed>."""
    outcome = compute_cell(registry, group, config, setting, seed)
    cell_dir = Path(out_dir) / "runs" / group.group_id / setting / str(seed)
    cell_dir.mkdir(parents=True, exist_ok=True)
    (cell_dir / "results.tsv").write_text(to_tsv(ResultRow, outcome.rows), encoding="utf-8")
    for name, predicted in sorted(outcome.predictions.items()):
        (cell_dir / f"predictions_{name}.conllu").write_text(
            write_conllu(predicted, embed_source_in_misc=True), encoding="utf-8"
        )
    for name, model in sorted(outcome.models.items()):
        path = cell_dir / f"checkpoint_{name}.npz"
        if isinstance(model, LinearModel):
            save_model(path, model)
        else:
            save_network(path, model)
    return outcome, cell_dir


def load_experiment_file(path: str | Path) -> tuple[Registry, ExperimentConfig]:
    """Read an experiment JSON (with a `registry` path relative to it)."""
    from .registry import load_registry

    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"bad experiment config {path}: {exc}") from exc
    config = ExperimentConfig.from_dict(raw)
    if not isinstance(raw.get("registry"), str):
        raise DataError("experiment config must name a registry file")
    return load_registry(path.parent / raw["registry"]), config
