"""Benchmark: whole multisrc experiment cells, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload parse-gold --seed 1 --seconds 32 --trace 0

One run generates the workload's corpus from --seed, writes it as CoNLL-U
plus a registry and loads it with `registry.load_registry` (the set-up,
repeated SETUP_MIN_REPEATS times and for at least SETUP_MIN_SECONDS). It
then runs experiment cells through `harness.run_experiment` until --seconds
have passed (at least MIN_CELLS cells), checks every output, and prints one metric per line followed by a
JSON summary as the last line.  --trace 0 reports the end-to-end metrics;
--trace 1 installs the layer spans and reports the per-layer metrics.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus as gen  # noqa: E402

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
MIN_CELLS = 2
MIN_LOOKALIKE_SHARE = 0.9
N_STEMS = 8000


@dataclass(frozen=True)
class Workload:
    name: str
    make_corpus: Callable[[int], gen.Corpus]
    make_config: Callable[[], object]


def _parse_gold_config():
    from multisrc.harness import ExperimentConfig
    from multisrc.nn import TrainerConfig

    return ExperimentConfig(
        task="parse", group_id="bench", settings=["gold"], seeds=[0],
        trainer=TrainerConfig(learning_rate=0.01, epochs=2, max_sentences_per_epoch=10),
    )


def _tag_lemma_gold_config():
    from multisrc.harness import ExperimentConfig
    from multisrc.nn import TrainerConfig

    return ExperimentConfig(
        task="tag_lemma", group_id="bench", settings=["gold"], seeds=[0],
        trainer=TrainerConfig(learning_rate=0.01, epochs=2, max_words_per_epoch=200),
    )


def _zero_shot_parse_config():
    from multisrc.encoder import EncoderConfig
    from multisrc.harness import ExperimentConfig
    from multisrc.nn import TrainerConfig

    # acceptance-suite dims; default NGramConfig and ClassifierHyper
    return ExperimentConfig(
        task="parse", group_id="bench", mode="zero_shot", held_out_source="blend", seeds=[0],
        trainer=TrainerConfig(learning_rate=0.01, epochs=2, max_sentences_per_epoch=3),
        encoder=EncoderConfig(word_dim=20, char_dim=12, char_emb_dim=8, source_dim=8, hidden_dim=14),
        scorer_hidden=24,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("parse-gold", lambda seed: gen.two_source_corpus(seed, 300, 12, N_STEMS),
                 _parse_gold_config),
        Workload("tag-lemma-gold", lambda seed: gen.two_source_corpus(seed, 300, 12, N_STEMS),
                 _tag_lemma_gold_config),
        Workload("zero-shot-parse",
                 lambda seed: gen.zero_shot_corpus(seed, 6, 2, 12, N_STEMS, n_markers=4),
                 _zero_shot_parse_config),
    )
}

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Run:
    """Outcome of one benchmark run: per-cell figures and check results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.cells: list[dict] = []
        self.setup_traces: list[dict] = []
        self.cell_traces: list[dict] = []

    def problem(self, text: str):
        """A failed check on the run's outputs: the run is not correct."""
        if len(self.problems) < 20:
            print(f"check failed: {text}", file=sys.stderr)
        self.problems.append(text)

    def fail(self, text: str):
        """One failed operation; `correct` speaks only of the others."""
        if self.failed < 20:
            print(f"operation failed: {text}", file=sys.stderr)
        self.failed += 1


# -- set-up and cells -----------------------------------------------------------


def setup(workload: Workload, seed: int, data_dir: Path):
    from multisrc.registry import load_registry

    start = time.perf_counter()
    corpus = workload.make_corpus(seed)
    registry = load_registry(gen.write_corpus(corpus, data_dir))
    return corpus, registry, time.perf_counter() - start


def run_cell(registry, config, out_dir: Path, probe, run: Run):
    from multisrc.harness import run_experiment
    from spans import CellStats

    probe.cell = CellStats()
    gc.collect()
    start = time.perf_counter()
    try:
        run_experiment(registry, config, out_dir)
    except Exception:  # a raising cell is a failed operation; keep measuring the rest
        traceback.print_exc()
        run.attempted += 1
        run.fail(f"{out_dir.name}: run_experiment raised")
        return None
    elapsed = time.perf_counter() - start
    stats = probe.cell
    ops = stats.train_sentences + stats.predict_sentences + sum(len(r) for r in stats.routed)
    run.attempted += ops
    checkpoints = sum(p.stat().st_size for p in out_dir.rglob("checkpoint_*.npz"))
    cell = {"dir": out_dir, "cell_s": elapsed, "stats": stats, "ckpt_bytes": checkpoints,
            "train_tok_s": stats.train_tokens / stats.train_s,
            "predict_tok_s": stats.predict_tokens / stats.predict_s}
    run.cells.append(cell)
    print(f"{out_dir.name}: {elapsed:.3f} s, train {stats.train_s:.3f} s, "
          f"predict {stats.predict_s:.3f} s", file=sys.stderr)
    return cell


# -- checks ---------------------------------------------------------------------


def _cell_dir(out_dir: Path) -> Path:
    (results,) = list(out_dir.rglob("results.tsv"))
    return results.parent


def check_cell(corpus: gen.Corpus, config, data_dir: Path, cell: dict, run: Run):
    """Checks on one cell's written outputs; bad sentences count as failed."""
    cell_dir = _cell_dir(cell["dir"])
    zero_shot = config.mode == "zero_shot"
    train_sources = [s for s in sorted(corpus.splits) if not (zero_shot and s == config.held_out_source)]
    bundles = {tuple(sorted(t.feats)) for s in train_sources
               for sent in corpus.splits[s]["train"] for t in sent.tokens}
    lemma_chars = {c for s in train_sources
                   for sent in corpus.splits[s]["train"] for t in sent.tokens for c in t.lemma}
    predictions = {}
    for row in checks.read_results(cell_dir / "results.tsv"):
        name = row["setting"] if zero_shot else row["source_id"]
        pred_path = cell_dir / f"predictions_{name}.conllu"
        if pred_path not in predictions:
            predictions[pred_path] = checks.read_conllu(pred_path)
        gold = checks.read_conllu(data_dir / f"{row['source_id']}-dev.conllu")
        try:
            expected = checks.METRICS[row["metric"]](gold, predictions[pred_path])
        except ValueError as exc:
            run.problem(f"{pred_path.name}: {exc}")
            continue
        problem = checks.row_problem(row, expected)
        if problem:
            run.problem(problem)
    for pred_path, sentences in predictions.items():
        for i, sent in enumerate(sentences):
            problems = []
            if config.task == "parse":
                problems.append(checks.tree_problem([t.head for t in sent]))
            else:
                for tok in sent:
                    if tuple(sorted(tok.feats)) not in bundles:
                        problems.append(f"bundle {sorted(tok.feats)} not in the training inventory")
                    problems.append(checks.lemma_problem(tok.form, tok.lemma, lemma_chars))
            problems = [p for p in problems if p]
            if problems:
                run.fail(f"{pred_path.name} sentence {i}: {problems[0]}")
    if zero_shot:
        held_out = config.held_out_source
        remaining = [s for s in sorted(corpus.splits) if s != held_out]
        (routed,) = {tuple(r) for r in cell["stats"].routed}
        for i, source in enumerate(routed):
            if source not in remaining:
                run.fail(f"blend sentence {i} routed to {source!r}")
        hits = sum(r == want for r, want in zip(routed, corpus.lookalike[held_out]))
        if hits < MIN_LOOKALIKE_SHARE * len(routed):
            run.problem(f"only {hits}/{len(routed)} blend sentences routed to their lookalike")


def check_identical(cells: list[dict], run: Run):
    """Every cell of a run must write byte-identical results and predictions."""
    first = cells[0]["dir"]
    names = sorted(p.relative_to(first) for p in first.rglob("*")
                   if p.suffix in (".tsv", ".conllu"))
    for cell in cells[1:]:
        for name in names:
            if (first / name).read_bytes() != (cell["dir"] / name).read_bytes():
                run.problem(f"{cell['dir'].name}/{name} differs from {first.name}")


def check_oracle(corpus: gen.Corpus, run: Run):
    """Zero-cost transitions rebuild every gold training tree; SWAP is taken."""
    swaps = 0
    for source in sorted(corpus.splits):
        for i, sent in enumerate(corpus.splits[source]["train"]):
            rebuilt, taken = checks.oracle_rebuilds([t.head for t in sent.tokens],
                                                    [t.deprel for t in sent.tokens])
            swaps += taken
            if not rebuilt:
                run.problem(f"{source} train sentence {i}: zero-cost path misses the gold tree")
    if swaps == 0:
        run.problem("no zero-cost path took SWAP")


def check_isolation(registry, config, run: Run):
    for phase, source, split in registry.access_log:
        if source == config.held_out_source and phase in ("training", "classifier"):
            run.problem(f"held-out {source} {split} read during {phase}")


# -- reports --------------------------------------------------------------------


def end_to_end(run: Run) -> dict[str, float]:
    """Medians over the run's set-ups and over its cells.

    The cells of a run are identical work. The host's speed changes from
    one stretch of seconds to the next, so a single cell, the fastest one
    included, says more about the host than the program; the median over
    many short cells does not.
    """
    return {
        "setup_s": statistics.median(run.setup_s),
        "cell_s": statistics.median(c["cell_s"] for c in run.cells),
        "train_tok_s": statistics.median(c["train_tok_s"] for c in run.cells),
        "predict_tok_s": statistics.median(c["predict_tok_s"] for c in run.cells),
        "ckpt_mb": statistics.median(c["ckpt_bytes"] for c in run.cells) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layer_values(trace: dict, stats) -> dict[str, float]:
    """Per-layer metrics of one phase (a set-up or a cell)."""
    values = {name: trace.get(name, 0) for name in PER_LAYER_UNITS}
    values["metrics.s"] = sum(trace.get(f"metrics.{m}.s", 0.0)
                              for m in ("las", "morph_f1", "lemma_accuracy"))
    steps = trace.get("nn.optim.step.calls", 0)
    values["nn.optim.elements"] = trace.get("optim.elements_swept", 0) / steps if steps else 0
    if stats is not None:
        values["nn.tensor.nodes"] = trace.get("train.nodes", 0) / max(stats.train_tokens, 1)
        values["parser_model.update_ratio"] = (
            stats.parser_updates / stats.parser_sentences if stats.parser_sentences else 0
        )
        values["cell.train_tokens"] = stats.train_tokens
        values["cell.predict_tokens"] = stats.predict_tokens
    return values


def per_layer(run: Run) -> dict[str, float]:
    """Median set-up phase plus median cell phase, per layer metric."""
    setups = [_layer_values(t, None) for t in run.setup_traces]
    cells = [_layer_values(t, c["stats"]) for t, c in zip(run.cell_traces, run.cells)]
    out = {}
    for name in PER_LAYER_UNITS:
        out[name] = (statistics.median(s[name] for s in setups)
                     + statistics.median(c[name] for c in cells))
    return out


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = ROOT / "src"
    if not (source / "multisrc" / "__init__.py").is_file():
        print(f"error: no multisrc sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import multisrc

    if Path(multisrc.__file__).resolve().parent != (source / "multisrc").resolve():
        print(f"error: imported multisrc from {multisrc.__file__}, not {source}", file=sys.stderr)
        return 2
    from spans import Probe, Tracer

    workload = WORKLOADS[args.workload]
    work = HERE / "runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        return measure(workload, args, work, Probe(), Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload: Workload, args, work: Path, probe, tracer) -> int:
    run = Run()
    config = workload.make_config()
    data_dir = work / "data"
    if tracer:
        tracer.install()
    probe.install()

    # a set-up of a few milliseconds is repeated until its median is steady
    while len(run.setup_s) < SETUP_MIN_REPEATS or sum(run.setup_s) < SETUP_MIN_SECONDS:
        gc.collect()
        if tracer:
            tracer.reset()
        corpus, registry, elapsed = setup(workload, args.seed, data_dir)
        run.setup_s.append(elapsed)
        if tracer:
            run.setup_traces.append(tracer.snapshot())

    # the registry and the generated corpus live for the whole run: keep full
    # collections from rescanning them in every cell, which made cell times
    # swing by seconds
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    index = 0
    while index < MIN_CELLS or time.perf_counter() - started < args.seconds:
        if tracer:
            tracer.reset()
        cell = run_cell(registry, config, work / f"cell{index}", probe, run)
        if cell is not None and tracer:
            run.cell_traces.append(tracer.snapshot())
        index += 1
    if not run.cells:
        print("error: every cell raised", file=sys.stderr)
        return 1
    figures = per_layer(run) if tracer else end_to_end(run)
    units = PER_LAYER_UNITS if tracer else END_TO_END_UNITS
    if set(figures) != set(units):
        print(f"error: measured {sorted(figures)}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 2

    for cell in run.cells:
        check_cell(corpus, config, data_dir, cell, run)
    check_identical(run.cells, run)
    if config.mode == "zero_shot":
        check_isolation(registry, config, run)
    elif config.task == "parse":
        check_oracle(corpus, run)

    if tracer:
        print(f"traced cell_s {statistics.median(c['cell_s'] for c in run.cells):.4f} s, "
              f"median of {len(run.cells)} cells", file=sys.stderr)
    for name, value in figures.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in figures.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
