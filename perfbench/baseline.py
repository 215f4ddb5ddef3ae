"""The ROADMAP baseline table's measurement: train and predict tok/s on the
ambiguity corpus (3-token sentences), at the acceptance-suite and default dims.

    python3 perfbench/baseline.py

Each row is one `gold` cell through `harness.run_experiment` on
`synth.ambiguity_corpus(seed=1234)`, Adam at lr 0.01 for EPOCHS epochs,
timed with the same probes as the benchmark's untraced run; each row is
run REPEATS times and reports its fastest phases.  Prints a Markdown table.  The ROADMAP does not record the trainer settings its own
table used, so these are this script's choice (see README.md).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

EPOCHS = 3
REPEATS = 3  # cells per row; the fastest phases are reported


def main() -> int:
    from multisrc.encoder import EncoderConfig
    from multisrc.harness import ExperimentConfig, run_experiment
    from multisrc.nn import TrainerConfig
    from multisrc.registry import DataSource, DatasetGroup, Registry
    from multisrc.synth import ambiguity_corpus
    from multisrc.tagger import TaggerConfig
    from spans import CellStats, Probe

    accept = EncoderConfig(word_dim=20, char_dim=12, char_emb_dim=8, source_dim=8, hidden_dim=14)
    dims = {
        "accept": dict(encoder=accept, scorer_hidden=24,
                       tagger=TaggerConfig(encoder=accept, tag_embedding_dim=8, decoder_hidden=16,
                                           decoder_char_dim=8, attention_hidden=10)),
        "default": {},
    }
    registry = Registry()
    for source_id, splits in ambiguity_corpus(seed=1234).items():
        registry.add_source(DataSource(source_id, "syn", train=splits["train"], dev=splits["dev"]))
    registry.add_group(DatasetGroup("ambiguity", sorted(registry.sources)))

    probe = Probe()
    probe.install()
    print("| task | dims | train tok/s | predict tok/s |")
    print("| --- | --- | --- | --- |")
    for task in ("parse", "tag_lemma"):
        for name, extra in dims.items():
            config = ExperimentConfig(
                task=task, group_id="ambiguity", settings=["gold"], seeds=[0],
                trainer=TrainerConfig(learning_rate=0.01, epochs=EPOCHS), **extra)
            cells = []
            for _ in range(REPEATS):
                probe.cell = CellStats()
                (HERE / "runs").mkdir(exist_ok=True)
                with tempfile.TemporaryDirectory(dir=HERE / "runs") as out:
                    run_experiment(registry, config, out)
                cells.append(probe.cell)
            train = max(c.train_tokens / c.train_s for c in cells)
            predict = max(c.predict_tokens / c.predict_s for c in cells)
            print(f"| {task} | {name} | {train:.0f} | {predict:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
