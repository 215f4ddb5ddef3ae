"""The benchmark in perfbench/ drives the program through names it hooks:
layer spans, the train and predict probes, `encode_sentence(sentence, mode)`
and the `predicted_source_id` of the treebanks handed to the predictors.  A
traced run installs every hook and checks its own outputs, so a renamed hook
or a lost predicted id fails here.  The zero-shot run covers the parser and
classifier hooks; the tagger run covers `char_sequence`, `lemma_loss`,
`decode_lemma`, `train_joint`, `annotate_treebank` and `LSTM.step`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0, proc.stderr[-2000:]
    return result["metrics"]


def test_traced_zero_shot_benchmark_run_is_correct():
    metrics = traced_run("zero-shot-parse")
    # node counts repeat exactly for a seed (7.3 per training token since the
    # encoder hands the parser one state matrix, 10.8 before); a change that
    # regrows the parser's or the encoder's graph fails here
    assert metrics["nn.tensor.nodes"]["value"] <= 9


def test_traced_tag_lemma_benchmark_run_is_correct():
    metrics = traced_run("tag-lemma-gold")
    for hooked in ("encoder.char_sequence.calls", "tagger.lemma_loss.calls",
                   "tagger.decode_lemma.calls", "nn.layers.LSTM.step.calls"):
        assert metrics[hooked]["value"] > 0, hooked
    tokens = metrics["cell.train_tokens"]["value"] + metrics["cell.predict_tokens"]["value"]
    assert metrics["encoder.char_sequence.calls"]["value"] == tokens  # one char pass per token
    # one fused node per teacher-forced lemma and one tag loss per sentence
    # (13.4 per training token since the tag head reads the state matrix,
    # 18.2 before); a change that regrows the decoder's, the tag head's or
    # the encoder's graph fails here
    assert metrics["nn.tensor.nodes"]["value"] <= 15
