"""The benchmark in perfbench/ drives the program through names it hooks:
layer spans, the train and predict probes, `encode_sentence(sentence, mode)`
and the `predicted_source_id` of the treebanks handed to the predictors.  A
traced zero-shot run installs every hook and checks its own outputs, so a
renamed hook or a lost predicted id fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_zero_shot_benchmark_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zero-shot-parse", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0, proc.stderr[-2000:]
