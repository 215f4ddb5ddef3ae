"""Time one Adam step of a default-dims parser against the dense step.

Two identical parsers with a word table of `--rows` types take the same
gradients: every element of every dense parameter, and about 25 rows of
the word table per step, drawn from a fixed set holding `--seen` of the
rows, all of which the first step touches.  One parser steps with
`Optimizer.step`, the other with the dense reference step in
`tests/helpers.py`, which is the whole-parameter update `Optimizer.step`
replaced.  The two alternate which goes first, and each step is timed
alone; the script prints the median of `--steps` timed steps after
`--warmup` untimed ones, as one JSON line per (rows, seen) pair, and
checks that the two parsers end bit-identical.

    PYTHONPATH=src python3 scripts/adam_step_bench.py --rows 10000 50000 --seen 0.05 1.0
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from multisrc.encoder import UNK, Vocabulary  # noqa: E402
from multisrc.nn import Optimizer, TrainerConfig  # noqa: E402
from multisrc.parser_model import DependencyParser, ParserConfig, ParserHeader  # noqa: E402
from tests.helpers import dense_adam_reference  # noqa: E402

ROWS_PER_SENTENCE = 25


def parser(rows: int) -> DependencyParser:
    words = [UNK] + [f"w{i}" for i in range(1, rows)]
    vocab = Vocabulary(words, [UNK, *"w0123456789"])
    return DependencyParser(ParserConfig(), ParserHeader(["dep", "obj"], ["a", "b"], 0, vocab))


def fill_gradients(model: DependencyParser, rng: np.random.Generator, word_rows: np.ndarray):
    """The gradient a sentence leaves: dense everywhere but in the tables,
    which take it only in `word_rows` (words) or in every row (the rest)."""
    for p in model.params.all():
        rows = word_rows if p is model.encoder.word_emb.table else slice(None)
        p.grad[rows] += rng.normal(scale=1e-2, size=p.grad[rows].shape)
        if p.seen is not None:
            p.seen[rows] = True


def measure(rows: int, seen: float, steps: int, warmup: int) -> dict:
    models = [parser(rows), parser(rows)]
    optimizers = [Optimizer(m.params.all(), TrainerConfig()) for m in models]
    steppers = [Optimizer.step, dense_adam_reference]
    pool = np.random.default_rng(0).choice(rows, size=max(1, int(seen * rows)), replace=False)
    times: list[list[float]] = [[], []]
    for step in range(warmup + steps):
        word_rows = pool if step == 0 else np.unique(
            np.random.default_rng(step).choice(pool, size=min(ROWS_PER_SENTENCE, len(pool))))
        for model in models:
            fill_gradients(model, np.random.default_rng(1000 + step), word_rows)
        order = (0, 1) if step % 2 == 0 else (1, 0)
        for which in order:
            start = time.perf_counter()
            steppers[which](optimizers[which])
            if step >= warmup:
                times[which].append(time.perf_counter() - start)
    swept, dense = (statistics.median(t) * 1e3 for t in times)
    identical = all(np.array_equal(a.data, b.data)
                    for a, b in zip(models[0].params.all(), models[1].params.all()))
    return {"word_rows": rows, "seen": seen,
            "elements": sum(p.data.size for p in models[0].params.all()),
            "swept_ms": round(swept, 2), "dense_ms": round(dense, 2),
            "speedup": round(dense / swept, 2), "bit_identical": identical}


def main(argv=None) -> int:
    parser_ = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser_.add_argument("--rows", type=int, nargs="+", default=[10_000, 50_000])
    parser_.add_argument("--seen", type=float, nargs="+", default=[0.05, 1.0])
    parser_.add_argument("--steps", type=int, default=10)
    parser_.add_argument("--warmup", type=int, default=2)
    args = parser_.parse_args(argv)
    ok = True
    for rows in args.rows:
        for seen in args.seen:
            result = measure(rows, seen, args.steps, args.warmup)
            ok &= result["bit_identical"]
            print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
