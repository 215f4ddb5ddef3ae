"""The optimizer's row sweep on the real networks at acceptance dims.

`Optimizer.step` updates only the table rows marked in `Parameter.seen`,
so a gradient written into a table without the mark would be dropped
silently.  These tests check the mark after a backward of each network's
sentence losses, and that training each network with the sweep writes the
same checkpoint bytes as training it with the dense reference step."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multisrc.nn import Optimizer, TrainerConfig
from multisrc.nn import tensor as T
from multisrc.nn.checkpoint import save_network
from multisrc.parser_model import DependencyParser, ParserConfig, ParserHeader, train_parser
from multisrc.tagger import JointTagger, TaggerHeader, train_joint
from multisrc.trees import DependencyTree

from .helpers import dense_adam_reference
from .test_acceptance import ACCEPT_ENC, ACCEPT_TAGGER, ambiguity_registry

TABLES = {
    "parse": {"word_emb", "char_emb", "source_emb", "special_slots"},
    "tag_lemma": {"word_emb", "char_emb", "source_emb", "tag_emb", "dec_char_emb"},
}


def accept_network(task):
    registry = ambiguity_registry()
    members = registry.groups["ambiguity"].members
    banks = [registry.split(m, "train") for m in members]
    if task == "parse":
        header = ParserHeader.build(banks, members, 0)
        return DependencyParser(ParserConfig(encoder=ACCEPT_ENC, scorer_hidden=24), header), banks
    return JointTagger(ACCEPT_TAGGER, TaggerHeader.build(banks, members, 0)), banks


def train(task, model, banks):
    # capped epochs, so that some word rows are never seen and skipped
    trainer = TrainerConfig(learning_rate=0.01, epochs=2, seed=0,
                            max_sentences_per_epoch=40, max_words_per_epoch=110)
    (train_parser if task == "parse" else train_joint)(model, banks, "gold", trainer)


@pytest.mark.parametrize("task", sorted(TABLES))
def test_every_table_row_with_a_gradient_is_marked_seen(task):
    model, banks = accept_network(task)
    sentence = banks[0].sentences[0]
    item = (sentence, DependencyTree.from_sentence(sentence)) if task == "parse" else sentence
    losses = model.sentence_losses(item, "gold", np.random.default_rng(0), 0)
    assert losses
    T.total(losses).backward()
    tables = {p.name: p for p in model.params.all() if p.seen is not None}
    assert set(tables) == TABLES[task]
    for name, table in tables.items():
        touched = np.flatnonzero(np.any(table.grad != 0.0, axis=1))
        assert len(touched), name
        assert set(touched) <= set(np.flatnonzero(table.seen)), name


@pytest.mark.parametrize("task", sorted(TABLES))
def test_training_with_the_sweep_writes_the_dense_reference_checkpoint(task, tmp_path, monkeypatch):
    model, banks = accept_network(task)
    train(task, model, banks)
    save_network(tmp_path / "swept.npz", model)
    assert not model.encoder.word_emb.table.seen.all()
    monkeypatch.setattr(Optimizer, "step", dense_adam_reference)
    model, banks = accept_network(task)
    train(task, model, banks)
    save_network(tmp_path / "dense.npz", model)
    assert (tmp_path / "swept.npz").read_bytes() == (tmp_path / "dense.npz").read_bytes()


def test_adam_step_bench_script_runs_and_ends_bit_identical():
    # the script imports parser internals and the dense reference step, so a
    # change to either would break it without this run
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "scripts/adam_step_bench.py", "--rows", "200", "--seen", "0.5",
         "--steps", "2", "--warmup", "0"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    (line,) = proc.stdout.splitlines()
    result = json.loads(line)
    assert (result["word_rows"], result["seen"]) == (200, 0.5)
    assert result["bit_identical"] is True
