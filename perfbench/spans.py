"""Wrappers the benchmark installs around program functions.

`Probe` is the untraced run's instrumentation: it wraps only the training
entry points and the treebank annotators the harness calls once per model,
plus a count-only pass-through on `SentenceEncoder.encode_sentence` that
tallies the tokens a training call consumed (about a microsecond per
sentence, against tens of milliseconds of work per sentence).

`Tracer` is the traced run's instrumentation: a span around each layer
boundary named in `SPANS`, recording self time (a span's duration minus its
child spans) and calls, plus the count-only hooks in `install`.  A span
replaces the function wherever the program looks it up: on its class for
methods, and in every loaded `multisrc` module that imported it by name.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict


def replace_everywhere(owner, name: str, make_wrapper):
    """Wrap `owner.name` and rebind every module-level alias of it."""
    original = getattr(owner, name)
    wrapper = functools.wraps(original)(make_wrapper(original))
    setattr(owner, name, wrapper)
    if isinstance(owner, type):
        return
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("multisrc") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


class CellStats:
    """What the untraced probes saw during one experiment cell."""

    def __init__(self):
        self.train_s = 0.0
        self.train_tokens = 0
        self.train_sentences = 0
        self.predict_s = 0.0
        self.predict_tokens = 0
        self.predict_sentences = 0
        self.parser_updates = 0
        self.parser_sentences = 0
        self.routed: list[list[str | None]] = []  # predicted ids fed to pred-mode models


class Probe:
    def __init__(self):
        self.cell = CellStats()
        self.training = 0

    def install(self):
        from multisrc import harness
        from multisrc.encoder import SentenceEncoder
        from multisrc.parser_model import DependencyParser
        from multisrc.tagger import JointTagger

        probe = self

        def train_wrapper(original, is_parser):
            def wrapper(model, data, mode, trainer, *args, **kwargs):
                sentences_before = probe.cell.train_sentences
                probe.training += 1
                start = time.perf_counter()
                try:
                    history = original(model, data, mode, trainer, *args, **kwargs)
                finally:
                    probe.cell.train_s += time.perf_counter() - start
                    probe.training -= 1
                if is_parser:
                    probe.cell.parser_updates += sum(history["epoch_updates"])
                    probe.cell.parser_sentences += probe.cell.train_sentences - sentences_before
                return history
            return wrapper

        def predict_wrapper(original):
            def wrapper(model, treebank, mode, *args, **kwargs):
                if mode == "pred":
                    probe.cell.routed.append([s.predicted_source_id for s in treebank.sentences])
                start = time.perf_counter()
                out = original(model, treebank, mode, *args, **kwargs)
                probe.cell.predict_s += time.perf_counter() - start
                probe.cell.predict_sentences += len(treebank.sentences)
                probe.cell.predict_tokens += sum(len(s.tokens) for s in treebank.sentences)
                return out
            return wrapper

        def encode_wrapper(original):
            def wrapper(encoder, sentence, mode):
                if probe.training:
                    probe.cell.train_sentences += 1
                    probe.cell.train_tokens += len(sentence.tokens)
                return original(encoder, sentence, mode)
            return wrapper

        harness.train_parser = train_wrapper(harness.train_parser, True)
        harness.train_joint = train_wrapper(harness.train_joint, False)
        DependencyParser.parse_treebank = predict_wrapper(DependencyParser.parse_treebank)
        JointTagger.annotate_treebank = predict_wrapper(JointTagger.annotate_treebank)
        SentenceEncoder.encode_sentence = encode_wrapper(SentenceEncoder.encode_sentence)


# (span name, module, owner class or None, attribute)
SPANS = [
    ("encoder.char_sequence", "multisrc.encoder", "SentenceEncoder", "char_sequence"),
    ("encoder.encode_sentence", "multisrc.encoder", "SentenceEncoder", "encode_sentence"),
    ("parser_model.score_transitions", "multisrc.parser_model", "DependencyParser", "score_transitions"),
    ("parser_model.train_parser", "multisrc.parser_model", None, "train_parser"),
    ("parser_model.parse_treebank", "multisrc.parser_model", "DependencyParser", "parse_treebank"),
    ("oracle.costs", "multisrc.oracle", "DynamicOracle", "costs"),
    ("transitions.apply_transition", "multisrc.transitions", None, "apply_transition"),
    ("tagger.lemma_loss", "multisrc.tagger", "JointTagger", "lemma_loss"),
    ("tagger.decode_lemma", "multisrc.tagger", "JointTagger", "decode_lemma"),
    ("tagger.train_joint", "multisrc.tagger", None, "train_joint"),
    ("tagger.annotate_treebank", "multisrc.tagger", "JointTagger", "annotate_treebank"),
    ("nn.tensor.backward", "multisrc.nn.tensor", "Tensor", "backward"),
    ("nn.optim.step", "multisrc.nn.optim", "Optimizer", "step"),
    ("classifier.featurize", "multisrc.classifier", None, "featurize"),
    ("classifier.train_linear", "multisrc.classifier", None, "train_linear"),
    ("classifier.jackknife_labels", "multisrc.classifier", None, "jackknife_labels"),
    ("classifier.predict_source", "multisrc.classifier", None, "predict_source"),
    ("nn.checkpoint.save_checkpoint", "multisrc.nn.checkpoint", None, "save_checkpoint"),
    ("conllu.parse_conllu", "multisrc.conllu", None, "parse_conllu"),
    ("conllu.write_conllu", "multisrc.conllu", None, "write_conllu"),
    ("metrics.las", "multisrc.metrics", None, "las"),
    ("metrics.morph_f1", "multisrc.metrics", None, "morph_f1"),
    ("metrics.lemma_accuracy", "multisrc.metrics", None, "lemma_accuracy"),
    ("harness.run_experiment", "multisrc.harness", None, "run_experiment"),
]
TRAINING_SPANS = {"parser_model.train_parser", "tagger.train_joint"}


class Tracer:
    """Self time and calls per span, plus counts, for the current phase."""

    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: time spent in children
        self.reset()

    def reset(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.training = 0

    def snapshot(self) -> dict[str, float]:
        out = {f"{name}.s": value for name, value in self.self_s.items()}
        out.update({f"{name}.calls": value for name, value in self.calls.items()})
        out.update(self.counts)
        return out

    def _span(self, name: str, original, after=None):
        tracer = self
        training = name in TRAINING_SPANS

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer.training += training
            frame = [0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                tracer.training -= training
                tracer.self_s[name] += elapsed - frame[0]
                if tracer.stack:
                    tracer.stack[-1][0] += elapsed
            if after:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def install(self):
        import importlib

        hooks = {
            "nn.optim.step": self._count_swept,
            "classifier.featurize": self._count_features,
            "classifier.train_linear": self._count_visits,
            "nn.checkpoint.save_checkpoint": self._count_bytes,
        }
        for name, module_name, class_name, attr in SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            replace_everywhere(owner, attr,
                               lambda original, n=name, a=hooks.get(name): self._span(n, original, a))

        from multisrc.nn.layers import LSTM
        from multisrc.nn.tensor import Tensor

        tracer = self

        def count_steps(original):
            def step(*args, **kwargs):
                tracer.counts["nn.layers.LSTM.step.calls"] += 1
                return original(*args, **kwargs)
            return step

        def count_nodes(original):
            def init(node, *args, **kwargs):
                if tracer.training:
                    tracer.counts["train.nodes"] += 1
                original(node, *args, **kwargs)
            return init

        replace_everywhere(LSTM, "step", count_steps)
        replace_everywhere(Tensor, "__init__", count_nodes)

    # -- extra counts -----------------------------------------------------------

    def _count_swept(self, _result, optimizer):
        # `Optimizer.step` updates every element of every parameter it holds
        self.counts["optim.elements_swept"] += sum(p.data.size for p in optimizer.params)

    def _count_features(self, vector, *args, **kwargs):
        self.counts["classifier.features"] += len(vector.entries)

    def _count_visits(self, _model, data, cfg, hyper):
        self.counts["classifier.example_visits"] += len(data) * hyper.epochs

    def _count_bytes(self, _result, path, *args, **kwargs):
        self.counts["nn.checkpoint.save_checkpoint.bytes"] += os.path.getsize(path)
