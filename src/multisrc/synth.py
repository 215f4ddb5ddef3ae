"""Seeded synthetic corpora for mechanism-level evaluation.

Full-scale treebank results are far outside desk scale, so the experiment
harness ships two constructed corpora instead:

* ambiguity corpus — two "dialect" sources over one shared 50-form
  vocabulary.  A designated conflict subset carries source-dependent
  morphology AND source-dependent trees on identical surface sentences,
  so without source information the best possible accuracy on the
  conflict material is 50%; with it, the conflicts are fully fittable.
  Dev sets repeat training sentences by design: the corpus probes
  conditioning capacity, not generalization.

* mixture corpus — three sources where the held-out one is a 50/50 blend
  of the other two "styles" (disjoint marker words, shared conflict
  forms), exercising zero-shot routing to a lookalike proxy source.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .conllu import Sentence, Token, Treebank, write_conllu
from .errors import DataError

CONFLICT_MISC_KEY = "conflict"

DETS = [f"det{i}" for i in range(5)]
ADJS = [f"adj{i}" for i in range(5)]
CONFLICT_NOUNS = [f"norq{i}" for i in range(8)]
PLAIN_NOUNS = [f"plain{i}" for i in range(12)]
VERBS = [f"verb{i}" for i in range(10)]
ADVS = [f"adv{i}" for i in range(10)]
VOCABULARY = DETS + ADJS + CONFLICT_NOUNS + PLAIN_NOUNS + VERBS + ADVS  # 50 forms


def _token(i, form, lemma, morph, head, deprel, conflict=False):
    misc = {CONFLICT_MISC_KEY: "yes"} if conflict else {}
    return Token(id=i, form=form, lemma=lemma, upos="X", morph=set(morph),
                 head=head, deprel=deprel, misc=misc)


def _conflict_sentence(det, noun, verb, dialect):
    """Same surface forms in both dialects; annotations disagree."""
    if dialect == "a":
        tokens = [
            _token(1, det, det, {"Def=Yes"}, 2, "det"),
            _token(2, noun, noun, {"Number=Sing"}, 3, "nsubj", conflict=True),
            _token(3, verb, verb, {"Tense=Pres"}, 0, "root"),
        ]
    else:
        tokens = [
            _token(1, det, det, {"Def=Yes"}, 3, "mark"),
            _token(2, noun, noun, {"Number=Plur"}, 1, "flat", conflict=True),
            _token(3, verb, verb, {"Tense=Pres"}, 0, "root"),
        ]
    return Sentence(tokens=tokens)


def _shared_sentence(kind, rng):
    if kind == 0:
        noun, verb = rng.choice(PLAIN_NOUNS), rng.choice(VERBS)
        tokens = [
            _token(1, noun, noun, {"Number=Sing"}, 2, "nsubj"),
            _token(2, verb, verb, {"Tense=Pres"}, 0, "root"),
        ]
    elif kind == 1:
        adj, noun, verb = rng.choice(ADJS), rng.choice(PLAIN_NOUNS), rng.choice(VERBS)
        tokens = [
            _token(1, adj, adj, {"Degree=Pos"}, 2, "amod"),
            _token(2, noun, noun, {"Number=Sing"}, 3, "nsubj"),
            _token(3, verb, verb, {"Tense=Pres"}, 0, "root"),
        ]
    else:
        noun, verb, adv = rng.choice(PLAIN_NOUNS), rng.choice(VERBS), rng.choice(ADVS)
        tokens = [
            _token(1, noun, noun, {"Number=Sing"}, 2, "nsubj"),
            _token(2, verb, verb, {"Tense=Pres"}, 0, "root"),
            _token(3, adv, adv, {"Polarity=Pos"}, 2, "advmod"),
        ]
    return Sentence(tokens=tokens)


def ambiguity_corpus(seed: int, n_conflict_train: int = 24, n_shared_train: int = 36,
                     n_conflict_dev: int = 16, n_shared_dev: int = 8):
    """Two-dialect corpus; returns {source_id: {split: Treebank}}."""
    rng = random.Random(seed)
    combos = [(d, n, v) for d in DETS for n in CONFLICT_NOUNS for v in VERBS]
    rng.shuffle(combos)
    train_combos = combos[:n_conflict_train]
    dev_combos = train_combos[:n_conflict_dev]  # held-in on purpose

    corpus = {}
    shared_train = [_shared_sentence(i % 3, rng) for i in range(n_shared_train)]
    shared_dev = shared_train[:n_shared_dev]
    for dialect, source_id in (("a", "dialect_a"), ("b", "dialect_b")):
        def build(combo_list, shared):
            return [_conflict_sentence(d, n, v, dialect) for d, n, v in combo_list] + shared

        corpus[source_id] = {
            "train": Treebank(source_id=source_id, split="train",
                              sentences=build(train_combos, shared_train)),
            "dev": Treebank(source_id=source_id, split="dev",
                            sentences=build(dev_combos, shared_dev)),
        }
    return corpus


# -- mixture corpus ------------------------------------------------------------

A_MARKERS = [f"alpha{i}" for i in range(10)]
B_MARKERS = [f"beta{i}" for i in range(10)]
MIX_FORMS = [f"mix{i}" for i in range(6)]


def _style_sentence(marker, mix, verb, style):
    bundle = {"Style=A"} if style == "a" else {"Style=B"}
    tokens = [
        _token(1, marker, marker, {"Kind=Marker"}, 3, "mark"),
        _token(2, mix, mix, bundle, 3, "nsubj", conflict=True),
        _token(3, verb, verb, {"Tense=Pres"}, 0, "root"),
    ]
    return Sentence(tokens=tokens)


def _style_batch(rng, style, markers, count):
    out = []
    for _ in range(count):
        out.append(
            _style_sentence(rng.choice(markers), rng.choice(MIX_FORMS), rng.choice(VERBS), style)
        )
    return out


def mixture_corpus(seed: int, n_train: int = 40, n_dev: int = 20, n_held_dev: int = 30):
    """Three-source corpus: style_a, style_b, and a 50/50 blend style_mix."""
    rng = random.Random(seed)
    corpus = {}
    for style, markers, source_id in (("a", A_MARKERS, "style_a"), ("b", B_MARKERS, "style_b")):
        corpus[source_id] = {
            "train": Treebank(source_id=source_id, split="train",
                              sentences=_style_batch(rng, style, markers, n_train)),
            "dev": Treebank(source_id=source_id, split="dev",
                            sentences=_style_batch(rng, style, markers, n_dev)),
        }
    half_dev = n_held_dev // 2
    mix_train = _style_batch(rng, "a", A_MARKERS, 10) + _style_batch(rng, "b", B_MARKERS, 10)
    mix_dev = _style_batch(rng, "a", A_MARKERS, half_dev) + _style_batch(
        rng, "b", B_MARKERS, n_held_dev - half_dev
    )
    corpus["style_mix"] = {
        "train": Treebank(source_id="style_mix", split="train", sentences=mix_train),
        "dev": Treebank(source_id="style_mix", split="dev", sentences=mix_dev),
    }
    return corpus


def lookalike_of(sentence: Sentence) -> str:
    """Ground-truth routing target for a mixture sentence (by marker)."""
    for tok in sentence.tokens:
        if tok.form in A_MARKERS:
            return "style_a"
        if tok.form in B_MARKERS:
            return "style_b"
    raise DataError("sentence carries no style marker")


# -- on-disk layout -----------------------------------------------------------


def write_corpus(corpus: dict, out_dir: str | Path, group_id: str) -> Path:
    """Write per-split conllu files plus a registry config; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sources = []
    for source_id in sorted(corpus):
        entry = {"id": source_id, "language": "syn"}
        for split, treebank in corpus[source_id].items():
            filename = f"{source_id}-{split}.conllu"
            (out_dir / filename).write_text(write_conllu(treebank), encoding="utf-8")
            entry[split] = filename
        sources.append(entry)
    config = {
        "sources": sources,
        "groups": [{"id": group_id, "members": sorted(corpus), "strategy": "manual"}],
    }
    path = out_dir / "registry.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def is_conflict_token(token: Token) -> bool:
    return token.misc.get(CONFLICT_MISC_KEY) == "yes"


def conflict_sentence_indices(treebank: Treebank) -> list[int]:
    return [i for i, s in enumerate(treebank.sentences) if any(is_conflict_token(t) for t in s.tokens)]
