"""Seeded corpora for the benchmark workloads, plus a minimal CoNLL-U writer.

Everything here is independent of the `multisrc` package: the program
under test only ever reads the files this module writes.

Recipe shared by every workload:

* Forms are ``stem + suffix``.  Stems are distinct consonant-vowel strings
  of STEM_SYLLABLES syllables (one length, so that how many characters a
  barely trained lemma decoder emits depends little on the seed), drawn
  Zipfian (exponent ZIPF_EXPONENT) over a fixed stem list; the
  suffix follows the token's role in the tree (tokens with dependents take
  a verbal suffix, leaves a nominal or adjectival one), so the forms carry
  evidence about the tree.  Because every stem ends in a vowel, the lemma rule "strip the
  suffix" is exact.
* Labels follow the dependent's suffix class and attachment direction.
* Sentence lengths are a fixed function of the sentence position, so the
  trainer's seeded epoch sampling (fixed permutation for a fixed number of
  sentences) picks the same number of tokens for every workload seed; only
  forms and trees change with the seed.
* Every fifth sentence has a non-projective tree (one moved arc), so SWAP
  is needed.
* Every tenth sentence (offset 1) belongs to the conflict subset: both
  sources hold the same surface sentence, annotated differently (leaves
  re-attached to their grandparent and a source-specific feature bundle in
  the second source; the re-attachment can add crossing arcs).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CONSONANTS = "bdfgklmnprtvz"
VOWELS = "aeiou"
STEM_SYLLABLES = 3

NOMINAL = ("", "s", "er")
VERBAL = ("ed", "ing")
SUFFIX_CLASS = {"": "nom", "s": "nom", "er": "adj", "ed": "verb", "ing": "verb"}
BUNDLES = {
    "": ("Number=Sing",),
    "s": ("Number=Plur",),
    "er": ("Degree=Cmp",),
    "ed": ("Tense=Past", "VerbForm=Fin"),
    "ing": ("VerbForm=Ger",),
}
# conflict subset, second source: same forms, different features
CONFLICT_BUNDLES = {
    "": ("Definite=Def", "Number=Sing"),
    "s": ("Case=Gen", "Number=Plur"),
    "er": ("Degree=Sup",),
    "ed": ("Tense=Pres", "VerbForm=Fin"),
    "ing": ("VerbForm=Part",),
}
NONPROJECTIVE_EVERY = 5
CONFLICT_EVERY = 10
MARKER_EVERY = 2
# flatter than 1, so that a pool of ~20k tokens holds ~10k form types
ZIPF_EXPONENT = 0.6


@dataclass
class Token:
    form: str
    lemma: str
    feats: tuple[str, ...]
    head: int
    deprel: str


@dataclass
class Sentence:
    tokens: list[Token]


def lemma_of(form: str) -> str:
    """The generator's lemma rule: strip the inflectional suffix."""
    for suffix in ("ing", "ed", "er", "s"):
        if form.endswith(suffix):
            return form[: -len(suffix)]
    return form


def length_at(position: int, lo: int, hi: int) -> int:
    """Sentence length by position: a fixed walk over lo..hi."""
    span = hi - lo + 1
    return lo + (position * 7) % span


def make_stems(rng: random.Random, count: int) -> list[str]:
    stems: list[str] = []
    seen: set[str] = set()
    while len(stems) < count:
        stem = "".join(
            rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(STEM_SYLLABLES)
        )
        if stem not in seen:
            seen.add(stem)
            stems.append(stem)
    return stems


class ZipfSampler:
    """Draws items with probability proportional to rank ** -ZIPF_EXPONENT."""

    def __init__(self, items: list[str]):
        self.items = items
        self.cumulative: list[float] = []
        total = 0.0
        for rank in range(1, len(items) + 1):
            total += rank ** -ZIPF_EXPONENT
            self.cumulative.append(total)

    def draw(self, rng: random.Random) -> str:
        return rng.choices(self.items, cum_weights=self.cumulative)[0]


# -- trees ---------------------------------------------------------------------


def is_projective(heads: list[int]) -> bool:
    n = len(heads)
    for dep in range(1, n + 1):
        head = heads[dep - 1]
        lo, hi = min(head, dep), max(head, dep)
        for between in range(lo + 1, hi):
            node = between
            while node != 0 and node != head:
                node = heads[node - 1]
            if node != head:
                return False
    return True


def projective_heads(n: int, rng: random.Random) -> list[int]:
    heads = [0] * n

    def build(lo: int, hi: int, parent: int):
        head = rng.randint(lo, hi)
        heads[head - 1] = parent
        for side_lo, side_hi in ((lo, head - 1), (head + 1, hi)):
            start = side_lo
            while start <= side_hi:
                end = rng.randint(start, side_hi)
                build(start, end, head)
                start = end + 1

    build(1, n, 0)
    return heads


def nonprojective_heads(n: int, rng: random.Random) -> list[int]:
    """A projective tree with one dependent moved to a new head, until the
    moved arc crosses another: one or a few crossings, as in natural treebanks."""
    while True:
        heads = projective_heads(n, rng)
        dep, new_head = rng.randint(1, n), rng.randint(1, n)
        if heads[dep - 1] in (0, new_head) or new_head == dep:
            continue
        node = new_head
        while node not in (0, dep):
            node = heads[node - 1]
        if node == dep:  # the new head is below the dependent: a cycle
            continue
        heads[dep - 1] = new_head
        if not is_projective(heads):
            return heads


def _has_dependents(heads: list[int]) -> set[int]:
    return {h for h in heads if h != 0}


def _label(heads: list[int], dep: int, suffix: str) -> str:
    head = heads[dep - 1]
    if head == 0:
        return "root"
    return f"{SUFFIX_CLASS[suffix]}-{'l' if dep < head else 'r'}"


def _grandparent_heads(heads: list[int]) -> list[int]:
    """Re-attach every leaf whose head is not the root to its grandparent."""
    internal = _has_dependents(heads)
    out = list(heads)
    for dep in range(1, len(heads) + 1):
        head = heads[dep - 1]
        if dep not in internal and head != 0 and heads[head - 1] != 0:
            out[dep - 1] = heads[head - 1]
    return out


@dataclass
class Skeleton:
    """Surface forms plus the first source's tree for one sentence."""

    stems: list[str]
    suffixes: list[str]
    heads: list[int]


def make_skeleton(rng: random.Random, n: int, nonprojective: bool, pick_stem) -> Skeleton:
    heads = nonprojective_heads(n, rng) if nonprojective else projective_heads(n, rng)
    internal = _has_dependents(heads)
    stems, suffixes = [], []
    for token in range(1, n + 1):
        stems.append(pick_stem(token))
        suffixes.append(rng.choice(VERBAL if token in internal else NOMINAL))
    return Skeleton(stems, suffixes, heads)


def realize(skeleton: Skeleton, conflict_variant: bool = False) -> Sentence:
    heads = _grandparent_heads(skeleton.heads) if conflict_variant else skeleton.heads
    bundles = CONFLICT_BUNDLES if conflict_variant else BUNDLES
    tokens = []
    for i, (stem, suffix) in enumerate(zip(skeleton.stems, skeleton.suffixes), start=1):
        tokens.append(
            Token(
                form=stem + suffix,
                lemma=stem,
                feats=bundles[suffix],
                head=heads[i - 1],
                deprel=_label(heads, i, suffix),
            )
        )
    return Sentence(tokens)


# -- workloads -----------------------------------------------------------------


@dataclass
class Corpus:
    """{source_id: {split: [Sentence]}} plus what the checks need to know."""

    group_id: str
    splits: dict[str, dict[str, list[Sentence]]]
    lookalike: dict[str, list[str]] = field(default_factory=dict)  # source -> per dev sentence


def two_source_corpus(seed: int, n_train: int, n_dev: int, n_stems: int,
                      lo: int = 10, hi: int = 40) -> Corpus:
    """Two same-language sources with a shared conflict subset."""
    rng = random.Random(seed)
    sampler = ZipfSampler(make_stems(rng, n_stems))

    def pick(_token):
        return sampler.draw(rng)

    splits: dict[str, dict[str, list[Sentence]]] = {"src_a": {}, "src_b": {}}
    for split, count in (("train", n_train), ("dev", n_dev)):
        shared = {}
        for source in ("src_a", "src_b"):
            sentences = []
            for position in range(count):
                n = length_at(position, lo, hi)
                nonproj = position % NONPROJECTIVE_EVERY == 0
                if position % CONFLICT_EVERY == 1:
                    if position not in shared:
                        shared[position] = make_skeleton(rng, n, nonproj, pick)
                    sentences.append(realize(shared[position], conflict_variant=source == "src_b"))
                else:
                    sentences.append(realize(make_skeleton(rng, n, nonproj, pick)))
            splits[source][split] = sentences
    return Corpus("bench", splits)


def zero_shot_corpus(seed: int, n_train: int, n_dev: int, n_blend_dev: int, n_stems: int,
                     n_markers: int = 40, lo: int = 30, hi: int = 40) -> Corpus:
    """Two styles with disjoint marker stems and a held-out blend of both.

    Every fourth token of a style sentence is one of that style's markers.
    Blend sentences alternate between the two styles; the style used is
    recorded as the sentence's lookalike.
    """
    rng = random.Random(seed)
    stems = make_stems(rng, n_stems + 2 * n_markers)
    markers = {"style_a": stems[:n_markers], "style_b": stems[n_markers: 2 * n_markers]}
    sampler = ZipfSampler(stems[2 * n_markers:])

    def sentence(style: str, position: int) -> Sentence:
        def pick(token):
            if token % MARKER_EVERY == 0:
                return rng.choice(markers[style])
            return sampler.draw(rng)

        n = length_at(position, lo, hi)
        return realize(make_skeleton(rng, n, position % NONPROJECTIVE_EVERY == 0, pick))

    splits = {}
    for style in ("style_a", "style_b"):
        splits[style] = {
            "train": [sentence(style, p) for p in range(n_train)],
            "dev": [sentence(style, p) for p in range(n_dev)],
        }
    blend_styles = ["style_a" if p % 2 == 0 else "style_b" for p in range(n_blend_dev)]
    splits["blend"] = {
        # a token train split only so the registry can compute overlap
        # filters; zero-shot training never reads it
        "train": [sentence(blend_styles[p % 2], p) for p in range(2)],
        "dev": [sentence(style, p) for p, style in enumerate(blend_styles)],
    }
    return Corpus("bench", splits, lookalike={"blend": blend_styles})


# -- files ---------------------------------------------------------------------


def conllu_text(sentences: list[Sentence], source_id: str) -> str:
    chunks = []
    for sent in sentences:
        lines = []
        for i, tok in enumerate(sent.tokens, start=1):
            feats = "|".join(sorted(tok.feats)) or "_"
            lines.append("\t".join([str(i), tok.form, tok.lemma, "X", "_", feats,
                                    str(tok.head), tok.deprel, "_", f"dataset={source_id}"]))
        chunks.append("\n".join(lines) + "\n\n")
    return "".join(chunks)


def write_corpus(corpus: Corpus, out_dir: Path) -> Path:
    """CoNLL-U per split plus a registry JSON; returns the registry path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sources = []
    for source_id in sorted(corpus.splits):
        entry = {"id": source_id, "language": "syn"}
        for split, sentences in sorted(corpus.splits[source_id].items()):
            name = f"{source_id}-{split}.conllu"
            (out_dir / name).write_text(conllu_text(sentences, source_id), encoding="utf-8")
            entry[split] = name
        sources.append(entry)
    registry = {"sources": sources,
                "groups": [{"id": corpus.group_id, "members": sorted(corpus.splits)}]}
    path = out_dir / "registry.json"
    path.write_text(json.dumps(registry, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
