"""Hand-made cases for the benchmark's own checkers and corpus generator.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import corpus as gen  # noqa: E402
from checks import Tok  # noqa: E402


def tok(form, head, deprel="dep", feats=(), lemma=""):
    return Tok(form, lemma, frozenset(feats), head, deprel)


@pytest.mark.parametrize(
    "heads, fragment",
    [
        ([2, 3, 1], "0 roots"),  # 1 -> 2 -> 3 -> 1, nothing reaches the root
        ([0, 3, 2], "cycle"),  # one root, but 2 <-> 3
        ([0, 0, 1], "2 roots"),
        ([0, 4, 1], "out of range"),
        ([0, None], "out of range"),
        ([], "empty"),
    ],
)
def test_tree_problem_rejects(heads, fragment):
    problem = checks.tree_problem(heads)
    assert problem is not None and fragment in problem


@pytest.mark.parametrize("heads", [[0], [0, 1, 1], [2, 0, 2, 3], [3, 3, 0, 1]])
def test_tree_problem_accepts(heads):
    assert checks.tree_problem(heads) is None


def test_metrics_on_a_known_pair():
    gold = [[tok("a", 2, "x", {"A=1", "B=2"}, "a"), tok("b", 0, "root", {"C=3"}, "b")],
            [tok("c", 0, "root", set(), "c")]]
    pred = [[tok("a", 2, "y", {"A=1"}, "a"), tok("b", 0, "root", {"C=3", "D=4"}, "bb")],
            [tok("c", 0, "root", set(), "c")]]
    # LAS: token a has the right head but the wrong label -> 2 of 3
    assert checks.las_counts(gold, pred) == (pytest.approx(200 / 3), 2, 3)
    # morph: tp = A=1, C=3; fp = D=4; fn = B=2 -> F1 = 4 / 6
    assert checks.morph_f1_counts(gold, pred) == (pytest.approx(400 / 6), 2, 4)
    assert checks.lemma_counts(gold, pred) == (pytest.approx(200 / 3), 2, 3)


def test_metrics_refuse_misaligned_predictions():
    with pytest.raises(ValueError):
        checks.las_counts([[tok("a", 0)]], [[tok("b", 0)]])


def test_row_problem_compares_value_and_counts():
    row = {"source_id": "s", "setting": "gold", "metric": "las",
           "value": "66.6666666667", "correct": "2", "total": "3"}
    assert checks.row_problem(row, (200 / 3, 2, 3)) is None
    assert checks.row_problem(row, (200 / 3, 1, 3)) is not None
    assert checks.row_problem(row, (50.0, 2, 3)) is not None


def test_lemma_problem():
    assert checks.lemma_problem("ab", "ab", {"a", "b"}) is None
    assert "2*|form|+8" in checks.lemma_problem("ab", "a" * 13, {"a"})
    assert "characters" in checks.lemma_problem("ab", "az", {"a", "b"})


def test_read_conllu_round_trips_generated_text(tmp_path):
    corpus = gen.two_source_corpus(3, 6, 2, 50)
    path = tmp_path / "x.conllu"
    path.write_text(gen.conllu_text(corpus.splits["src_a"]["train"], "src_a"))
    read = checks.read_conllu(path)
    original = corpus.splits["src_a"]["train"]
    assert [[t.form for t in s] for s in read] == [[t.form for t in s.tokens] for s in original]
    assert [[t.head for t in s] for s in read] == [[t.head for t in s.tokens] for s in original]


def test_generator_is_seeded_and_follows_its_recipe():
    a = gen.two_source_corpus(7, 40, 4, 300)
    b = gen.two_source_corpus(7, 40, 4, 300)
    assert a == b
    assert a != gen.two_source_corpus(8, 40, 4, 300)
    for source in ("src_a", "src_b"):
        for position, sent in enumerate(a.splits[source]["train"]):
            heads = [t.head for t in sent.tokens]
            assert len(heads) == gen.length_at(position, 10, 40)
            assert checks.tree_problem(heads) is None
            conflict_variant = source == "src_b" and position % gen.CONFLICT_EVERY == 1
            if not conflict_variant:  # re-attaching leaves may add crossings
                assert gen.is_projective(heads) == (position % gen.NONPROJECTIVE_EVERY != 0)
            assert all(gen.lemma_of(t.form) == t.lemma for t in sent.tokens)
    first, second = a.splits["src_a"]["train"][1], a.splits["src_b"]["train"][1]
    assert [t.form for t in first.tokens] == [t.form for t in second.tokens]
    assert [t.head for t in first.tokens] != [t.head for t in second.tokens]


def test_oracle_rebuilds_a_nonprojective_tree_with_swap():
    heads = gen.nonprojective_heads(12, random.Random(0))
    rebuilt, swaps = checks.oracle_rebuilds(heads, ["dep"] * 12)
    assert rebuilt and swaps > 0
