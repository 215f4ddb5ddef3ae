import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisrc.conllu import Sentence, Token, Treebank, parse_conllu, write_conllu
from multisrc.encoder import EncoderConfig
from multisrc.errors import ConlluParseError, DataError
from multisrc.harness import ExperimentConfig, compute_cell, run_cell
from multisrc.nn import TrainerConfig
from multisrc.registry import load_registry
from multisrc.synth import ambiguity_corpus, write_corpus

TWO_TOKEN = (
    "1\tcats\tcat\tNOUN\t_\tNumber=Plur\t2\tnsubj\t_\t_\n"
    "2\tsleep\tsleep\tVERB\t_\t_\t0\troot\t_\t_\n\n"
)


def test_parse_two_token_sentence():
    tb = parse_conllu(TWO_TOKEN, "en_x")
    assert len(tb) == 1
    sent = tb.sentences[0]
    assert len(sent) == 2
    assert sent.tokens[0].form == "cats"
    assert sent.tokens[0].lemma == "cat"
    assert sent.tokens[0].morph == {"Number=Plur"}
    assert sent.tokens[0].head == 2
    assert sent.tokens[1].head == 0
    assert sent.tokens[1].deprel == "root"
    assert sent.source_id == "en_x"


def test_parse_empty_input():
    tb = parse_conllu("", "x")
    assert len(tb) == 0


def test_parse_nine_columns_fails_with_line_number():
    bad = "1\ta\tb\tc\t_\t_\t0\troot\t_\n\n"
    with pytest.raises(ConlluParseError, match="line 1"):
        parse_conllu(bad, "x")


def test_parse_errors():
    with pytest.raises(ConlluParseError, match="non-integer token id"):
        parse_conllu("x\ta\t_\t_\t_\t_\t0\troot\t_\t_\n\n", "x")
    with pytest.raises(ConlluParseError, match="non-integer head"):
        parse_conllu("1\ta\t_\t_\t_\t_\tz\troot\t_\t_\n\n", "x")
    with pytest.raises(ConlluParseError, match="out of range"):
        parse_conllu("1\ta\t_\t_\t_\t_\t5\troot\t_\t_\n\n", "x")
    dup = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n1\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n\n"
    with pytest.raises(ConlluParseError, match="duplicate token id"):
        parse_conllu(dup, "x")
    # ';' joins a tagger bundle's features, so it cannot sit inside one
    with pytest.raises(ConlluParseError, match=r"line 2: malformed FEATS entry 'A=x;y'"):
        parse_conllu("# c\n1\ta\t_\t_\t_\tA=x;y\t0\troot\t_\t_\n\n", "x")


def test_headless_sentences_allowed():
    tb = parse_conllu("1\ta\t_\t_\t_\t_\t_\t_\t_\t_\n\n", "x")
    assert tb.sentences[0].tokens[0].head is None
    assert not tb.sentences[0].has_full_tree()


def test_multiword_and_empty_node_lines_preserved_not_modeled():
    text = (
        "# sent_id = 1\n"
        "1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\t_\t_\t_\t_\t2\tcase\t_\t_\n"
        "2\tle\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    )
    tb = parse_conllu(text, "fr_x")
    sent = tb.sentences[0]
    assert [t.form for t in sent.tokens] == ["de", "le"]
    assert sent.comments == ["# sent_id = 1"]
    assert [(before, line.split("\t")[0]) for before, line in sent.unmodeled_lines] == [
        (0, "1-2"), (2, "2.1")]
    # round-trip keeps the preserved lines and the token fields
    again = parse_conllu(write_conllu(tb), "fr_x")
    assert [t.form for t in again.sentences[0].tokens] == ["de", "le"]


def test_multiword_and_empty_node_lines_are_written_where_they_were_read():
    text = (
        "# sent_id = 2\n"
        "# text = a bcd\n"
        "1\ta\ta\tDET\t_\t_\t2\tdet\t_\t_\n"
        "2\tb\tb\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "3-4\tcd\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tc\tc\tADP\t_\t_\t2\tcase\t_\t_\n"
        "4\td\td\tDET\t_\t_\t2\tdet\t_\t_\n"
        "4.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
        "1\tz\tz\tX\t_\t_\t0\troot\t_\t_\n\n"
    )
    tb = parse_conllu(text, "x")
    assert [len(s) for s in tb.sentences] == [4, 1]
    assert write_conllu(tb) == text


def test_underscore_form_is_a_token_and_an_empty_form_is_refused():
    text = "1\tstop\tstop\tVERB\t_\t_\t0\troot\t_\t_\n2\t_\t_\tPUNCT\t_\t_\t1\tpunct\t_\t_\n\n"
    token = parse_conllu(text, "x").sentences[0].tokens[1]
    assert (token.form, token.lemma, token.upos) == ("_", "", "PUNCT")
    assert write_conllu(parse_conllu(text, "x")) == text
    with pytest.raises(ConlluParseError, match=r"^line 2: token 2: empty form$"):
        parse_conllu(text.replace("2\t_\t_", "2\t\t_"), "x")


def test_a_parser_cell_trains_on_an_underscore_form(tmp_path):
    registry_path = write_corpus(ambiguity_corpus(seed=2, n_conflict_train=2, n_shared_train=2,
                                                  n_conflict_dev=1, n_shared_dev=1),
                                 tmp_path, group_id="amb")
    train = tmp_path / "dialect_a-train.conllu"
    train.write_text(train.read_text(encoding="utf-8") + "1\tstop\tstop\tVERB\t_\t_\t0\troot\t_\t_\n"
                     "2\t_\t_\tPUNCT\t_\t_\t1\tpunct\t_\t_\n\n", encoding="utf-8")
    registry = load_registry(registry_path)
    config = ExperimentConfig(
        task="parse", group_id="amb", settings=["concat"], seeds=[0],
        trainer=TrainerConfig(learning_rate=0.02, epochs=1),
        encoder=EncoderConfig(word_dim=4, char_dim=4, char_emb_dim=4, source_dim=2, hidden_dim=4),
        scorer_hidden=4,
    )
    outcome = compute_cell(registry, registry.group("amb"), config, "concat", 0)
    assert "_" in outcome.models["model"].encoder.vocab.words
    assert {row.metric for row in outcome.rows} == {"las"}


def test_comment_only_blocks_are_skipped_in_training_and_written_back(tmp_path):
    # a comment-only block, such as a `# newdoc` line of its own, is a
    # sentence without tokens: both tasks train without it and predict it
    # back unchanged
    registry_path = write_corpus(ambiguity_corpus(seed=2, n_conflict_train=2, n_shared_train=2,
                                                  n_conflict_dev=1, n_shared_dev=1),
                                 tmp_path / "data", group_id="amb")
    for split in ("train", "dev"):
        path = tmp_path / "data" / f"dialect_a-{split}.conllu"
        path.write_text("# newdoc id = doc1\n\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    registry = load_registry(registry_path)
    assert registry.split("dialect_a", "train").sentences[0].tokens == []
    for task in ("parse", "tag_lemma"):
        config = ExperimentConfig(
            task=task, group_id="amb", settings=["gold"], seeds=[0],
            trainer=TrainerConfig(learning_rate=0.02, epochs=1),
            encoder=EncoderConfig(word_dim=4, char_dim=4, char_emb_dim=4, source_dim=2,
                                  hidden_dim=4),
            scorer_hidden=4,
        )
        _, cell_dir = run_cell(registry, registry.group("amb"), config, "gold", 0, tmp_path / task)
        predicted = (cell_dir / "predictions_dialect_a.conllu").read_text(encoding="utf-8")
        assert predicted.startswith("# newdoc id = doc1\n\n1\t")


def test_a_treebank_never_writes_into_the_sentences_it_is_given():
    sent = Sentence(tokens=[Token(id=1, form="a", head=0, deprel="root")])
    a = Treebank("a", sentences=[sent])
    b = Treebank("b", sentences=[sent])
    assert sent.source_id is None
    assert (a.sentences[0].source_id, b.sentences[0].source_id) == ("a", "b")
    assert a.sentences[0].tokens is sent.tokens
    with pytest.raises(DataError, match=r"^sentence source 'a' != treebank source 'b'$"):
        Treebank("b", sentences=a.sentences)


def test_misc_dataset_conflict_raises():
    text = "1\ta\t_\t_\t_\t_\t0\troot\t_\tdataset=en_a\n\n"
    assert parse_conllu(text, "en_a").sentences[0].source_id == "en_a"
    with pytest.raises(ConlluParseError, match="dataset"):
        parse_conllu(text, "en_b")
    two = (
        "1\ta\t_\t_\t_\t_\t0\troot\t_\tdataset=en_a\n"
        "2\tb\t_\t_\t_\t_\t1\tdep\t_\tdataset=en_b\n\n"
    )
    with pytest.raises(ConlluParseError, match="conflicting"):
        parse_conllu(two, "en_a")


def test_parse_without_declared_source_infers_from_stamps():
    stamped = "1\ta\t_\t_\t_\t_\t0\troot\t_\tdataset=en_a\n\n"
    tb = parse_conllu(stamped)
    assert tb.source_id == "en_a"
    assert tb.sentences[0].source_id == "en_a"
    # unstamped input falls back to a placeholder id
    assert parse_conllu("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n\n").source_id == "unknown"
    mixed = (
        "1\ta\t_\t_\t_\t_\t0\troot\t_\tdataset=en_a\n\n"
        "1\tb\t_\t_\t_\t_\t0\troot\t_\tdataset=en_b\n\n"
    )
    with pytest.raises(DataError, match="mixes dataset ids"):
        parse_conllu(mixed)


def test_write_stamps_dataset_key():
    tb = parse_conllu(TWO_TOKEN, "en_ewt")
    out = write_conllu(tb, embed_source_in_misc=True)
    for line in out.splitlines():
        if line and not line.startswith("#"):
            assert line.endswith("dataset=en_ewt")


def test_misc_written_in_sorted_key_order():
    tok = Token(id=1, form="x", head=0, deprel="root",
                misc={"dataset": "x", "SpaceAfter": "No"})
    tb = Treebank(source_id="x", sentences=[Sentence(tokens=[tok])])
    out = write_conllu(tb)
    assert out.splitlines()[0].split("\t")[9] == "SpaceAfter=No|dataset=x"
    again = parse_conllu(out, "x")
    assert again.sentences[0].tokens[0].misc == {"dataset": "x", "SpaceAfter": "No"}


def test_multiple_roots_rejected():
    text = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
    with pytest.raises(ConlluParseError, match="multiple root"):
        parse_conllu(text, "x")


def test_token_invariants():
    with pytest.raises(DataError):
        Token(id=0, form="a")
    with pytest.raises(DataError):
        Token(id=1, form="a", head=1)
    with pytest.raises(DataError):
        Token(id=1, form="a", morph={"NoEquals"})
    with pytest.raises(DataError, match="empty form"):  # it would write an unreadable FORM column
        Token(id=1, form="")


# --- randomized round-trip property ------------------------------------

_form = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=["L", "N", "P", "S"],
        exclude_characters="\t\n\r|=#_ ",
    ),
    min_size=1,
    max_size=8,
)
_feat = st.tuples(
    st.sampled_from(["Number", "Case", "Tense", "Mood"]),
    st.sampled_from(["A", "B", "C", "Plur", "Sing"]),
).map(lambda kv: f"{kv[0]}={kv[1]}")
_misc_kv = st.tuples(
    st.sampled_from(["SpaceAfter", "Gloss", "note"]),
    st.text(alphabet="abcXYZ09", min_size=0, max_size=5),
)


@st.composite
def sentences(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    root = draw(st.integers(min_value=1, max_value=n))
    tokens = []
    for i in range(1, n + 1):
        if i == root:
            head = 0
        else:
            head = draw(st.integers(min_value=1, max_value=n).filter(lambda h, i=i: h != i))
        tokens.append(
            Token(
                id=i,
                form=draw(_form | st.just("_")),
                lemma=draw(_form),
                upos=draw(st.sampled_from(["NOUN", "VERB", "DET", ""])),
                morph=set(draw(st.lists(_feat, max_size=3))),
                head=head,
                deprel=draw(st.sampled_from(["nsubj", "obj", "det", "root"])),
                misc=dict(draw(st.lists(_misc_kv, max_size=2))),
            )
        )
    return Sentence(tokens=tokens)


@given(st.lists(sentences(), min_size=0, max_size=5))
@settings(max_examples=120, deadline=None)
def test_roundtrip_identity_on_token_fields(sents):
    tb = Treebank(source_id="prop_src", sentences=sents)
    again = parse_conllu(write_conllu(tb), "prop_src")
    assert len(again) == len(tb)
    for s1, s2 in zip(tb.sentences, again.sentences):
        assert len(s1) == len(s2)
        for t1, t2 in zip(s1.tokens, s2.tokens):
            assert (t1.id, t1.form, t1.lemma, t1.upos) == (t2.id, t2.form, t2.lemma, t2.upos)
            assert t1.morph == t2.morph
            assert (t1.head, t1.deprel) == (t2.head, t2.deprel)
            assert t1.misc == t2.misc


def test_no_token_silently_dropped():
    text = (
        "# c\n"
        "1-2\tmw\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n"
        "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
        "1\tc\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
    )
    plain_id_lines = sum(
        1
        for line in text.splitlines()
        if line and not line.startswith("#") and line.split("\t")[0].isdigit()
    )
    tb = parse_conllu(text, "x")
    assert sum(len(s) for s in tb.sentences) == plain_id_lines == 3
