import dataclasses
import json

import pytest

from multisrc.classifier import ClassifierHyper, NGramConfig
from multisrc.encoder import EncoderConfig
from multisrc.errors import DataError
from multisrc.harness import ExperimentConfig
from multisrc.nn import TrainerConfig
from multisrc.parser_model import ParserConfig
from multisrc.schema import from_dict, to_dict
from multisrc.tagger import TaggerConfig

ENCODER = EncoderConfig(word_dim=7, char_dim=6, char_emb_dim=5, source_dim=3, hidden_dim=9)
TRAINER = TrainerConfig(
    learning_rate=0.5, seed=4, epochs=3, max_sentences_per_epoch=11, max_words_per_epoch=13,
)
TAGGER = TaggerConfig(encoder=ENCODER, tag_embedding_dim=3, decoder_hidden=5,
                      decoder_char_dim=6, attention_hidden=7)
NGRAM = NGramConfig(word_min=2, word_max=3, char_min=2, char_max=6, feature_space_size=2**10)
HYPER = ClassifierHyper(regularization_c=0.5, epochs=3, learning_rate=0.25, seed=9)

# every config dataclass: its defaults and an instance with every field changed
CASES = [
    (TrainerConfig(), TRAINER),
    (EncoderConfig(), ENCODER),
    (ParserConfig(), ParserConfig(encoder=ENCODER, scorer_hidden=5)),
    (TaggerConfig(), TAGGER),
    (NGramConfig(), NGRAM),
    (ClassifierHyper(), HYPER),
    (
        ExperimentConfig(task="parse", group_id="g"),
        ExperimentConfig(
            task="tag_lemma", group_id="h", settings=["gold", "pred"], mode="zero_shot",
            held_out_source="src_c", seeds=[5, 6], trainer=TRAINER, encoder=ENCODER,
            scorer_hidden=5, tagger=TAGGER, ngram=NGRAM, classifier_hyper=HYPER,
        ),
    ),
]


@pytest.mark.parametrize("default, changed", CASES, ids=[type(d).__name__ for d, _ in CASES])
def test_every_config_round_trips_through_json(default, changed):
    cls = type(default)
    for f in dataclasses.fields(cls):
        assert getattr(changed, f.name) != getattr(default, f.name), f.name
    for config in (default, changed):
        raw = json.loads(json.dumps(to_dict(config)))
        assert from_dict(cls, raw, "config") == config
        assert from_dict(cls, raw, "config", require_all=True) == config


def test_codec_refuses_a_field_type_it_cannot_read():
    @dataclasses.dataclass
    class Unreadable:
        table: dict = dataclasses.field(default_factory=dict)
        flag: bool = False

    with pytest.raises(TypeError, match="table"):
        from_dict(Unreadable, {"table": {}}, "config")
    with pytest.raises(TypeError, match="flag"):
        from_dict(Unreadable, {"flag": True}, "config")


def test_require_all_rejects_a_key_that_has_a_default():
    raw = to_dict(ParserConfig())
    del raw["encoder"]["source_dim"]
    assert from_dict(ParserConfig, raw, "config") == ParserConfig()
    with pytest.raises(DataError, match="^header: encoder lacks required key 'source_dim'$"):
        from_dict(ParserConfig, raw, "header", require_all=True)


@pytest.mark.parametrize(
    "raw, message",
    [
        ([], "^config must be a JSON object$"),
        ({"bogus": 1}, "^unknown key 'bogus' in config$"),
        ({"encoder": 3}, "^config: encoder must be a JSON object$"),
        ({"encoder": {"bogus": 1}}, "^config: unknown key 'bogus' in encoder$"),
        ({"encoder": {"word_dim": 1.0}}, "^config: encoder.word_dim must be int, got 1.0$"),
        ({"scorer_hidden": True}, "^config: scorer_hidden must be int, got True$"),
    ],
)
def test_codec_errors_name_the_path(raw, message):
    with pytest.raises(DataError, match=message):
        from_dict(ParserConfig, raw, "config")
