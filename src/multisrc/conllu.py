"""CoNLL-U parsing and serialization.

Carries a data-source identifier per sentence through the MISC column
(key ``dataset``).  Multiword-token lines (id "i-j") and empty-node lines
(id "i.j") are kept verbatim, with the number of words that precede them,
and written back in place, but excluded from the token list: all modeling
here assumes gold tokenization.  FORM is read literally, so a FORM of "_"
is the underscore token; the other "_" columns mean "unspecified".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConlluParseError, DataError

SOURCE_MISC_KEY = "dataset"

_EMPTY = "_"


@dataclass
class Token:
    id: int
    form: str
    lemma: str = ""
    upos: str = ""
    morph: set[str] = field(default_factory=set)
    head: int | None = None
    deprel: str = ""
    # a bare MISC entry (no "=") maps to None and is written back bare
    misc: dict[str, str | None] = field(default_factory=dict)

    def __post_init__(self):
        if self.id < 1:
            raise DataError(f"token id must be >= 1, got {self.id}")
        if not self.form:
            raise DataError(f"token {self.id}: empty form")
        if self.head is not None and self.head == self.id:
            raise DataError(f"token {self.id} heads itself")
        for entry in self.morph:
            if entry.count("=") != 1:
                raise DataError(f"morph entry {entry!r} must contain exactly one '='")


@dataclass
class Sentence:
    tokens: list[Token]
    comments: list[str] = field(default_factory=list)
    # multiword-token and empty-node lines: (words before the line, the line)
    unmodeled_lines: list[tuple[int, str]] = field(default_factory=list)
    source_id: str | None = None
    predicted_source_id: str | None = None

    def __len__(self):
        return len(self.tokens)

    @property
    def text(self) -> str:
        """Surface text approximation: forms joined by single spaces."""
        return " ".join(t.form for t in self.tokens)

    def has_full_tree(self) -> bool:
        return len(self.tokens) > 0 and all(t.head is not None for t in self.tokens)

    def validate(self):
        """Structural checks shared by parser and writer."""
        n = len(self.tokens)
        for pos, tok in enumerate(self.tokens, start=1):
            if tok.id != pos:
                raise DataError(f"token ids not consecutive: expected {pos}, got {tok.id}")
            if tok.head is not None and not (0 <= tok.head <= n):
                raise DataError(f"token {tok.id}: head {tok.head} out of range [0, {n}]")
        roots = [t.id for t in self.tokens if t.head == 0]
        if len(roots) > 1:
            raise DataError(f"multiple root tokens: {roots}")


@dataclass
class Treebank:
    source_id: str
    split: str = "train"
    sentences: list[Sentence] = field(default_factory=list)

    def __post_init__(self):
        """A sentence without a source joins as a copy that carries this one;
        the caller's sentence is left as it was."""
        for sent in self.sentences:
            if sent.source_id not in (None, self.source_id):
                raise DataError(
                    f"sentence source {sent.source_id!r} != treebank source {self.source_id!r}"
                )
        self.sentences = [s if s.source_id is not None else replace(s, source_id=self.source_id)
                          for s in self.sentences]

    def __len__(self):
        return len(self.sentences)

    @property
    def word_count(self) -> int:
        return sum(len(s) for s in self.sentences)


def _field(value: str) -> str:
    return "" if value == _EMPTY else value


def _unfield(value: str) -> str:
    return value if value else _EMPTY


def parse_conllu(text: str, source_id: str | None = None, split: str = "train") -> Treebank:
    """Parse CoNLL-U text into a Treebank for the given data source.

    With `source_id=None` the source is taken from the MISC ``dataset``
    stamps (all sentences must then agree).  Raises ConlluParseError (with
    a line number) on malformed input or when a stamp conflicts with a
    declared `source_id`.
    """
    sentences = []
    comments: list[str] = []
    unmodeled: list[tuple[int, str]] = []
    tokens: list[Token] = []
    seen_ids: set[int] = set()

    def flush(line_no):
        nonlocal comments, unmodeled, tokens, seen_ids
        if not tokens and not comments and not unmodeled:
            return
        misc_sources = {t.misc[SOURCE_MISC_KEY] for t in tokens if SOURCE_MISC_KEY in t.misc}
        if len(misc_sources) > 1:
            raise ConlluParseError(f"conflicting MISC dataset ids {sorted(misc_sources)}", line_no)
        if source_id is not None and misc_sources and misc_sources != {source_id}:
            raise ConlluParseError(
                f"MISC dataset id {misc_sources.pop()!r} != declared source {source_id!r}", line_no
            )
        sentence_source = source_id or (misc_sources.pop() if misc_sources else None)
        sent = Sentence(tokens=tokens, comments=comments, unmodeled_lines=unmodeled,
                        source_id=sentence_source)
        try:
            sent.validate()
        except DataError as exc:
            raise ConlluParseError(str(exc), line_no) from exc
        sentences.append(sent)
        comments, unmodeled, tokens, seen_ids = [], [], [], set()

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line == "":
            flush(line_no)
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluParseError(f"expected 10 columns, got {len(cols)}", line_no)
        tid = cols[0]
        if "-" in tid or "." in tid:
            # multiword-token / empty-node line: keep verbatim, skip for modeling
            unmodeled.append((len(tokens), line))
            continue
        try:
            token_id = int(tid)
        except ValueError:
            raise ConlluParseError(f"non-integer token id {tid!r}", line_no) from None
        if token_id in seen_ids:
            raise ConlluParseError(f"duplicate token id {token_id}", line_no)
        seen_ids.add(token_id)
        head_col = cols[6]
        if head_col == _EMPTY:
            head = None
        else:
            try:
                head = int(head_col)
            except ValueError:
                raise ConlluParseError(f"non-integer head {head_col!r}", line_no) from None
        morph = set()
        if cols[5] != _EMPTY:
            for entry in cols[5].split("|"):
                # ';' joins the features of a tagger bundle
                if entry.count("=") != 1 or ";" in entry:
                    raise ConlluParseError(f"malformed FEATS entry {entry!r}", line_no)
                morph.add(entry)
        misc = {}
        if cols[9] != _EMPTY:
            for entry in cols[9].split("|"):
                key, equals, value = entry.partition("=")
                if not equals and key == SOURCE_MISC_KEY:
                    raise ConlluParseError(f"MISC entry {key!r} without a dataset id", line_no)
                misc[key] = value if equals else None
        try:
            tok = Token(
                id=token_id,
                form=cols[1],
                lemma=_field(cols[2]),
                upos=_field(cols[3]),
                morph=morph,
                head=head,
                deprel=_field(cols[7]),
                misc=misc,
            )
        except DataError as exc:
            raise ConlluParseError(str(exc), line_no) from exc
        tokens.append(tok)

    flush(line_no if text else 0)
    if source_id is None:
        stamped = {s.source_id for s in sentences if s.source_id is not None}
        if len(stamped) > 1:
            raise DataError(f"file mixes dataset ids {sorted(stamped)}; declare a source_id")
        source_id = stamped.pop() if stamped else "unknown"
    return Treebank(source_id=source_id, split=split, sentences=sentences)


def write_token(tok: Token, extra_misc: dict[str, str] | None = None) -> str:
    misc = dict(tok.misc)
    if extra_misc:
        misc.update(extra_misc)
    # deterministic serialization: lexicographic key / entry order
    misc_col = "|".join(k if misc[k] is None else f"{k}={misc[k]}"
                        for k in sorted(misc)) if misc else _EMPTY
    feats_col = "|".join(sorted(tok.morph)) if tok.morph else _EMPTY
    head_col = _EMPTY if tok.head is None else str(tok.head)
    return "\t".join(
        [
            str(tok.id),
            tok.form,
            _unfield(tok.lemma),
            _unfield(tok.upos),
            _EMPTY,
            feats_col,
            head_col,
            _unfield(tok.deprel),
            _EMPTY,
            misc_col,
        ]
    )


def write_sentence(sent: Sentence, embed_source_in_misc: bool = False) -> str:
    extra = None
    if embed_source_in_misc:
        if sent.source_id is None:
            raise DataError("cannot stamp MISC dataset id: sentence has no source_id")
        extra = {SOURCE_MISC_KEY: sent.source_id}
    body = [write_token(t, extra) for t in sent.tokens]
    # from the last line back, so each insert leaves earlier positions valid
    for words_before, line in reversed(sent.unmodeled_lines):
        body.insert(words_before, line)
    return "\n".join(sent.comments + body)


def write_conllu(tb: Treebank, embed_source_in_misc: bool = False) -> str:
    """Serialize a Treebank; inverse of parse_conllu on token fields."""
    chunks = [write_sentence(s, embed_source_in_misc) for s in tb.sentences]
    return "".join(chunk + "\n\n" for chunk in chunks)
