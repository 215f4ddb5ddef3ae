"""Data-source registry: sources, dataset groups, overlap pairing and filters.

The registry also keeps an access log (phase, source_id, split) so
experiment code can prove that zero-shot runs never touched the held-out
source during training or classifier fitting.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .conllu import Treebank, parse_conllu
from .errors import DataError
from .schema import from_dict

SMALL_WORD_LIMIT = 30_000
SVM_F1_THRESHOLD = 0.95
OVERLAP_THRESHOLD = 0.10

SPLITS = ("train", "dev", "test")


@dataclass
class DataSource:
    source_id: str
    language: str
    train: Treebank | None = None
    dev: Treebank | None = None
    test: Treebank | None = None

    def __post_init__(self):
        if not self.language:
            raise DataError(f"source {self.source_id!r} has empty language")

    @property
    def train_word_count(self) -> int:
        return self.train.word_count if self.train is not None else 0

    def vocabulary(self) -> frozenset[str]:
        """Distinct FORM strings in the train split."""
        if self.train is None:
            raise DataError(f"source {self.source_id!r} has no train split")
        return frozenset(t.form for s in self.train.sentences for t in s.tokens)


@dataclass
class DatasetGroup:
    group_id: str
    members: list[str]
    strategy: str = "manual"

    def __post_init__(self):
        if len(self.members) < 1:
            raise DataError(f"group {self.group_id!r} has no members")
        if len(set(self.members)) != len(self.members):
            raise DataError(f"group {self.group_id!r} has duplicate members")
        if self.strategy == "overlap_pair" and len(self.members) != 2:
            raise DataError("overlap_pair groups have exactly 2 members")
        if self.strategy not in ("manual", "overlap_pair"):
            raise DataError(f"unknown grouping strategy {self.strategy!r}")


@dataclass
class FilterReport:
    source_id: str
    word_count: int
    max_overlap: float
    is_small: bool
    is_multilang_group: bool
    exists_same_lang: bool
    svm_above_95: bool | None  # None when no classifier ran
    high_word_overlap: bool


class Registry:
    def __init__(self):
        self.sources: dict[str, DataSource] = {}
        self.groups: dict[str, DatasetGroup] = {}
        self.access_log: list[tuple[str, str, str]] = []
        self._phase = "setup"

    def add_source(self, source: DataSource):
        if source.source_id in self.sources:
            raise DataError(f"duplicate source id {source.source_id!r}")
        self.sources[source.source_id] = source

    def add_group(self, group: DatasetGroup):
        if group.group_id in self.groups:
            raise DataError(f"duplicate group id {group.group_id!r}")
        for member in group.members:
            if member not in self.sources:
                raise DataError(f"group {group.group_id!r}: unregistered member {member!r}")
        self.groups[group.group_id] = group

    def source(self, source_id: str) -> DataSource:
        if source_id not in self.sources:
            raise DataError(f"unknown source {source_id!r}")
        return self.sources[source_id]

    def group(self, group_id: str) -> DatasetGroup:
        if group_id not in self.groups:
            raise DataError(f"unknown group {group_id!r}")
        return self.groups[group_id]

    @contextmanager
    def phase(self, name: str):
        """Label subsequent split accesses with a phase name."""
        previous = self._phase
        self._phase = name
        try:
            yield self
        finally:
            self._phase = previous

    def split(self, source_id: str, split: str) -> Treebank:
        """Fetch a split, recording the access in the log."""
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}")
        src = self.source(source_id)
        tb = getattr(src, split)
        if tb is None:
            raise DataError(f"source {source_id!r} has no {split} split")
        self.access_log.append((self._phase, source_id, split))
        return tb

    def has_split(self, source_id: str, split: str) -> bool:
        return getattr(self.source(source_id), split) is not None

    def accessed(self, source_id: str, phases: set[str] | None = None,
                 since: int = 0) -> list[tuple[str, str, str]]:
        """Accesses to `source_id` from entry `since` of the log on."""
        return [
            rec
            for rec in self.access_log[since:]
            if rec[1] == source_id and (phases is None or rec[0] in phases)
        ]


@dataclass
class SourceEntry:
    """One `sources` entry of a registry file; split paths are relative to the file."""

    id: str
    language: str
    train: str | None = None
    dev: str | None = None
    test: str | None = None


@dataclass
class GroupEntry:
    id: str
    members: list[str]
    strategy: str = "manual"


@dataclass
class RegistryFile:
    sources: list[SourceEntry] = field(default_factory=list)
    groups: list[GroupEntry] = field(default_factory=list)


def load_registry(config_path: str | Path) -> Registry:
    """Load a registry from a JSON config; paths resolve relative to it."""
    config_path = Path(config_path)
    base = config_path.parent
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"bad registry config {config_path}: {exc}") from exc
    config = from_dict(RegistryFile, raw, f"registry config {config_path}")
    registry = Registry()
    for entry in config.sources:
        splits = {}
        for split in SPLITS:
            path = getattr(entry, split)
            if path is not None:
                text = (base / path).read_text(encoding="utf-8")
                splits[split] = parse_conllu(text, entry.id, split=split)
        registry.add_source(DataSource(source_id=entry.id, language=entry.language, **splits))
    for entry in config.groups:
        registry.add_group(DatasetGroup(group_id=entry.id, members=entry.members, strategy=entry.strategy))
    return registry


def compute_word_overlap(a: DataSource, b: DataSource) -> float:
    """Fraction of a's train vocabulary types also found in b's.

    Directional: relative to the first argument.
    """
    types_a = a.vocabulary()
    if not types_a:
        return 0.0
    return len(types_a & b.vocabulary()) / len(types_a)


def pair_by_overlap(registry: Registry, target: str) -> DatasetGroup:
    """Pair `target` with its highest-overlap partner (lexicographic ties)."""
    candidates = [sid for sid in registry.sources if sid != target]
    if not candidates:
        raise DataError("overlap pairing needs at least 2 registered sources")
    target_src = registry.source(target)
    best_id, best_overlap = None, -1.0
    for sid in sorted(candidates):
        overlap = compute_word_overlap(target_src, registry.source(sid))
        if overlap > best_overlap:
            best_id, best_overlap = sid, overlap
    return DatasetGroup(
        group_id=f"{target}+{best_id}", members=[target, best_id], strategy="overlap_pair"
    )


def compute_filters(
    registry: Registry, group: DatasetGroup, classifier_f1: float | None
) -> dict[str, FilterReport]:
    """Per-source filter booleans over a group (strict thresholds)."""
    languages = {registry.source(m).language for m in group.members}
    reports = {}
    for member in group.members:
        src = registry.source(member)
        others = [m for m in group.members if m != member]
        max_overlap = max(
            (compute_word_overlap(src, registry.source(o)) for o in others), default=0.0
        )
        reports[member] = FilterReport(
            source_id=member,
            word_count=src.train_word_count,
            max_overlap=max_overlap,
            is_small=src.train_word_count < SMALL_WORD_LIMIT,
            is_multilang_group=len(languages) > 1,
            exists_same_lang=any(registry.source(o).language == src.language for o in others),
            svm_above_95=None if classifier_f1 is None else classifier_f1 > SVM_F1_THRESHOLD,
            high_word_overlap=max_overlap > OVERLAP_THRESHOLD,
        )
    return reports
