"""Dependency trees: validation and the projective order."""

from __future__ import annotations

from dataclasses import dataclass, field

from .conllu import Sentence
from .errors import DataError

ROOT = 0


@dataclass
class DependencyTree:
    """Heads and labels for tokens 1..n; exactly one token heads to 0."""

    heads: list[int]  # heads[i] is the head of token i+1
    deprels: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.deprels:
            self.deprels = ["dep"] * len(self.heads)
        if len(self.deprels) != len(self.heads):
            raise DataError("heads and deprels length mismatch")
        self.validate()

    def __len__(self):
        return len(self.heads)

    def head_of(self, token: int) -> int:
        return self.heads[token - 1]

    def deprel_of(self, token: int) -> str:
        return self.deprels[token - 1]

    def dependents_of(self, head: int) -> list[int]:
        return [i + 1 for i, h in enumerate(self.heads) if h == head]

    def validate(self):
        n = len(self.heads)
        roots = [i + 1 for i, h in enumerate(self.heads) if h == ROOT]
        if n and len(roots) != 1:
            raise DataError(f"tree must have exactly one root, got {roots}")
        for i, h in enumerate(self.heads):
            if not 0 <= h <= n:
                raise DataError(f"head {h} of token {i + 1} out of range")
            if h == i + 1:
                raise DataError(f"token {i + 1} heads itself")
        # acyclicity: every token must reach ROOT
        for start in range(1, n + 1):
            seen = set()
            node = start
            while node != ROOT:
                if node in seen:
                    raise DataError(f"cycle involving token {start}")
                seen.add(node)
                node = self.heads[node - 1]

    @classmethod
    def from_sentence(cls, sentence: Sentence) -> "DependencyTree":
        if not sentence.has_full_tree():
            raise DataError("sentence does not carry a full tree")
        return cls(
            heads=[t.head for t in sentence.tokens],
            deprels=[t.deprel for t in sentence.tokens],
        )


def projective_order(tree: DependencyTree) -> dict[int, int]:
    """Rank per token from an in-order traversal of the tree.

    Children are visited in surface order, the head between its left and
    right children; under this order every tree becomes projective.  The
    ranks drive the static swap policy.
    """
    ranks: dict[int, int] = {}
    counter = [0]

    def visit(node: int):
        deps = tree.dependents_of(node)
        for d in deps:
            if d < node:
                visit(d)
        if node != ROOT:
            counter[0] += 1
            ranks[node] = counter[0]
        for d in deps:
            if d > node:
                visit(d)

    visit(ROOT)
    return ranks
