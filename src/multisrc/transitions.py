"""Arc-hybrid transition system with a swap action for non-projectivity.

Configuration: the artificial root (id 0) sits at the bottom of the
stack; the buffer initially holds tokens 1..n in surface order.

    SHIFT        moves the buffer front onto the stack
    LEFT_ARC(l)  adds (buffer front -> stack top), pops the stack
    RIGHT_ARC(l) adds (second of stack -> stack top), pops the stack
    SWAP         moves the stack top to the second buffer position

SWAP is guarded by original index order (stack top before buffer front),
which strictly decreases the number of order inversions, so any
transition sequence terminates in O(n^2) steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DataError
from .trees import ROOT, DependencyTree

SHIFT = "shift"
LEFT_ARC = "left_arc"
RIGHT_ARC = "right_arc"
SWAP = "swap"

KINDS = (SHIFT, LEFT_ARC, RIGHT_ARC, SWAP)
ARC_KINDS = (LEFT_ARC, RIGHT_ARC)


@dataclass(frozen=True)
class Transition:
    kind: str
    label: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown transition kind {self.kind!r}")
        if self.kind in ARC_KINDS and self.label is None:
            raise DataError(f"{self.kind} requires a label")


@dataclass
class ParserState:
    stack: list[int]  # bottom .. top; stack[0] == ROOT
    buffer: list[int]  # front first
    arcs: dict[int, tuple[int, str]] = field(default_factory=dict)  # dep -> (head, label)
    n: int = 0

    @classmethod
    def initial(cls, n: int) -> "ParserState":
        return cls(stack=[ROOT], buffer=list(range(1, n + 1)), n=n)

    def clone(self) -> "ParserState":
        return ParserState(
            stack=list(self.stack), buffer=list(self.buffer), arcs=dict(self.arcs), n=self.n
        )

    @property
    def top(self) -> int | None:
        return self.stack[-1] if self.stack else None

    @property
    def front(self) -> int | None:
        return self.buffer[0] if self.buffer else None

    def is_terminal(self) -> bool:
        return not self.buffer and self.stack == [ROOT]

    def signature(self) -> tuple:
        return (tuple(self.stack), tuple(self.buffer))

    def to_tree(self) -> DependencyTree:
        heads, deprels = [], []
        for token in range(1, self.n + 1):
            if token not in self.arcs:
                raise DataError(f"token {token} unattached; state not terminal")
            head, label = self.arcs[token]
            heads.append(head)
            deprels.append(label if label else "dep")
        return DependencyTree(heads=heads, deprels=deprels)


def legal_transitions(state: ParserState) -> list[str]:
    """Legal transition kinds, in canonical order.

    Attaching to the artificial root is only allowed as the very last
    transition (buffer empty, one pending token), which guarantees every
    completed derivation yields a single-rooted tree.
    """
    kinds = []
    if state.buffer:
        kinds.append(SHIFT)
    if state.buffer and len(state.stack) >= 1 and state.top != ROOT:
        kinds.append(LEFT_ARC)
    if len(state.stack) >= 2 and (state.stack[-2] != ROOT or not state.buffer):
        kinds.append(RIGHT_ARC)
    if (
        state.buffer
        and len(state.stack) >= 1
        and state.top != ROOT
        and state.top < state.front
    ):
        kinds.append(SWAP)
    return kinds


def apply_transition(state: ParserState, transition: Transition) -> ParserState:
    """Pure application; raises DataError if the transition is illegal."""
    if transition.kind not in legal_transitions(state):
        raise DataError(f"illegal transition {transition.kind} in state {state.signature()}")
    out = state.clone()
    if transition.kind == SHIFT:
        out.stack.append(out.buffer.pop(0))
    elif transition.kind == LEFT_ARC:
        dependent = out.stack.pop()
        out.arcs[dependent] = (out.buffer[0], transition.label)
    elif transition.kind == RIGHT_ARC:
        dependent = out.stack.pop()
        out.arcs[dependent] = (out.stack[-1], transition.label)
    else:  # SWAP
        out.buffer.insert(1, out.stack.pop())
    return out
