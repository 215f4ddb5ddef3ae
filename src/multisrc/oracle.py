"""Static-dynamic oracle for the arc-hybrid + swap system.

SWAP decisions are static: whenever the stack top must follow the buffer
front in the projectivized order, SWAP is the prescribed transition (cost
0) and everything else is forced costly.  Arc and shift decisions are
dynamic: their cost is the number of gold arcs the transition newly makes
unreachable, computed against the projectivized order.

Bookkeeping: `remaining[h]` holds the gold dependents of h whose arcs are
still buildable.  It is pruned exactly when an arc dies, so the cost of a
trajectory telescopes: summed costs == attachment errors at the end.
"""

from __future__ import annotations

from .trees import DependencyTree, projective_order
from .transitions import (
    LEFT_ARC,
    RIGHT_ARC,
    SHIFT,
    SWAP,
    ParserState,
    legal_transitions,
)

FORCED_COST = 1


class DynamicOracle:
    """Per-sentence oracle; advance() must mirror the taken transitions."""

    def __init__(self, gold: DependencyTree, use_swap: bool = True):
        self.gold = gold
        self.use_swap = use_swap
        n = len(gold)
        self.heads = {d: gold.head_of(d) for d in range(1, n + 1)}
        if use_swap:
            self.proj = projective_order(gold)
        else:
            self.proj = {d: d for d in range(1, n + 1)}
        self.remaining = {h: set(gold.dependents_of(h)) for h in range(0, n + 1)}

    # -- policy ------------------------------------------------------------

    def swap_prescribed(self, state: ParserState) -> bool:
        return (
            self.use_swap
            and SWAP in legal_transitions(state)
            and self.proj[state.top] > self.proj[state.front]
        )

    def allowed(self, state: ParserState) -> list[str]:
        """Transitions the training policy may take in this state."""
        if self.swap_prescribed(state):
            return [SWAP]
        return [k for k in legal_transitions(state) if k != SWAP]

    # -- costs ---------------------------------------------------------------

    def _shift_is_free(self, state: ParserState) -> bool:
        """True iff the buffer front must come back: some later buffer item
        precedes it in projective order, so a future SWAP re-buffers it."""
        b0 = state.front
        return any(
            item > b0 and self.proj[item] < self.proj[b0] for item in state.buffer[1:]
        )

    def costs(self, state: ParserState) -> dict[str, int]:
        """Cost per legal transition kind (labels are scored separately)."""
        legal = legal_transitions(state)
        if not legal:
            return {}
        if self.swap_prescribed(state):
            return {k: (0 if k == SWAP else FORCED_COST) for k in legal}
        out = {}
        stack, buffer = state.stack, state.buffer
        for kind in legal:
            if kind == LEFT_ARC:
                s0, b0 = stack[-1], buffer[0]
                head = self.heads[s0]
                cost = len(self.remaining[s0])
                if head != b0 and s0 in self.remaining[head]:
                    cost += 1
                out[kind] = cost
            elif kind == RIGHT_ARC:
                s0, s1 = stack[-1], stack[-2]
                head = self.heads[s0]
                cost = len(self.remaining[s0])
                if head != s1 and s0 in self.remaining[head]:
                    cost += 1
                out[kind] = cost
            elif kind == SHIFT:
                if self._shift_is_free(state):
                    out[kind] = 0
                else:
                    b0 = buffer[0]
                    in_stack = set(stack)
                    cost = len(self.remaining[b0] & in_stack)
                    head = self.heads[b0]
                    if head in in_stack and head != stack[-1] and b0 in self.remaining[head]:
                        cost += 1
                    out[kind] = cost
            else:  # legal SWAP that the policy does not prescribe
                out[kind] = FORCED_COST
        return out

    # -- bookkeeping -----------------------------------------------------------

    def advance(self, state: ParserState, kind: str):
        """Prune arcs killed by taking `kind` in `state` (call before apply)."""
        if kind in (LEFT_ARC, RIGHT_ARC):
            dependent = state.stack[-1]
            self.remaining[dependent] = set()
            self.remaining[self.heads[dependent]].discard(dependent)
        elif kind == SHIFT and not (self.use_swap and self._shift_is_free(state)):
            b0 = state.front
            in_stack = set(state.stack)
            self.remaining[b0] -= in_stack
            head = self.heads[b0]
            if head in in_stack and head != state.stack[-1]:
                self.remaining[head].discard(b0)
        # SWAP and free SHIFT commit nothing
