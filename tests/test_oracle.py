import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisrc.oracle import DynamicOracle
from multisrc.transitions import (
    LEFT_ARC,
    RIGHT_ARC,
    SHIFT,
    SWAP,
    ParserState,
    Transition,
    apply_transition,
    legal_transitions,
)
from multisrc.trees import DependencyTree

from .bruteforce import (
    best_future_loss,
    enumerate_policy_states,
    exhaustive_costs,
    policy_allowed,
)
from .helpers import (
    NoSwapOracle,
    is_projective,
    oracle_costs,
    random_projective_tree,
    random_tree,
)


def make_transition(kind, label="dep"):
    return Transition(kind, label) if kind in (LEFT_ARC, RIGHT_ARC) else Transition(kind)


def follow_oracle(gold, use_swap=True, chooser=None, step_bound_factor=4):
    """Run min-cost (zero-cost preferred) transitions to termination."""
    state = ParserState.initial(len(gold))
    oracle = DynamicOracle(gold) if use_swap else NoSwapOracle(gold)
    taken = []
    bound = step_bound_factor * len(gold) ** 2 + 50
    while not state.is_terminal():
        if len(taken) > bound:
            return None, taken
        costs = oracle.costs(state)
        if not use_swap:
            costs.pop(SWAP, None)
        best = min(costs.values())
        candidates = [k for k, c in costs.items() if c == best]
        kind = (chooser or (lambda ks: ks[0]))(candidates)
        if kind in (LEFT_ARC, RIGHT_ARC):
            transition = Transition(kind, gold.deprel_of(state.stack[-1]))
        else:
            transition = make_transition(kind)
        taken.append((kind, costs[kind]))
        oracle.advance(state, kind)
        state = apply_transition(state, transition)
    return state.to_tree(), taken


def all_trees(n):
    out = []
    for heads in itertools.product(range(0, n + 1), repeat=n):
        if sum(1 for h in heads if h == 0) != 1:
            continue
        if any(h == i + 1 for i, h in enumerate(heads)):
            continue
        try:
            out.append(DependencyTree(heads=list(heads)))
        except Exception:
            continue
    return out


def test_projective_completeness_minimal_cost_reconstructs_gold():
    rng = random.Random(11)
    for _ in range(200):
        gold = random_projective_tree(rng.randrange(1, 11), rng)
        tree, taken = follow_oracle(gold)
        assert tree is not None
        assert tree.heads == gold.heads
        assert tree.deprels == gold.deprels
        assert all(cost == 0 for _, cost in taken)


def test_swap_reconstructs_nonprojective_trees():
    rng = random.Random(23)
    nonprojective = 0
    for _ in range(200):
        gold = random_tree(rng.randrange(1, 9), rng)
        nonprojective += not is_projective(gold)
        tree, taken = follow_oracle(gold, use_swap=True)
        assert tree is not None and tree.heads == gold.heads
        assert all(cost == 0 for _, cost in taken)
    assert nonprojective >= 20


def test_without_swap_some_nonprojective_tree_fails():
    rng = random.Random(23)
    failures = 0
    for _ in range(200):
        gold = random_tree(rng.randrange(2, 9), rng)
        if is_projective(gold):
            continue
        tree, _ = follow_oracle(gold, use_swap=False)
        if tree is None or tree.heads != gold.heads:
            failures += 1
    assert failures > 0


def test_nonprojective_four_token_tree_needs_one_swap():
    # arc 4->2 crosses 1->3; a single swap makes it derivable
    gold = DependencyTree(heads=[0, 4, 1, 1], deprels=["root", "obj", "mod", "arg"])
    tree, taken = follow_oracle(gold, use_swap=True)
    assert tree.heads == gold.heads and tree.deprels == gold.deprels
    assert sum(1 for kind, _ in taken if kind == SWAP) == 1
    bad, _ = follow_oracle(gold, use_swap=False)
    assert bad is None or bad.heads != gold.heads


def test_forced_wrong_shift_then_costly_arc_decision_telescopes():
    # gold: 2 heads 1 and 3, root 2 (projective)
    gold = DependencyTree(heads=[2, 0, 2])
    state = ParserState.initial(3)
    oracle = DynamicOracle(gold)
    oracle.advance(state, SHIFT)
    state = apply_transition(state, make_transition(SHIFT))
    # the wrong SHIFT: burying 1 under 2 kills 2->1 and traps 2's head (root)
    costs = oracle.costs(state)
    assert costs[SHIFT] == 2
    oracle.advance(state, SHIFT)
    state = apply_transition(state, make_transition(SHIFT))
    taken = [0, 2]
    # eventual arc decision for 2 now kills the still-alive arc 2->3: cost >= 1
    costs = oracle.costs(state)
    assert costs[LEFT_ARC] >= 1
    oracle.advance(state, LEFT_ARC)
    state = apply_transition(state, make_transition(LEFT_ARC))
    taken.append(costs[LEFT_ARC])
    tree, rest = follow_oracle_from(state, oracle, gold)
    total = sum(taken) + sum(cost for _, cost in rest)
    errors = sum(1 for d in range(1, 4) if tree.head_of(d) != gold.head_of(d))
    assert total == errors > 0


def follow_oracle_from(state, oracle, gold):
    taken = []
    while not state.is_terminal():
        costs = oracle.costs(state)
        best = min(costs.values())
        kind = [k for k, c in costs.items() if c == best][0]
        label = gold.deprel_of(state.stack[-1]) if kind in (LEFT_ARC, RIGHT_ARC) else None
        taken.append((kind, costs[kind]))
        oracle.advance(state, kind)
        state = apply_transition(state, make_transition(kind, label))
    return state.to_tree(), taken


def test_costs_match_exhaustive_search_on_small_trees():
    # exact-match soundness on every policy-reachable state; the acceptance
    # suite runs the bigger sweep, this keeps a fast regression here
    rng = random.Random(3)
    trees = all_trees(3) + all_trees(4)
    trees += [random_tree(5, rng) for _ in range(40)]
    checked_states = 0
    for gold in trees:
        states, proj = enumerate_policy_states(gold)
        memo = {}
        for state in states:
            costs = trajectory_costs(gold, state)
            deltas = exhaustive_costs(state, gold, proj, memo)
            for kind, delta in deltas.items():
                assert costs[kind] == delta, (gold.heads, state.signature(), kind)
            checked_states += 1
    assert checked_states > 500


def trajectory_costs(gold, target_state):
    """Costs at target_state with bookkeeping replayed along a policy path."""
    from .bruteforce import _transition

    found = search_path(gold, target_state)
    assert found is not None, "state not policy-reachable"
    oracle = DynamicOracle(gold)
    state = ParserState.initial(len(gold))
    for kind in found:
        oracle.advance(state, kind)
        state = apply_transition(state, _transition(kind))
    assert state.signature() == target_state.signature()
    return oracle.costs(state)


def search_path(gold, target):
    from multisrc.trees import projective_order

    proj = projective_order(gold)
    start = ParserState.initial(len(gold))
    frontier = [(start, [])]
    seen = {start.signature()}
    while frontier:
        state, path = frontier.pop()
        if state.signature() == target.signature():
            return path
        for kind in policy_allowed(state, proj):
            from .bruteforce import _transition

            nxt = apply_transition(state, _transition(kind))
            if nxt.signature() not in seen:
                seen.add(nxt.signature())
                frontier.append((nxt, path + [kind]))
    return None


def test_oracle_costs_wrapper_matches_tracker_on_zero_cost_paths():
    rng = random.Random(8)
    for _ in range(40):
        gold = random_tree(rng.randrange(1, 7), rng)
        state = ParserState.initial(len(gold))
        oracle = DynamicOracle(gold)
        while not state.is_terminal():
            assert oracle_costs(state, gold) == oracle.costs(state)
            zero = [k for k, c in oracle.costs(state).items() if c == 0]
            kind = rng.choice(zero)
            label = gold.deprel_of(state.stack[-1]) if kind in (LEFT_ARC, RIGHT_ARC) else None
            oracle.advance(state, kind)
            state = apply_transition(state, make_transition(kind, label))


def test_prescribed_swap_zero_all_others_forced_positive():
    gold = DependencyTree(heads=[0, 4, 1, 1])
    state = ParserState.initial(4)
    oracle = DynamicOracle(gold)
    prescribed_seen = False
    while not state.is_terminal():
        costs = oracle.costs(state)
        if oracle.swap_prescribed(state):
            prescribed_seen = True
            assert costs[SWAP] == 0
            assert all(c > 0 for k, c in costs.items() if k != SWAP)
        kind = next(k for k, c in costs.items() if c == 0)
        label = "dep" if kind in (LEFT_ARC, RIGHT_ARC) else None
        oracle.advance(state, kind)
        state = apply_transition(state, make_transition(kind, label))
    assert prescribed_seen


@given(n=st.integers(min_value=1, max_value=40), projective=st.booleans(),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_costs_telescope_along_random_allowed_trajectories(n, projective, rng):
    # any policy that picks among the allowed kinds pays, in summed costs,
    # exactly the head errors of the tree it ends with
    gold = random_projective_tree(n, rng) if projective else random_tree(n, rng)
    state = ParserState.initial(n)
    oracle = DynamicOracle(gold)
    total = 0
    while not state.is_terminal():
        kind = rng.choice(oracle.allowed(state))
        total += oracle.costs(state)[kind]
        label = gold.deprel_of(state.stack[-1]) if kind in (LEFT_ARC, RIGHT_ARC) else None
        oracle.advance(state, kind)
        state = apply_transition(state, make_transition(kind, label))
    tree = state.to_tree()
    assert total == sum(tree.head_of(d) != gold.head_of(d) for d in range(1, n + 1))
