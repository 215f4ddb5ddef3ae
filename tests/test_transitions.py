import random

import pytest

from multisrc.errors import DataError
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
from multisrc.trees import DependencyTree, projective_order

from .helpers import is_projective, random_projective_tree, random_tree


def test_initial_state_allows_only_shift():
    state = ParserState.initial(3)
    assert legal_transitions(state) == [SHIFT]


def test_terminal_shape_allows_only_right_arc():
    state = ParserState(stack=[0, 2], buffer=[], n=2, arcs={1: (2, "dep")})
    assert legal_transitions(state) == [RIGHT_ARC]


def test_one_token_sentence_smallest_parse():
    state = ParserState.initial(1)
    state = apply_transition(state, Transition(SHIFT))
    assert legal_transitions(state) == [RIGHT_ARC]
    state = apply_transition(state, Transition(RIGHT_ARC, "root"))
    assert state.is_terminal()
    tree = state.to_tree()
    assert tree.heads == [0]
    assert tree.deprels == ["root"]


def test_left_arc_semantics():
    state = ParserState(stack=[0, 1], buffer=[2], n=2)
    out = apply_transition(state, Transition(LEFT_ARC, "l"))
    assert out.arcs == {1: (2, "l")}
    assert out.stack == [0]
    assert out.buffer == [2]
    # input untouched
    assert state.arcs == {} and state.stack == [0, 1]


def test_right_arc_semantics():
    state = ParserState(stack=[0, 1, 2], buffer=[], n=2)
    out = apply_transition(state, Transition(RIGHT_ARC, "r"))
    assert out.arcs == {2: (1, "r")}
    assert out.stack == [0, 1]


def test_swap_semantics_rebuffers_top_behind_front():
    state = ParserState(stack=[0, 2], buffer=[3, 4], n=4, arcs={1: (2, "x")})
    out = apply_transition(state, Transition(SWAP))
    assert out.stack == [0]
    assert out.buffer == [3, 2, 4]


def test_swap_guard_blocks_reswapped_token():
    # derive by simulation: swapping 2 behind 3 leaves a state whose stack
    # top (3) has a larger original index than the front (2), so the guard
    # forbids swapping again
    state = ParserState.initial(4)
    state = apply_transition(state, Transition(SHIFT))  # stack [0,1]
    state = apply_transition(state, Transition(LEFT_ARC, "x"))  # pop 1
    state = apply_transition(state, Transition(SHIFT))  # stack [0,2]
    assert SWAP in legal_transitions(state)
    state = apply_transition(state, Transition(SWAP))  # buffer [3,2,4]
    assert state.buffer == [3, 2, 4]
    state = apply_transition(state, Transition(SHIFT))  # stack [0,3]
    assert state.stack == [0, 3] and state.buffer == [2, 4]
    assert SWAP not in legal_transitions(state)


def test_illegal_transition_raises():
    state = ParserState.initial(2)
    with pytest.raises(DataError, match="illegal"):
        apply_transition(state, Transition(RIGHT_ARC, "r"))
    with pytest.raises(DataError):
        Transition(LEFT_ARC)  # arc transitions need labels
    with pytest.raises(DataError):
        Transition("bogus")


def test_every_random_derivation_terminates_and_yields_valid_tree():
    rng = random.Random(99)
    for trial in range(500):
        n = rng.randrange(1, 9)
        state = ParserState.initial(n)
        steps = 0
        bound = 2 * n + n * n + 10  # shifts/arcs plus at most one swap per pair
        while not state.is_terminal():
            kinds = legal_transitions(state)
            assert kinds, f"dead end in {state.signature()}"
            kind = rng.choice(kinds)
            label = "dep" if kind in (LEFT_ARC, RIGHT_ARC) else None
            state = apply_transition(state, Transition(kind, label))
            steps += 1
            assert steps <= bound, "derivation exceeded the O(n^2) bound"
            # stack, buffer and attached tokens partition 1..n at all times
            pending = set(state.stack) | set(state.buffer)
            attached = set(state.arcs)
            assert not (pending & attached)
            assert pending | attached == set(range(0, n + 1))
            assert state.stack[0] == 0 and 0 not in attached
        tree = state.to_tree()
        assert len(tree) == n  # single-headed & acyclic enforced by validate()


# --- tree utilities -------------------------------------------------------


def test_projectivity_detection():
    assert is_projective(DependencyTree(heads=[2, 3, 0]))
    # arc 4->2 crosses arc 1->3
    assert not is_projective(DependencyTree(heads=[0, 4, 1, 1]))


def test_projective_order_identity_on_projective_trees():
    rng = random.Random(1)
    for _ in range(50):
        tree = random_projective_tree(rng.randrange(1, 9), rng)
        order = projective_order(tree)
        assert order == {i: i for i in range(1, len(tree) + 1)}


def test_projective_order_makes_nonprojective_tree_projective():
    tree = DependencyTree(heads=[0, 4, 1, 1])
    order = projective_order(tree)
    assert sorted(order) == [1, 2, 3, 4]
    # reorder tokens by rank and remap heads: the result must be projective
    rank = [order[i] for i in range(1, len(tree) + 1)]
    new_heads = [0] * len(tree)
    for dep in range(1, len(tree) + 1):
        head = tree.head_of(dep)
        new_heads[order[dep] - 1] = 0 if head == 0 else order[head]
    assert is_projective(DependencyTree(heads=new_heads))


def test_tree_validation():
    with pytest.raises(DataError, match="exactly one root"):
        DependencyTree(heads=[0, 0])
    with pytest.raises(DataError, match="heads itself"):
        DependencyTree(heads=[1, 0])
    with pytest.raises(DataError, match="cycle"):
        DependencyTree(heads=[2, 3, 1, 0])
    with pytest.raises(DataError, match="out of range"):
        DependencyTree(heads=[9, 0])


def test_random_generators_produce_valid_trees():
    rng = random.Random(5)
    saw_nonprojective = False
    for _ in range(100):
        n = rng.randrange(1, 9)
        tree = random_tree(n, rng)
        assert len(tree) == n
        saw_nonprojective |= not is_projective(tree)
        proj_tree = random_projective_tree(n, rng)
        assert is_projective(proj_tree)
    assert saw_nonprojective
