import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from multisrc.errors import DataError, NumericError
from multisrc.nn import layers, optim
from multisrc.nn import tensor as T
from multisrc.nn.checkpoint import load_checkpoint, save_checkpoint
from multisrc.nn.layers import LSTM, AdditiveAttention, Affine, BiLSTM, Embedding, ParamSet
from multisrc.nn.optim import EPS, Optimizer, TrainerConfig, fit
from multisrc.nn.tensor import Parameter

from . import decoder_reference as R
from .gradcheck import add, constant, dot, finite_difference_check, mul, random_param, vsum
from .helpers import dense_adam_reference


def rng():
    return np.random.default_rng(12345)


# --- basic ops ----------------------------------------------------------


def test_backward_of_constant_loss_gives_zero_grads():
    w = random_param(rng(), "w", (3,))
    loss = dot(constant(np.zeros(3)), constant(np.zeros(3)))
    loss.backward()
    assert np.all(w.grad == 0)


def test_hand_derived_quadratic():
    # loss = (w.x - y)^2 with w=[1,2], x=[3,4], y=10 -> dloss/dw = [6, 8]
    w = Parameter("w", np.array([1.0, 2.0]))
    x = constant(np.array([3.0, 4.0]))
    pred = dot(w, x)
    diff = add(pred, constant(-10.0))
    loss = mul(diff, diff)
    loss.backward()
    assert np.allclose(w.grad, [6.0, 8.0])


def test_non_scalar_backward_rejected():
    w = random_param(rng(), "w", (3,))
    with pytest.raises(DataError):
        T.tanh(w).backward()


# add, mul, dot and vsum are the tests' own loss builders (tests/gradcheck.py); matvec,
# vecmat, matmat, transpose, softmax, add_rowvec and narrow are the step-by-step lemma
# decoder's ops, kept with it in tests/decoder_reference.py
@pytest.mark.parametrize(
    "op_name",
    ["add", "mul", "matvec", "affine", "affine_matrix", "vecmat", "matmat", "dot", "concat",
     "concat_matrix", "stack", "stack_matrix", "row", "tanh", "softmax", "add_rowvec",
     "cross_entropy", "total", "narrow", "vsum", "lemma_sequence", "transition_margins",
     "transition_margin_single"],
)
def test_finite_difference_per_op(op_name):
    r = np.random.default_rng(7)
    a = random_param(r, "a", (4,))
    b = random_param(r, "b", (4,))
    m = random_param(r, "m", (3, 4))
    m2 = random_param(r, "m2", (4, 3))
    probe = constant(r.uniform(-1, 1, size=3))
    probe4 = constant(r.uniform(-1, 1, size=4))
    c = random_param(r, "c", (3,))
    h0, chars, tag, prev, lstm, att, head = R.random_lemma_inputs(np.random.default_rng(8), 3, 4)
    # a 3-token sentence's 5 slots (root 0, tokens 1-3, empty slot -1) of width 2,
    # read at 4 positions by a 3-unit hidden layer, scoring 5 transitions
    slots = random_param(r, "slots", (5, 2))
    scorer = [random_param(r, "hidden.w", (3, 8)), random_param(r, "hidden.b", (3,)),
              random_param(r, "out.w", (5, 3)), random_param(r, "out.b", (5,))]

    builders = {
        "add": (lambda: dot(add(a, b), probe4), [a, b]),
        "mul": (lambda: dot(mul(a, b), probe4), [a, b]),
        "matvec": (lambda: dot(R.matvec(m, a), probe), [m, a]),
        "affine": (lambda: dot(T.affine(m, a, c), probe), [m, a, c]),
        # rows of m2.T as inputs: each row of the output is one affine image
        "affine_matrix": (lambda: dot(R.matvec(T.tanh(T.affine(m, R.transpose(m2), c)), probe),
                                      probe), [m, m2, c]),
        "vecmat": (lambda: dot(R.vecmat(a, m2), probe), [a, m2]),
        "matmat": (lambda: vsum(R.matvec(R.matmat(m, m2), probe)), [m, m2]),
        "dot": (lambda: dot(a, b), [a, b]),
        "concat": (lambda: vsum(T.tanh(T.concat([a, b]))), [a, b]),
        "concat_matrix": (
            lambda: vsum(R.matvec(T.concat([m, R.transpose(m2)]), T.concat([a, b]))), [m, m2, a, b]
        ),
        "stack": (lambda: vsum(R.matvec(T.stack([a, b, T.tanh(a)]), probe4)), [a, b]),
        # vector parts, matrix parts and a part without rows, in one stack
        "stack_matrix": (
            lambda: vsum(R.matvec(T.stack([a, m, constant(np.zeros((0, 4))), T.tanh(m), b]),
                                  probe4)), [a, m, b]),
        "row": (lambda: dot(add(T.row(m, 1), T.row(m, -1)), probe4), [m]),
        "tanh": (lambda: dot(T.tanh(a), probe4), [a]),
        "softmax": (lambda: dot(R.softmax(a), probe4), [a]),
        "add_rowvec": (lambda: dot(R.matvec(R.add_rowvec(m, b), a), probe), [m, b, a]),
        # three rows, two of them with the same target
        "cross_entropy": (lambda: T.cross_entropy(R.matmat(m, m2), [1, 2, 1]), [m, m2]),
        "total": (lambda: T.total([dot(a, b), T.cross_entropy(T.stack([R.matvec(m, a)]), [1]),
                                   dot(c, probe)]), [a, b, m, c]),
        "narrow": (lambda: dot(R.narrow(a, 1, 2), constant([0.3, -0.7])), [a]),
        "vsum": (lambda: vsum(T.tanh(a)), [a]),
        "lemma_sequence": (
            lambda: T.lemma_sequence(h0, chars, tag, prev, [1, 3, 3, 0], lstm, att, head),
            [h0, chars, tag, prev, *lstm, *att, *head],
        ),
        # the empty slot at several positions, the root slot, and slots that
        # several margins share, through a tanh so the slot grads pass on
        "transition_margins": (
            lambda: T.transition_margins(T.tanh(slots), *scorer,
                                         [[1, 0, -1, 2], [2, -1, -1, 3], [3, 2, 0, -1]],
                                         [0, 4, 2], [3, 1, 4]),
            [slots, *scorer],
        ),
        "transition_margin_single": (
            lambda: T.transition_margins(slots, *scorer, [[0, -1, -1, 1]], [2], [0]),
            [slots, *scorer],
        ),
    }
    build, params = builders[op_name]
    finite_difference_check(build, params)


def test_every_public_tensor_function_has_a_caller_in_src():
    # the core holds only ops that the program calls; an op whose last caller
    # goes moves to the tests (tests/decoder_reference.py) or is deleted
    package = Path(T.__file__).resolve().parent.parent
    source = "\n".join(p.read_text(encoding="utf-8") for p in sorted(package.rglob("*.py"))
                       if p.resolve() != Path(T.__file__).resolve())
    public = [name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")]
    assert "lemma_sequence" in public
    uncalled = [name for name in public
                if not re.search(rf"\bT\.{name}\b|import [^\n]*\b{name}\b", source)]
    assert uncalled == []


# public names that src/ defines for callers outside it; a method is named
# Class.method
CALLED_FROM_OUTSIDE_SRC = {
    "lookalike_of": "ground truth of the synthetic corpora, read by their tests",
    "conflict_sentence_indices": "ground truth of the synthetic corpora, read by their tests",
    "ArgumentParser.error": "an argparse override: argparse calls it on a bad command line",
}


def test_every_public_function_and_class_has_a_caller_in_src():
    # src/ holds only code that the program runs; a helper whose last caller
    # goes moves to the tests (tests/helpers.py) or is deleted.  A method or
    # property counts as called when src/ reads an attribute of its name.
    package = Path(T.__file__).resolve().parent.parent
    defined, referenced = {}, set()
    public = (ast.FunctionDef, ast.ClassDef)
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, public) and not node.name.startswith("_"):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{item.name}": item.name for item in node.body
                            if isinstance(item, public) and not item.name.startswith("_")}
        if path.name != "__init__.py":  # a re-export is not a call
            referenced |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "DependencyParser" in defined and "Sentence.text" in defined
    uncalled = [qualname for qualname, name in defined.items() if name not in referenced]
    assert sorted(uncalled) == sorted(CALLED_FROM_OUTSIDE_SRC)


def test_every_name_a_src_module_imports_is_read_in_it():
    # no linter runs on src/; an import whose last use moved away is dead
    # code.  __init__.py modules import to re-export.
    package = Path(T.__file__).resolve().parent.parent
    unread = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.relative_to(package)}: {name}" for name in sorted(imported - read)]
    assert unread == []


def test_total_folds_left_to_right():
    cancelling = [constant(v) for v in (1e16, 1.0, -1e16, 1.0)]
    assert float(T.total(cancelling).data) == 1.0  # exact sum is 2
    values = np.random.default_rng(0).standard_normal(40)
    fold = values[0]
    for v in values[1:]:
        fold = fold + v
    assert fold != np.sum(values)  # numpy's pairwise sum rounds differently here
    assert T.total([constant(v) for v in values]).data.tobytes() == np.float64(fold).tobytes()
    with pytest.raises(DataError):
        T.total([])


def test_transition_margins_value_and_rejected_inputs():
    r = np.random.default_rng(4)
    slots = random_param(r, "slots", (5, 2))
    w, b = random_param(r, "w", (3, 8)), random_param(r, "b", (3,))
    w_out, b_out = random_param(r, "w_out", (5, 3)), random_param(r, "b_out", (5,))
    ids, costly, zero = [[1, 0, -1, 2], [4, 3, 0, -1]], [0, 4], [3, 1]
    hidden = np.tanh(b.data + np.concatenate([slots.data[i] for i in ids[1]]) @ w.data.T)
    scores = w_out.data @ hidden + b_out.data
    margins = T.transition_margins(slots, w, b, w_out, b_out, ids, costly, zero)
    single = T.transition_margins(slots, w, b, w_out, b_out, ids[:1], costly[:1], zero[:1])
    expected = float(single.data) + 1.0 + (scores[4] - scores[1])
    assert float(margins.data) == pytest.approx(expected, rel=1e-14)
    for bad_ids, bad_costly, bad_zero in [
        ([], [], []),  # no margin
        ([[1, 0, -1]], [0], [3]),  # three positions for a four-block weight
        ([[1, 0, 5, 2]], [0], [3]),  # slot 5 of 5
        ([[1, 0, -6, 2]], [0], [3]),
        ([[1, 0, -1, 2]], [0, 1], [3]),  # two costly indices for one margin
        ([[1, 0, -1, 2]], [3], [3]),  # costly == zero-cost
    ]:
        with pytest.raises(DataError):
            T.transition_margins(slots, w, b, w_out, b_out, bad_ids, bad_costly, bad_zero)


def test_lstm_cell_gradcheck():
    r = np.random.default_rng(3)
    hidden, in_dim = 3, 2
    w = random_param(r, "w", (4 * hidden, in_dim))
    u = random_param(r, "u", (4 * hidden, hidden))
    b = random_param(r, "b", (4 * hidden,))
    x = random_param(r, "x", (in_dim,))
    probe = constant(r.uniform(-1, 1, size=2 * hidden))

    def build():
        h0 = constant(np.zeros(hidden))
        c0 = constant(np.zeros(hidden))
        hc1 = R.lstm_cell(x, h0, c0, w, u, b)
        h1, c1 = R.split_state(hc1, hidden)
        hc2 = R.lstm_cell(x, h1, c1, w, u, b)
        return dot(hc2, probe)

    finite_difference_check(build, [w, u, b, x])


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_sequence_gradcheck(reverse):
    r = np.random.default_rng(4)
    n, hidden, in_dim = 4, 3, 2
    w = random_param(r, "w", (4 * hidden, in_dim))
    u = random_param(r, "u", (4 * hidden, hidden))
    b = random_param(r, "b", (4 * hidden,))
    xs = random_param(r, "xs", (n, in_dim))
    probe = constant(r.uniform(-1, 1, (n, hidden)))

    def build():
        return vsum(mul(T.lstm_sequence(xs, w, u, b, reverse), probe))

    finite_difference_check(build, [w, u, b, xs])


def _step_by_step(xs, w, u, b, reverse):
    """The per-step `lstm_cell` loop `lstm_sequence` replaces: one cell
    node and two narrows per timestep, states put back in input order."""
    hidden = u.data.shape[1]
    h, c = constant(np.zeros(hidden)), constant(np.zeros(hidden))
    states = [None] * xs.data.shape[0]
    order = range(len(states) - 1, -1, -1) if reverse else range(len(states))
    for t in order:
        h, c = R.split_state(R.lstm_cell(T.row(xs, t), h, c, w, u, b), hidden)
        states[t] = h
    return T.stack(states)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("n, in_dim, hidden", [(1, 3, 2), (7, 16, 32), (25, 64, 128)])
def test_lstm_sequence_matches_the_step_by_step_cell_loop(n, in_dim, hidden, reverse):
    # hoisting the input projection changes summation order, so the fused
    # op agrees with the cell loop to 1e-12, not bit for bit
    r = np.random.default_rng(n + hidden)
    shapes = {"w": (4 * hidden, in_dim), "u": (4 * hidden, hidden), "b": (4 * hidden,),
              "xs": (n, in_dim)}
    values = {name: r.uniform(-0.5, 0.5, shape) for name, shape in shapes.items()}
    probe = constant(r.uniform(-1, 1, (n, hidden)))
    results = []
    for run in (_step_by_step, T.lstm_sequence):
        ps = {name: Parameter(name, v.copy()) for name, v in values.items()}
        out = run(ps["xs"], ps["w"], ps["u"], ps["b"], reverse)
        vsum(mul(out, probe)).backward()
        results.append((out.data, {name: p.grad for name, p in ps.items()}))
    (old_out, old_grads), (new_out, new_grads) = results
    assert np.allclose(new_out, old_out, rtol=0, atol=1e-12)
    for name in shapes:
        scale = max(np.abs(old_grads[name]).max(), 1.0)
        assert np.abs(new_grads[name] - old_grads[name]).max() <= 1e-12 * scale, name


def test_lstm_sequence_rejects_an_empty_input():
    r = np.random.default_rng(0)
    w, u, b = random_param(r, "w", (8, 3)), random_param(r, "u", (8, 2)), random_param(r, "b", (8,))
    with pytest.raises(DataError, match="non-empty"):
        T.lstm_sequence(constant(np.zeros((0, 3))), w, u, b)


def test_embedding_lookup_and_repeat_accumulation():
    ps = ParamSet(rng())
    emb = Embedding(ps, "emb", 5, 3)
    probe = constant([0.2, -0.4, 0.9])

    def build():
        # same row looked up twice: gradient sums both contributions
        return dot(add(emb(1), emb(1)), probe)

    finite_difference_check(build, [emb.table])
    emb.table.zero_grad()
    build().backward()
    assert np.allclose(emb.table.grad[1], 2 * probe.data)
    assert np.all(emb.table.grad[0] == 0)
    with pytest.raises(DataError):
        emb(5)
    with pytest.raises(DataError):
        emb(-1)


def test_embedding_many_row_lookup_gradcheck_and_repeats():
    ps = ParamSet(rng())
    emb = Embedding(ps, "emb", 5, 3)
    probe = constant(np.random.default_rng(8).uniform(-1, 1, (4, 3)))

    def build():
        return vsum(mul(T.tanh(emb.rows([1, 3, 1, 0])), probe))

    finite_difference_check(build, [emb.table])
    assert np.array_equal(emb.rows([2, 0]).data, emb.table.data[[2, 0]])
    emb.table.zero_grad()
    vsum(mul(emb.rows([1, 3, 1, 0]), probe)).backward()
    assert np.allclose(emb.table.grad[1], probe.data[0] + probe.data[2])
    assert np.all(emb.table.grad[[2, 4]] == 0)
    for bad in ([], [5], [0, -1]):
        with pytest.raises(DataError):
            emb.rows(bad)


def test_affine_and_two_layer_network_gradcheck():
    ps = ParamSet(rng())
    layer1 = Affine(ps, "l1", 3, 4)
    layer2 = Affine(ps, "l2", 4, 2)
    x = constant([0.3, -0.5, 0.8])

    def build():
        return T.cross_entropy(T.stack([layer2(T.tanh(layer1(x)))]), [0])

    finite_difference_check(build, ps.all())


# --- LSTM / BiLSTM behaviour --------------------------------------------


def test_bilstm_zero_weights_give_zero_outputs():
    ps = ParamSet(rng())
    net = BiLSTM(ps, "bi", 2, 3)
    for p in ps.all():
        p.data[...] = 0.0
    outs = net.run(constant([[1.0, 2.0], [-1.0, 0.5]]))
    assert outs.data.shape == (2, 6)
    assert np.all(outs.data == 0.0)


def test_bilstm_output_shapes():
    ps = ParamSet(rng())
    net = BiLSTM(ps, "bi", 4, 5)
    seq = constant(np.stack([np.linspace(-1, 1, 4) * k for k in range(1, 4)]))
    assert net.run(seq).data.shape == (3, 10)
    with pytest.raises(DataError):
        net.run(constant(np.zeros((0, 4))))


def test_backward_direction_mirrors_forward_on_reversed_input():
    # when both directions share weights, the backward channel applied to
    # the reversed sequence equals the reversed forward outputs
    ps = ParamSet(rng())
    net = BiLSTM(ps, "bi", 3, 4)
    net.bwd.w.data = net.fwd.w.data.copy()
    net.bwd.u.data = net.fwd.u.data.copy()
    net.bwd.b.data = net.fwd.b.data.copy()
    seq = np.random.default_rng(0).uniform(-1, 1, (5, 3))
    fwd_outs, _ = net.directions(constant(seq))
    _, bwd_on_reversed = net.directions(constant(seq[::-1]))
    assert np.allclose(fwd_outs.data[::-1], bwd_on_reversed.data)


def test_bilstm_gradcheck():
    ps = ParamSet(np.random.default_rng(5))
    net = BiLSTM(ps, "bi", 2, 2)
    r = np.random.default_rng(1)
    seq_data = [r.uniform(-1, 1, 2) for _ in range(3)]
    probe = constant(r.uniform(-1, 1, 4))

    def build():
        outs = net.run(T.stack([constant(x) for x in seq_data]))
        return dot(T.row(outs, 1), probe)

    finite_difference_check(build, ps.all())


def test_attention_gradcheck():
    ps = ParamSet(np.random.default_rng(9))
    att = AdditiveAttention(ps, "att", query_dim=3, enc_dim=2, hidden=4)
    # v is zero-initialized; give it values so the gradcheck is not at a saddle
    att.v.data = np.random.default_rng(2).uniform(-0.5, 0.5, 4)
    r = np.random.default_rng(4)
    enc_data = [r.uniform(-1, 1, 2) for _ in range(3)]
    query = random_param(r, "q", (3,))
    probe = constant(r.uniform(-1, 1, 2))
    params = (att.w_query, att.w_enc, att.v)

    def build():
        stacked = T.stack([constant(e) for e in enc_data])
        ctx = R.attend(params, query, stacked, R.attention_keys(params, stacked))
        return dot(ctx, probe)

    finite_difference_check(build, [*params, query])


def test_operations_never_mutate_their_inputs():
    ps = ParamSet(np.random.default_rng(21))
    net = BiLSTM(ps, "bi", 3, 4)
    head = Affine(ps, "head", 8, 3)
    inputs = [constant(np.random.default_rng(i).uniform(-1, 1, 3)) for i in range(4)]
    snapshots = [x.data.copy() for x in inputs]
    param_snapshots = {p.name: p.data.copy() for p in ps.all()}
    loss = T.cross_entropy(head(net.run(T.stack(inputs))), [1, 0, 2, 1])
    loss.backward()
    for x, snap in zip(inputs, snapshots):
        assert np.array_equal(x.data, snap)
    for p in ps.all():  # values untouched until the optimizer steps
        assert np.array_equal(p.data, param_snapshots[p.name])


# --- optimizer -----------------------------------------------------------


def test_adam_first_step_definition():
    # after one step the bias-corrected moments are g and g*g, so each
    # element moves by lr * g / (|g| + eps)
    g = np.array([1.0, -2.0])
    p = Parameter("p", np.zeros(2))
    p.grad = g.copy()
    config = TrainerConfig(learning_rate=0.1)
    Optimizer([p], config).step()
    assert np.allclose(p.data, -0.1 * g / (np.abs(g) + EPS), rtol=1e-12, atol=0)
    assert np.all(p.grad == 0)


def test_adam_zero_gradient_no_change():
    p = Parameter("p", np.array([1.0, 2.0]))
    Optimizer([p], TrainerConfig(learning_rate=0.1)).step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_nan_gradient_raises_naming_parameter():
    p = Parameter("bad_param", np.zeros(2))
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(NumericError, match="bad_param"):
        Optimizer([p], TrainerConfig(learning_rate=0.1)).step()
    # a non-finite value that reaches a table row through either lookup
    # names the table, and the step changes no parameter and no moment
    for bad in (np.nan, np.inf, -np.inf):
        for lookup in ("one", "rows"):
            ps = ParamSet(np.random.default_rng(4))
            layer, emb = Affine(ps, "dense", 3, 2), Embedding(ps, "bad_table", 9, 3)
            opt = Optimizer(ps.all(), TrainerConfig(learning_rate=0.1))
            backward_lookups(layer, emb, [("rows", [1, 2], np.ones((2, 3)))], dense=np.ones((2, 3)))
            opt.step()
            before = snapshot(opt)
            upstream = np.array([0.5, bad, 1.0])
            batch = [("one", 7, upstream)] if lookup == "one" else [("rows", [2, 7, 2], np.stack([upstream] * 3))]
            with np.errstate(invalid="ignore"):
                backward_lookups(layer, emb, batch, dense=np.ones((2, 3)))
            with pytest.raises(NumericError, match="bad_table"):
                opt.step()
            after = snapshot(opt)
            assert opt.step_count == 1 and before.keys() == after.keys()
            for name in before:
                if not name.endswith(".grad"):
                    assert np.array_equal(before[name], after[name]), name


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"learning_rate": float("nan")}, "learning rate must be finite and > 0, got nan"),
        ({"learning_rate": float("inf")}, "learning rate must be finite and > 0, got inf"),
        ({"learning_rate": 0.0}, "learning rate must be finite and > 0, got 0.0"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"epochs": -2}, "epochs must be >= 1, got -2"),
    ],
    ids=["nan", "inf", "zero", "epochs-0", "epochs-neg"],
)
def test_trainer_config_refuses_a_non_finite_learning_rate_and_no_epochs(fields, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        TrainerConfig(**fields)


def test_adam_determinism_bit_identical():
    def run():
        ps = ParamSet(np.random.default_rng(77))
        layer = Affine(ps, "l", 3, 2)
        opt = Optimizer(ps.all(), TrainerConfig(learning_rate=0.01))
        for step in range(10):
            x = constant(np.array([0.1, 0.2, 0.3]) * (step + 1))
            loss = T.cross_entropy(T.stack([layer(x)]), [step % 2])
            loss.backward()
            opt.step()
        return {p.name: p.data.copy() for p in ps.all()}

    run1, run2 = run(), run()
    for name in run1:
        assert np.array_equal(run1[name], run2[name])


def backward_lookups(layer, emb, lookups, dense):
    """Back-propagate one loss: the dense layer's weights times `dense`, and
    each (how, ids, upstream) table lookup, one row (`emb(ids)`) or many
    (`emb.rows(ids)`), times its upstream gradient."""
    losses = [vsum(mul(layer.w, constant(dense))), vsum(mul(layer.b, constant(dense[:, 0])))]
    for how, ids, upstream in lookups:
        rows = emb(ids) if how == "one" else emb.rows(ids)
        losses.append(vsum(mul(rows, constant(upstream))))
    T.total(losses).backward()


def snapshot(optimizer):
    """Copies of every parameter's data and gradient and both its moments."""
    state = {}
    for p in optimizer.params:
        state[p.name], state[p.name + ".grad"] = p.data.copy(), p.grad.copy()
        for moment, values in zip("mv", optimizer._moments.get(p.name, ())):
            state[f"{p.name}.{moment}"] = values.copy()
    return state


def plan_every_row(step, rng, vocab):
    if step == 0:
        return [("rows", list(range(vocab)))]
    return [("rows", sorted(rng.choice(vocab, size=5, replace=False).tolist()))]


ADAM_SWEEP_CASES = {
    # (vocab, dim, plan(step, rng, vocab) -> [(how, ids)])
    "dense-only": (6, 3, lambda step, rng, vocab: []),
    "one-row-table": (1, 5, lambda step, rng, vocab: [("one", 0)] if step % 2 else []),
    "table-over-one-chunk": (
        optim.CHUNK // 8 + 37, 8,
        lambda step, rng, vocab: [
            ("rows", rng.integers(0, vocab, size=40).tolist()),
            ("rows", list(range(optim.CHUNK // 8 - 3 + step, optim.CHUNK // 8 + 6 + step))),
        ],
    ),
    "rows-first-seen-late": (
        12, 4,
        lambda step, rng, vocab: [("rows", [0, 1, 2, 3, 4])] + ([("one", 9), ("rows", [7])] if step >= 8 else []),
    ),
    "repeated-ids": (8, 3, lambda step, rng, vocab: [("rows", [3, 3, 5, 3]), ("one", 3), ("one", step % 8)]),
    "every-row-seen": (40, 6, plan_every_row),
}


@pytest.mark.parametrize("chunk", [None, 24], ids=["chunk-default", "chunk-24"])
@pytest.mark.parametrize("case", sorted(ADAM_SWEEP_CASES))
def test_adam_sweep_is_bit_identical_to_the_dense_reference(case, chunk, monkeypatch):
    # `step` sweeps dense parameters and the seen rows of the table in blocks;
    # the reference sweeps every element at once.  Twins built from one seed
    # take the same gradients for 12 steps and must agree in every bit.
    if chunk is not None:
        monkeypatch.setattr(optim, "CHUNK", chunk)
    vocab, dim, plan = ADAM_SWEEP_CASES[case]
    twins = []
    for _ in range(2):
        ps = ParamSet(np.random.default_rng(11))
        layer, emb = Affine(ps, "dense", 4, 3), Embedding(ps, "table", vocab, dim)
        twins.append((layer, emb, Optimizer(ps.all(), TrainerConfig(learning_rate=0.05))))
    rng = np.random.default_rng(5)
    for step in range(12):
        lookups = [(how, ids, rng.normal(scale=10.0 ** rng.integers(-3, 2), size=np.shape(ids) + (dim,)))
                   for how, ids in plan(step, rng, vocab)]
        dense = rng.normal(size=(3, 4))
        for layer, emb, _ in twins:
            backward_lookups(layer, emb, lookups, dense)
        (_, _, swept), (_, _, reference) = twins
        swept.step()
        dense_adam_reference(reference)
        got, want = snapshot(swept), snapshot(reference)
        assert got.keys() == want.keys() and len(got) == 4 * len(swept.params)
        for name in want:
            assert np.array_equal(got[name], want[name]), (step, name)
    if case == "every-row-seen":
        assert twins[0][1].table.seen.all()


# --- the training loop -------------------------------------------------------


class StubNetwork:
    """What `fit` reads of a network.  An item is (name, size, has_loss); its
    one loss is the sum of the network's one parameter."""

    def __init__(self):
        self.params = ParamSet(np.random.default_rng(0))
        self.w = self.params.vector("w", 2)
        self.calls = []  # (epoch, item name, a value drawn from the rng fit passes)

    def sentence_losses(self, item, mode, rng, epoch):
        assert mode == "gold"
        self.calls.append((epoch, item[0], int(rng.integers(1 << 30))))
        return [vsum(self.w)] if item[2] else []


def counted_steps(monkeypatch):
    steps, original = [], Optimizer.step
    monkeypatch.setattr(Optimizer, "step", lambda self: (steps.append(1), original(self)))
    return steps


def test_fit_takes_a_size_capped_prefix_of_each_shuffled_epoch(monkeypatch):
    steps = counted_steps(monkeypatch)
    items = [("a", 3, True), ("b", 1, False), ("c", 1, True), ("d", 3, True), ("e", 5, True)]
    model, cap = StubNetwork(), 4
    trainer = TrainerConfig(learning_rate=0.1, epochs=8, seed=3)
    history = fit(model, items, "gold", trainer, cap, lambda item: item[1])
    assert [len(history[key]) for key in ("epoch_loss", "epoch_updates")] == [8, 8]
    # the generator that shuffles the epochs is the one sentence_losses draws
    # from, in call order: replaying both on a fresh generator gives the run
    reference = np.random.default_rng(trainer.seed)
    for epoch in range(trainer.epochs):
        order = [items[i] for i in reference.permutation(len(items))]
        calls = [call for call in model.calls if call[0] == epoch]
        taken = order[:len(calls)]
        assert [name for _, name, _ in calls] == [name for name, _, _ in taken]
        assert [drawn for *_, drawn in calls] == [int(reference.integers(1 << 30)) for _ in calls]
        used = sum(size for _, size, _ in taken)
        # at least one item; stop before the item that would pass the cap
        assert len(taken) == 1 or used <= cap
        assert len(taken) == len(order) or used + order[len(taken)][1] > cap
        # an item without losses counts toward the cap but makes no update
        assert history["epoch_updates"][epoch] == sum(has_loss for *_, has_loss in taken)
    assert len(steps) == sum(history["epoch_updates"])
    firsts = [[name for e, name, _ in model.calls if e == epoch][0] for epoch in range(8)]
    assert "e" in firsts  # an item larger than the cap, taken first
    assert "b" in {name for _, name, _ in model.calls}  # a lossless item, taken


def test_fit_always_takes_one_item_and_steps_only_on_losses(monkeypatch):
    steps = counted_steps(monkeypatch)
    trainer = TrainerConfig(learning_rate=0.1, epochs=3)
    model = StubNetwork()
    history = fit(model, [("big", 9, True), ("big2", 9, True)], "gold", trainer, 4, lambda i: i[1])
    assert history["epoch_updates"] == [1, 1, 1] and len(steps) == 3
    assert history["epoch_loss"][0] == 0.0 and history["epoch_loss"][1] < 0.0  # w moved
    history = fit(StubNetwork(), [("none", 1, False)], "gold", trainer, 4, lambda i: i[1])
    assert history == {"epoch_loss": [0.0] * 3, "epoch_updates": [0] * 3} and len(steps) == 3
    with pytest.raises(DataError, match="^empty training data$"):
        fit(StubNetwork(), [], "gold", trainer, 4, lambda i: i[1])


# --- checkpoints ----------------------------------------------------------


def test_checkpoint_roundtrip_exact(tmp_path):
    ps = ParamSet(np.random.default_rng(11))
    Affine(ps, "l1", 7, 5)
    Embedding(ps, "emb", 13, 4)
    path = tmp_path / "model.npz"
    save_checkpoint(path, "test_model", {"dims": [7, 5]}, ps.state_arrays())
    kind, meta, arrays = load_checkpoint(path)
    assert kind == "test_model"
    assert meta == {"dims": [7, 5]}
    ps2 = ParamSet(np.random.default_rng(999))
    Affine(ps2, "l1", 7, 5)
    Embedding(ps2, "emb", 13, 4)
    ps2.load_arrays(arrays)
    for name, p in ps.params.items():
        assert np.array_equal(p.data, ps2.params[name].data)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    ps = ParamSet(np.random.default_rng(1))
    Affine(ps, "l1", 3, 2)
    path = tmp_path / "m.npz"
    save_checkpoint(path, "m", {}, ps.state_arrays())
    _, _, arrays = load_checkpoint(path)
    ps2 = ParamSet(np.random.default_rng(1))
    Affine(ps2, "l1", 3, 4)
    with pytest.raises(DataError, match="shape mismatch"):
        ps2.load_arrays(arrays)


def test_checkpoint_of_another_format_version_rejected(tmp_path, monkeypatch):
    from multisrc.nn import checkpoint

    path = tmp_path / "old.npz"
    monkeypatch.setattr(checkpoint, "FORMAT_VERSION", 1)
    save_checkpoint(path, "dep_parser", {"dims": {}}, {})
    monkeypatch.undo()
    with pytest.raises(DataError, match="unsupported checkpoint version 1$"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"{not json", "checkpoint header is not JSON"),
        (b"\xff\xfe\x00", "checkpoint header is not JSON"),
        (b"[3]", "checkpoint header must be a JSON object"),
        (b'{"format_version": 3, "meta": {}}', "needs a string kind and an object meta"),
        (b'{"format_version": 3, "kind": "m"}', "needs a string kind and an object meta"),
        (b'{"format_version": 3, "kind": "m", "meta": []}', "needs a string kind and an object meta"),
    ],
    ids=["not-json", "not-utf8", "list", "no-kind", "no-meta", "list-meta"],
)
def test_checkpoint_with_a_malformed_header_is_one_line_data_error(tmp_path, header, message):
    path = tmp_path / "bad.npz"
    np.savez(path, __meta__=np.frombuffer(header, dtype=np.uint8), w=np.zeros(2))
    with pytest.raises(DataError, match=message) as info:
        load_checkpoint(path)
    assert "\n" not in str(info.value)
