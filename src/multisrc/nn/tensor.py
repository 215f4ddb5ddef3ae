"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every operation builds a node recording its parents and a closure that
accumulates gradients into them.  A sentence moves through its graph as
matrices with one row per token, so one op call is one node for the whole
sentence: `stack` joins vectors and matrices row by row, `affine` is a
layer's `w @ x + b` on a vector or on each row of a matrix, and
`cross_entropy` sums the losses of a logit matrix's rows.  Composite ops
carry an analytic backward: `lstm_sequence` runs a whole encoder LSTM
(every char and sentence BiLSTM direction), `lemma_sequence` a whole
teacher-forced lemma through the attention decoder (LSTM, attention,
output head and the summed cross-entropies), `transition_margins` sums
every violated margin of one parser sentence, and `total` sums a
sentence's scalar losses.  Greedy lemma decoding steps `LSTM.step` and
`lemma_logits` on plain arrays, and the parser scores its transitions with
`slot_projection` and `slot_hidden` on plain arrays: neither builds a graph.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..errors import DataError


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Reverse-mode sweep from a scalar loss."""
        if self.data.shape != ():
            raise DataError(f"backward requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones(()))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
        # free intermediate grads/graph references; parameters keep theirs
        for node in topo:
            if not isinstance(node, Parameter):
                node._parents = ()
                node._backward = None
                if node is not self:
                    node.grad = None


class Parameter(Tensor):
    __slots__ = ("name", "seen")

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)
        # a row-sparse table (an `Embedding`) marks here every row it has
        # ever written a gradient into, and an optimizer step sweeps just
        # those rows; None for a dense parameter, whose every row it sweeps
        self.seen: np.ndarray | None = None

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"

    def zero_grad(self):
        self.grad[...] = 0.0


def _node(data, parents, backward) -> Tensor:
    return Tensor(data, parents=tuple(parents), backward=backward)


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """`w @ x + b` as one node; on an (n, d) matrix `x`, row i is `w @ x[i] + b`."""
    if w.data.ndim != 2 or x.data.ndim > 2 or w.data.shape != (b.data.shape[0], x.data.shape[-1]):
        raise DataError(f"affine shape mismatch {w.data.shape} @ {x.data.shape} + {b.data.shape}")

    def backward(g):
        rows = g.reshape(-1, g.shape[-1])
        w._accumulate(rows.T @ x.data.reshape(len(rows), -1))
        x._accumulate(g @ w.data)
        b._accumulate(rows.sum(axis=0))

    return _node(x.data @ w.data.T + b.data, (w, x, b), backward)


def concat(parts: list[Tensor]) -> Tensor:
    """Join along the last axis: vectors end to end, matrices side by side."""
    if not parts:
        raise DataError("concat of zero tensors")
    offsets = list(accumulate([p.data.shape[-1] for p in parts], initial=0))

    def backward(g):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            part._accumulate(g[..., lo:hi])

    return _node(np.concatenate([p.data for p in parts], axis=-1), parts, backward)


def stack(parts: list[Tensor]) -> Tensor:
    """The rows of its parts, one matrix: a vector is one row, an (m, d)
    matrix m rows (none for m = 0)."""
    if not parts:
        raise DataError("stack of zero tensors")
    offsets = list(accumulate([1 if p.data.ndim == 1 else len(p.data) for p in parts], initial=0))

    def backward(g):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            part._accumulate(g[lo:hi].reshape(part.data.shape))

    return _node(np.vstack([p.data for p in parts]), parts, backward)


def row(m: Tensor, index: int) -> Tensor:
    """One row of a matrix as a vector."""

    def backward(g):
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        m.grad[index] += g

    return _node(m.data[index].copy(), (m,), backward)


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)

    def backward(g):
        t._accumulate(g * (1.0 - out * out))

    return _node(out, (t,), backward)


def cross_entropy(logits: Tensor, targets: list[int]) -> Tensor:
    """Softmax cross-entropy of each row of the (n, V) `logits` against its
    target index, summed."""
    z = logits.data
    if z.ndim != 2 or len(targets) != len(z) or not all(0 <= t < z.shape[1] for t in targets):
        raise DataError(f"cross_entropy needs one target in range per row of {z.shape}, "
                        f"got {targets}")
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = (np.arange(len(z)), targets)

    def backward(g):
        p = np.exp(z - lse[:, None])
        p[picked] -= 1.0
        logits._accumulate(g * p)

    return _node((lse - z[picked]).sum(), (logits,), backward)


def total(parts: list[Tensor]) -> Tensor:
    """Sum of scalar nodes, added left to right; every part gets the whole grad."""
    if not parts or any(p.data.shape != () for p in parts):
        raise DataError("total needs one or more scalar tensors")
    value = parts[0].data
    for part in parts[1:]:
        value = value + part.data

    def backward(g):
        for part in parts:
            part._accumulate(g)

    return _node(value, parts, backward)


def _lstm_forward(gates: np.ndarray, u: np.ndarray, h0: np.ndarray, reverse: bool):
    """The LSTM recurrence from state (h0, 0) over precomputed input projections.

    `gates` (n, 4H) holds each step's `w @ x + b`; it is overwritten with the
    step's activated gates, which the backward pass reads.  Returns the
    (n, H) cell and hidden states, row t the state after step t.
    """
    n, hidden = gates.shape[0], u.shape[1]
    cs = np.empty((n, hidden))
    hs = np.empty((n, hidden))
    h, c = h0, np.zeros(hidden)
    for t in range(n - 1, -1, -1) if reverse else range(n):
        z = gates[t]
        z += u @ h
        sig = z[: 3 * hidden]
        np.reciprocal(1.0 + np.exp(-sig), out=sig)
        np.tanh(z[3 * hidden :], out=z[3 * hidden :])
        i, f, o, g_cand = z.reshape(4, hidden)
        c = f * c + i * g_cand
        cs[t] = c
        h = hs[t] = o * np.tanh(c)
    return cs, hs


def _lstm_backward(grad, gates, cs, hs, u, h0, reverse: bool):
    """BPTT through `_lstm_forward`, given the (n, H) grad of its hidden states.

    Returns the (n, 4H) grads of the gate inputs, the (n, H) hidden state
    each step read, and the grad of h0.
    """
    n, hidden = hs.shape
    i, f, o, g_cand = gates.reshape(n, 4, hidden).transpose(1, 0, 2)
    tanh_c = np.tanh(cs)
    c_prev = np.zeros_like(cs)
    h_prev = np.empty_like(hs)
    if reverse:
        c_prev[:-1], h_prev[:-1], h_prev[-1] = cs[1:], hs[1:], h0
    else:
        c_prev[1:], h_prev[1:], h_prev[0] = cs[:-1], hs[:-1], h0
    # a step's gate grads: coeff times its cell grad for i, f and candidate, times its h grad for o
    coeff = np.empty((n, 4, hidden))
    coeff[:, 0] = g_cand * i * (1.0 - i)
    coeff[:, 1] = c_prev * f * (1.0 - f)
    coeff[:, 2] = tanh_c * o * (1.0 - o)
    coeff[:, 3] = i * (1.0 - g_cand * g_cand)
    dc_dh = o * (1.0 - tanh_c * tanh_c)
    gz = np.empty((n, 4, hidden))
    gh, gc = np.zeros(hidden), np.zeros(hidden)
    u_t = u.T
    for t in range(n) if reverse else range(n - 1, -1, -1):
        gh = grad[t] + gh
        gc = gc + gh * dc_dh[t]
        np.multiply(coeff[t], gc, out=gz[t])
        np.multiply(coeff[t, 2], gh, out=gz[t, 2])
        gh = u_t @ gz[t].reshape(-1)
        gc = gc * f[t]
    return gz.reshape(n, 4 * hidden), h_prev, gh


def lstm_sequence(xs: Tensor, w: Tensor, u: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """A whole LSTM pass from zero state, fused; returns the (n, H) hidden states.

    Row t of the output is the state after reading xs[t], in input order:
    with `reverse` the recurrence starts at the last row, so row t has read
    xs[t:].  Gate layout along the 4H axis: input, forget, output,
    candidate.  The input projection of every timestep is one matmul; the
    backward closure runs the recurrence's BPTT and then accumulates the w,
    u, b and xs grads as three matmuls and a row-sum.
    """
    if xs.data.ndim != 2 or xs.data.shape[0] == 0:
        raise DataError(f"lstm_sequence needs a non-empty (n, d) input, got {xs.data.shape}")
    h0 = np.zeros(u.data.shape[1])
    gates = xs.data @ w.data.T + b.data
    cs, hs = _lstm_forward(gates, u.data, h0, reverse)

    def backward(grad):
        gz, h_prev, _ = _lstm_backward(grad, gates, cs, hs, u.data, h0, reverse)
        w._accumulate(gz.T @ xs.data)
        u._accumulate(gz.T @ h_prev)
        b._accumulate(gz.sum(axis=0))
        xs._accumulate(gz @ w.data)

    return _node(hs, (xs, w, u, b), backward)


def lemma_logits(hs, chars, keys, w_query, v, w_out, b_out):
    """The lemma decoder's attention read and output head on plain arrays.

    Each row of the (m, H) decoder states `hs` attends over the (n, C)
    per-character encodings `chars`, whose (n, A) attention keys are
    `chars @ w_enc.T`.  Returns the (m, n, A) tanh activations, the (m, n)
    attention weights, the (m, H + C) [state; context] features and the
    (m, V) logits.  Greedy decoding calls it one state at a time.
    """
    act = np.tanh(keys + (hs @ w_query.T)[:, None, :])
    scores = act @ v
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    features = np.concatenate([hs, weights @ chars], axis=1)
    return act, weights, features, features @ w_out.T + b_out


def lemma_sequence(h0: Tensor, chars: Tensor, tag: Tensor, prev: Tensor, targets: list[int],
                   lstm, attention, head) -> Tensor:
    """A whole teacher-forced lemma through the attention decoder, fused;
    returns the summed cross-entropy of the `targets` ids.

    Step t feeds the LSTM `lstm = (w, u, b)` the input [prev[t]; tag] from
    state (h0, 0), reads the (n, C) per-character encodings `chars` with
    additive attention `attention = (w_query, w_enc, v)`, and scores
    [h_t; context_t] with the output head `head = (w_out, b_out)`.  The
    input projection of every step and the output head are one matmul
    each, and the attention reads of all steps are batched after the
    recurrence, which does not depend on them.  The backward closure is
    analytic: the head and attention grads as batched matmuls, then
    `lstm_sequence`'s BPTT, which also yields the grad of h0.
    """
    (w, u, b), (w_query, w_enc, v), (w_out, b_out) = lstm, attention, head
    steps, char_dim = prev.data.shape
    if steps != len(targets) or steps == 0:
        raise DataError(f"lemma_sequence needs one input row per target, "
                        f"got {steps} rows for {len(targets)} targets")
    if not all(0 <= t < b_out.data.shape[0] for t in targets):
        raise DataError(f"lemma_sequence targets {targets} out of range {b_out.data.shape[0]}")
    hidden = u.data.shape[1]
    w_char, w_tag = w.data[:, :char_dim], w.data[:, char_dim:]
    gates = prev.data @ w_char.T + (w_tag @ tag.data + b.data)
    cs, hs = _lstm_forward(gates, u.data, h0.data, False)
    keys = chars.data @ w_enc.data.T
    act, weights, features, logits = lemma_logits(
        hs, chars.data, keys, w_query.data, v.data, w_out.data, b_out.data)
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    picked = (np.arange(steps), targets)

    def backward(g):
        g_logits = np.exp(logits - lse[:, None])
        g_logits[picked] -= 1.0
        g_logits *= g
        w_out._accumulate(g_logits.T @ features)
        b_out._accumulate(g_logits.sum(axis=0))
        g_features = g_logits @ w_out.data
        g_hs, g_context = g_features[:, :hidden], g_features[:, hidden:]
        g_weights = g_context @ chars.data.T
        g_scores = weights * (g_weights - (weights * g_weights).sum(axis=1, keepdims=True))
        v._accumulate(g_scores.reshape(-1) @ act.reshape(-1, act.shape[2]))
        g_pre = g_scores[:, :, None] * v.data * (1.0 - act * act)
        g_keys, g_queries = g_pre.sum(axis=0), g_pre.sum(axis=1)
        w_enc._accumulate(g_keys.T @ chars.data)
        chars._accumulate(weights.T @ g_context + g_keys @ w_enc.data)
        w_query._accumulate(g_queries.T @ hs)
        g_hs = g_hs + g_queries @ w_query.data
        gz, h_prev, g_h0 = _lstm_backward(g_hs, gates, cs, hs, u.data, h0.data, False)
        g_bias = gz.sum(axis=0)
        w._accumulate(np.concatenate([gz.T @ prev.data, np.outer(g_bias, tag.data)], axis=1))
        u._accumulate(gz.T @ h_prev)
        b._accumulate(g_bias)
        prev._accumulate(gz @ w_char)
        tag._accumulate(w_tag.T @ g_bias)
        h0._accumulate(g_h0)

    parents = (h0, chars, tag, prev, w, u, b, w_query, w_enc, v, w_out, b_out)
    return _node((lse - logits[picked]).sum(), parents, backward)


def _slot_blocks(w: np.ndarray, width: int) -> np.ndarray:
    """The (H, k*d) hidden weight as its k (H, d) column blocks: a (k, H, d) view."""
    return w.reshape(w.shape[0], -1, width).transpose(1, 0, 2)


def slot_projection(slots: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (k, m, H) projections of the (m, d) slot rows through the k column
    blocks of the (H, k*d) hidden weight `w`, as one batched matmul: entry
    [j, s] is `w[:, j*d:(j+1)*d] @ slots[s]`."""
    return slots @ _slot_blocks(w, slots.shape[1]).transpose(0, 2, 1)


def slot_hidden(projection: np.ndarray, b: np.ndarray, ids) -> np.ndarray:
    """`tanh(b + sum_j projection[j, ids[j]])`: the hidden layer of the state
    that reads slot ids[j] at position j, or, when each ids[j] holds M slot
    ids, of M states, one row each.  The blocks are added in position order."""
    pre = projection[0, ids[0]]
    for j in range(1, len(projection)):
        pre = pre + projection[j, ids[j]]
    return np.tanh(b + pre)


def transition_margins(slots: Tensor, w: Tensor, b: Tensor, w_out: Tensor, b_out: Tensor,
                       ids, costly: list[int], zero: list[int]) -> Tensor:
    """The summed hinge margins `1 + (scores[c] - scores[z])` of a parser
    sentence's violated transitions, fused.

    Margin i scores the state whose scorer reads the (m, d) `slots` rows
    ids[i] (one per column block of `w`) with `w_out @ slot_hidden + b_out`,
    and compares its costly index costly[i] with its zero-cost index
    zero[i].  The caller keeps only positive margins, so no clamp is
    needed.  The backward closure is analytic and batched: the output head
    grads as matmuls, the hidden grads scattered into a (k, m, H) buffer
    with `np.add.at`, then the `w` and `slots` grads as batched matmuls
    over the blocks.
    """
    ids = np.asarray(ids, dtype=np.intp)
    rows, width = slots.data.shape
    if ids.ndim != 2 or ids.shape[0] == 0 or w.data.shape[1] != ids.shape[1] * width:
        raise DataError(f"transition_margins needs (M, k) slot ids for a (H, k*{width}) weight, "
                        f"got ids {ids.shape} and weight {w.data.shape}")
    if not ((-rows <= ids) & (ids < rows)).all():
        raise DataError(f"transition_margins slot ids out of range for {rows} slots")
    count, k = ids.shape
    if len(costly) != count or len(zero) != count or any(c == z for c, z in zip(costly, zero)):
        raise DataError("transition_margins needs one costly and one distinct zero-cost "
                        "index per margin")
    projection = slot_projection(slots.data, w.data)
    act = slot_hidden(projection, b.data, ids.T)
    scores = act @ w_out.data.T + b_out.data
    margin_rows = np.arange(count)
    margins = 1.0 + (scores[margin_rows, costly] - scores[margin_rows, zero])

    def backward(g):
        g_scores = np.zeros_like(scores)
        g_scores[margin_rows, costly] = g
        g_scores[margin_rows, zero] = -g
        w_out._accumulate(g_scores.T @ act)
        b_out._accumulate(g_scores.sum(axis=0))
        g_pre = (g_scores @ w_out.data) * (1.0 - act * act)
        b._accumulate(g_pre.sum(axis=0))
        g_proj = np.zeros_like(projection)
        np.add.at(g_proj, (np.arange(k), ids), g_pre[:, None, :])
        g_blocks = g_proj.transpose(0, 2, 1) @ slots.data  # (k, H, d): block j is dP_j^T S
        w._accumulate(g_blocks.transpose(1, 0, 2).reshape(w.data.shape))
        slots._accumulate((g_proj @ _slot_blocks(w.data, width)).sum(axis=0))

    return _node(margins.sum(), (slots, w, b, w_out, b_out), backward)
