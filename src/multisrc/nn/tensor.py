"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every operation builds a node recording its parents and a closure that
accumulates gradients into them.  Graphs are per-sentence and small, so
clarity and determinism win over batching: one op call = one node.
Composite ops carry an analytic backward so that the pieces the models
repeat most are one node each: `lstm_sequence` runs a whole encoder LSTM
(every char and sentence BiLSTM direction), `lstm_cell` is the single
step the lemma decoder takes between attention reads, `affine` is a
layer's `w @ x + b`, `hinge` is the parser's margin between its best
costly and best zero-cost transition, and `total` sums a sentence's
scalar losses.
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
    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"

    def zero_grad(self):
        self.grad[...] = 0.0


def constant(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64))


def _node(data, parents, backward) -> Tensor:
    return Tensor(data, parents=tuple(parents), backward=backward)


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Broadcast-add a vector to every row of a matrix."""
    if m.data.ndim != 2 or m.data.shape[1] != v.data.shape[0]:
        raise DataError(f"add_rowvec shape mismatch {m.data.shape} vs {v.data.shape}")

    def backward(g):
        m._accumulate(g)
        v._accumulate(g.sum(axis=0))

    return _node(m.data + v.data[None, :], (m, v), backward)


def matvec(m: Tensor, v: Tensor) -> Tensor:
    if m.data.ndim != 2 or m.data.shape[1] != v.data.shape[0]:
        raise DataError(f"matvec shape mismatch {m.data.shape} @ {v.data.shape}")

    def backward(g):
        m._accumulate(np.outer(g, v.data))
        v._accumulate(m.data.T @ g)

    return _node(m.data @ v.data, (m, v), backward)


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """`w @ x + b` as one node."""
    if w.data.ndim != 2 or w.data.shape != (b.data.shape[0], x.data.shape[0]):
        raise DataError(f"affine shape mismatch {w.data.shape} @ {x.data.shape} + {b.data.shape}")

    def backward(g):
        w._accumulate(np.outer(g, x.data))
        x._accumulate(w.data.T @ g)
        b._accumulate(g)

    return _node(w.data @ x.data + b.data, (w, x, b), backward)


def vecmat(v: Tensor, m: Tensor) -> Tensor:
    if m.data.ndim != 2 or v.data.shape[0] != m.data.shape[0]:
        raise DataError(f"vecmat shape mismatch {v.data.shape} @ {m.data.shape}")

    def backward(g):
        v._accumulate(m.data @ g)
        m._accumulate(np.outer(v.data, g))

    return _node(v.data @ m.data, (v, m), backward)


def matmat(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DataError(f"matmat shape mismatch {a.data.shape} @ {b.data.shape}")

    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return _node(a.data @ b.data, (a, b), backward)


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
    """Vectors of one width as the rows of a matrix."""
    if not parts:
        raise DataError("stack of zero tensors")

    def backward(g):
        for part, g_row in zip(parts, g):
            part._accumulate(g_row)

    return _node(np.stack([p.data for p in parts]), parts, backward)


def row(m: Tensor, index: int) -> Tensor:
    """One row of a matrix as a vector."""

    def backward(g):
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        m.grad[index] += g

    return _node(m.data[index].copy(), (m,), backward)


def narrow(t: Tensor, start: int, length: int) -> Tensor:
    def backward(g):
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad[start : start + length] += g

    return _node(t.data[start : start + length].copy(), (t,), backward)


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)

    def backward(g):
        t._accumulate(g * (1.0 - out * out))

    return _node(out, (t,), backward)


def softmax(t: Tensor) -> Tensor:
    shifted = t.data - t.data.max()
    e = np.exp(shifted)
    p = e / e.sum()

    def backward(g):
        t._accumulate(p * (g - float(p @ g)))

    return _node(p, (t,), backward)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Softmax cross-entropy against a single target index."""
    z = logits.data
    if not 0 <= target < z.shape[0]:
        raise DataError(f"cross_entropy target {target} out of range {z.shape[0]}")
    zmax = z.max()
    lse = zmax + np.log(np.exp(z - zmax).sum())

    def backward(g):
        p = np.exp(z - lse)
        p[target] -= 1.0
        logits._accumulate(g * p)

    return _node(lse - z[target], (logits,), backward)


def hinge(scores: Tensor, costly: list[int], zero: list[int]) -> Tensor:
    """Margin `1 + (scores[c] - scores[z])` of the best costly index c over
    the best zero-cost index z; ties go to the lowest index.

    The caller keeps the node only when it is positive, so no clamp is
    needed: the subgradient is +g at c and -g at z.
    """
    if not costly or not zero:
        raise DataError("hinge needs non-empty costly and zero-cost index sets")
    c = max(costly, key=lambda i: (scores.data[i], -i))
    z = max(zero, key=lambda i: (scores.data[i], -i))

    def backward(g):
        if scores.grad is None:
            scores.grad = np.zeros_like(scores.data)
        scores.grad[c] += g
        scores.grad[z] -= g

    return _node(1.0 + (scores.data[c] - scores.data[z]), (scores,), backward)


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


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, w: Tensor, u: Tensor, b: Tensor) -> Tensor:
    """One LSTM step, fused; returns [h'; c'] stacked (see split_state).

    Gate layout along the 4H axis: input, forget, output, candidate.
    """
    hidden = h.data.shape[0]
    z = w.data @ x.data + u.data @ h.data + b.data
    i = 1.0 / (1.0 + np.exp(-z[:hidden]))
    f = 1.0 / (1.0 + np.exp(-z[hidden : 2 * hidden]))
    o = 1.0 / (1.0 + np.exp(-z[2 * hidden : 3 * hidden]))
    g_cand = np.tanh(z[3 * hidden :])
    c_new = f * c.data + i * g_cand
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c

    def backward(grad):
        gh, gc_out = grad[:hidden], grad[hidden:]
        gc = gc_out + gh * o * (1.0 - tanh_c * tanh_c)
        gz = np.concatenate(
            [
                gc * g_cand * i * (1.0 - i),
                gc * c.data * f * (1.0 - f),
                gh * tanh_c * o * (1.0 - o),
                gc * i * (1.0 - g_cand * g_cand),
            ]
        )
        w._accumulate(np.outer(gz, x.data))
        u._accumulate(np.outer(gz, h.data))
        b._accumulate(gz)
        x._accumulate(w.data.T @ gz)
        h._accumulate(u.data.T @ gz)
        c._accumulate(gc * f)

    return _node(np.concatenate([h_new, c_new]), (x, h, c, w, u, b), backward)


def lstm_sequence(xs: Tensor, w: Tensor, u: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """A whole LSTM pass from zero state, fused; returns the (n, H) hidden states.

    Row t of the output is the state after reading xs[t], in input order:
    with `reverse` the recurrence starts at the last row, so row t has read
    xs[t:].  Gate layout along the 4H axis is `lstm_cell`'s (input, forget,
    output, candidate).  The input projection of every timestep is one
    matmul; the backward closure runs the recurrence's BPTT and then
    accumulates the w, u, b and xs grads as three matmuls and a row-sum.
    """
    if xs.data.ndim != 2 or xs.data.shape[0] == 0:
        raise DataError(f"lstm_sequence needs a non-empty (n, d) input, got {xs.data.shape}")
    n, hidden = xs.data.shape[0], u.data.shape[1]
    order = range(n - 1, -1, -1) if reverse else range(n)
    gates = xs.data @ w.data.T + b.data  # input projections, overwritten step by step
    cs = np.empty((n, hidden))
    hs = np.empty((n, hidden))
    h, c = np.zeros(hidden), np.zeros(hidden)
    for t in order:
        z = gates[t]
        z += u.data @ h
        sig = z[: 3 * hidden]
        np.reciprocal(1.0 + np.exp(-sig), out=sig)
        np.tanh(z[3 * hidden :], out=z[3 * hidden :])
        i, f, o, g_cand = z.reshape(4, hidden)
        c = f * c + i * g_cand
        cs[t] = c
        h = hs[t] = o * np.tanh(c)

    def backward(grad):
        i, f, o, g_cand = gates.reshape(n, 4, hidden).transpose(1, 0, 2)
        tanh_c = np.tanh(cs)
        c_prev = np.zeros_like(cs)
        h_prev = np.zeros_like(hs)
        if reverse:
            c_prev[:-1], h_prev[:-1] = cs[1:], hs[1:]
        else:
            c_prev[1:], h_prev[1:] = cs[:-1], hs[:-1]
        # a step's gate grads: coeff times its cell grad for i, f and candidate, times its h grad for o
        coeff = np.empty((n, 4, hidden))
        coeff[:, 0] = g_cand * i * (1.0 - i)
        coeff[:, 1] = c_prev * f * (1.0 - f)
        coeff[:, 2] = tanh_c * o * (1.0 - o)
        coeff[:, 3] = i * (1.0 - g_cand * g_cand)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        gz = np.empty((n, 4, hidden))
        gh, gc = np.zeros(hidden), np.zeros(hidden)
        u_t = u.data.T
        for t in reversed(order):
            gh = grad[t] + gh
            gc = gc + gh * dc_dh[t]
            np.multiply(coeff[t], gc, out=gz[t])
            np.multiply(coeff[t, 2], gh, out=gz[t, 2])
            gh = u_t @ gz[t].reshape(-1)
            gc = gc * f[t]
        gz = gz.reshape(n, 4 * hidden)
        w._accumulate(gz.T @ xs.data)
        u._accumulate(gz.T @ h_prev)
        b._accumulate(gz.sum(axis=0))
        xs._accumulate(gz @ w.data)

    return _node(hs, (xs, w, u, b), backward)


def split_state(hc: Tensor, hidden: int) -> tuple[Tensor, Tensor]:
    """Split a stacked [h; c] state back into (h, c) views."""
    return narrow(hc, 0, hidden), narrow(hc, hidden, hidden)


def transpose(t: Tensor) -> Tensor:
    """Differentiable transpose of a 2-D tensor."""

    def backward(g):
        t._accumulate(g.T)

    return _node(t.data.T.copy(), (t,), backward)
