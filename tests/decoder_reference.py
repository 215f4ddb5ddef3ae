"""Step-by-step reference for the attention lemma decoder.

These are the graph ops and the per-character step loop that
`multisrc.nn.tensor.lemma_sequence` (teacher forcing) and the graph-free
`JointTagger.decode_lemma` (greedy decoding) replaced: one `lstm_cell`
node, two narrows and a dozen attention and head nodes per decoded
character.  The fused op hoists the input projection and the output head
into one matmul each, which changes the summation order, so tests hold it
to the reference within 1e-12 rather than bit for bit.
"""

from __future__ import annotations

import numpy as np

from multisrc.errors import DataError
from multisrc.nn import tensor as T
from multisrc.nn.tensor import Tensor
from multisrc.tagger import EOS, max_lemma_length

from .gradcheck import constant, random_param


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Broadcast-add a vector to every row of a matrix."""
    if m.data.ndim != 2 or m.data.shape[1] != v.data.shape[0]:
        raise DataError(f"add_rowvec shape mismatch {m.data.shape} vs {v.data.shape}")

    def backward(g):
        m._accumulate(g)
        v._accumulate(g.sum(axis=0))

    return Tensor(m.data + v.data[None, :], (m, v), backward)


def matvec(m: Tensor, v: Tensor) -> Tensor:
    if m.data.ndim != 2 or m.data.shape[1] != v.data.shape[0]:
        raise DataError(f"matvec shape mismatch {m.data.shape} @ {v.data.shape}")

    def backward(g):
        m._accumulate(np.outer(g, v.data))
        v._accumulate(m.data.T @ g)

    return Tensor(m.data @ v.data, (m, v), backward)


def vecmat(v: Tensor, m: Tensor) -> Tensor:
    if m.data.ndim != 2 or v.data.shape[0] != m.data.shape[0]:
        raise DataError(f"vecmat shape mismatch {v.data.shape} @ {m.data.shape}")

    def backward(g):
        v._accumulate(m.data @ g)
        m._accumulate(np.outer(v.data, g))

    return Tensor(v.data @ m.data, (v, m), backward)


def matmat(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DataError(f"matmat shape mismatch {a.data.shape} @ {b.data.shape}")

    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return Tensor(a.data @ b.data, (a, b), backward)


def transpose(t: Tensor) -> Tensor:
    def backward(g):
        t._accumulate(g.T)

    return Tensor(t.data.T.copy(), (t,), backward)


def narrow(t: Tensor, start: int, length: int) -> Tensor:
    def backward(g):
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad[start : start + length] += g

    return Tensor(t.data[start : start + length].copy(), (t,), backward)


def softmax(t: Tensor) -> Tensor:
    shifted = t.data - t.data.max()
    e = np.exp(shifted)
    p = e / e.sum()

    def backward(g):
        t._accumulate(p * (g - float(p @ g)))

    return Tensor(p, (t,), backward)


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

    return Tensor(np.concatenate([h_new, c_new]), (x, h, c, w, u, b), backward)


def split_state(hc: Tensor, hidden: int) -> tuple[Tensor, Tensor]:
    """Split a stacked [h; c] state back into (h, c) views."""
    return narrow(hc, 0, hidden), narrow(hc, hidden, hidden)


def attention_keys(attention, encodings: Tensor) -> Tensor:
    """Project the (n, enc_dim) encodings once; reuse across decode steps.

    `attention` is the (w_query, w_enc, v) parameter triple of an
    `AdditiveAttention`.
    """
    return matmat(encodings, transpose(attention[1]))


def attend(attention, query: Tensor, encodings: Tensor, projected: Tensor) -> Tensor:
    """One additive-attention read: the context vector for `query`."""
    w_query, _, v = attention
    scores = matvec(T.tanh(add_rowvec(projected, matvec(w_query, query))), v)
    return vecmat(softmax(scores), encodings)


def decoder_step(h, c, x, chars, projected, lstm, attention, head):
    """One decoder step on graph nodes: (h', c', logits)."""
    h, c = split_state(lstm_cell(x, h, c, *lstm), h.data.shape[0])
    w_out, b_out = head
    return h, c, T.affine(w_out, T.concat([h, attend(attention, h, chars, projected)]), b_out)


def lemma_sequence(h0, chars, tag, prev, targets, lstm, attention, head) -> Tensor:
    """`T.lemma_sequence` as the step composite: step t reads row t of `prev`."""
    projected = attention_keys(attention, chars)
    h, c = h0, constant(np.zeros(h0.data.shape[0]))
    losses = []
    for t, target in enumerate(targets):
        x = T.concat([T.row(prev, t), tag])
        h, c, logits = decoder_step(h, c, x, chars, projected, lstm, attention, head)
        losses.append(T.cross_entropy(logits, target))
    return T.total(losses)


def random_lemma_inputs(rng, n_chars: int, steps: int, hidden=3, enc=2, att=3, char=2, tag=2,
                        vocab=4, scale=0.5):
    """Random `lemma_sequence` inputs as Parameters: the h0, chars, tag and
    prev tensors and the (lstm, attention, head) triples, in argument order."""
    shapes = [("h0", (hidden,)), ("chars", (n_chars, enc)), ("tag", (tag,)),
              ("prev", (steps, char)), ("w", (4 * hidden, char + tag)),
              ("u", (4 * hidden, hidden)), ("b", (4 * hidden,)), ("wq", (att, hidden)),
              ("we", (att, enc)), ("v", (att,)), ("wo", (vocab, hidden + enc)), ("bo", (vocab,))]
    p = [random_param(rng, name, shape, scale) for name, shape in shapes]
    return p[0], p[1], p[2], p[3], tuple(p[4:7]), tuple(p[7:10]), tuple(p[10:])


def lemma_params(model):
    """The tagger's decoder parameters as (lstm, attention, head) triples."""
    dec, att, out = model.decoder, model.attention, model.out_head
    return (dec.w, dec.u, dec.b), (att.w_query, att.w_enc, att.v), (out.w, out.b)


def lemma_loss(model, token_encoding, char_encodings, gold_lemma: str, gold_bundle: str) -> Tensor:
    """`JointTagger.lemma_loss` through the step composite."""
    targets = [model.char_out_index[ch] for ch in gold_lemma] + [EOS]
    h0 = T.tanh(model.dec_init(token_encoding))
    tag = model.tag_emb(model.bundle_index[gold_bundle])
    prev = model.dec_char_emb.rows([0, *targets[:-1]])
    return lemma_sequence(h0, char_encodings, tag, prev, targets, *lemma_params(model))


def decode_lemma(model, token_encoding, char_encodings, form: str, bundle: str) -> str:
    """`JointTagger.decode_lemma` on graph nodes, one step per character."""
    lstm, attention, head = lemma_params(model)
    projected = attention_keys(attention, char_encodings)
    tag = model.tag_emb(model.bundle_index[bundle])
    h = T.tanh(model.dec_init(token_encoding))
    c = constant(np.zeros(h.data.shape[0]))
    prev, chars = 0, []
    for _ in range(max_lemma_length(form)):
        x = T.concat([model.dec_char_emb(prev), tag])
        h, c, logits = decoder_step(h, c, x, char_encodings, projected, lstm, attention, head)
        best = int(np.argmax(logits.data))
        if best == EOS:
            break
        chars.append(model.lemma_chars[best - 1])
        prev = best
    return "".join(chars)
