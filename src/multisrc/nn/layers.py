"""Layer helpers over the autodiff core: parameters, embeddings, LSTMs."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from . import tensor as T
from .tensor import Parameter, Tensor


class ParamSet:
    """Named parameter registry with seeded Glorot initialization.

    Creation order is part of the model definition: it fixes RNG
    consumption, so identical construction under one seed is bit-identical.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.params: dict[str, Parameter] = {}

    def _register(self, param: Parameter) -> Parameter:
        if param.name in self.params:
            raise DataError(f"duplicate parameter name {param.name!r}")
        self.params[param.name] = param
        return param

    def matrix(self, name: str, rows: int, cols: int) -> Parameter:
        bound = np.sqrt(6.0 / (rows + cols))
        return self._register(Parameter(name, self.rng.uniform(-bound, bound, size=(rows, cols))))

    def vector(self, name: str, size: int) -> Parameter:
        return self._register(Parameter(name, np.zeros(size)))

    def all(self) -> list[Parameter]:
        return list(self.params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        missing = set(self.params) - set(arrays)
        extra = set(arrays) - set(self.params)
        if missing or extra:
            raise DataError(f"checkpoint mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, param in self.params.items():
            if arrays[name].shape != param.data.shape:
                raise DataError(
                    f"checkpoint shape mismatch for {name}: "
                    f"{arrays[name].shape} vs {param.data.shape}"
                )
            param.data = np.asarray(arrays[name], dtype=np.float64).copy()
            param.zero_grad()


class Embedding:
    """Lookup table; gradient accumulates only on the touched rows, and
    every row that takes a gradient is marked in `table.seen`."""

    def __init__(self, params: ParamSet, name: str, vocab_size: int, dim: int):
        self.table = params.matrix(name, vocab_size, dim)
        self.table.seen = np.zeros(vocab_size, dtype=bool)
        self.vocab_size = vocab_size
        self.dim = dim

    def __call__(self, index: int) -> Tensor:
        if not 0 <= index < self.vocab_size:
            raise DataError(f"embedding id {index} out of range [0, {self.vocab_size})")
        table = self.table

        def backward(g):
            table.grad[index] += g
            table.seen[index] = True

        return Tensor(table.data[index].copy(), parents=(table,), backward=backward)

    def rows(self, indices: list[int]) -> Tensor:
        """Many rows as one (len(indices), dim) matrix; repeats accumulate."""
        if not indices or not all(0 <= i < self.vocab_size for i in indices):
            raise DataError(f"embedding ids {indices} empty or out of range [0, {self.vocab_size})")
        table = self.table

        def backward(g):
            np.add.at(table.grad, indices, g)
            table.seen[indices] = True

        return Tensor(table.data[indices], parents=(table,), backward=backward)


class Affine:
    def __init__(self, params: ParamSet, name: str, in_dim: int, out_dim: int):
        self.w = params.matrix(f"{name}.w", out_dim, in_dim)
        self.b = params.vector(f"{name}.b", out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(self.w, x, self.b)


class LSTM:
    """Single-direction LSTM over a sequence of input vectors."""

    def __init__(self, params: ParamSet, name: str, in_dim: int, hidden: int):
        self.hidden = hidden
        self.w = params.matrix(f"{name}.w", 4 * hidden, in_dim)
        self.u = params.matrix(f"{name}.u", 4 * hidden, hidden)
        self.b = params.vector(f"{name}.b", 4 * hidden)

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step on plain arrays, building no graph: (h', c') after reading x.

        Gate layout along the 4H axis: input, forget, output, candidate.
        """
        hidden = self.hidden
        z = self.w.data @ x + self.u.data @ h + self.b.data
        i, f, o = 1.0 / (1.0 + np.exp(-z[: 3 * hidden].reshape(3, hidden)))
        c = f * c + i * np.tanh(z[3 * hidden :])
        return o * np.tanh(c), c

    def run(self, inputs: Tensor, reverse: bool = False) -> Tensor:
        """Hidden states of the (n, in_dim) inputs as an (n, hidden) matrix."""
        return T.lstm_sequence(inputs, self.w, self.u, self.b, reverse)


class BiLSTM:
    """Forward and backward LSTMs; output row i is [fwd_i ; bwd_i] (width 2*hidden)."""

    def __init__(self, params: ParamSet, name: str, in_dim: int, hidden: int):
        self.fwd = LSTM(params, f"{name}.fwd", in_dim, hidden)
        self.bwd = LSTM(params, f"{name}.bwd", in_dim, hidden)
        self.out_dim = 2 * hidden

    def directions(self, inputs: Tensor) -> tuple[Tensor, Tensor]:
        """(fwd, bwd) states; bwd row i has read inputs i..n-1."""
        return self.fwd.run(inputs), self.bwd.run(inputs, reverse=True)

    def run(self, inputs: Tensor) -> Tensor:
        return T.concat(list(self.directions(inputs)))


class AdditiveAttention:
    """The parameters of single-head additive attention over the rows of an
    encoding matrix; `T.lemma_sequence` and `T.lemma_logits` apply them."""

    def __init__(self, params: ParamSet, name: str, query_dim: int, enc_dim: int, hidden: int):
        self.w_query = params.matrix(f"{name}.wq", hidden, query_dim)
        self.w_enc = params.matrix(f"{name}.we", hidden, enc_dim)
        self.v = params.vector(f"{name}.v", hidden)
