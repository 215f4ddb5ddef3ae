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

    def table(self, name: str, rows: int, cols: int) -> Parameter:
        bound = np.sqrt(6.0 / (rows + cols))
        return self._register(Parameter(name, self.rng.uniform(-bound, bound, size=(rows, cols))))

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
    """Lookup table; gradient accumulates only on the touched row."""

    def __init__(self, params: ParamSet, name: str, vocab_size: int, dim: int):
        self.table = params.table(name, vocab_size, dim)
        self.vocab_size = vocab_size
        self.dim = dim

    def __call__(self, index: int) -> Tensor:
        if not 0 <= index < self.vocab_size:
            raise DataError(f"embedding id {index} out of range [0, {self.vocab_size})")
        table = self.table

        def backward(g):
            table.grad[index] += g

        return Tensor(table.data[index].copy(), parents=(table,), backward=backward)


class Affine:
    def __init__(self, params: ParamSet, name: str, in_dim: int, out_dim: int):
        self.w = params.matrix(f"{name}.w", out_dim, in_dim)
        self.b = params.vector(f"{name}.b", out_dim)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matvec(self.w, x), self.b)


class LSTM:
    """Single-direction LSTM over a sequence of input vectors."""

    def __init__(self, params: ParamSet, name: str, in_dim: int, hidden: int):
        self.hidden = hidden
        self.w = params.matrix(f"{name}.w", 4 * hidden, in_dim)
        self.u = params.matrix(f"{name}.u", 4 * hidden, hidden)
        self.b = params.vector(f"{name}.b", 4 * hidden)

    def initial_state(self) -> tuple[Tensor, Tensor]:
        return T.constant(np.zeros(self.hidden)), T.constant(np.zeros(self.hidden))

    def step(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        hc = T.lstm_cell(x, h, c, self.w, self.u, self.b)
        return T.split_state(hc, self.hidden)

    def run(self, inputs: list[Tensor]) -> list[Tensor]:
        if not inputs:
            raise DataError("LSTM over empty sequence")
        state = self.initial_state()
        outputs = []
        for x in inputs:
            state = self.step(x, state)
            outputs.append(state[0])
        return outputs


class BiLSTM:
    """Forward and backward LSTMs; output i is [fwd_i ; bwd_i] (width 2*hidden)."""

    def __init__(self, params: ParamSet, name: str, in_dim: int, hidden: int):
        self.fwd = LSTM(params, f"{name}.fwd", in_dim, hidden)
        self.bwd = LSTM(params, f"{name}.bwd", in_dim, hidden)
        self.out_dim = 2 * hidden

    def run(self, inputs: list[Tensor]) -> list[Tensor]:
        fwd_states = self.fwd.run(inputs)
        bwd_states = self.bwd.run(list(reversed(inputs)))[::-1]
        return [T.concat([f, b]) for f, b in zip(fwd_states, bwd_states)]


class AdditiveAttention:
    """Single-head additive attention over a list of encoding vectors."""

    def __init__(self, params: ParamSet, name: str, query_dim: int, enc_dim: int, hidden: int):
        self.w_query = params.matrix(f"{name}.wq", hidden, query_dim)
        self.w_enc = params.matrix(f"{name}.we", hidden, enc_dim)
        self.v = params.vector(f"{name}.v", hidden)

    def precompute(self, encodings: list[Tensor]) -> tuple[Tensor, Tensor]:
        """Stack encodings and project once; reuse across decode steps."""

        def backward(g, encs=tuple(encodings)):
            for i, e in enumerate(encs):
                e._accumulate(g[i])

        stacked = T.Tensor(
            np.stack([e.data for e in encodings]), parents=tuple(encodings), backward=backward
        )
        projected = T.matmat(stacked, T.transpose(self.w_enc))
        return stacked, projected

    def __call__(self, query: Tensor, stacked: Tensor, projected: Tensor) -> Tensor:
        q = T.matvec(self.w_query, query)
        scores = T.matvec(T.tanh(T.add_rowvec(projected, q)), self.v)
        weights = T.softmax(scores)
        return T.vecmat(weights, stacked)
