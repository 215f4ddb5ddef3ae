"""Central finite-difference gradient checking used across the nn tests,
plus the constant leaves and elementwise ops the tests build their scalar
losses from (the models need none of them, so `multisrc.nn.tensor` does not
carry them)."""

import numpy as np

from multisrc.nn.tensor import Parameter, Tensor


def constant(values) -> Tensor:
    """A leaf holding input data; its grad is never read."""
    return Tensor(np.asarray(values, dtype=np.float64))


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g)
        b._accumulate(g)

    return Tensor(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g * b.data)
        b._accumulate(g * a.data)

    return Tensor(a.data * b.data, (a, b), backward)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two vectors as a scalar."""

    def backward(g):
        a._accumulate(g * b.data)
        b._accumulate(g * a.data)

    return Tensor(a.data @ b.data, (a, b), backward)


def vsum(t: Tensor) -> Tensor:
    """Sum of every element as a scalar."""

    def backward(g):
        t._accumulate(np.full_like(t.data, float(g)))

    return Tensor(t.data.sum(), (t,), backward)


def finite_difference_check(build_loss, params, h=1e-5, rtol=1e-4):
    """Compare reverse-mode gradients to central differences.

    `build_loss` must construct a fresh graph from the current parameter
    values and return the scalar loss tensor.  Returns worst relative error.
    """
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params}
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        grad_flat = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(build_loss().data)
            flat[i] = orig - h
            down = float(build_loss().data)
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(grad_flat[i]), 1.0)
            err = abs(numeric - grad_flat[i]) / denom
            worst = max(worst, err)
            assert err < rtol, (
                f"gradient mismatch for {p.name}[{i}]: "
                f"analytic={grad_flat[i]:.8g} numeric={numeric:.8g} err={err:.3g}"
            )
    return worst


def random_param(rng, name, shape, scale=0.5):
    return Parameter(name, rng.uniform(-scale, scale, size=shape))
