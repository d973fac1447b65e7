"""Trainable layers and the optimizer, built on the autodiff primitives.

Parameters live in a flat ``dict[str, Tensor]`` keyed by dotted names
(``lstm.fwd.w`` etc.) so that checkpoints, ablation containment checks, and
the optimizer can treat every model uniformly.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def glorot_uniform(rng: np.random.Generator | None, fan_in: int, fan_out: int,
                   shape=None) -> np.ndarray:
    """Glorot-uniform draws of ``shape`` (default (fan_in, fan_out)); zeros,
    drawing nothing, when ``rng`` is None."""
    shape = shape if shape is not None else (fan_in, fan_out)
    if rng is None:
        return np.zeros(shape)
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def param(values, params: dict, name: str) -> Tensor:
    t = Tensor(values, requires_grad=True)
    params[name] = t
    return t


def init_lstm_params(rng: np.random.Generator, in_dim: int, hidden: int,
                     params: dict, prefix: str) -> None:
    """Fused LSTM parameters ``{prefix}.w`` (in_dim, 4H), ``{prefix}.u``
    (H, 4H) and ``{prefix}.b`` (4H,), one column block per gate in the
    ``i, f, g, o`` order of ``autodiff.lstm``.

    Gate by gate, the ``w`` block and then the ``u`` block are drawn, each
    with its own Glorot scale (fan_out H); the forget-gate bias starts at 1.
    """
    ws, us = zip(*[(glorot_uniform(rng, in_dim, hidden), glorot_uniform(rng, hidden, hidden))
                   for _ in range(4)])
    bias = np.zeros(4 * hidden)
    bias[hidden:2 * hidden] = 1.0
    param(np.concatenate(ws, axis=1), params, f"{prefix}.w")
    param(np.concatenate(us, axis=1), params, f"{prefix}.u")
    param(bias, params, f"{prefix}.b")


def init_bilstm_params(rng: np.random.Generator, in_dim: int, hidden: int,
                       params: dict, prefix: str) -> None:
    init_lstm_params(rng, in_dim, hidden, params, f"{prefix}.fwd")
    init_lstm_params(rng, in_dim, hidden, params, f"{prefix}.bwd")


def bilstm(x: Tensor, windows, params: dict, prefix: str) -> Tensor:
    """BiLSTM over N sequences of T steps -> (N, T, 2*H), H the width of
    ``{prefix}.fwd.u`` and ``{prefix}.bwd.u``.

    ``x`` holds the inputs of U distinct cells as (U, in_dim) rows and
    ``windows`` (N, T) the cell of each step of each sequence, so a cell
    shared by several sequences is projected once. Output t is the forward
    state at t next to the backward state at t, both from a zero initial
    state. Each direction projects the U rows through its ``w`` in one
    affine and runs its whole recurrence as one ``autodiff.lstm``.
    """
    halves = []
    for sub, reverse in (("fwd", False), ("bwd", True)):
        p = f"{prefix}.{sub}"
        zx = ad.affine(x, params[f"{p}.w"], params[f"{p}.b"])
        halves.append(ad.lstm(zx, windows, params[f"{p}.u"], reverse))
    return ad.concat(halves, axis=-1)


def init_score_net(rng: np.random.Generator, in_dim: int, hidden: int,
                   params: dict, prefix: str) -> None:
    """Single-hidden-layer compatibility scorer: v . tanh(W x + b)."""
    param(glorot_uniform(rng, in_dim, hidden), params, f"{prefix}.w")
    param(np.zeros(hidden), params, f"{prefix}.b")
    param(glorot_uniform(rng, hidden, 1, shape=(hidden,)), params, f"{prefix}.v")


def score_net(x, params: dict, prefix: str):
    """Apply the scorer to (K, in_dim) rows -> (K,) scores."""
    hidden = ad.tanh(ad.affine(x, params[f"{prefix}.w"], params[f"{prefix}.b"]))
    return ad.matmul(hidden, params[f"{prefix}.v"])


# Adam's moment decay rates and the floor of its step's denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a named parameter dict. Deterministic."""

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self._m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.values) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
