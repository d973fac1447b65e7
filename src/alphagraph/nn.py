"""Trainable layers and the optimizer, built on the autodiff primitives.

Parameters live in a flat ``dict[str, Tensor]`` keyed by dotted names
(``lstm.fwd.i.w`` etc.) so that checkpoints, ablation containment checks, and
the optimizer can treat every model uniformly.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

GATES = ("i", "f", "g", "o")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape=None) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape if shape is not None else (fan_in, fan_out))


def param(values, params: dict, name: str) -> Tensor:
    t = Tensor(values, requires_grad=True)
    params[name] = t
    return t


def init_lstm_params(rng: np.random.Generator, in_dim: int, hidden: int,
                     params: dict, prefix: str) -> None:
    """Standard LSTM gate parameters; forget-gate bias starts at 1."""
    for gate in GATES:
        param(glorot_uniform(rng, in_dim, hidden), params, f"{prefix}.{gate}.w")
        param(glorot_uniform(rng, hidden, hidden), params, f"{prefix}.{gate}.u")
        bias = np.full(hidden, 1.0) if gate == "f" else np.zeros(hidden)
        param(bias, params, f"{prefix}.{gate}.b")


def _fused_gates(params: dict, prefix: str, piece: str) -> Tensor:
    """The four per-gate tensors ``{prefix}.{i,f,g,o}.{piece}`` side by side
    along the last axis: (in_dim, 4H) for ``w``, (H, 4H) for ``u`` and (4H,)
    for ``b``. Built at forward time, so the parameters stay per gate."""
    return ad.concat([params[f"{prefix}.{gate}.{piece}"] for gate in GATES], axis=-1)


def lstm_cell(x, h_prev, c_prev, params: dict, prefix: str):
    """One LSTM step: returns (h_t, c_t).

    ``x`` may be a single input vector or an (N, in_dim) batch; hidden and
    cell states follow the same convention. No peepholes; sigmoid gates and
    tanh candidate/cell activations, evaluated through the fused gate
    matrices by one ``lstm_step``.
    """
    zx = ad.affine(x, _fused_gates(params, prefix, "w"), _fused_gates(params, prefix, "b"))
    return ad.lstm_step(zx, ad.matmul(h_prev, _fused_gates(params, prefix, "u")), c_prev)


def init_bilstm_params(rng: np.random.Generator, in_dim: int, hidden: int,
                       params: dict, prefix: str) -> None:
    init_lstm_params(rng, in_dim, hidden, params, f"{prefix}.fwd")
    init_lstm_params(rng, in_dim, hidden, params, f"{prefix}.bwd")


def bilstm(xs, hidden: int, params: dict, prefix: str):
    """Run forward and backward LSTM passes over a sequence.

    ``xs`` is an (N, T, in_dim) tensor, or a list of T tensors, each
    (in_dim,) or (N, in_dim). The result takes the same form: an
    (N, T, 2*hidden) tensor, or a list of T outputs of width 2*hidden.
    Output t is the concatenation of the forward state at t and the
    backward state at t.
    """
    if isinstance(xs, Tensor):
        if xs.ndim != 3:
            raise ShapeError(f"bilstm: expected an (N, T, in_dim) tensor, got {xs.shape}")
        return _bilstm(xs, hidden, params, prefix)
    if not xs:
        raise ShapeError("bilstm: empty input sequence")
    T = len(xs)
    if xs[0].ndim == 1:
        seq = ad.reshape(ad.stack(xs, axis=0), (1, T, xs[0].shape[0]))
        return ad.unstack(ad.reshape(_bilstm(seq, hidden, params, prefix), (T, 2 * hidden)))
    return ad.unstack(_bilstm(ad.stack(xs, axis=1), hidden, params, prefix), axis=1)


def _bilstm(seq: Tensor, hidden: int, params: dict, prefix: str) -> Tensor:
    """BiLSTM over an (N, T, in_dim) tensor -> (N, T, 2*hidden).

    Each direction projects all N*T inputs through its fused input matrix
    in one affine, so a recurrent step is one (hidden, 4*hidden) matmul and
    one ``lstm_step``.
    """
    N, T, in_dim = seq.shape
    x = ad.reshape(seq, (N * T, in_dim))
    halves = []
    for sub, steps in (("fwd", range(T)), ("bwd", range(T - 1, -1, -1))):
        p = f"{prefix}.{sub}"
        zx = ad.affine(x, _fused_gates(params, p, "w"), _fused_gates(params, p, "b"))
        zx = ad.unstack(ad.reshape(zx, (N, T, 4 * hidden)), axis=1)
        u = _fused_gates(params, p, "u")
        h = c = None  # zero initial state
        hs = [None] * T
        for t in steps:
            h, c = ad.lstm_step(zx[t], None if h is None else ad.matmul(h, u), c)
            hs[t] = h
        halves.append(ad.stack(hs, axis=1))
    return ad.concat(halves, axis=-1)


def init_score_net(rng: np.random.Generator, in_dim: int, hidden: int,
                   params: dict, prefix: str) -> None:
    """Single-hidden-layer compatibility scorer: v . tanh(W x + b)."""
    param(glorot_uniform(rng, in_dim, hidden), params, f"{prefix}.w")
    param(np.zeros(hidden), params, f"{prefix}.b")
    param(glorot_uniform(rng, hidden, 1, shape=(hidden,)), params, f"{prefix}.v")


def score_net(x, params: dict, prefix: str):
    """Apply the scorer to (K, in_dim) rows -> (K,) scores, or 1-D -> scalar."""
    hidden = ad.tanh(ad.affine(x, params[f"{prefix}.w"], params[f"{prefix}.b"]))
    return ad.matmul(hidden, params[f"{prefix}.v"])


class Adam:
    """Bias-corrected Adam over a named parameter dict. Deterministic."""

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"Adam lr must be positive, got {lr}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.values) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if g is None:
                continue
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
