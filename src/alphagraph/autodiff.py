"""Reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tape` records every primitive applied while it is active, in
forward order, together with a closure that propagates the output gradient
back to the inputs. ``Tape.backward`` walks the records in exact reverse
order, accumulating gradients additively into each tensor's ``grad`` buffer.
Outside a tape, primitives are plain numpy forward computations.

Every primitive checks its output for NaN/Inf and raises
:class:`NumericalFault` on the first non-finite value.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFault, ShapeError

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """A float64 array with an optional gradient accumulation buffer."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    def zero_grad(self):
        self.grad = None

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        return self.grad

    def accumulate(self, g):
        self.ensure_grad()
        self.grad += g

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._records)

    def backward(self, loss: Tensor):
        """Seed ``loss`` with gradient 1 and run all records in reverse."""
        if loss.ndim != 0:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        loss.ensure_grad()
        loss.grad += 1.0
        for out, backward_fn in reversed(self._records):
            if out.grad is not None:
                backward_fn(out.grad)


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(values: np.ndarray, op: str, inputs, make_backward) -> Tensor:
    """Build the output tensor, validate finiteness, and record on the tape."""
    if not np.all(np.isfinite(values)):
        raise NumericalFault(f"non-finite values produced by '{op}'")
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=needs)
    if needs:
        tape._records.append((out, make_backward(out)))
    return out


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("add", a, b)

    def make(out):
        def backward(g):
            if a.requires_grad:
                a.accumulate(g)
            if b.requires_grad:
                b.accumulate(g)
        return backward

    return _emit(a.values + b.values, "add", (a, b), make)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("sub", a, b)

    def make(out):
        def backward(g):
            if a.requires_grad:
                a.accumulate(g)
            if b.requires_grad:
                b.accumulate(-g)
        return backward

    return _emit(a.values - b.values, "sub", (a, b), make)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("mul", a, b)
    av, bv = a.values, b.values

    def make(out):
        def backward(g):
            if a.requires_grad:
                a.accumulate(g * bv)
            if b.requires_grad:
                b.accumulate(g * av)
        return backward

    return _emit(av * bv, "mul", (a, b), make)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def make(out):
        def backward(g):
            if a.requires_grad:
                a.accumulate(g * c)
        return backward

    return _emit(a.values * c, "scale", (a,), make)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    mask = x.values > 0.0

    def make(out):
        def backward(g):
            if x.requires_grad:
                x.accumulate(g * mask)
        return backward

    return _emit(np.where(mask, x.values, 0.0), "relu", (x,), make)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.values)

    def make(out):
        def backward(g):
            if x.requires_grad:
                x.accumulate(g * (1.0 - y * y))
        return backward

    return _emit(y, "tanh", (x,), make)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    v = x.values
    # Split form avoids exp overflow for large |v|.
    y = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                 np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))

    def make(out):
        def backward(g):
            if x.requires_grad:
                x.accumulate(g * y * (1.0 - y))
        return backward

    return _emit(y, "sigmoid", (x,), make)


def softmax(x) -> Tensor:
    """Softmax over the last axis of a 1-D or 2-D tensor, max-subtracted."""
    x = _as_tensor(x)
    if x.ndim not in (1, 2):
        raise ShapeError(f"softmax: expected 1-D or 2-D input, got shape {x.shape}")
    v = x.values
    m = v.max(axis=-1, keepdims=True)
    e = np.exp(v - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def make(out):
        def backward(g):
            if x.requires_grad:
                inner = (g * y).sum(axis=-1, keepdims=True)
                x.accumulate(y * (g - inner))
        return backward

    return _emit(y, "softmax", (x,), make)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix/vector product: 2Dx2D, 2Dx1D, 1Dx2D, or 1Dx1D (dot)."""
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.values, b.values
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks {a.shape} x {b.shape}")
    if av.shape[-1] != (bv.shape[0] if b.ndim >= 1 else 0):
        raise ShapeError(f"matmul: inner dimensions of {a.shape} and {b.shape} differ")

    def make(out):
        def backward(g):
            if a.ndim == 2 and b.ndim == 2:
                if a.requires_grad:
                    a.accumulate(g @ bv.T)
                if b.requires_grad:
                    b.accumulate(av.T @ g)
            elif a.ndim == 2 and b.ndim == 1:
                if a.requires_grad:
                    a.accumulate(np.outer(g, bv))
                if b.requires_grad:
                    b.accumulate(av.T @ g)
            elif a.ndim == 1 and b.ndim == 2:
                if a.requires_grad:
                    a.accumulate(bv @ g)
                if b.requires_grad:
                    b.accumulate(np.outer(av, g))
            else:  # dot product
                if a.requires_grad:
                    a.accumulate(g * bv)
                if b.requires_grad:
                    b.accumulate(g * av)
        return backward

    return _emit(av @ bv, "matmul", (a, b), make)


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` with ``x`` of shape (N, K) or (K,), ``w`` (K, M), ``b`` (M,)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xv, wv, bv = x.values, w.values, b.values
    if w.ndim != 2 or b.ndim != 1 or x.ndim not in (1, 2):
        raise ShapeError(f"affine: bad ranks x{x.shape} w{w.shape} b{b.shape}")
    if xv.shape[-1] != wv.shape[0] or wv.shape[1] != bv.shape[0]:
        raise ShapeError(f"affine: incompatible shapes x{x.shape} w{w.shape} b{b.shape}")

    def make(out):
        def backward(g):
            if x.requires_grad:
                x.accumulate(g @ wv.T)
            if w.requires_grad:
                w.accumulate(np.outer(xv, g) if x.ndim == 1 else xv.T @ g)
            if b.requires_grad:
                b.accumulate(g if x.ndim == 1 else g.sum(axis=0))
        return backward

    return _emit(xv @ wv + bv, "affine", (x, w, b), make)


def add_bias(x, b) -> Tensor:
    """Broadcast add: (N, M) + (M,), (N,) + scalar, or matching shapes."""
    x, b = _as_tensor(x), _as_tensor(b)
    xv, bv = x.values, b.values
    ok = (x.shape == b.shape) or (x.ndim == 2 and b.ndim == 1 and x.shape[1] == b.shape[0]) \
        or (x.ndim >= 1 and b.ndim == 0)
    if not ok:
        raise ShapeError(f"add_bias: shapes {x.shape} and {b.shape} do not broadcast")

    def make(out):
        def backward(g):
            if x.requires_grad:
                x.accumulate(g)
            if b.requires_grad:
                if b.shape == x.shape:
                    b.accumulate(g)
                elif b.ndim == 0:
                    b.accumulate(g.sum())
                else:
                    b.accumulate(g.sum(axis=0))
        return backward

    return _emit(xv + bv, "add_bias", (x, b), make)


# ---------------------------------------------------------------------------
# Structural primitives
# ---------------------------------------------------------------------------

def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty input list")
    nd = tensors[0].ndim
    if any(t.ndim != nd for t in tensors):
        raise ShapeError(f"concat: mixed ranks {[t.shape for t in tensors]}")
    ax = axis % nd if nd else 0
    widths = [t.shape[ax] for t in tensors]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    def make(out):
        def backward(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * nd
                    sl[ax] = slice(int(lo), int(hi))
                    t.accumulate(g[tuple(sl)])
        return backward

    return _emit(np.concatenate([t.values for t in tensors], axis=ax),
                 "concat", tensors, make)


def stack_rows(tensors) -> Tensor:
    """Stack K same-length 1-D tensors into a (K, M) matrix."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors or any(t.ndim != 1 for t in tensors):
        raise ShapeError("stack_rows: expects a non-empty list of 1-D tensors")

    def make(out):
        def backward(g):
            for i, t in enumerate(tensors):
                if t.requires_grad:
                    t.accumulate(g[i])
        return backward

    return _emit(np.stack([t.values for t in tensors], axis=0),
                 "stack_rows", tensors, make)


def stack_cols(tensors) -> Tensor:
    """Stack K same-length 1-D tensors into an (N, K) matrix."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors or any(t.ndim != 1 for t in tensors):
        raise ShapeError("stack_cols: expects a non-empty list of 1-D tensors")

    def make(out):
        def backward(g):
            for i, t in enumerate(tensors):
                if t.requires_grad:
                    t.accumulate(g[:, i])
        return backward

    return _emit(np.stack([t.values for t in tensors], axis=1),
                 "stack_cols", tensors, make)


def gather_rows(m, index) -> Tensor:
    """Select rows ``index`` from a 2-D tensor; backward scatter-adds."""
    m = _as_tensor(m)
    if m.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D input, got {m.shape}")
    idx = np.asarray(index, dtype=np.intp)

    def make(out):
        def backward(g):
            if m.requires_grad:
                m.ensure_grad()
                np.add.at(m.grad, idx, g)
        return backward

    return _emit(m.values[idx], "gather_rows", (m,), make)


def take_row(m, i: int) -> Tensor:
    m = _as_tensor(m)
    if m.ndim != 2:
        raise ShapeError(f"take_row: expected 2-D input, got {m.shape}")

    def make(out):
        def backward(g):
            if m.requires_grad:
                m.ensure_grad()
                m.grad[i] += g
        return backward

    return _emit(m.values[i].copy(), "take_row", (m,), make)


def take_col(m, j: int) -> Tensor:
    m = _as_tensor(m)
    if m.ndim != 2:
        raise ShapeError(f"take_col: expected 2-D input, got {m.shape}")

    def make(out):
        def backward(g):
            if m.requires_grad:
                m.ensure_grad()
                m.grad[:, j] += g
        return backward

    return _emit(m.values[:, j].copy(), "take_col", (m,), make)


def mul_rows(m, s) -> Tensor:
    """Scale each row of (N, M) tensor ``m`` by the matching entry of (N,) ``s``."""
    m, s = _as_tensor(m), _as_tensor(s)
    if m.ndim != 2 or s.ndim != 1 or m.shape[0] != s.shape[0]:
        raise ShapeError(f"mul_rows: shapes {m.shape} and {s.shape} incompatible")
    mv, sv = m.values, s.values

    def make(out):
        def backward(g):
            if m.requires_grad:
                m.accumulate(g * sv[:, None])
            if s.requires_grad:
                s.accumulate((g * mv).sum(axis=1))
        return backward

    return _emit(mv * sv[:, None], "mul_rows", (m, s), make)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def mean(x) -> Tensor:
    x = _as_tensor(x)
    n = x.size
    if n == 0:
        raise ShapeError("mean: empty input")

    def make(out):
        def backward(g):
            if x.requires_grad:
                x.accumulate(np.full_like(x.values, float(g) / n))
        return backward

    return _emit(np.asarray(x.values.mean()), "mean", (x,), make)


def sq_error(pred, target) -> Tensor:
    """Mean squared error against a constant target array."""
    pred = _as_tensor(pred)
    tv = np.asarray(target, dtype=np.float64)
    if pred.shape != tv.shape:
        raise ShapeError(f"sq_error: shapes {pred.shape} and {tv.shape} differ")
    if pred.size == 0:
        raise ShapeError("sq_error: empty batch")
    diff = pred.values - tv
    n = pred.size

    def make(out):
        def backward(g):
            if pred.requires_grad:
                pred.accumulate(float(g) * 2.0 * diff / n)
        return backward

    return _emit(np.asarray(np.mean(diff * diff)), "sq_error", (pred,), make)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def gradient_check(f, params, h: float = 1e-5, max_coords_per_param: int | None = None,
                   seed: int = 0) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    ``f`` must be a zero-argument callable that rebuilds the forward pass from
    the current parameter values and returns a scalar :class:`Tensor`. The
    analytic gradient is taken from one taped backward pass; each sampled
    coordinate is then probed with ``(f(x+h) - f(x-h)) / 2h`` evaluated
    outside any tape. Returns the maximum relative error, where the relative
    error uses ``max(|analytic|, |numeric|, 1e-8)`` as the denominator.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
                for p in params]
    for p in params:
        p.zero_grad()

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, ag in zip(params, analytic):
        flat = p.values.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        ag_flat = ag.reshape(-1)
        for k in coords:
            orig = flat[k]
            flat[k] = orig + h
            fp = float(f().values)
            flat[k] = orig - h
            fm = float(f().values)
            flat[k] = orig
            numeric = (fp - fm) / (2.0 * h)
            denom = max(abs(ag_flat[k]), abs(numeric), 1e-8)
            worst = max(worst, abs(ag_flat[k] - numeric) / denom)
    return worst
