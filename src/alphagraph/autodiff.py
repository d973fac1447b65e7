"""Reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tape` records every primitive applied while it is active, in
forward order, together with a closure that propagates the output gradient
back to the inputs. ``Tape.backward`` walks the records in exact reverse
order, accumulating gradients additively into each tensor's ``grad`` buffer.
Every record has one output tensor; a record whose output nothing consumed
is skipped. Outside a tape, primitives are plain numpy forward computations.

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
            self.grad = np.zeros(self.values.shape)
        return self.grad

    def accumulate(self, g):
        """Add ``g`` (same shape as the values) into the gradient buffer."""
        if self.grad is None:
            # a copy, never ``g`` itself: one array may feed several inputs
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def item(self) -> float:
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []
        self._n_records = 0

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        """The number of records the forward pass made, also once
        ``backward`` has run and dropped them."""
        return self._n_records

    def record(self, out: Tensor, backward) -> None:
        """Append a primitive's output and the closure that propagates its
        gradient to the primitive's inputs."""
        self._records.append((out, backward))
        self._n_records += 1

    def backward(self, loss: Tensor):
        """Seed ``loss`` with gradient 1 and run all records in reverse.

        Each record is dropped as soon as it has run: every consumer of its
        output ran before it, so its closure, its output tensor and that
        tensor's gradient are freed then, unless the caller holds the
        output."""
        if loss.ndim != 0:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        loss.ensure_grad()
        loss.grad += 1.0
        records = self._records
        while records:
            out, backward_fn = records.pop()
            if out.grad is not None:
                backward_fn(out.grad)


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(values, op: str, inputs, backward):
    """Build the output tensor, validate finiteness, and record it on the tape
    with its ``backward`` closure."""
    if not np.isfinite(values).all():
        raise NumericalFault(f"non-finite values produced by '{op}'")
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=needs)
    if needs:
        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def relu(x) -> Tensor:
    x = _as_tensor(x)
    mask = x.values > 0.0

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * mask)

    return _emit(np.where(mask, x.values, 0.0), "relu", (x,), backward)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.values)

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * (1.0 - y * y))

    return _emit(y, "tanh", (x,), backward)


def softmax(x) -> Tensor:
    """Softmax over the last axis of a 2-D tensor, max-subtracted."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"softmax: expected 2-D input, got shape {x.shape}")
    v = x.values
    m = v.max(axis=-1, keepdims=True)
    e = np.exp(v - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            inner = (g * y).sum(axis=-1, keepdims=True)
            x.accumulate(y * (g - inner))

    return _emit(y, "softmax", (x,), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product of a 2-D ``a`` with a 2-D or 1-D ``b``."""
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.values, b.values
    if a.ndim != 2 or b.ndim not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks {a.shape} x {b.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dimensions of {a.shape} and {b.shape} differ")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ bv.T if b.ndim == 2 else np.outer(g, bv))
        if b.requires_grad:
            b.accumulate(av.T @ g)

    return _emit(av @ bv, "matmul", (a, b), backward)


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` with ``x`` of shape (N, K), ``w`` (K, M) and ``b`` (M,)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xv, wv, bv = x.values, w.values, b.values
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"affine: bad ranks x{x.shape} w{w.shape} b{b.shape}")
    if xv.shape[1] != wv.shape[0] or wv.shape[1] != bv.shape[0]:
        raise ShapeError(f"affine: incompatible shapes x{x.shape} w{w.shape} b{b.shape}")

    def backward(g):
        if x.requires_grad:
            x.accumulate(g @ wv.T)
        if w.requires_grad:
            w.accumulate(xv.T @ g)
        if b.requires_grad:
            b.accumulate(g.sum(axis=0))

    y = xv @ wv
    y += bv  # in place: a fresh broadcast sum costs a second large allocation
    return _emit(y, "affine", (x, w, b), backward)


def add_bias(x, b) -> Tensor:
    """``x + b`` for a 1-D ``x`` and a scalar ``b``."""
    x, b = _as_tensor(x), _as_tensor(b)
    if x.ndim != 1 or b.ndim != 0:
        raise ShapeError(f"add_bias: expected (N,) and scalar shapes, got {x.shape} "
                         f"and {b.shape}")

    def backward(g):
        if x.requires_grad:
            x.accumulate(g)
        if b.requires_grad:
            b.accumulate(g.sum())

    return _emit(x.values + b.values, "add_bias", (x, b), backward)


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

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * nd
                sl[ax] = slice(int(lo), int(hi))
                t.accumulate(g[tuple(sl)])

    return _emit(np.concatenate([t.values for t in tensors], axis=ax),
                 "concat", tensors, backward)


def reshape(x, shape) -> Tensor:
    """Same values in a new shape (a view where numpy allows one)."""
    x = _as_tensor(x)
    try:
        y = x.values.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot reshape {x.shape} to {shape}") from exc

    def backward(g):
        if x.requires_grad:
            x.accumulate(g.reshape(x.shape))

    return _emit(y, "reshape", (x,), backward)


def scatter_rows(index, rows, n: int) -> np.ndarray:
    """(n, M) sums of the (K, M) ``rows`` by their target row ``index`` (K,).

    One flat ``np.bincount``: each sum adds its rows in ``index`` order from
    zero, exactly as ``np.add.at`` into a zero array does.
    """
    index = np.asarray(index, dtype=np.intp).reshape(-1)
    width = rows.shape[-1]
    flat = (index[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1),
                       minlength=n * width).reshape(n, width)


def _scatter_grad(m: Tensor, index, g) -> None:
    """Scatter-add the rows of ``g`` into ``m``'s gradient by ``index``."""
    s = scatter_rows(index, g, m.shape[0])
    if m.grad is None:
        m.grad = s
    else:
        m.grad += s


def gather_rows(m, index) -> Tensor:
    """Select rows ``index`` (an int array of any shape) from a 2-D tensor.

    The output has shape ``index.shape + (M,)``; backward scatter-adds.
    """
    m = _as_tensor(m)
    if m.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D input, got {m.shape}")
    idx = np.asarray(index, dtype=np.intp)

    def backward(g):
        if m.requires_grad:
            _scatter_grad(m, idx, g)

    return _emit(m.values[idx], "gather_rows", (m,), backward)


def weighted_sum(seq, w) -> Tensor:
    """Per-row weighted sum over the middle axis: ``sum_k w[n, k] * seq[n, k]``.

    ``seq`` is (N, K, M) and ``w`` (N, K); the result is (N, M). The terms
    are added in order k = 0, 1, ..., K-1.
    """
    seq, w = _as_tensor(seq), _as_tensor(w)
    if seq.ndim != 3 or w.shape != seq.shape[:2] or seq.shape[1] == 0:
        raise ShapeError(f"weighted_sum: shapes {seq.shape} and {w.shape} incompatible")
    sv, wv = seq.values, w.values
    y = sv[:, 0] * wv[:, 0, None]
    for k in range(1, sv.shape[1]):
        y += sv[:, k] * wv[:, k, None]

    def backward(g):
        if seq.requires_grad:
            seq.accumulate(g[:, None, :] * wv[:, :, None])
        if w.requires_grad:
            w.accumulate(np.einsum("nkm,nm->nk", sv, g))

    return _emit(y, "weighted_sum", (seq, w), backward)


def lstm(zx, windows, u, reverse: bool = False) -> Tensor:
    """One LSTM direction over N sequences of T steps, from the zero state.

    ``zx`` (U, 4H) holds the input pre-activations of U cells, ``windows``
    (N, T) the cell of each step of each sequence, and ``u`` (H, 4H) is the
    recurrent matrix; the last axis of ``zx`` and ``u`` holds the i, f, g, o
    gates as four blocks of width H. Step t adds ``h_prev @ u`` to
    ``zx[windows[:, t]]``, then ``i, f, o = sigmoid(.)``, ``g = tanh(.)``,
    ``c = f * c_prev + i * g`` and ``h = o * tanh(c)``. The steps run
    t = 0, 1, ..., T-1, or T-1 down to 0 with ``reverse``. Returns the
    (N, T, H) hidden states in step order as one record, whose backward runs
    backpropagation through time and scatters the steps' input gradients
    into ``zx``'s rows in one pass.
    """
    zx, u = _as_tensor(zx), _as_tensor(u)
    windows = np.asarray(windows, dtype=np.intp)
    H = u.shape[0] if u.ndim == 2 else 0
    if (zx.ndim != 2 or windows.ndim != 2 or windows.shape[1] == 0
            or u.shape != (H, 4 * H) or zx.shape[1] != 4 * H):
        raise ShapeError(f"lstm: shapes {zx.shape}, windows {windows.shape} and {u.shape} "
                         f"incompatible; expected (U, 4H) pre-activations, (N, T >= 1) "
                         f"cell indices and an (H, 4H) matrix")
    if windows.size and not (0 <= windows.min() and windows.max() < zx.shape[0]):
        raise ShapeError(f"lstm: window indices outside the {zx.shape[0]} cells")
    zv, uv = zx.values, u.values
    N, T = windows.shape
    hs = np.empty((N, T, H))
    # (t, act, c_prev, tc, h_prev) of each step, in step order; kept only for
    # a backward, so that a forward-only pass holds one step at a time
    steps = []
    keep = _active_tape() is not None and (zx.requires_grad or u.requires_grad)
    h = c = None  # zero initial state
    for t in range(T - 1, -1, -1) if reverse else range(T):
        act = zv[windows[:, t]]  # a fresh (N, 4H) array
        if h is not None:
            # h is o * tanh(c), a fresh array: a matmul on a strided view of
            # hs can round differently
            act += h @ uv
        # act becomes sigmoid(i), sigmoid(f), tanh(g), sigmoid(o) in place,
        # with sigmoid(z) = (1 + tanh(z/2)) / 2, which cannot overflow for
        # any finite z, so one tanh call covers all four gates
        sig = (act[:, :2 * H], act[:, 3 * H:])
        for block in sig:
            block *= 0.5
        np.tanh(act, out=act)
        for block in sig:
            block += 1.0
            block *= 0.5
        i, f, g, o = (act[:, k * H:(k + 1) * H] for k in range(4))
        c_prev = c
        if c_prev is None:
            c = i * g
        else:  # f * c_prev + i * g
            c = f * c_prev
            c += i * g
        if not np.isfinite(c).all():  # _emit checks every h in hs
            raise NumericalFault("non-finite values produced by 'lstm'")
        tc = np.tanh(c)
        if keep:
            steps.append((t, act, c_prev, tc, h))
        h = o * tc
        hs[:, t] = h

    def backward(gout):
        # each step's dz, scattered into zx's rows once all steps are done
        dzs = np.empty((N, T, 4 * H)) if zx.requires_grad else None
        dz = gc = None  # gradients from the step after the current one
        for t, act, c_prev, tc, h_prev in reversed(steps):
            i, f, g, o = (act[:, k * H:(k + 1) * H] for k in range(4))
            gh = gout[:, t] if dz is None else gout[:, t] + dz @ uv.T
            dc = (np.zeros_like(tc) if gc is None else gc) + gh * o * (1.0 - tc * tc)
            dz = np.zeros_like(act)
            dz[:, :H] = dc * g * i * (1.0 - i)
            if c_prev is not None:
                dz[:, H:2 * H] = dc * c_prev * f * (1.0 - f)
            dz[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
            dz[:, 3 * H:] = gh * tc * o * (1.0 - o)
            if dzs is not None:
                dzs[:, t] = dz
            if h_prev is not None and u.requires_grad:
                u.accumulate(h_prev.T @ dz)
            gc = dc * f
        if dzs is not None:
            _scatter_grad(zx, windows, dzs)

    return _emit(hs, "lstm", (zx, u), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

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

    def backward(g):
        if pred.requires_grad:
            pred.accumulate(float(g) * 2.0 * diff / n)

    return _emit(np.asarray(np.mean(diff * diff)), "sq_error", (pred,), backward)

