"""Test-side helpers shared by several test modules.

* ``add``, ``mul``, ``scale``, ``sigmoid``, ``mean``, ``stack``,
  ``take_row``, ``take_col``, ``mul_rows``, ``stack_rows`` and
  ``gate_block``: autodiff primitives that only the gradient checks and the
  model parity references use; they record on the tape like the package's
  own primitives.
* ``gate_cols``: the columns of one gate in a fused LSTM parameter.
* ``market_bars``: a synthetic market's bars as :class:`Bar` objects, and
  ``build_panel``, which assembles such bars into a :class:`BarPanel`.
* ``news_rows``: a dense (D, S, d_w) news array as ragged cell rows.
"""

import numpy as np

from alphagraph.autodiff import Tensor, _as_tensor, _emit
from alphagraph.errors import DataError, ShapeError
from alphagraph.market import (Bar, BarPanel, _duplicate_bar, _panel_from_columns,
                               _suspect_bars)


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("add", a, b)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _emit(a.values + b.values, "add", (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("mul", a, b)
    av, bv = a.values, b.values

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * bv)
        if b.requires_grad:
            b.accumulate(g * av)

    return _emit(av * bv, "mul", (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * c)

    return _emit(a.values * c, "scale", (a,), backward)


def _sigmoid_values(v: np.ndarray) -> np.ndarray:
    # sigmoid(v) = (1 + tanh(v/2)) / 2: one transcendental call and no
    # overflow for any finite v (tanh saturates to exactly +-1), the form
    # ``autodiff.lstm`` evaluates its gates in
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid_values(x.values)

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * y * (1.0 - y))

    return _emit(y, "sigmoid", (x,), backward)


def mean(x) -> Tensor:
    x = _as_tensor(x)
    n = x.size
    if n == 0:
        raise ShapeError("mean: empty input")

    def backward(g):
        if x.requires_grad:
            x.accumulate(np.full_like(x.values, float(g) / n))

    return _emit(np.asarray(x.values.mean()), "mean", (x,), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack K same-shape tensors along a new ``axis``."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors or any(t.shape != tensors[0].shape for t in tensors):
        raise ShapeError("stack: expects a non-empty list of same-shape tensors")
    ax = axis % (tensors[0].ndim + 1)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate(np.take(g, i, axis=ax))

    return _emit(np.stack([t.values for t in tensors], axis=ax), "stack", tensors, backward)


def stack_rows(tensors) -> Tensor:
    """Stack K same-length 1-D tensors into a (K, M) matrix."""
    if not tensors or any(_as_tensor(t).ndim != 1 for t in tensors):
        raise ShapeError("stack_rows: expects a non-empty list of 1-D tensors")
    return stack(tensors, axis=0)


def take_row(m, i: int) -> Tensor:
    m = _as_tensor(m)
    if m.ndim != 2:
        raise ShapeError(f"take_row: expected 2-D input, got {m.shape}")

    def backward(g):
        if m.requires_grad:
            m.ensure_grad()
            m.grad[i] += g

    return _emit(m.values[i].copy(), "take_row", (m,), backward)


def take_col(m, j: int) -> Tensor:
    m = _as_tensor(m)
    if m.ndim != 2:
        raise ShapeError(f"take_col: expected 2-D input, got {m.shape}")

    def backward(g):
        if m.requires_grad:
            m.ensure_grad()
            m.grad[:, j] += g

    return _emit(m.values[:, j].copy(), "take_col", (m,), backward)


def mul_rows(m, s) -> Tensor:
    """Scale each row of (N, M) tensor ``m`` by the matching entry of (N,) ``s``."""
    m, s = _as_tensor(m), _as_tensor(s)
    if m.ndim != 2 or s.ndim != 1 or m.shape[0] != s.shape[0]:
        raise ShapeError(f"mul_rows: shapes {m.shape} and {s.shape} incompatible")
    mv, sv = m.values, s.values

    def backward(g):
        if m.requires_grad:
            m.accumulate(g * sv[:, None])
        if s.requires_grad:
            s.accumulate((g * mv).sum(axis=1))

    return _emit(mv * sv[:, None], "mul_rows", (m, s), backward)


def gate_cols(gate: str, hidden: int) -> slice:
    """Columns of gate ``gate`` (one of "ifgo") in a fused LSTM parameter,
    whose last axis holds the i, f, g, o blocks of width ``hidden``."""
    k = "ifgo".index(gate)
    return slice(k * hidden, (k + 1) * hidden)


def gate_block(m, gate: str) -> Tensor:
    """The ``gate_cols`` block of a fused LSTM parameter ``m`` as a tensor."""
    m = _as_tensor(m)
    cols = gate_cols(gate, m.shape[-1] // 4)

    def backward(g):
        if m.requires_grad:
            m.ensure_grad()
            m.grad[..., cols] += g

    return _emit(m.values[..., cols].copy(), "gate_block", (m,), backward)


def market_bars(market) -> list:
    """The bars of a :class:`SyntheticMarket`, date after date, each date's
    stocks in generation order."""
    cols = [market.arrays[f].tolist() for f in BarPanel.FIELDS]
    return [Bar(sym, date, *(col[t][i] for col in cols))
            for t, date in enumerate(market.calendar)
            for i, sym in enumerate(market.symbols)]


def build_panel(bars) -> BarPanel:
    """Assemble bars into a panel; every bar is validated and duplicate
    (date, symbol) keys are rejected.

    Of several problems, the one met first in (date, symbol) order is
    reported: an invalid bar, or the second bar of a duplicate key.
    """
    bars = sorted(bars, key=lambda b: (b.date, b.symbol))
    if not bars:
        raise DataError("no bars to build a panel from")
    cols = np.array([[getattr(b, f) for b in bars] for f in BarPanel.FIELDS],
                    dtype=np.float64)
    for i in np.flatnonzero(_suspect_bars(cols)):
        try:
            bars[i].validate()
        except DataError:
            for a, b in zip(bars[:i], bars[1:i]):   # sorted: duplicates are adjacent
                if (a.date, a.symbol) == (b.date, b.symbol):
                    raise _duplicate_bar(b.symbol, b.date) from None
            raise
    rows = np.arange(len(bars))
    return _panel_from_columns([b.date for b in bars], rows,
                               [b.symbol for b in bars], rows, cols)


def news_rows(dense: np.ndarray):
    """(rows, row index) holding every cell of a dense (D, S, d_w) news array
    as its own row, followed by the zero row, as ``FeatureStore.news`` does."""
    D, S, d_w = dense.shape
    rows = np.concatenate([dense.reshape(D * S, d_w), np.zeros((1, d_w))])
    return rows, np.arange(D * S, dtype=np.int32).reshape(D, S)
