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
* ``mse_loss``, ``ridge_fit``, ``ridge_predict``, ``build_ridge_features``
  and ``ridge_scan``: the ridge baseline of acceptance criterion 4 and its
  unit tests; no stage runs it.
"""

import numpy as np

from alphagraph.autodiff import Tensor, _as_tensor, _emit
from alphagraph.errors import ConfigError, DataError, NumericalFault, ShapeError
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


# ---------------------------------------------------------------------------
# Ridge baseline
# ---------------------------------------------------------------------------

def mse_loss(y: np.ndarray, yhat: np.ndarray) -> float:
    """Mean squared error of two equal-shape, non-empty arrays."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ShapeError(f"mse_loss: shapes {y.shape} and {yhat.shape} differ")
    if y.size == 0:
        raise DataError("mse_loss: empty batch")
    d = y - yhat
    return float(np.mean(d * d))


def ridge_fit(x: np.ndarray, y: np.ndarray, lam: float):
    """Ridge coefficients via the centered normal equations.

    The intercept is fitted on the centered data and left unpenalized.
    Returns (beta, intercept). Raises on a singular system at lam = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if lam < 0:
        raise ConfigError(f"ridge penalty must be >= 0, got {lam}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("ridge_fit: non-finite inputs")
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + lam * np.eye(x.shape[1])
    if lam == 0 and np.linalg.matrix_rank(gram) < x.shape[1]:
        raise NumericalFault("singular system at lambda = 0; use a positive penalty")
    beta = np.linalg.solve(gram, xc.T @ yc)
    return beta, float(y_mean - x_mean @ beta)


def ridge_predict(x: np.ndarray, beta: np.ndarray, intercept: float) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ beta + intercept


def build_ridge_features(dataset, cfg, init_emb) -> np.ndarray:
    """Flat per-sample features: the per-day (news, factors, embedding)
    triples over the lookback window, concatenated oldest first."""
    if cfg.use_graph and init_emb is None:
        raise ConfigError("graph features requested but no embeddings given")
    blocks = []
    T = cfg.lookback
    st = dataset.store
    for lag in range(T):
        days = dataset.anchor_idx - T + lag
        if cfg.use_news:
            blocks.append(st.news_at(days, dataset.stock_idx))
        if cfg.use_tech:
            blocks.append(st.factors[days, dataset.stock_idx])
        if cfg.use_graph:
            blocks.append(init_emb.vectors[dataset.stock_idx])
    return np.concatenate(blocks, axis=1)


def ridge_scan(x: np.ndarray, y: np.ndarray, lambdas, val_fraction: float = 0.2,
               seed: int = 0):
    """Pick the penalty with the best held-out MSE, then refit on all rows.

    Returns (beta, intercept, best_lambda).
    """
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    perm = rng.permutation(n)
    n_val = max(1, int(round(val_fraction * n)))
    val, tr = perm[:n_val], perm[n_val:]
    best = (np.inf, None)
    for lam in lambdas:
        beta, icpt = ridge_fit(x[tr], y[tr], lam)
        err = mse_loss(y[val], ridge_predict(x[val], beta, icpt))
        if err < best[0]:
            best = (err, lam)
    lam = best[1]
    beta, icpt = ridge_fit(x, y, lam)
    return beta, icpt, lam
