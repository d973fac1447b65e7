"""Test-side helpers shared by several test modules: code that no stage
runs, kept as the references and checks the tests use.

* ``add``, ``mul``, ``scale``, ``sigmoid``, ``mean``, ``stack``,
  ``take_row``, ``take_col``, ``mul_rows``, ``stack_rows`` and
  ``gate_block``: autodiff primitives that only the gradient checks and the
  model parity references use; they record on the tape like the package's
  own primitives.
* ``gate_cols``: the columns of one gate in a fused LSTM parameter.
* ``gradient_check``: analytic gradients against central differences.
* ``Bar`` and ``parse_bar_row``: the row-by-row reference of the bar rules
  that ``market.load_bars`` checks column by column.
* ``market_bars``: a synthetic market's bars as :class:`Bar` objects, and
  ``build_panel``, which assembles such bars into a :class:`BarPanel`.
* ``forward_return``: the label of one (symbol, day), the scalar reference
  of ``model.build_dataset``.
* ``standardize_cross_section``: one date's winsorized z-scores, the 1-D
  form of ``factors._standardize_rows``.
* ``news_rows``: a dense (D, S, d_w) news array as ragged cell rows.
* ``cooccurrence_value`` and ``cooccurrence_dense``: one count and the
  dense matrix of a :class:`CooccurrenceMatrix`.
* ``ref_pairwise_distances``, ``ref_factor_importance``,
  ``ref_factor_frequency``, ``ref_error_buckets`` and ``ref_knn_table``:
  the rankings of ``interpret`` and ``embeddings.build_knn_graph`` with
  their ties broken by explicit index keys (a tuple-keyed list sort or
  ``np.lexsort``), the references of the stable sorts that replaced them.
* ``markowitz_closed_form``: the single-day unconstrained Markowitz solve.
* ``forecast_stats``: per-day forecast dispersion and forecast-realized
  correlation (acceptance criterion 5).
* ``read_truth_signals``: the synthetic market's signal sidecar.
* ``dump_config``: a config dict as the JSON text ``load_config`` reads.
* ``TEST_SIGNAL``: the planted-signal strength of the unit tests' synthetic
  markets, stronger and less noisy than the ``synth`` defaults.
* ``mse_loss``, ``ridge_fit``, ``ridge_predict``, ``build_ridge_features``
  and ``ridge_scan``: the ridge baseline of acceptance criterion 4 and its
  unit tests; no stage runs it.
"""

import datetime as dt
import json
import math
from dataclasses import dataclass

import numpy as np

from alphagraph.autodiff import Tape, Tensor, _as_tensor, _emit
from alphagraph.errors import ConfigError, DataError, NumericalFault, ShapeError
from alphagraph.factors import _standardize_rows
from alphagraph.market import (BAR_HEADER, BarPanel, _duplicate_bar, _panel_from_columns,
                               log_return)

# the synth signal settings that the unit tests' markets and thresholds are
# calibrated on
TEST_SIGNAL = {"b_volume": 0.01, "b_reversal": 0.25, "noise_std": 0.01}


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


# ---------------------------------------------------------------------------
# Bars, labels and factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bar:
    symbol: str
    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def validate(self) -> None:
        if min(self.open, self.high, self.low, self.close) <= 0:
            raise DataError(f"bar {self.symbol} {self.date}: non-positive price")
        body_lo = min(self.open, self.close)
        body_hi = max(self.open, self.close)
        if not (self.low <= body_lo <= body_hi <= self.high):
            raise DataError(f"bar {self.symbol} {self.date}: high/low do not bracket open/close")
        if self.volume < 0:
            raise DataError(f"bar {self.symbol} {self.date}: negative volume")


def parse_bar_row(row, line_no: int) -> Bar:
    """One CSV row of a bar file as a :class:`Bar`, or the DataError naming
    its line and the first bar rule it breaks."""
    try:
        date = dt.date.fromisoformat(row[0])
        symbol = row[1]
        nums = [float(v) for v in row[2:7]]
    except (ValueError, IndexError) as exc:
        raise DataError(f"line {line_no}: malformed bar row: {exc}") from exc
    if len(row) < len(BAR_HEADER):
        raise DataError(f"line {line_no}: malformed bar row: expected "
                        f"{len(BAR_HEADER)} fields, got {len(row)}")
    if not symbol:
        raise DataError(f"line {line_no}: empty symbol")
    if any(not math.isfinite(v) for v in nums):
        raise DataError(f"line {line_no}: non-finite value")
    bar = Bar(symbol, date, *nums)
    try:
        bar.validate()
    except DataError as exc:
        raise DataError(f"line {line_no}: {exc}") from exc
    return bar


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
    for prev, b in zip([None] + bars, bars):
        b.validate()
        if prev is not None and (prev.date, prev.symbol) == (b.date, b.symbol):
            raise _duplicate_bar(b.symbol, b.date)
    cols = np.array([[getattr(b, f) for b in bars] for f in BarPanel.FIELDS],
                    dtype=np.float64)
    rows = np.arange(len(bars))
    return _panel_from_columns([b.date for b in bars], rows,
                               [b.symbol for b in bars], rows, cols)


def forward_return(panel: BarPanel, symbol: str, t: dt.date, horizon: int) -> float | None:
    """Future return used as the label for features observed through day ``t``.

    Computed from the open of the trading day after ``t`` to the open
    ``horizon`` trading days later: log(open[t+1+horizon] / open[t+1]).
    Returns None when the window runs past the end of the calendar or a
    needed bar is missing.
    """
    s = panel.symbol_index.get(symbol)
    if s is None:
        raise DataError(f"forward_return: unknown symbol {symbol!r}")
    if t not in panel.date_index:
        raise DataError(f"forward_return: date {t} not in calendar")
    i = panel.date_index[t]
    entry, exit_ = i + 1, i + 1 + horizon
    if exit_ > panel.n_dates - 1:
        return None
    p_in = panel.open[entry, s]
    p_out = panel.open[exit_, s]
    if not (np.isfinite(p_in) and np.isfinite(p_out)):
        return None
    return log_return(float(p_out), float(p_in))


def standardize_cross_section(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Winsorize and z-score one date's (S,) cross-section: one row of
    ``factors._standardize_rows``, whose docstring states the contract."""
    return _standardize_rows(values[None, :], np.asarray(mask, dtype=bool)[None, :])[0]


# ---------------------------------------------------------------------------
# News, evaluation and files
# ---------------------------------------------------------------------------

def news_rows(dense: np.ndarray):
    """(rows, row index) holding every cell of a dense (D, S, d_w) news array
    as its own row, followed by the zero row, as ``FeatureStore.news`` does."""
    D, S, d_w = dense.shape
    rows = np.concatenate([dense.reshape(D * S, d_w), np.zeros((1, d_w))])
    return rows, np.arange(D * S, dtype=np.int32).reshape(D, S)


def cooccurrence_value(x, i: int, j: int) -> int:
    """The co-mention count of stocks ``i`` and ``j`` in a
    :class:`CooccurrenceMatrix`; 0 on the diagonal."""
    if i == j:
        return 0
    key = (i, j) if i < j else (j, i)
    return x.counts.get(key, 0)


def cooccurrence_dense(x) -> np.ndarray:
    """A :class:`CooccurrenceMatrix` as a dense symmetric (n, n) array."""
    out = np.zeros((x.n, x.n))
    for (i, j), c in x.counts.items():
        out[i, j] = c
        out[j, i] = c
    return out


def ref_pairwise_distances(vectors: np.ndarray) -> list[tuple]:
    """All pair distances as (i, j, distance, percentile) tuples, in a
    Python sort on (distance, i, j)."""
    n = vectors.shape[0]
    pairs = []
    for i in range(n):
        diff = vectors[i + 1:] - vectors[i]
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        pairs.extend((float(d), i, i + 1 + k) for k, d in enumerate(dist))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    total = len(pairs)
    return [(i, j, d, 100.0 * (rank + 1) / total) for rank, (d, i, j) in enumerate(pairs)]


def ref_factor_importance(w_nonneg: np.ndarray, coordinate: int, k_emb: int) -> list[int]:
    """Indices of the k largest weights feeding one embedding coordinate,
    ties by ascending factor index."""
    row = w_nonneg[coordinate]
    order = np.lexsort((np.arange(row.size), -row))
    return [int(i) for i in order[:k_emb]]


def ref_factor_frequency(w_nonneg: np.ndarray, k_emb: int) -> list[tuple[int, int]]:
    """(factor, count) of how often each factor makes a coordinate's top-k
    list, by descending count, ties by ascending factor index."""
    counts = np.zeros(w_nonneg.shape[1], dtype=np.int64)
    for i in range(w_nonneg.shape[0]):
        for j in ref_factor_importance(w_nonneg, i, k_emb):
            counts[j] += 1
    order = np.lexsort((np.arange(counts.size), -counts))
    return [(int(j), int(counts[j])) for j in order]


def ref_error_buckets(sq_errors, tie_keys, tail: float):
    """(low, high) positions of the smallest and largest ``tail`` fraction
    of errors; equal errors rank by the arrays of ``tie_keys``, the first
    deciding first."""
    errs = np.asarray(sq_errors, dtype=np.float64)
    order = np.lexsort((*reversed([np.asarray(k) for k in tie_keys]), errs))
    n_tail = max(1, math.ceil(tail * errs.size))
    return order[:n_tail], order[-n_tail:]


def ref_knn_table(vectors: np.ndarray, k: int):
    """(neighbors, distances) of the exact kNN digraph, each row ranked by
    ascending distance, ties by ascending stock index."""
    n = vectors.shape[0]
    sq = np.sum(vectors * vectors, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (vectors @ vectors.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    idx = np.broadcast_to(np.arange(n), d2.shape)
    neighbors = np.lexsort((idx, d2), axis=-1)[:, :min(k, n - 1)]
    return neighbors, np.sqrt(np.take_along_axis(d2, neighbors, axis=1))


def markowitz_closed_form(yhat_row: np.ndarray, cov: np.ndarray,
                          risk_aversion: float) -> np.ndarray:
    """Single-day unconstrained Markowitz solve."""
    return np.linalg.solve(2.0 * risk_aversion * cov, yhat_row)


def forecast_stats(yhat: np.ndarray, y: np.ndarray):
    """Per-day cross-sectional dispersion and forecast-realized correlation.

    Returns (std series, corr series, degenerate flags); days with fewer
    than 2 joint observations or zero variance are NaN and flagged.
    """
    D, _ = yhat.shape
    stds = np.full(D, np.nan)
    corrs = np.full(D, np.nan)
    flags = np.zeros(D, dtype=bool)
    for t in range(D):
        valid = np.isfinite(yhat[t])
        if valid.sum() >= 2:
            stds[t] = float(yhat[t][valid].std())
        joint = valid & np.isfinite(y[t])
        if joint.sum() < 2 or yhat[t][joint].std() == 0 or y[t][joint].std() == 0:
            flags[t] = True
            continue
        corrs[t] = float(np.corrcoef(yhat[t][joint], y[t][joint])[0, 1])
    return stds, corrs, flags


def read_truth_signals(path):
    """(date, symbol) -> conditional-mean signal, parsed from the sidecar."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "date,symbol,signal":
            raise DataError(f"{path}: header {header.strip()!r} is not 'date,symbol,signal'")
        for line in fh:
            date_s, sym, val = line.rstrip("\n").split(",")
            out[(dt.date.fromisoformat(date_s), sym)] = float(val)
    return out


def dump_config(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True)


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
