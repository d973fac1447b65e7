"""Forecast evaluation: metric suite, trading simulators, quantiles.

Conventions: a forecast at (day t, stock i) is enterable at the open of day
t. The daily returns matrix passed to the simulators has row t equal to the
open-to-open return *ending* at day t, so positions established at day t-1
earn row-t returns and no ledger value at or before day t depends on
anything after t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .orderstats import count_groups, quantiles

TRADING_DAYS_PER_YEAR = 252
QUANTILE_FRACTIONS = {1: 1.00, 2: 0.75, 3: 0.50, 4: 0.25}
BETA_WINDOW = 60   # trading days of the book's beta estimate against the market


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def r_squared(y, yhat) -> float:
    """1 - SSE/SST; NaN flags the degenerate zero-variance case."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.size < 2:
        raise DataError(f"r_squared: need matching arrays of length >= 2, got {y.shape}, {yhat.shape}")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return math.nan
    sse = float(np.sum((y - yhat) ** 2))
    return 1.0 - sse / sst


def sharpe(returns, rf: float = 0.0, annualization: float = math.sqrt(TRADING_DAYS_PER_YEAR)) -> float:
    """Mean excess return over its standard deviation, scaled by
    ``annualization`` (pass 1.0 for a raw ratio). NaN when the deviation
    is zero."""
    r = np.asarray(returns, dtype=np.float64)
    if r.size < 2:
        raise DataError("sharpe: need at least 2 observations")
    excess = r - rf
    if np.all(excess == excess[0]):
        return math.nan
    sd = float(excess.std(ddof=1))
    if sd == 0.0:
        return math.nan
    return float(excess.mean() / sd) * annualization


def paper_pnl_metric(yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-day sum of (forecast - realized), as printed in the source metric
    definition. This measures aggregate forecast error, not trading profit;
    the ledger-based series from the simulators is the economic P&L. Both
    are reported, labeled distinctly."""
    if yhat.shape != y.shape:
        raise DataError(f"paper_pnl: misaligned shapes {yhat.shape} vs {y.shape}")
    diff = np.where(np.isfinite(yhat) & np.isfinite(y), yhat - y, 0.0)
    return diff.sum(axis=1)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------

@dataclass
class TradeLedger:
    calendar: tuple
    symbols: tuple
    positions: np.ndarray  # (D, S) signed notionals held after day-t trading
    pnl: np.ndarray        # (D,)  realized on day t from day t-1 positions
    turnover: np.ndarray   # (D,)
    hedge: np.ndarray | None = None
    warnings: list = field(default_factory=list)

    @property
    def cum_pnl(self) -> np.ndarray:
        return np.cumsum(self.pnl)


def _clean_returns(returns: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(returns), returns, 0.0)


def longshort_weights(forecasts_row: np.ndarray) -> np.ndarray:
    """Cross-sectionally demeaned forecasts scaled to unit gross notional.

    NaN forecasts get zero weight. All-equal forecasts produce a flat book.
    """
    valid = np.isfinite(forecasts_row)
    w = np.zeros_like(forecasts_row)
    if valid.sum() == 0:
        return w
    f = forecasts_row[valid]
    centered = f - f.mean()
    gross = np.abs(centered).sum()
    if gross == 0.0:
        return w
    w[valid] = centered / gross
    return w


def simulate_longshort(yhat: np.ndarray, returns: np.ndarray, calendar, symbols,
                       horizon: int) -> TradeLedger:
    """Signal-proportional long-short book with overlapping tranches.

    Capital is split across ``horizon`` tranches; tranche (t mod horizon) is
    rebalanced at day t's open to the demeaned, gross-1 weights of that day's
    forecasts (scaled by 1/horizon), and held for ``horizon`` days. Day-t
    P&L applies day-t returns to the book held after day t-1. Days whose
    forecasts are all equal leave that tranche flat.
    """
    D, S = yhat.shape
    if returns.shape != yhat.shape:
        raise DataError(f"simulate_longshort: shapes {yhat.shape} vs {returns.shape}")
    rets = _clean_returns(returns)
    tranches = np.zeros((horizon, S))
    book_prev = np.zeros(S)
    positions = np.zeros((D, S))
    pnl = np.zeros(D)
    turnover = np.zeros(D)
    warnings = []
    for t in range(D):
        pnl[t] = float(book_prev @ rets[t])
        if np.isfinite(yhat[t]).any():
            w = longshort_weights(yhat[t])
            if not w.any():
                warnings.append(f"flat tranche on {calendar[t]}: all forecasts equal")
            tranches[t % horizon] = w / horizon
        book = tranches.sum(axis=0)
        positions[t] = book
        turnover[t] = float(np.abs(book - book_prev).sum())
        book_prev = book
    return TradeLedger(tuple(calendar), tuple(symbols), positions, pnl, turnover,
                       warnings=warnings)


def ewma_covariance(returns_history: np.ndarray, halflife: float,
                    shrinkage: float) -> np.ndarray:
    """Exponentially weighted covariance with diagonal shrinkage.

    Shrinks toward the diagonal of variances, which also floors
    near-singular estimates.
    """
    x = _clean_returns(returns_history)
    n = x.shape[0]
    lam = 0.5 ** (1.0 / halflife)
    w = lam ** np.arange(n - 1, -1, -1)
    w /= w.sum()
    mu = w @ x
    xc = x - mu
    cov = (xc * w[:, None]).T @ xc
    diag = np.diag(np.diag(cov))
    cov = (1.0 - shrinkage) * cov + shrinkage * diag
    # final floor so the solve never sees an exactly singular matrix
    eps = 1e-10 * max(np.trace(cov) / max(cov.shape[0], 1), 1e-12)
    return cov + eps * np.eye(cov.shape[0])


def simulate_markowitz(yhat: np.ndarray, returns: np.ndarray, calendar, symbols,
                       risk_aversion: float, cov_window: int, halflife: float,
                       shrinkage: float, per_name_cap: float | None,
                       gross_cap: float | None, cost_linear: float,
                       cost_quadratic: float, market: np.ndarray | None,
                       capital: float) -> TradeLedger:
    """Mean-variance positions with caps, costs, and an optional market hedge.

    Each day with at least ``cov_window`` days of history solves
    ``w* = (2 * risk_aversion * Sigma)^-1 yhat`` on that day's covariance
    estimate, clips each name to ``per_name_cap``, caps total gross notional
    at ``gross_cap`` when set (scaling down only), multiplies by ``capital``
    to get notionals, and holds the book one day. Costs
    ``cost_linear * |dw| + cost_quadratic * dw^2`` are deducted from P&L.
    When a market return series is given, the book's estimated beta exposure
    is offset by a hedge position whose P&L accrues against that series.
    """
    D, S = yhat.shape
    if returns.shape != yhat.shape:
        raise DataError(f"simulate_markowitz: shapes {yhat.shape} vs {returns.shape}")
    rets = _clean_returns(returns)
    mkt = _clean_returns(market) if market is not None else None
    positions = np.zeros((D, S))
    pnl = np.zeros(D)
    turnover = np.zeros(D)
    hedge = np.zeros(D)
    book_prev = np.zeros(S)
    hedge_prev = 0.0
    for t in range(D):
        pnl[t] = float(book_prev @ rets[t])
        if mkt is not None:
            pnl[t] += hedge_prev * mkt[t]
        w = book_prev
        if np.isfinite(yhat[t]).any() and t >= cov_window:
            mu = np.where(np.isfinite(yhat[t]), yhat[t], 0.0)
            cov = ewma_covariance(rets[t - cov_window:t], halflife, shrinkage)
            w = np.linalg.solve(2.0 * risk_aversion * cov, mu)
            if per_name_cap is not None:
                w = np.clip(w, -per_name_cap, per_name_cap)
            if gross_cap is not None:
                g = np.abs(w).sum()
                # scale down only, so the per-name cap is never re-broken
                if g > gross_cap:
                    w = w * (gross_cap / g)
            w = w * capital
        h = 0.0
        if mkt is not None and t >= BETA_WINDOW:
            m = mkt[t - BETA_WINDOW:t]
            var_m = float(m.var())
            if var_m > 0:
                betas = (rets[t - BETA_WINDOW:t] - rets[t - BETA_WINDOW:t].mean(axis=0)) \
                    .T @ (m - m.mean()) / (BETA_WINDOW * var_m)
                h = -float(w @ betas)
        delta = np.abs(w - book_prev).sum()
        day_cost = cost_linear * delta + cost_quadratic * float(((w - book_prev) ** 2).sum())
        pnl[t] -= day_cost
        turnover[t] = delta
        positions[t] = w
        hedge[t] = h
        book_prev = w
        hedge_prev = h
    return TradeLedger(tuple(calendar), tuple(symbols), positions, pnl, turnover,
                       hedge=hedge)


# ---------------------------------------------------------------------------
# Quantile analysis
# ---------------------------------------------------------------------------

@dataclass
class QuantileReport:
    qr: int
    fraction: float
    ppd_bps: float
    sharpe: float
    n_trades: int
    pnl_curve: np.ndarray
    skipped_days: int
    members: np.ndarray  # (D, S) bool: row t is day t's bucket


def quantile_analysis(yhat: np.ndarray, y: np.ndarray, thresholds=(1, 2, 3, 4),
                      side: str = "both") -> dict[int, QuantileReport]:
    """Performance of cumulative signal-magnitude buckets.

    For quantile rank q keeping fraction f of names, a day's bucket is the
    stocks whose |forecast| is at or above that day's (1 - f) magnitude
    quantile; QR=1 is the whole universe and higher ranks are nested subsets.
    Every bucketed stock is traded at $1 notional with the forecast's sign,
    so the per-trade P&L is sign(yhat) * y dollars; PPD is its mean in basis
    points. ``side`` restricts trades to positive or negative forecasts.
    A report's ``members`` is the (D, S) bucket mask; days without a valid
    (finite) forecast and realization on the side are all-False rows,
    counted in ``skipped_days``.

    Days that share a valid count form one block, so each rank's thresholds
    take one ``orderstats.quantiles`` call (``np.quantile``'s bits) per
    distinct count, and daily P&Ls one sum per distinct bucket size; both
    give the same floats as the 1-D per-day quantile and sum.
    """
    if side not in ("both", "long", "short"):
        raise ConfigError(f"unknown side {side!r}")
    for qr in thresholds:
        if qr not in QUANTILE_FRACTIONS:
            raise ConfigError(f"quantile rank {qr} not in {sorted(QUANTILE_FRACTIONS)}")
    D, _ = yhat.shape
    valid = np.isfinite(yhat) & np.isfinite(y)
    if side == "long":
        valid &= yhat > 0
    elif side == "short":
        valid &= yhat < 0
    mags = np.abs(yhat)
    with np.errstate(invalid="ignore"):  # 0 * inf on cells that are not valid
        pay = np.sign(yhat) * y
    skipped = int((~valid.any(axis=1)).sum())
    levels = [1.0 - QUANTILE_FRACTIONS[qr] for qr in thresholds]
    thr = np.full((len(levels), D), np.nan)  # NaN rows: no valid name that day
    for rows, n in count_groups(valid):
        block = mags[rows][valid[rows]].reshape(rows.size, n)
        thr[:, rows] = quantiles(block, levels)
    out = {}
    for qr, day_thr in zip(thresholds, thr):
        bucket = valid & (mags >= day_thr[:, None])
        pnl_curve = np.zeros(D)
        for rows, k in count_groups(bucket):
            pnl_curve[rows] = pay[rows][bucket[rows]].reshape(rows.size, k).sum(axis=1)
        trades = pay[bucket]
        ppd = float(trades.mean()) * 1e4 if trades.size else math.nan
        sr = sharpe(pnl_curve) if D >= 2 and pnl_curve.std() > 0 else math.nan
        out[qr] = QuantileReport(qr, QUANTILE_FRACTIONS[qr], ppd, sr, int(trades.size),
                                 pnl_curve, skipped, bucket)
    return out


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def write_metrics_csv(path, metrics: dict) -> None:
    """``metrics.csv``: one ``name,value`` row per metric."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for name in sorted(metrics):
            fh.write(f"{name},{repr(float(metrics[name]))}\n")


def write_pnl_csv(path, ledger: TradeLedger) -> None:
    """``pnl_daily.csv``: ``date,pnl,cum_pnl,turnover`` per trading day."""
    cum = ledger.cum_pnl
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,pnl,cum_pnl,turnover\n")
        for t, date in enumerate(ledger.calendar):
            fh.write(f"{date.isoformat()},{repr(float(ledger.pnl[t]))},"
                     f"{repr(float(cum[t]))},{repr(float(ledger.turnover[t]))}\n")


def write_quantiles_csv(path, reports: dict) -> None:
    """``quantiles.csv``: ``qr,ppd_bps,sharpe,n_trades`` per quantile rank."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("qr,ppd_bps,sharpe,n_trades\n")
        for qr in sorted(reports):
            r = reports[qr]
            fh.write(f"{qr},{repr(float(r.ppd_bps))},{repr(float(r.sharpe))},{r.n_trades}\n")
