"""Sample windows, metrics, simulators, and quantile analysis."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphagraph import backtest as bt
from alphagraph.errors import ConfigError, DataError
from alphagraph.samples import _sample_windows

from helpers import forecast_stats, markowitz_closed_form
from test_market import weekday_calendar

# the settings simulate_markowitz gets unless a test sets its own: an
# uncapped, unhedged book of unit capital
MARKOWITZ = {"risk_aversion": 0.5, "cov_window": 60, "halflife": 20.0, "shrinkage": 0.1,
             "per_name_cap": None, "gross_cap": None, "cost_linear": 5e-4,
             "cost_quadratic": 0.0, "market": None, "capital": 1.0}


def markowitz(yhat, rets, cal, symbols, **settings):
    return bt.simulate_markowitz(yhat, rets, cal, symbols, **dict(MARKOWITZ, **settings))


# ---------------------------------------------------------------------------
# sample windows (samples._sample_windows; the property test is in test_cli.py)
# ---------------------------------------------------------------------------

def windows(cal, train_end, gap_days):
    """The (train_end, test_start, test_end) dates of the run's windows."""
    cfg = {"split": {"train_end": train_end.isoformat(), "gap_days": gap_days}}
    (_, last_train), (first_test, last_test) = _sample_windows(cfg, cal)
    return cal[last_train], cal[first_test], cal[last_test]


def test_split_gap_zero_next_trading_day():
    cal = weekday_calendar(20)
    _, test_start, test_end = windows(cal, cal[5], 0)
    assert test_start == cal[6]
    assert test_end == cal[-1]


def test_split_gap_ten_skips_exactly_ten_trading_days():
    cal = weekday_calendar(40)
    train_end, test_start, _ = windows(cal, cal[5], 10)
    skipped = [d for d in cal if train_end < d < test_start]
    assert len(skipped) == 10
    assert test_start == cal[16]


def test_split_counts_trading_days_not_calendar_days():
    cal = weekday_calendar(15)  # spans weekends
    train_end, test_start, _ = windows(cal, cal[2], 5)
    assert test_start == cal[8]
    assert (test_start - train_end).days > 5  # crossed a weekend


def test_split_insufficient_calendar():
    cal = weekday_calendar(5)
    with pytest.raises(DataError, match="leaves no test day"):
        windows(cal, cal[2], 10)
    with pytest.raises(DataError, match="is not a trading day"):
        windows(cal, dt.date(1999, 1, 1), 0)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_r_squared_examples():
    y = np.array([1.0, 2.0, 3.0])
    assert bt.r_squared(y, y) == pytest.approx(1.0)
    assert bt.r_squared(y, np.full(3, y.mean())) == pytest.approx(0.0)
    assert bt.r_squared(y, np.array([1.0, 2.0, 2.0])) == pytest.approx(0.5)


def test_r_squared_degenerate_flag():
    assert math.isnan(bt.r_squared(np.ones(5), np.zeros(5)))


def test_sharpe_examples():
    rng = np.random.default_rng(0)
    r = rng.normal(0.01, 0.02, size=5000)
    got = bt.sharpe(r, rf=0.0, annualization=1.0)
    assert got == pytest.approx(r.mean() / r.std(ddof=1), abs=1e-12)
    assert math.isnan(bt.sharpe(np.full(10, 0.01)))
    assert bt.sharpe(3 * r, annualization=1.0) == pytest.approx(got, abs=1e-12)


def test_sharpe_exact_ratio():
    # mean excess 0.01, std 0.02 exactly
    r = np.array([0.03, -0.01, 0.03, -0.01])
    sd = np.std(r, ddof=1)
    assert bt.sharpe(r, annualization=1.0) == pytest.approx(0.01 / sd)
    scaled = bt.sharpe(r * 3, annualization=1.0)
    assert scaled == pytest.approx(0.01 / sd)


def test_paper_pnl_examples():
    yhat = np.full((3, 1), 0.02)
    y = np.full((3, 1), 0.01)
    series = bt.paper_pnl_metric(yhat, y)
    assert np.allclose(series, 0.01)
    assert np.allclose(bt.paper_pnl_metric(y, y), 0.0)
    # permutation of stock order leaves the per-day sum unchanged
    rng = np.random.default_rng(0)
    yh = rng.normal(size=(4, 6))
    yy = rng.normal(size=(4, 6))
    perm = rng.permutation(6)
    assert np.allclose(bt.paper_pnl_metric(yh, yy),
                       bt.paper_pnl_metric(yh[:, perm], yy[:, perm]), atol=1e-12)


# ---------------------------------------------------------------------------
# long-short simulator
# ---------------------------------------------------------------------------

def ledger_world(yhat, rets, horizon=1):
    D, S = yhat.shape
    cal = weekday_calendar(D)
    syms = [f"S{i}" for i in range(S)]
    return bt.simulate_longshort(yhat, rets, cal, syms, horizon=horizon)


def test_longshort_two_stock_hand_arithmetic():
    a = 0.02
    yhat = np.array([[+a, -a], [np.nan, np.nan], [np.nan, np.nan]])
    rets = np.array([[0.0, 0.0], [0.03, 0.01], [0.0, 0.0]])
    ledger = ledger_world(yhat, rets, horizon=1)
    assert np.allclose(ledger.positions[0], [0.5, -0.5])
    assert ledger.pnl[1] == pytest.approx(0.5 * (0.03 - 0.01))


def test_longshort_equal_forecasts_flat_book():
    yhat = np.full((3, 4), 0.01)
    rets = np.zeros((3, 4))
    ledger = ledger_world(yhat, rets)
    assert np.allclose(ledger.positions, 0.0)
    assert np.allclose(ledger.pnl, 0.0)
    assert ledger.warnings


def test_longshort_dollar_neutral_every_day():
    rng = np.random.default_rng(2)
    yhat = rng.normal(size=(30, 8))
    rets = rng.normal(0, 0.02, size=(30, 8))
    ledger = ledger_world(yhat, rets, horizon=5)
    assert np.max(np.abs(ledger.positions.sum(axis=1))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6))
def test_longshort_neutrality_property(seed, horizon):
    rng = np.random.default_rng(seed)
    yhat = rng.normal(size=(12, 5))
    rets = rng.normal(0, 0.02, size=(12, 5))
    ledger = ledger_world(yhat, rets, horizon=horizon)
    assert np.max(np.abs(ledger.positions.sum(axis=1))) <= 1e-12


def test_longshort_no_lookahead_future_zeroing():
    rng = np.random.default_rng(3)
    yhat = rng.normal(size=(20, 6))
    rets = rng.normal(0, 0.02, size=(20, 6))
    t_cut = 9
    full = ledger_world(yhat, rets, horizon=3)
    zeroed = rets.copy()
    zeroed[t_cut + 1:] = 0.0
    cut = ledger_world(yhat, zeroed, horizon=3)
    assert np.array_equal(full.pnl[:t_cut + 1], cut.pnl[:t_cut + 1])
    assert np.array_equal(full.positions[:t_cut + 1], cut.positions[:t_cut + 1])


def test_ledger_conservation():
    rng = np.random.default_rng(4)
    yhat = rng.normal(size=(25, 4))
    rets = rng.normal(0, 0.02, size=(25, 4))
    ledger = ledger_world(yhat, rets, horizon=5)
    assert np.allclose(ledger.cum_pnl, np.cumsum(ledger.pnl), atol=1e-9)


def test_longshort_scale_invariance_of_weights():
    rng = np.random.default_rng(5)
    yhat = rng.normal(size=(10, 6))
    rets = rng.normal(0, 0.02, size=(10, 6))
    a = ledger_world(yhat, rets, horizon=2)
    b = ledger_world(2.0 * yhat, rets, horizon=2)
    assert np.allclose(a.positions, b.positions, atol=1e-12)
    assert np.allclose(a.pnl, b.pnl, atol=1e-12)


# ---------------------------------------------------------------------------
# mean-variance simulator
# ---------------------------------------------------------------------------

def test_markowitz_closed_form_identity_covariance():
    rng = np.random.default_rng(6)
    yhat = rng.normal(size=5)
    w = markowitz_closed_form(yhat, np.eye(5), 0.5)
    assert np.allclose(w, yhat, atol=1e-9)


def test_markowitz_zero_forecasts_zero_positions():
    D, S = 70, 3
    yhat = np.zeros((D, S))
    rets = np.random.default_rng(7).normal(0, 0.01, size=(D, S))
    cal = weekday_calendar(D)
    ledger = markowitz(yhat, rets, cal, [f"S{i}" for i in range(S)],
                                   cost_linear=0.0)
    assert np.allclose(ledger.positions, 0.0)
    assert np.allclose(ledger.pnl, 0.0)


def test_markowitz_linear_cost_never_raises_turnover():
    rng = np.random.default_rng(8)
    D, S = 90, 4
    yhat = np.full((D, S), np.nan)
    yhat[60:] = rng.normal(scale=0.01, size=(30, S))
    rets = rng.normal(0, 0.01, size=(D, S))
    cal = weekday_calendar(D)
    syms = [f"S{i}" for i in range(S)]
    free = markowitz(yhat, rets, cal, syms, cost_linear=0.0)
    costly = markowitz(yhat, rets, cal, syms, cost_linear=5e-4)
    assert costly.turnover.sum() <= free.turnover.sum() + 1e-12
    assert costly.pnl.sum() <= free.pnl.sum()


def test_markowitz_singular_covariance_survives():
    # two perfectly correlated stocks make the sample covariance singular
    rng = np.random.default_rng(9)
    D = 80
    base = rng.normal(0, 0.01, size=D)
    rets = np.column_stack([base, base, rng.normal(0, 0.01, size=D)])
    yhat = np.full((D, 3), np.nan)
    yhat[70:] = 0.01
    cal = weekday_calendar(D)
    ledger = markowitz(yhat, rets, cal, ["A", "B", "C"])
    assert np.all(np.isfinite(ledger.positions))
    assert np.all(np.isfinite(ledger.pnl))


def test_markowitz_capital_scales_ledger_linearly():
    rng = np.random.default_rng(20)
    D, S = 80, 3
    yhat = np.full((D, S), np.nan)
    yhat[65:] = rng.normal(scale=0.01, size=(15, S))
    rets = rng.normal(0, 0.01, size=(D, S))
    cal = weekday_calendar(D)
    syms = ["A", "B", "C"]
    unit = markowitz(yhat, rets, cal, syms, capital=1.0)
    big = markowitz(yhat, rets, cal, syms, capital=5e7)
    assert np.allclose(big.positions, 5e7 * unit.positions, rtol=1e-12)
    assert np.allclose(big.pnl, 5e7 * unit.pnl, rtol=1e-9, atol=1e-12)


def test_markowitz_caps_and_hedge_fields():
    rng = np.random.default_rng(10)
    D, S = 80, 4
    yhat = np.full((D, S), np.nan)
    yhat[65:] = rng.normal(scale=0.01, size=(15, S))
    rets = rng.normal(0, 0.01, size=(D, S))
    market = rets.mean(axis=1)
    cal = weekday_calendar(D)
    ledger = markowitz(yhat, rets, cal, [f"S{i}" for i in range(S)],
                                   per_name_cap=0.05, gross_cap=1.0,
                                   market=market)
    live = np.abs(ledger.positions).sum(axis=1) > 0
    assert np.all(np.abs(ledger.positions[live]) <= 0.05 + 1e-12)
    assert np.all(np.abs(ledger.positions[live]).sum(axis=1) <= 1.0 + 1e-9)
    assert ledger.hedge is not None and np.all(np.isfinite(ledger.hedge))


# ---------------------------------------------------------------------------
# quantile analysis
# ---------------------------------------------------------------------------

def test_quantile_qr1_equals_unconditioned_mean():
    rng = np.random.default_rng(11)
    yhat = rng.normal(size=(15, 10))
    y = rng.normal(0, 0.02, size=(15, 10))
    reports = bt.quantile_analysis(yhat, y)
    expected = np.mean(np.sign(yhat) * y) * 1e4
    assert reports[1].ppd_bps == pytest.approx(expected, abs=1e-12)
    assert reports[1].n_trades == 150


def test_quantile_hand_example_fifty_bps():
    yhat = np.array([[0.03, -0.02, 0.01, -0.005]])
    y = np.array([[0.02, 0.01, -0.01, -0.02]])
    reports = bt.quantile_analysis(yhat, y)
    assert reports[1].ppd_bps == pytest.approx(50.0, abs=1e-9)
    assert reports[3].ppd_bps == pytest.approx(50.0, abs=1e-9)  # top 50% = stocks 1,2
    assert reports[3].n_trades == 2


def test_quantile_nestedness():
    rng = np.random.default_rng(12)
    yhat = rng.normal(size=(12, 9))
    y = rng.normal(size=(12, 9))
    reports = bt.quantile_analysis(yhat, y)
    for t in range(12):
        for qr in (2, 3, 4):
            inner = reports[qr].members[t]
            outer = reports[qr - 1].members[t]
            assert np.all(outer[inner])  # inner subset of outer


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_quantile_nestedness_property(seed):
    rng = np.random.default_rng(seed)
    yhat = rng.normal(size=(6, 8))
    y = rng.normal(size=(6, 8))
    reports = bt.quantile_analysis(yhat, y)
    for t in range(6):
        for qr in (2, 3, 4):
            assert np.all(reports[qr - 1].members[t][reports[qr].members[t]])


def test_quantile_magnitude_scale_invariance():
    rng = np.random.default_rng(13)
    yhat = rng.normal(size=(8, 7))
    y = rng.normal(size=(8, 7))
    a = bt.quantile_analysis(yhat, y)
    b = bt.quantile_analysis(2.0 * yhat, y)
    for qr in (1, 2, 3, 4):
        assert a[qr].ppd_bps == pytest.approx(b[qr].ppd_bps, abs=1e-12)
        for t in range(8):
            assert np.array_equal(a[qr].members[t], b[qr].members[t])


def test_quantile_sides():
    yhat = np.array([[0.03, -0.02, 0.01, -0.005]])
    y = np.array([[0.02, 0.01, -0.01, -0.02]])
    long_r = bt.quantile_analysis(yhat, y, side="long")
    short_r = bt.quantile_analysis(yhat, y, side="short")
    assert long_r[1].n_trades == 2 and short_r[1].n_trades == 2
    assert long_r[1].ppd_bps == pytest.approx(1e4 * (0.02 - 0.01) / 2)
    assert short_r[1].ppd_bps == pytest.approx(1e4 * (-0.01 + 0.02) / 2)
    with pytest.raises(ConfigError):
        bt.quantile_analysis(yhat, y, side="middle")


def test_quantile_empty_day_skipped():
    yhat = np.array([[np.nan, np.nan], [0.01, -0.01]])
    y = np.array([[0.0, 0.0], [0.01, 0.02]])
    reports = bt.quantile_analysis(yhat, y)
    assert reports[1].skipped_days == 1


# ---------------------------------------------------------------------------
# forecast statistics
# ---------------------------------------------------------------------------

def test_forecast_stats_perfect_and_inverse():
    rng = np.random.default_rng(14)
    y = rng.normal(size=(6, 12))
    stds, corrs, flags = forecast_stats(y, y)
    assert np.allclose(corrs, 1.0, atol=1e-12)
    _, corrs_neg, _ = forecast_stats(-y, y)
    assert np.allclose(corrs_neg, -1.0, atol=1e-12)
    assert not flags.any()
    assert np.allclose(stds, y.std(axis=1), atol=1e-12)


def test_forecast_stats_matches_bruteforce():
    rng = np.random.default_rng(15)
    yhat = rng.normal(size=(10, 15))
    y = rng.normal(size=(10, 15))
    _, corrs, _ = forecast_stats(yhat, y)
    for t in range(10):
        manual = np.corrcoef(yhat[t], y[t])[0, 1]
        assert corrs[t] == pytest.approx(manual, abs=1e-10)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def test_report_csv_headers(tmp_path):
    rng = np.random.default_rng(16)
    yhat = rng.normal(size=(6, 4))
    rets = rng.normal(0, 0.01, size=(6, 4))
    ledger = ledger_world(yhat, rets, horizon=2)
    bt.write_pnl_csv(tmp_path / "pnl_daily.csv", ledger)
    bt.write_metrics_csv(tmp_path / "metrics.csv", {"r2_out": 0.5, "sharpe": 1.0})
    bt.write_quantiles_csv(tmp_path / "quantiles.csv",
                           bt.quantile_analysis(yhat, rets))
    assert (tmp_path / "pnl_daily.csv").read_text().splitlines()[0] == "date,pnl,cum_pnl,turnover"
    assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == "metric,value"
    assert (tmp_path / "quantiles.csv").read_text().splitlines()[0] == "qr,ppd_bps,sharpe,n_trades"
