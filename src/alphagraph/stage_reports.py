"""The evaluation stages: backtest trades the forecasts through a
simulator, and quantiles ranks them by forecast size.
"""

from __future__ import annotations

import numpy as np

from . import backtest as bt
from .artifacts import FORECASTS_FILE, PANEL_FILE, OutDir, _load_panel, _panel_positions
from .forecasts import read_forecasts
from .market import daily_simple_returns


def cmd_backtest(cfg, out: OutDir, args):
    fc = read_forecasts(out.read(FORECASTS_FILE))
    bars = _load_panel(out.read(PANEL_FILE))
    rows, cols = _panel_positions(out, fc, bars.calendar, bars.symbols)
    rets = daily_simple_returns(bars)[np.ix_(rows, cols)]
    sim = cfg["simulator"]
    if args.simulator == "longshort":
        ledger = bt.simulate_longshort(fc.yhat, rets, fc.calendar, fc.symbols,
                                       horizon=sim["horizon"])
    else:
        market = np.nanmean(np.where(np.isfinite(rets), rets, np.nan), axis=1)
        ledger = bt.simulate_markowitz(
            fc.yhat, rets, fc.calendar, fc.symbols,
            risk_aversion=sim["risk_aversion"], cov_window=sim["cov_window"],
            halflife=sim["halflife"], shrinkage=sim["shrinkage"],
            per_name_cap=sim["per_name_cap"], gross_cap=sim["gross_cap"],
            cost_linear=sim["cost_linear"], cost_quadratic=sim["cost_quadratic"],
            market=market if sim["hedge"] else None,
            capital=sim["initial_capital"])
    aligned = fc.aligned()
    metrics = {
        "n_forecasts": float(aligned.sum()),
        "total_pnl": float(ledger.pnl.sum()),
        "paper_pnl_total": float(bt.paper_pnl_metric(fc.yhat, fc.y).sum()),
        "mean_turnover": float(ledger.turnover.mean()),
    }
    if aligned.sum() >= 2:
        metrics["r2_out"] = bt.r_squared(fc.y[aligned], fc.yhat[aligned])
    if len(fc.calendar) >= 2 and ledger.pnl.std() > 0:
        metrics["sharpe"] = bt.sharpe(ledger.pnl)
    bt.write_pnl_csv(out.write("pnl_daily.csv"), ledger)
    bt.write_metrics_csv(out.write("metrics.csv"), metrics)
    return {"simulator": args.simulator}


def cmd_quantiles(cfg, out: OutDir, args):
    fc = read_forecasts(out.read(FORECASTS_FILE))
    reports = bt.quantile_analysis(fc.yhat, fc.y)
    bt.write_quantiles_csv(out.write("quantiles.csv"), reports)
    extra = {}
    for side in ("long", "short"):
        side_reports = bt.quantile_analysis(fc.yhat, fc.y, side=side)
        extra[side] = {qr: r.ppd_bps for qr, r in side_reports.items()}
    return extra
