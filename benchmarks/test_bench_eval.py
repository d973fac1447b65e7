"""Micro-benchmarks of the evaluation stages at the wide-panel shape of
perfbench (409 forecast days x 120 stocks): a ``forecasts.csv`` write and
read round trip, and one ``quantile_analysis(side="both")``.

Run from the repository root (tier-1 does not collect this directory):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_eval.py --benchmark-only

``--benchmark-autosave`` stores the results under ``.benchmarks/`` and
``--benchmark-compare`` sets them against the last saved run.
"""

import datetime as dt

import numpy as np
import pytest

from alphagraph.backtest import quantile_analysis
from alphagraph.forecasts import ForecastPanel, read_forecasts, write_forecasts

D, S = 409, 120


@pytest.fixture(scope="module")
def panel():
    rng = np.random.default_rng(1)
    yhat = rng.normal(0.0, 0.01, size=(D, S))
    y = rng.normal(0.0, 0.02, size=(D, S))
    yhat[rng.random((D, S)) < 0.02] = np.nan    # names without a forecast
    y[-1] = np.nan                              # labels past the calendar
    calendar = tuple(dt.date(2016, 1, 4) + dt.timedelta(days=t) for t in range(D))
    return ForecastPanel(calendar, tuple(f"S{s:04d}" for s in range(S)), yhat, y)


def test_bench_forecasts_round_trip(benchmark, panel, tmp_path):
    path = tmp_path / "forecasts.csv"

    def round_trip():
        write_forecasts(path, panel)
        return read_forecasts(path)

    back = benchmark(round_trip)
    assert np.array_equal(back.yhat, panel.yhat, equal_nan=True)


def test_bench_quantile_analysis(benchmark, panel):
    reports = benchmark(quantile_analysis, panel.yhat, panel.y)
    assert reports[1].n_trades == int((np.isfinite(panel.yhat) & np.isfinite(panel.y)).sum())
