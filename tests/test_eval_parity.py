"""Bit-equality of the whole-array evaluation stages against per-row references.

Each reference below is the per-row or per-day code the whole-array version
replaced, kept here so the two can be compared exactly (byte-equal files and
``same`` arrays, never a tolerance):

* ``ref_write_forecasts``: one formatted line per forecast cell;
* ``ref_read_forecasts``: ``csv.DictReader`` and one ``fromisoformat`` per row;
* ``ref_quantile_analysis``: one ``np.quantile`` and one 1-D sum per day and
  quantile rank.
"""

import csv
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphagraph import backtest as bt
from alphagraph import cli
from alphagraph.cli import _read_forecasts, _write_forecasts
from alphagraph.errors import DataError
from alphagraph.model import ForecastPanel

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
           0.1, -0.1, 1.0, np.nan, np.inf, -np.inf]


# ---------------------------------------------------------------------------
# per-row references
# ---------------------------------------------------------------------------

def ref_write_forecasts(path, panel):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,symbol,yhat,y\n")
        mask = panel.mask()
        for t in range(len(panel.calendar)):
            for s in range(len(panel.symbols)):
                if not mask[t, s]:
                    continue
                y = panel.y[t, s]
                y_txt = repr(float(y)) if np.isfinite(y) else ""
                fh.write(f"{panel.calendar[t].isoformat()},{panel.symbols[s]},"
                         f"{repr(float(panel.yhat[t, s]))},{y_txt}\n")


def ref_read_forecasts(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.append((dt.date.fromisoformat(row["date"]), row["symbol"],
                         float(row["yhat"]), float(row["y"]) if row["y"] else np.nan))
    calendar = sorted({r[0] for r in rows})
    symbols = sorted({r[1] for r in rows})
    d_idx = {d: i for i, d in enumerate(calendar)}
    s_idx = {s: i for i, s in enumerate(symbols)}
    yhat = np.full((len(calendar), len(symbols)), np.nan)
    y = np.full_like(yhat, np.nan)
    for date, sym, fh_, yv in rows:
        yhat[d_idx[date], s_idx[sym]] = fh_
        y[d_idx[date], s_idx[sym]] = yv
    return ForecastPanel(tuple(calendar), tuple(symbols), yhat, y)


def ref_quantile_analysis(yhat, y, thresholds=(1, 2, 3, 4), side="both"):
    D, _ = yhat.shape
    out = {}
    for qr in thresholds:
        frac = bt.QUANTILE_FRACTIONS[qr]
        pnl_curve = np.zeros(D)
        trade_pnls, members, skipped = [], [], 0
        for t in range(D):
            valid = np.isfinite(yhat[t]) & np.isfinite(y[t])
            if side == "long":
                valid &= yhat[t] > 0
            elif side == "short":
                valid &= yhat[t] < 0
            if not valid.any():
                members.append(np.zeros_like(valid))
                skipped += 1
                continue
            mags = np.abs(yhat[t][valid])
            thr = np.quantile(mags, 1.0 - frac)
            bucket = valid.copy()
            bucket[valid] = mags >= thr
            members.append(bucket)
            day = np.sign(yhat[t][bucket]) * y[t][bucket]
            trade_pnls.extend(day.tolist())
            pnl_curve[t] = float(day.sum())
        trades = np.asarray(trade_pnls)
        ppd = float(trades.mean()) * 1e4 if trades.size else math.nan
        sr = bt.sharpe(pnl_curve) if D >= 2 and pnl_curve.std() > 0 else math.nan
        out[qr] = bt.QuantileReport(qr, frac, ppd, sr, int(trades.size), pnl_curve,
                                    skipped, members)
    return out


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_same_reports(got, expected):
    assert sorted(got) == sorted(expected)
    for qr, e in expected.items():
        g = got[qr]
        assert (g.qr, g.fraction, g.n_trades, g.skipped_days) == \
            (e.qr, e.fraction, e.n_trades, e.skipped_days), qr
        assert same_float(g.ppd_bps, e.ppd_bps) and same_float(g.sharpe, e.sharpe), qr
        assert same(g.pnl_curve, e.pnl_curve), qr
        assert same(g.members, np.array(e.members).reshape(g.members.shape)), qr


def check_quantiles(yhat, y):
    with np.errstate(all="ignore"):
        for side in ("both", "long", "short"):
            assert_same_reports(bt.quantile_analysis(yhat, y, side=side),
                                ref_quantile_analysis(yhat, y, side=side))


def panel_of(yhat, y, symbols=None):
    D, S = yhat.shape
    calendar = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=3 * t) for t in range(D))
    symbols = symbols or tuple(f"S{s:03d}" for s in range(S))
    return ForecastPanel(calendar, tuple(symbols), yhat, y)


def check_round_trip(tmp_path, panel):
    got, expected = tmp_path / "new.csv", tmp_path / "ref.csv"
    _write_forecasts(got, panel)
    ref_write_forecasts(expected, panel)
    assert got.read_bytes() == expected.read_bytes()
    a, b = _read_forecasts(got), ref_read_forecasts(expected)
    assert a.calendar == b.calendar and a.symbols == b.symbols
    assert all(type(s) is str for s in a.symbols)
    assert same(a.yhat, b.yhat) and same(a.y, b.y)
    return a


# ---------------------------------------------------------------------------
# forecasts.csv
# ---------------------------------------------------------------------------

def special_panel(D=9, S=7, seed=0):
    rng = np.random.default_rng(seed)
    yhat = rng.choice(SPECIAL, size=(D, S)) * rng.choice([1.0, 3.7], size=(D, S))
    y = rng.choice(SPECIAL, size=(D, S))
    yhat[:, 2] = np.nan                    # a symbol without any forecast
    yhat[4] = np.nan                       # a day without any forecast
    y[1] = np.nan                          # a day with empty labels
    return yhat, y


def test_forecasts_round_trip_bit_equal_with_special_values(tmp_path):
    yhat, y = special_panel()
    panel = panel_of(yhat, y)
    back = check_round_trip(tmp_path, panel)
    text = (tmp_path / "new.csv").read_text()
    for token in (",-0.0,", ",5e-324,", ",1e+300,", ",-1e+300,", ",\n"):
        assert token in text
    # every finite value comes back bit for bit, signed zeros included
    rows = [panel.calendar.index(d) for d in back.calendar]
    cols = [panel.symbols.index(s) for s in back.symbols]
    kept = yhat[np.ix_(rows, cols)]
    assert same(np.where(np.isfinite(kept), kept, np.nan), back.yhat)
    label = y[np.ix_(rows, cols)]
    assert same(np.where(np.isfinite(kept) & np.isfinite(label), label, np.nan), back.y)


def test_forecast_rows_follow_the_panel_order(tmp_path):
    yhat, y = special_panel(D=5, S=4, seed=3)
    symbols = ("ZZ", "AB", "aa", "M1")     # not in sorted order in the panel
    _write_forecasts(tmp_path / "f.csv", panel_of(yhat, y, symbols))
    keys = [tuple(line.split(",")[:2])
            for line in (tmp_path / "f.csv").read_text().splitlines()[1:]]
    by_cell = [(d, s) for d in sorted({k[0] for k in keys}) for s in symbols
               if (d, s) in set(keys)]
    assert keys == by_cell  # row-major over the panel: date order, panel symbol order
    check_round_trip(tmp_path, panel_of(yhat, y, symbols))


@pytest.mark.parametrize("chunk", [1, 3, 8192])
def test_forecasts_round_trip_across_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "FORECAST_CHUNK", chunk)
    yhat, y = special_panel(D=12, S=9, seed=5)
    panel = check_round_trip(tmp_path, panel_of(yhat, y))
    # a last row without its newline reads the same
    path = tmp_path / "new.csv"
    path.write_bytes(path.read_bytes()[:-1])
    back = _read_forecasts(path)
    assert back.calendar == panel.calendar and back.symbols == panel.symbols
    assert same(back.yhat, panel.yhat) and same(back.y, panel.y)


DAMAGE = [  # (line, field, text, message after "line N: ")
    (7, 1, None, "3 fields, expected 4"),
    (8, 0, "2020-02-30", "bad date '2020-02-30'"),
    (9, 2, "1.0e", "yhat '1.0e' is not a number"),
    (10, 2, "nan", "yhat nan is not finite"),
    (6, 1, "", "empty symbol"),
]


@pytest.mark.parametrize("chunk", [1, 2, 5, 8192])
@pytest.mark.parametrize("line, field, text, message", DAMAGE)
def test_forecast_errors_name_the_line_across_chunks(tmp_path, monkeypatch, chunk, line,
                                                     field, text, message):
    monkeypatch.setattr(cli, "FORECAST_CHUNK", chunk)
    rng = np.random.default_rng(6)
    path = tmp_path / "f.csv"
    _write_forecasts(path, panel_of(rng.normal(size=(4, 4)), rng.normal(size=(4, 4))))
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    if text is None:
        del cells[field]
    else:
        cells[field] = text
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as exc:
        _read_forecasts(path)
    assert str(exc.value).startswith(f"{path} line {line}: {message}")
    # a repeated row is reported at its second occurrence
    path.write_text("\n".join(lines[:line - 1] + [lines[2]] + lines[line:]) + "\n")
    with pytest.raises(DataError, match=f"line {line}: second forecast for S00"):
        _read_forecasts(path)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(lambda D: st.integers(1, 9).flatmap(lambda S: st.tuples(
    st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True),
             min_size=D * S, max_size=D * S),
    st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True),
             min_size=D * S, max_size=D * S),
    st.just((D, S))))))
def test_forecasts_round_trip_property(tmp_path_factory, case):
    yhat, y, shape = np.array(case[0]).reshape(case[2]), np.array(case[1]).reshape(case[2]), \
        case[2]
    if not np.isfinite(yhat).any():
        yhat[0, 0] = 0.5
    check_round_trip(tmp_path_factory.mktemp("rt"), panel_of(yhat, y))


# ---------------------------------------------------------------------------
# quantile analysis
# ---------------------------------------------------------------------------

def test_quantiles_bit_equal_with_special_values():
    yhat, y = special_panel(D=30, S=11, seed=1)
    check_quantiles(yhat, y)


def test_quantiles_ties_at_the_threshold():
    # magnitudes equal to the threshold are in the bucket, on both sides
    yhat = np.array([[0.2, -0.2, 0.2, 0.1, -0.1, 0.3, -0.3, 0.2],
                     [1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0],
                     [0.5, -0.5, np.nan, 0.5, 0.25, -0.25, 0.25, 0.0],
                     [0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    y = np.linspace(-0.03, 0.04, yhat.size).reshape(yhat.shape)
    reports = bt.quantile_analysis(yhat, y)
    assert reports[4].members[1].all()          # all tied: every name kept
    assert reports[3].members[0].sum() == 6     # the four 0.2s tie at the median
    check_quantiles(yhat, y)


def test_quantiles_all_invalid_days():
    rng = np.random.default_rng(2)
    yhat, y = rng.normal(size=(10, 6)), rng.normal(size=(10, 6))
    yhat[[0, 4]] = np.nan
    y[7] = np.nan
    yhat[8] = -np.abs(yhat[8])                  # no long name that day
    reports = bt.quantile_analysis(yhat, y)
    assert reports[1].skipped_days == 3
    assert not reports[1].members[[0, 4, 7]].any()
    assert bt.quantile_analysis(yhat, y, side="long")[2].skipped_days == 4
    check_quantiles(yhat, y)
    nothing = np.full((3, 4), np.nan)
    check_quantiles(nothing, nothing)


@pytest.mark.parametrize("seed", [0, 1])
def test_quantiles_above_128_valid_names(seed):
    # numpy's pairwise sum switches to recursive halving above 128 terms:
    # days of up to 300 valid names, several sharing a count, must still sum
    # exactly as the 1-D day.sum() does
    rng = np.random.default_rng(seed)
    S = 300
    yhat = rng.standard_t(2.0, size=(14, S)) * 0.01
    y = rng.normal(0.0, 0.02, size=(14, S)) * 10.0 ** rng.integers(-3, 4, size=(14, S))
    for t, n in enumerate([300, 300, 129, 129, 130, 200, 257, 257, 257, 9, 8, 1, 0, 150]):
        yhat[t, rng.permutation(S)[:S - n]] = np.nan
    check_quantiles(yhat, y)
    assert bt.quantile_analysis(yhat, y)[1].members.sum(axis=1).max() == 300


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda D: st.integers(1, 40).flatmap(lambda S: st.tuples(
    st.lists(st.sampled_from(SPECIAL + [0.25, -0.25, 0.5]) | st.floats(-1e3, 1e3),
             min_size=D * S, max_size=D * S),
    st.lists(st.sampled_from(SPECIAL) | st.floats(-1.0, 1.0),
             min_size=D * S, max_size=D * S),
    st.just((D, S))))))
def test_quantiles_match_per_day_loop_property(case):
    yhat, y = np.array(case[0]).reshape(case[2]), np.array(case[1]).reshape(case[2])
    check_quantiles(yhat, y)


def test_zero_padded_row_sums_would_not_match():
    """Why the daily P&L sums a compacted block per bucket size: a row of
    the (D, S) panel with zeros in place of the names outside the bucket
    groups its pairwise sum differently and rounds differently."""
    rng = np.random.default_rng(4)
    yhat = rng.normal(size=(40, 120))
    y = rng.normal(0.0, 0.02, size=(40, 120)) * 10.0 ** rng.integers(-4, 5, size=(40, 120))
    yhat[:, ::3] = np.nan
    expected = ref_quantile_analysis(yhat, y)
    got = bt.quantile_analysis(yhat, y)
    padded = {qr: np.where(r.members, np.sign(yhat) * y, 0.0).sum(axis=1)
              for qr, r in got.items()}
    assert all(same(got[qr].pnl_curve, expected[qr].pnl_curve) for qr in got)
    assert not all(same(padded[qr], expected[qr].pnl_curve) for qr in got)
