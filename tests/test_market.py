"""Bar ingestion, returns, universe filtering, and factor panel tests."""

import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alphagraph import cli, factors as F
from alphagraph.errors import ConfigError, DataError
from alphagraph.factors import DEFAULT_REGISTRY, factor_windows
from alphagraph.market import filter_universe, load_bars, log_return
from alphagraph.synth import SyntheticSpec, generate

from helpers import (TEST_SIGNAL, Bar, build_panel, factor_panel, forward_return,
                     standardize_cross_section)

D0 = dt.date(2020, 1, 6)  # a Monday


def weekday_calendar(days, start=D0):
    out, d = [], start
    while len(out) < days:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def make_bars(prices_by_symbol, volumes=None, calendar=None):
    symbols = sorted(prices_by_symbol)
    n_days = max(len(v) for v in prices_by_symbol.values())
    calendar = calendar or weekday_calendar(n_days)
    bars = []
    for sym in symbols:
        for i, p in enumerate(prices_by_symbol[sym]):
            if p is None:
                continue
            v = volumes[sym][i] if volumes else 1e5
            bars.append(Bar(sym, calendar[i], p, p * 1.01, p * 0.99, p, v))
    return build_panel(bars)


def write_csv(path, rows, header="date,symbol,open,high,low,close,volume"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


# ---------------------------------------------------------------------------
# load_bars
# ---------------------------------------------------------------------------

def test_load_bars_count_preservation(tmp_path):
    rows = []
    for day in ("2020-01-06", "2020-01-07", "2020-01-08"):
        for sym in ("AAA", "BBB"):
            rows.append(f"{day},{sym},10,11,9,10.5,1000")
    panel = load_bars(write_csv(tmp_path / "bars.csv", rows))
    assert panel.n_dates == 3
    assert panel.n_symbols == 2


def test_load_bars_zero_open_names_the_row(tmp_path):
    rows = ["2020-01-06,AAA,10,11,9,10.5,1000",
            "2020-01-07,AAA,0,11,9,10.5,1000"]
    with pytest.raises(DataError) as exc:
        load_bars(write_csv(tmp_path / "bars.csv", rows))
    assert "line 3" in str(exc.value)


def test_load_bars_duplicate_key_rejected(tmp_path):
    rows = ["2020-01-06,AAA,10,11,9,10.5,1000",
            "2020-01-06,AAA,10,11,9,10.5,1000"]
    with pytest.raises(DataError) as exc:
        load_bars(write_csv(tmp_path / "bars.csv", rows))
    assert "duplicate" in str(exc.value)


def test_load_bars_duplicates_found_by_key_scan(tmp_path):
    # oracle: any (date, symbol) collision across two concatenated files
    rows_a = [f"2020-01-0{d},AAA,10,11,9,10,100" for d in (6, 7, 8)]
    rows_b = [f"2020-01-0{d},BBB,10,11,9,10,100" for d in (6, 7)] + \
             ["2020-01-07,AAA,10,11,9,10,100"]
    keys = [(r.split(",")[0], r.split(",")[1]) for r in rows_a + rows_b]
    assert len(keys) != len(set(keys))  # independent scan confirms a collision
    with pytest.raises(DataError):
        load_bars(write_csv(tmp_path / "bars.csv", rows_a + rows_b))


def test_load_bars_empty_file(tmp_path):
    with pytest.raises(DataError):
        load_bars(write_csv(tmp_path / "bars.csv", []))
    p = tmp_path / "none.csv"
    p.write_text("")
    with pytest.raises(DataError):
        load_bars(p)


def test_load_bars_bad_header(tmp_path):
    p = tmp_path / "bars.csv"
    p.write_text("date,sym,open\n2020-01-06,AAA,10\n")
    with pytest.raises(DataError):
        load_bars(p)


def test_bar_invariant_high_low(tmp_path):
    rows = ["2020-01-06,AAA,10,9.5,9,10.5,1000"]  # high < open
    with pytest.raises(DataError):
        load_bars(write_csv(tmp_path / "bars.csv", rows))


# ---------------------------------------------------------------------------
# log / forward returns
# ---------------------------------------------------------------------------

def test_log_return_examples():
    assert log_return(100.0, 100.0) == 0.0
    assert log_return(271.8281828, 100.0) == pytest.approx(1.0, abs=1e-9)
    assert log_return(105.0, 100.0) == pytest.approx(0.0487902, abs=1e-6)


def test_log_return_domain_error():
    with pytest.raises(DataError):
        log_return(-1.0, 100.0)
    with pytest.raises(DataError):
        log_return(100.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.5, 500.0), min_size=3, max_size=20))
def test_log_return_additivity(prices):
    total = sum(log_return(prices[i + 1], prices[i]) for i in range(len(prices) - 1))
    assert total == pytest.approx(math.log(prices[-1] / prices[0]), abs=1e-9)


def test_forward_return_constant_prices_zero():
    panel = make_bars({"AAA": [100.0] * 10})
    assert forward_return(panel, "AAA", panel.calendar[0], 5) == pytest.approx(0.0)


def test_forward_return_missing_near_calendar_end():
    panel = make_bars({"AAA": [100.0] * 10})
    assert forward_return(panel, "AAA", panel.calendar[9], 1) is None
    assert forward_return(panel, "AAA", panel.calendar[4], 5) is None
    assert forward_return(panel, "AAA", panel.calendar[3], 5) is not None


def test_forward_return_direct_evaluation():
    panel = make_bars({"AAA": [100.0, 100.0, 110.0, 110.0]})
    got = forward_return(panel, "AAA", panel.calendar[0], 1)
    assert got == pytest.approx(math.log(110.0 / 100.0), abs=1e-12)


def test_forward_return_unknown_symbol():
    panel = make_bars({"AAA": [100.0] * 6})
    with pytest.raises(DataError):
        forward_return(panel, "ZZZ", panel.calendar[0], 1)


# ---------------------------------------------------------------------------
# filter_universe
# ---------------------------------------------------------------------------

def test_filter_universe_identity_when_all_pass():
    panel = make_bars({"AAA": [100.0] * 300, "BBB": [50.0] * 300},
                      volumes={"AAA": [1e5] * 300, "BBB": [1e5] * 300})
    assert filter_universe(panel, 1e6, 1.0, 250) == ["AAA", "BBB"]


def test_filter_universe_short_history_excluded():
    panel = make_bars({"AAA": [100.0] * 300,
                       "BBB": [None] * 297 + [50.0] * 3})
    assert filter_universe(panel, 1e6, 1.0, 250) == ["AAA"]


def test_filter_universe_matches_per_symbol_threshold_scan():
    rng = np.random.default_rng(0)
    prices, volumes = {}, {}
    for i in range(8):
        sym = f"S{i}"
        n = 300 if i % 3 else 100
        prices[sym] = list(rng.uniform(0.5 if i == 4 else 5.0, 50.0, size=n))
        volumes[sym] = list(rng.uniform(1e3 if i == 5 else 1e5, 2e5, size=n))
    panel = make_bars(prices, volumes)
    got = filter_universe(panel, 1e6, 1.0, 250)

    expected = []
    for sym in panel.symbols:
        s = panel.symbol_index[sym]
        mask = panel.mask[:, s]
        opens = panel.open[mask, s]
        vols = panel.volume[mask, s]
        if (mask.sum() >= 250 and np.median(opens * vols) >= 1e6
                and np.median(opens) >= 1.0):
            expected.append(sym)
    assert got == expected


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trending_panel():
    rng = np.random.default_rng(42)
    prices = {}
    for i in range(6):
        steps = rng.normal(0.001 * (i - 2), 0.02, size=120)
        prices[f"S{i}"] = list(50.0 * np.exp(np.cumsum(steps)))
    vols = {f"S{i}": list(rng.uniform(5e4, 2e5, size=120)) for i in range(6)}
    return make_bars(prices, vols)


SMALL_REGISTRY = {"momentum": [5, 21], "reversal": [1], "volatility": [21],
                  "volume_z": [21], "rsi": [14], "ma_ratio": [21]}


def test_constant_price_momentum_is_zero_before_standardization():
    panel = make_bars({"AAA": [100.0] * 60, "BBB": [100.0 * 1.001 ** i for i in range(60)]})
    fp = factor_panel(panel, {"momentum": [5, 21]})
    k = fp.factor_names.index("momentum_5")
    # AAA has zero raw momentum; after cross-sectional z-scoring against the
    # trending BBB it sits below the mean but the ordering is fixed
    assert fp.mask[30, 0, k] and fp.mask[30, 1, k]
    assert fp.values[30, 0, k] < fp.values[30, 1, k]
    raw = math.log(100.0 / 100.0)
    assert raw == 0.0


def test_cross_sectional_mean_and_range(trending_panel):
    fp = factor_panel(trending_panel, SMALL_REGISTRY)
    D, S, L = fp.values.shape
    for t_i in range(D):
        for k in range(L):
            valid = fp.mask[t_i, :, k]
            if valid.sum() >= 2:
                col = fp.values[t_i, valid, k]
                assert abs(col.mean()) <= 1e-9
                assert col.min() >= -3.0 - 1e-12 and col.max() <= 3.0 + 1e-12


def test_momentum_matches_independent_recomputation(trending_panel):
    fp = factor_panel(trending_panel, {"momentum": [21]})
    k = fp.factor_names.index("momentum_21")
    t_i = 60
    raw = np.array([math.log(trending_panel.open[t_i, s] / trending_panel.open[t_i - 21, s])
                    for s in range(trending_panel.n_symbols)])
    expected = standardize_cross_section(raw, np.ones_like(raw, dtype=bool))
    assert np.allclose(fp.values[t_i, :, k], expected, atol=1e-12)


def test_no_look_ahead_truncation(trending_panel):
    fp_full = factor_panel(trending_panel, SMALL_REGISTRY)
    cut = 80
    truncated = trending_panel.restrict_dates(end=trending_panel.calendar[cut])
    fp_cut = factor_panel(truncated, SMALL_REGISTRY)
    assert np.array_equal(fp_full.mask[:cut + 1], fp_cut.mask)
    assert np.allclose(fp_full.values[:cut + 1], fp_cut.values, atol=0, rtol=0)


def test_ingest_holds_one_block_of_factors(tmp_path, monkeypatch):
    """On a 1,200 x 100 panel with nine factors in blocks of 64 dates,
    writing factors.npz holds its (D, S, L) boolean mask and, besides, at
    most six blocks' worth of float values (a block's raw and standardized
    values, their temporaries and the block written before) and two (D, S)
    float arrays (the returns among them); never the (D, S, L) float
    values, which are 1.8 times that bound."""
    registry = {"momentum": [5, 10, 21], "reversal": [1], "volatility": [21],
                "volume_z": [63], "rsi": [14], "ma_ratio": [21], "amihud": [21]}
    monkeypatch.setattr(F, "DATE_BLOCK", 64)
    panel = generate(SyntheticSpec(n_stocks=100, days=1200, seed=3, **TEST_SIGNAL)).panel()
    windows = factor_windows(registry)
    path = tmp_path / "factors.npz"
    cli._save_factors(path, panel, windows[:1])   # numpy's lazy imports, outside the trace
    tracemalloc.start()
    try:
        cli._save_factors(path, panel, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    D, S, L = 1200, 100, 9
    with np.load(path) as z:
        assert z["values"].shape == (D, S, L)
    block, inputs = 64 * S * L * 8, D * S * 8
    assert peak - D * S * L < 6 * block + 2 * inputs < D * S * L * 8


def test_standardization_idempotence():
    rng = np.random.default_rng(1)
    col = rng.normal(size=200) * 3 + rng.standard_t(2, size=200)
    mask = np.ones(200, dtype=bool)
    once = standardize_cross_section(col, mask)
    twice = standardize_cross_section(once, mask)
    assert np.max(np.abs(twice - once)) <= 1e-9


def _check_standardized(col, bound):
    out = standardize_cross_section(col, np.ones(col.size, dtype=bool))
    sd = np.std(col)
    if sd > 1e-12:
        assert abs(out.mean()) <= 1e-9
        assert out.min() >= -bound - 1e-12 and out.max() <= bound + 1e-12
    elif sd > 1e-15:
        # z-scored, not zeroed; the mean is off by the rounding of the
        # column mean over sd
        rounding = col.size * np.finfo(float).eps * np.abs(col).max() / sd
        assert abs(out.mean()) <= 1e-9 + rounding
        assert out.min() >= -bound - 1e-12 and out.max() <= bound + 1e-12
    else:
        assert np.allclose(out, 0.0)


# At most 10 values: no z-score of n values exceeds sqrt(n - 1), so these
# columns meet the [-3, 3] bound whether or not the clipping settles.
@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=4, max_size=10))
@example([0.0, 0.0, 0.0, 1e-12])             # std 4e-13: z-scored, not zeroed
# std 1.3e-12 but mean 0.0027: the zero threshold is absolute, not relative to
# the column's magnitude (a known defect of standardize_cross_section)
@example([100.0, 100.0, 100.0, 100.000000000003]).xfail(raises=AssertionError)
def test_standardization_postconditions_property(values):
    _check_standardized(np.asarray(values), 3.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=11, max_size=60))
def test_standardization_of_long_columns_is_bounded_by_sqrt_n_minus_1(values):
    """Longer columns whose clipping does not settle in its 100 rounds can
    end outside [-3, 3], but never beyond sqrt(n - 1)."""
    col = np.asarray(values)
    _check_standardized(col, np.sqrt(col.size - 1) * (1.0 + 1e-12))


def test_standardization_of_a_lone_outlier():
    """The lone outlier keeps z = sqrt(n - 1) through every clip round; with
    21 values the rounds pull it in until the column has no dispersion."""
    out = standardize_cross_section(np.array([0.0] * 10 + [1.0]), np.ones(11, dtype=bool))
    assert np.isclose(out[-1], np.sqrt(10.0), rtol=1e-12, atol=0.0)
    assert np.allclose(out[:-1], -1.0 / np.sqrt(10.0), rtol=1e-12, atol=0.0)
    out = standardize_cross_section(np.array([0.0] * 20 + [1.0]), np.ones(21, dtype=bool))
    assert np.array_equal(out, np.zeros(21))


def test_factor_calendar_alignment(trending_panel):
    fp = factor_panel(trending_panel, SMALL_REGISTRY)
    assert tuple(fp.calendar) == tuple(trending_panel.calendar)
    assert set(DEFAULT_REGISTRY) >= set(SMALL_REGISTRY)


def test_window_exceeding_history_masked_not_error():
    panel = make_bars({"AAA": [100.0] * 30, "BBB": [90.0] * 30})
    fp = factor_panel(panel, {"momentum": [252]})
    assert not fp.mask.any()


@pytest.mark.parametrize("window", [0, -5, 2.5, "21", True])
def test_factor_window_must_be_a_positive_integer(window):
    with pytest.raises(ConfigError, match="is not a positive integer"):
        factor_windows({"volatility": [5, window]})


@pytest.mark.parametrize("family", ["ma_ratio", "volatility", "volume_z"])
def test_one_day_window_without_signal_rejected(family):
    panel = make_bars({"AAA": [100.0] * 30, "BBB": [90.0] * 30})
    with pytest.raises(ConfigError, match=f"factor {family}_1 carries no signal"):
        factor_windows({"momentum": [5], family: [5, 1]})
    # the other families accept a one-day window
    assert factor_panel(panel, {"reversal": [1], "amihud": [1], "rsi": [1]}).n_factors == 3
