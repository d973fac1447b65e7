"""Bit-equality of the whole-array data path against scalar references.

Each reference below is the per-element code the batched implementation
replaced, kept here so the two can be compared exactly (``np.array_equal``
and identical error text, never a tolerance):

* ``ref_raw_factor``: one axis-0 ``np.mean``/``np.std`` per date and trailing
  window, run on F-ordered arrays as ``ingest`` passes them (its
  ``restrict_symbols`` fancy-indexes columns), where numpy reduces each window
  column pairwise as it reduces a 1-D array; on C-ordered arrays it adds the
  rows one after another and rounds differently;
* ``ref_standardize`` / ``ref_compute_factors``: one 1-D winsorize-and-z-score
  per (date, factor) column over the whole calendar, the reference of the
  factors that ``ingest`` computes one block of dates at a time;
* ``ref_build_dataset``: one ``forward_return`` call per (stock, anchor);
* ``ref_load_bars``: one ``parse_bar_row`` (``tests/helpers.py``) per CSV
  row, then a sorted scan for duplicate keys.
"""

import csv
import datetime as dt
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alphagraph import factors as F
from alphagraph.errors import DataError
from alphagraph.factors import FactorPanel
from alphagraph.market import _BAR_RULES, BarPanel, daily_log_returns, load_bars
from alphagraph.model import ModelConfig, build_dataset
from alphagraph.synth import SyntheticSpec, generate, write_market

from helpers import (TEST_SIGNAL, build_panel, factor_panel, forward_return, market_bars,
                     parse_bar_row, standardize_cross_section)

REGISTRY = {"momentum": [5, 21], "reversal": [1], "volatility": [21],
            "volume_z": [21], "amihud": [10], "rsi": [14], "ma_ratio": [10]}


# ---------------------------------------------------------------------------
# scalar references
# ---------------------------------------------------------------------------

def ref_standardize(values, mask):
    out = np.zeros_like(values)
    idx = np.flatnonzero(mask)
    if idx.size < 2:
        return out
    x = values[idx].astype(np.float64)
    for _ in range(100):
        mu, sd = x.mean(), x.std()
        if sd <= 1e-15:
            return out
        clipped = np.clip(x, mu - F.STANDARDIZE_CLIP * sd, mu + F.STANDARDIZE_CLIP * sd)
        if np.array_equal(clipped, x):
            break
        x = clipped
    mu, sd = x.mean(), x.std()
    if sd <= 1e-15:
        return out
    out[idx] = (x - mu) / sd
    return out


def ref_raw_factor(family, w, opens, volume, rets):
    opens, volume, rets = map(np.asfortranarray, (opens, volume, rets))
    D = opens.shape[0]
    out = np.full_like(opens, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        if family in ("momentum", "reversal"):
            for t in range(w, D):
                out[t] = np.log(opens[t] / opens[t - w])
            if family == "reversal":
                out[w:] = -out[w:]
        elif family == "volatility":
            for t in range(w, D):
                out[t] = np.std(rets[t - w + 1:t + 1], axis=0, ddof=1)
        elif family == "volume_z":
            for t in range(w - 1, D):
                win = volume[t - w + 1:t + 1]
                mu = np.mean(win, axis=0)
                sd = np.std(win, axis=0, ddof=1)
                out[t] = np.where(sd > 0, (volume[t] - mu) / sd, 0.0)
        elif family == "amihud":
            ratio = np.abs(rets) / (opens * volume)
            for t in range(w, D):
                out[t] = np.mean(ratio[t - w + 1:t + 1], axis=0)
        elif family == "rsi":
            gains = np.where(rets > 0, rets, 0.0)
            losses = np.where(rets < 0, -rets, 0.0)
            for t in range(w, D):
                ag = np.mean(gains[t - w + 1:t + 1], axis=0)
                al = np.mean(losses[t - w + 1:t + 1], axis=0)
                denom = ag + al
                out[t] = np.where(denom > 0, 100.0 * ag / denom, 50.0)
        elif family == "ma_ratio":
            for t in range(w - 1, D):
                out[t] = np.mean(opens[t - w + 1:t + 1], axis=0)
            out = np.where(np.isfinite(out), opens / out - 1.0, np.nan)
    return out


def ref_compute_factors(panel, registry):
    rets = daily_log_returns(panel)
    names, raws = [], []
    for family in sorted(registry):
        for w in registry[family]:
            names.append(f"{family}_{w}")
            raws.append(ref_raw_factor(family, w, panel.open, panel.volume, rets))
    D, S, L = panel.n_dates, panel.n_symbols, len(names)
    values = np.zeros((D, S, L))
    mask = np.zeros((D, S, L), dtype=bool)
    for k, raw in enumerate(raws):
        valid = np.isfinite(raw) & panel.mask
        mask[:, :, k] = valid
        for t in range(D):
            values[t, :, k] = ref_standardize(raw[t], valid[t])
    return names, values, mask


def ref_build_dataset(bars, factor_valid, cfg, require_labels):
    stock_idx, anchor_idx, labels = [], [], []
    T = cfg.lookback
    for s in range(bars.n_symbols):
        for a in range(T, bars.n_dates):
            window = slice(a - T, a)
            if not bars.mask[window, s].all():
                continue
            if factor_valid is not None and not factor_valid[window, s].all():
                continue
            y = forward_return(bars, bars.symbols[s], bars.calendar[a - 1], cfg.horizon)
            if y is None:
                if require_labels:
                    continue
                y = np.nan
            stock_idx.append(s)
            anchor_idx.append(a)
            labels.append(y)
    return (np.asarray(stock_idx, dtype=np.intp), np.asarray(anchor_idx, dtype=np.intp),
            np.asarray(labels, dtype=np.float64))


def ref_load_bars(path):
    bars = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if row:
                bars.append(parse_bar_row(row, line_no))
    if not bars:
        raise DataError(f"{path}: no data rows")
    bars.sort(key=lambda b: (b.date, b.symbol))
    seen = set()
    for b in bars:
        if (b.date, b.symbol) in seen:
            raise DataError(f"duplicate bar for {b.symbol} on {b.date}")
        seen.add((b.date, b.symbol))
    calendar = sorted({b.date for b in bars})
    symbols = sorted({b.symbol for b in bars})
    shape = (len(calendar), len(symbols))
    arrays = {f: np.full(shape, np.nan) for f in BarPanel.FIELDS}
    mask = np.zeros(shape, dtype=bool)
    for b in bars:
        d, s = calendar.index(b.date), symbols.index(b.symbol)
        for f in BarPanel.FIELDS:
            arrays[f][d, s] = getattr(b, f)
        mask[d, s] = True
    return BarPanel(calendar, symbols, arrays, mask)


def ref_build_panel_errors(bars):
    """The first error of the sorted validate-then-duplicate scan, or None."""
    seen = set()
    for b in sorted(bars, key=lambda b: (b.date, b.symbol)):
        try:
            b.validate()
        except DataError as exc:
            return str(exc)
        if (b.date, b.symbol) in seen:
            return f"duplicate bar for {b.symbol} on {b.date}"
        seen.add((b.date, b.symbol))
    return None


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_panel(p, q):
    return (p.calendar == q.calendar and p.symbols == q.symbols and same(p.mask, q.mask)
            and all(same(p.arrays[f], q.arrays[f]) for f in BarPanel.FIELDS))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def holey_panel():
    """Synthetic market with late listings, delistings, holes, a constant
    stock and heavy-tailed shocks, so dates differ in their valid count."""
    market = generate(SyntheticSpec(n_stocks=14, days=160, n_clusters=3, seed=5, **TEST_SIGNAL))
    rng = np.random.default_rng(5)
    bars = []
    for b in market_bars(market):
        i = int(b.symbol[1:])
        t = market.calendar.index(b.date)
        if i == 1 and t < 50:                     # late listing
            continue
        if i == 2 and t > 120:                    # delisting
            continue
        if i in (3, 4) and rng.random() < 0.05:   # scattered holes
            continue
        if i == 5:                                # constant price and volume
            b = type(b)(b.symbol, b.date, 10.0, 10.0, 10.0, 10.0, 1000.0)
        if i == 6 and t % 37 == 0:                # heavy-tailed jumps
            scale = 40.0
            b = type(b)(b.symbol, b.date, b.open * scale, b.high * scale,
                        b.low * scale, b.close * scale, b.volume * 50)
        bars.append(b)
    return build_panel(bars)


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

def test_factors_bit_equal_to_per_column_reference(holey_panel):
    names, values, mask = ref_compute_factors(holey_panel, REGISTRY)
    fp = factor_panel(holey_panel, REGISTRY)
    assert fp.factor_names == names
    assert same(fp.values, values) and same(fp.mask, mask)
    # the panel does exercise several group sizes and several clip rounds
    counts = mask.sum(axis=1)
    assert len(np.unique(counts[counts >= 2])) >= 3


FAMILIES = tuple(sorted(F.DEFAULT_REGISTRY))


def random_panel(seed, n_dates, n_symbols, hole_rate):
    """A panel of random opens and volumes, F-ordered as ``ingest`` passes
    them, with bars missing at ``hole_rate`` and a few flat volume windows."""
    rng = np.random.default_rng(seed)
    shape = (n_dates, n_symbols)
    opens = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, shape), axis=0))
    volume = 1e4 * rng.integers(1, 4, shape)
    mask = rng.random(shape) >= hole_rate
    opens[~mask] = volume[~mask] = np.nan
    calendar = [dt.date(2020, 1, 1) + dt.timedelta(days=d) for d in range(n_dates)]
    return BarPanel(calendar, [f"S{s}" for s in range(n_symbols)],
                    {"open": np.asfortranarray(opens), "volume": np.asfortranarray(volume)},
                    mask)


registries = st.dictionaries(
    st.sampled_from(FAMILIES),
    st.lists(st.integers(1, 20), min_size=1, max_size=2, unique=True),
    min_size=1, max_size=4,
).map(lambda r: {family: [max(w, 2) if family in F.NEEDS_TWO_DAYS else w for w in ws]
                 for family, ws in r.items()})


@pytest.mark.filterwarnings("ignore:Degrees of freedom <= 0")
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_dates=st.integers(1, 40), n_symbols=st.integers(1, 7),
       hole_rate=st.sampled_from([0.0, 0.1, 0.4]), block=st.integers(1, 12),
       registry=registries)
# a calendar shorter than one block; one that is not a multiple of the
# block; windows longer than a block, with holes in the mask
@example(seed=1, n_dates=5, n_symbols=4, hole_rate=0.0, block=8,
         registry={"momentum": [2], "volume_z": [3]})
@example(seed=2, n_dates=23, n_symbols=5, hole_rate=0.1, block=4,
         registry={"rsi": [3], "ma_ratio": [4]})
@example(seed=3, n_dates=40, n_symbols=6, hole_rate=0.4, block=3,
         registry={"volatility": [17], "amihud": [9], "momentum": [20]})
def test_blocked_factors_bit_equal_to_whole_calendar_reference(seed, n_dates, n_symbols,
                                                               hole_rate, block, registry):
    """The factors computed one block of dates at a time, as ``ingest``
    writes them, are the whole-calendar reference's, values and mask."""
    panel = random_panel(seed, n_dates, n_symbols, hole_rate)
    names, values, mask = ref_compute_factors(panel, registry)
    with mock.patch.object(F, "DATE_BLOCK", block):
        fp = factor_panel(panel, registry)
    assert fp.factor_names == names
    assert same(fp.values, values) and same(fp.mask, mask)


@pytest.mark.filterwarnings("ignore:Degrees of freedom <= 0")
@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
@pytest.mark.parametrize("family", FAMILIES)
def test_window_factors_bit_equal_to_per_date_loop(holey_panel, family, layout):
    # windows below 8, at the 8-term unroll, up to 128 and above it, where
    # numpy's pairwise sum splits the window in halves
    rets = daily_log_returns(holey_panel)
    arrays = [layout(a) for a in (holey_panel.open, holey_panel.volume, rets)]
    for w in (1, 2, 7, 8, 9, 14, 17, 21, 63, 140, 159, 160, 200):
        expected = ref_raw_factor(family, w, *arrays)
        got = F._raw_factor(family, w, *arrays, range(holey_panel.n_dates))
        assert same(got, expected), (family, w)
        if w in (7, 63, 140):  # each branch of the pairwise sum meets real values
            assert np.isfinite(got).any(), (family, w)


@pytest.mark.filterwarnings("ignore:Degrees of freedom <= 0")
def test_window_moments_equal_1d_numpy_per_column():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(300, 4)) * 10.0 ** rng.integers(-8, 9, size=(300, 4))
    x[rng.random(x.shape) < 0.02] = np.nan
    x[17, 1], x[40, 2], x[90:100, 3] = np.inf, -np.inf, -0.0
    for w in (1, 3, 8, 16, 63, 128, 129, 136, 255, 300):
        with np.errstate(invalid="ignore", divide="ignore"):
            mean, std = F._trailing_mean(x, w, 0), F._trailing_std(x, w, 0)
        for t in range(w - 1, x.shape[0]):
            for s in range(x.shape[1]):
                window = x[t - w + 1:t + 1, s]
                with np.errstate(invalid="ignore", divide="ignore"):
                    assert same(mean[t, s], np.mean(window)), (w, t, s)
                    if w > 1:
                        assert same(std[t, s], np.std(window, ddof=1)), (w, t, s)
        assert np.isnan(mean[:w - 1]).all() and np.isnan(std[:w - 1]).all()


def test_heavy_tail_needs_several_clip_rounds():
    col = np.concatenate([np.linspace(-1, 1, 40), [500.0, -80.0]])
    mask = np.ones(col.size, dtype=bool)
    x, rounds = col.copy(), 0
    while True:
        mu, sd = x.mean(), x.std()
        clipped = np.clip(x, mu - 3 * sd, mu + 3 * sd)
        if np.array_equal(clipped, x):
            break
        x, rounds = clipped, rounds + 1
    assert rounds >= 3
    assert same(standardize_cross_section(col, mask), ref_standardize(col, mask))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda rows: st.integers(1, 12).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 7.0, 1e6])),
                          min_size=cols, max_size=cols), min_size=rows, max_size=rows),
        st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)))))
def test_batched_standardisation_matches_scalar_property(case):
    values, mask = np.array(case[0]), np.array(case[1], dtype=bool)
    out = F._standardize_rows(values, mask)
    for r in range(values.shape[0]):
        assert same(out[r], ref_standardize(values[r], mask[r]))
        assert same(standardize_cross_section(values[r], mask[r]), out[r])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_standardisation_matches_scalar_above_128_valid(seed):
    # numpy's pairwise sum switches from its unrolled loop to recursive
    # halving above 128 elements; rows of several hundred valid stocks, in
    # groups sharing a valid count, must still match the 1-D code bit for bit
    rng = np.random.default_rng(seed)
    S = 320
    values = rng.standard_t(1.5, size=(10, S)) * 3.0 + rng.normal(size=(10, S))
    values[:, ::17] *= 50.0                        # heavy tails: several clip rounds
    mask = np.ones((10, S), dtype=bool)
    for r, n in enumerate([320, 300, 300, 129, 129, 130, 200, 257, 300, 2]):
        mask[r, rng.permutation(S)[:S - n]] = False
    out = F._standardize_rows(values, mask)
    for r in range(values.shape[0]):
        assert same(out[r], ref_standardize(values[r], mask[r]))


def test_factors_bit_equal_to_reference_above_128_stocks():
    market = generate(SyntheticSpec(n_stocks=150, days=45, n_clusters=4, seed=11, **TEST_SIGNAL))
    rng = np.random.default_rng(11)
    bars = [b for b in market_bars(market)
            if not (int(b.symbol[1:]) < 12 and market.calendar.index(b.date) < 25)
            and rng.random() > 0.01]              # late listings and holes: n varies
    panel = build_panel(bars)
    registry = {"momentum": [5], "reversal": [1], "volatility": [10], "amihud": [5]}
    names, values, mask = ref_compute_factors(panel, registry)
    fp = factor_panel(panel, registry)
    assert fp.factor_names == names
    assert same(fp.values, values) and same(fp.mask, mask)
    counts = mask.sum(axis=1)
    assert counts.max() > 128 and len(np.unique(counts[counts > 128])) >= 3


# ---------------------------------------------------------------------------
# build_dataset
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("horizon", [1, 3])
@pytest.mark.parametrize("require_labels", [True, False])
@pytest.mark.parametrize("use_tech", [True, False])
def test_dataset_bit_equal_to_forward_return_loop(holey_panel, horizon, require_labels,
                                                  use_tech):
    fp = factor_panel(holey_panel, REGISTRY)
    mask = fp.mask.copy()
    mask[70:73, 7, 2] = False     # masked factor days inside otherwise full windows
    mask[100, :, 0] = False
    fp = FactorPanel(fp.factor_names, fp.values, mask, fp.calendar, fp.symbols)
    cfg = ModelConfig(lookback=4, horizon=horizon, n_factors=fp.n_factors,
                      use_graph=not use_tech, use_news=False, use_tech=use_tech)
    ds = build_dataset(holey_panel, fp if use_tech else None, None, cfg,
                       require_labels=require_labels)
    factor_valid = mask.all(axis=2) if use_tech else None
    si, ai, labels = ref_build_dataset(holey_panel, factor_valid, cfg, require_labels)
    assert same(ds.stock_idx, si) and same(ds.anchor_idx, ai) and same(ds.labels, labels)
    assert ds.n > 0
    if not require_labels:
        assert np.isnan(ds.labels).any()


def test_dataset_non_positive_price_raises_as_the_loop_does(holey_panel):
    arrays = {f: a.copy() for f, a in holey_panel.arrays.items()}
    arrays["open"][90, 3] = -1.0
    arrays["open"][95, 2] = 0.0
    bars = BarPanel(holey_panel.calendar, holey_panel.symbols, arrays, holey_panel.mask)
    cfg = ModelConfig(lookback=4, horizon=1, use_tech=False, use_news=False)
    with pytest.raises(DataError) as expected:
        ref_build_dataset(bars, None, cfg, True)
    with pytest.raises(DataError) as got:
        build_dataset(bars, None, None, cfg)
    assert str(got.value) == str(expected.value)


def test_dataset_shorter_than_lookback_is_empty(holey_panel):
    bars = holey_panel.restrict_dates(end=holey_panel.calendar[3])
    cfg = ModelConfig(lookback=4, horizon=1, use_tech=False, use_news=False)
    ds = build_dataset(bars, None, None, cfg, require_labels=False)
    assert ds.n == 0 and ds.stock_idx.dtype == np.intp and ds.labels.dtype == np.float64


# ---------------------------------------------------------------------------
# load_bars
# ---------------------------------------------------------------------------

GOOD = ["2020-01-06,AAA,10,11,9,10.5,1000", "2020-01-06,BBB,20,21,19,20,500",
        "2020-01-07,AAA,10.2,11,9.8,10.1,900", "2020-01-07,BBB,20.5,21,20,20.4,700"]

BAD_ROWS = {
    "short": "2020-01-08,AAA,10,11",
    "one field": "2020-01-08",
    "bad date": "2020-13-08,AAA,10,11,9,10.5,1000",
    "bad number": "2020-01-08,AAA,10,abc,9,10.5,1000",
    "bad date and number": "2020-02-30,AAA,10,abc,9,10.5,1000",
    "empty symbol": "2020-01-08,,10,11,9,10.5,1000",
    "nan": "2020-01-08,AAA,nan,11,9,10.5,1000",
    "infinite volume": "2020-01-08,AAA,10,11,9,10.5,inf",
    "zero price": "2020-01-08,AAA,0,11,9,10.5,1000",
    "negative low": "2020-01-08,AAA,10,11,-9,10.5,1000",
    "high below close": "2020-01-08,AAA,10,11,9,12,1000",
    "low above open": "2020-01-08,AAA,10,11,10.2,10.5,1000",
    "negative volume": "2020-01-08,AAA,10,11,9,10.5,-1",
    "duplicate": "2020-01-07,BBB,20.5,21,20,20.4,700",
    "duplicate by another spelling": "20200107,AAA,10,11,9,10,100",
}


def write_rows(path, rows):
    path.write_text("date,symbol,open,high,low,close,volume\n" + "\n".join(rows) + "\n")
    return path


def error_text(fn, path):
    with pytest.raises(DataError) as exc:
        fn(path)
    return str(exc.value)


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_load_bars_errors_match_row_by_row_parse(tmp_path, kind):
    # blank lines between rows still count toward line numbers
    rows = [GOOD[0], "", GOOD[1], "", "", GOOD[2], BAD_ROWS[kind], "", GOOD[3],
            BAD_ROWS["zero price"].replace("2020-01-08", "2020-01-09")]
    path = write_rows(tmp_path / "bars.csv", rows)
    expected = error_text(ref_load_bars, path)
    assert error_text(load_bars, path) == expected
    if not kind.startswith("duplicate"):
        assert expected.startswith("line 8:")


def test_load_bars_panel_bit_equal_to_reference(tmp_path):
    market = generate(SyntheticSpec(n_stocks=6, days=40, n_clusters=2, seed=3, **TEST_SIGNAL))
    path = write_market(market, tmp_path)["bars"]
    text = path.read_text().splitlines()
    # blank lines, shuffled row order and extra trailing fields are accepted
    rng = np.random.default_rng(0)
    body = [text[i] for i in rng.permutation(np.arange(1, len(text)))]
    body[5] += ",extra"
    path = write_rows(tmp_path / "mixed.csv", body[:50] + [""] + body[50:])
    assert same_panel(load_bars(path), ref_load_bars(path))


def test_build_panel_reports_first_invalid_bar_in_key_order():
    market = generate(SyntheticSpec(n_stocks=3, days=5, n_clusters=1, seed=0, **TEST_SIGNAL))
    bars = market_bars(market)
    b = bars[7]
    bars[7] = type(b)(b.symbol, b.date, b.open, b.open * 0.5, b.low, b.close, b.volume)
    b = bars[2]
    bars[2] = type(b)(b.symbol, b.date, b.open, b.high, b.low, b.close, -5.0)
    with pytest.raises(DataError, match=f"bar {bars[2].symbol} {bars[2].date}: negative volume"):
        build_panel(bars[::-1])
    # NaN volume passes Bar.validate, as it always has
    bars = market_bars(market)
    b = bars[0]
    ok = [type(b)(b.symbol, b.date, b.open, b.high, b.low, b.close, math.nan)] + bars[1:]
    assert np.isnan(build_panel(ok).volume[0, 0])
    assert build_panel(ok).calendar[0] == dt.date.fromisoformat(market.spec.start)


def test_build_panel_error_precedence_matches_sorted_scan():
    market = generate(SyntheticSpec(n_stocks=3, days=5, n_clusters=1, seed=0, **TEST_SIGNAL))
    bars = sorted(market_bars(market), key=lambda b: (b.date, b.symbol))

    def invalid(b):
        return type(b)(b.symbol, b.date, b.open, b.high, b.low, b.close, -1.0)

    cases = {  # positions are in (date, symbol) order
        "duplicate before invalid": (bars[:9] + [invalid(bars[9])] + bars[10:] + [bars[1]],
                                     "duplicate bar"),
        "invalid before duplicate": (bars[:4] + [invalid(bars[4])] + bars[5:] + [bars[10]],
                                     "negative volume"),
        "duplicate that is invalid": (bars + [invalid(bars[4])], "negative volume"),
    }
    for name, (case, kind) in cases.items():
        for order in (case, case[::-1]):
            expected = ref_build_panel_errors(order)
            assert kind in expected, name
            with pytest.raises(DataError) as exc:
                build_panel(order)
            assert str(exc.value) == expected, name


def test_bar_rules_give_every_grid_row_the_error_of_the_row_by_row_parse():
    # every row of this exhaustive grid gets the error of the first rule it
    # breaks, worded as the row-by-row parse words it, or none when the
    # parse accepts the row
    grid = [-1.0, 0.0, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan]
    rows = list(itertools.product(grid, repeat=5))
    n = len(rows)
    cols, none = np.array(rows).T, np.zeros(n, dtype=bool)
    with np.errstate(invalid="ignore"):
        flags = [breaks(cols, none, none) for _, breaks in _BAR_RULES]
    first = np.array(flags + [np.ones(n, dtype=bool)]).argmax(axis=0)
    date = dt.date(2020, 1, 6)
    accepted = 0
    for fields, k in zip(rows, first.tolist()):
        try:
            parse_bar_row([date.isoformat(), "AAA", *map(repr, fields)], 2)
        except DataError as exc:
            assert k < len(_BAR_RULES), fields
            assert "line 2: " + _BAR_RULES[k][0].format(symbol="AAA", date=date) == str(exc)
        else:
            assert k == len(_BAR_RULES), fields
            accepted += 1
    assert 0 < accepted < n


# drawn text, and float spellings that reach each rule
FIELD_TEXT = st.text(max_size=6) | st.sampled_from(
    ["nan", "inf", "-inf", "-0.0", "0", "1e308", "-1", " 10 ", "1_0", "abc"])
DATE_TEXT = st.sampled_from(["20200107", "2020-02-30", "2020-01-07", "2020-01-08", "2020-1-7"])


@st.composite
def edited_bar_rows(draw):
    """The lines of ``GOOD`` with one to four edits, made on their field
    lists; a blank line is ``[""]``."""
    rows = [line.split(",") for line in GOOD]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["field", "drop", "add", "date", "symbol", "repeat",
                                     "blank"]))
        i = draw(st.integers(0, len(rows) - 1))
        row = list(rows[i])
        j = draw(st.integers(0, len(row) - 1))
        if kind == "field":
            row[j] = draw(FIELD_TEXT)
        elif kind == "drop":
            del row[j]
        elif kind == "add":
            row.insert(j, draw(FIELD_TEXT))
        elif kind == "date":
            row[0] = draw(DATE_TEXT)
        elif kind == "symbol" and len(row) > 1:
            row[1] = ""
        elif kind in ("repeat", "blank"):
            rows.insert(i, row if kind == "repeat" else [""])
            continue
        rows[i] = row or [""]
    return [",".join(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(edited_bar_rows())
def test_load_bars_matches_row_by_row_parse_on_edited_files(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("bars") / "bars.csv"
    path.write_text("date,symbol,open,high,low,close,volume\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    try:
        expected = ref_load_bars(path)
    except DataError as exc:
        assert error_text(load_bars, path) == str(exc)
    else:
        assert same_panel(load_bars(path), expected)
