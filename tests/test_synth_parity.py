"""Byte-equality of the whole-array synthetic market against the scalar code.

``ref_generate`` and ``ref_write_market`` are the per-bar code the array
version replaced, kept here so the two can be compared exactly (byte-equal
files and ``same`` arrays, never a tolerance): one ``_label_signal`` call and
one open price per date, one ``Bar`` of ``round(v, 6)`` prices per (date,
stock), ``rng.choice`` for every news draw, and one formatted line per bar
and per signal.
"""

import dataclasses
import datetime as dt
import json
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alphagraph.market import BarPanel, load_bars
from alphagraph.synth import (SyntheticSpec, _label_signal, cluster_reversal_slopes,
                              generate, round6, trading_calendar, write_market)

from helpers import TEST_SIGNAL, Bar, synthetic_panel

# the synth specs of the benchmark workloads (perfbench/workloads.py)
_SIGNAL = dict(n_clusters=5, horizon=1, b_volume=0.036, b_reversal=0.30,
               noise_std=0.0045, cluster_vol=0.003)
NEWS_TEXT = SyntheticSpec(**_SIGNAL, n_stocks=40, days=400, news_rate=2.5)
WIDE_PANEL = SyntheticSpec(**_SIGNAL, n_stocks=120, days=600, news_rate=1.0)
SMALL = SyntheticSpec(n_stocks=12, days=80, n_clusters=3, news_rate=4.0, seed=2, **TEST_SIGNAL)

SPECS = {
    **{f"news-text-{s}": dataclasses.replace(NEWS_TEXT, seed=s) for s in (0, 1, 7)},
    **{f"wide-panel-{s}": dataclasses.replace(WIDE_PANEL, seed=s) for s in (0, 1, 7)},
    "acceptance": SyntheticSpec(horizon=1, b_volume=0.012, b_reversal=0.30, noise_std=0.01,
                                seed=42),
    "one-cluster": dataclasses.replace(SMALL, n_clusters=1),
    "horizon-1": dataclasses.replace(SMALL, horizon=1),
    "horizon-5": dataclasses.replace(SMALL, horizon=5),
    "150-stocks": SyntheticSpec(n_stocks=150, days=40, n_clusters=4, seed=3, **TEST_SIGNAL),
    "full-fidelity": dataclasses.replace(SMALL, co_mention_fidelity=1.0),
}


# ---------------------------------------------------------------------------
# scalar reference
# ---------------------------------------------------------------------------

def ref_generate(spec):
    rng = np.random.default_rng(spec.seed)
    n, D, C = spec.n_stocks, spec.days, spec.n_clusters
    symbols = [f"S{i:02d}" for i in range(n)]
    clusters = np.array([i * C // n for i in range(n)])
    calendar = trading_calendar(dt.date.fromisoformat(spec.start), D)

    b_rev = cluster_reversal_slopes(spec)[clusters]
    f = np.zeros((D, n))
    r = np.zeros((D, n))
    z = rng.standard_normal((D, C))
    eps = rng.standard_normal((D, n))
    eta = rng.standard_normal((D, n))
    init_scale = (spec.factor_innovation if spec.factor_init_scale is None
                  else spec.factor_init_scale)
    f[0] = init_scale * eta[0]
    for t in range(1, D):
        r[t] = (spec.b_volume * f[t - 1] - b_rev * r[t - 1]
                + spec.cluster_vol * z[t, clusters] + spec.noise_std * eps[t])
        f[t] = spec.phi * f[t - 1] + spec.factor_innovation * eta[t]

    signals = np.full((D, n), np.nan)
    for a in range(1, D):
        signals[a] = _label_signal(f[a - 1], r[a - 1], b_rev, spec)

    base_price = np.exp(rng.uniform(np.log(20.0), np.log(100.0), size=n))
    opens = np.empty((D, n))
    opens[0] = base_price
    for t in range(1, D):
        opens[t] = opens[t - 1] * np.exp(r[t])
    base_vol = np.exp(rng.uniform(np.log(2e5), np.log(8e5), size=n))
    intraday = 0.004 * rng.standard_normal((D, n))
    wick_hi = np.abs(0.002 * rng.standard_normal((D, n)))
    wick_lo = np.abs(0.002 * rng.standard_normal((D, n)))
    closes = opens * np.exp(intraday)
    highs = np.maximum(opens, closes) * np.exp(wick_hi)
    lows = np.minimum(opens, closes) * np.exp(-wick_lo)
    volumes = np.round(base_vol[None, :] * np.exp(f + 0.05 * rng.standard_normal((D, n))))

    bars = []
    for t in range(D):
        for i in range(n):
            o = round(float(opens[t, i]), 6)
            c = round(float(closes[t, i]), 6)
            h = round(float(highs[t, i]), 6)
            lo = round(float(lows[t, i]), 6)
            h = max(h, o, c)
            lo = min(lo, o, c)
            bars.append(Bar(symbols[i], calendar[t], o, h, lo, c, float(volumes[t, i])))

    articles = ref_generate_news(spec, rng, calendar, symbols, clusters, z)
    cluster_of = {symbols[i]: int(clusters[i]) for i in range(n)}
    return SimpleNamespace(spec=spec, calendar=calendar, symbols=symbols,
                           cluster_of=cluster_of, bars=bars, articles=articles,
                           signals=signals, returns=r)


def ref_generate_news(spec, rng, calendar, symbols, clusters, z):
    n, D, C = spec.n_stocks, spec.days, spec.n_clusters
    members = [np.flatnonzero(clusters == c) for c in range(C)]
    topic_vocab = {c: [f"t{c}w{k}" for k in range(25)] for c in range(C)}
    common_vocab = [f"comw{k}" for k in range(50)]
    pos_vocab = [f"posw{k}" for k in range(10)]
    neg_vocab = [f"negw{k}" for k in range(10)]
    articles = []
    art_id = 0
    for t in range(D - 1):
        for c in range(C):
            count = rng.poisson(spec.news_rate / C)
            for _ in range(count):
                anchor = int(rng.choice(members[c]))
                mentions = {anchor}
                for _ in range(int(rng.integers(1, 4))):
                    if rng.random() < spec.co_mention_fidelity or C == 1:
                        mentions.add(int(rng.choice(members[c])))
                    else:
                        other = (c + 1 + int(rng.integers(C - 1))) % C
                        mentions.add(int(rng.choice(members[other])))
                window = z[min(t + 2, D - 1):min(t + 1 + spec.horizon, D), c]
                actual = window.sum() if window.size else 0.0
                if rng.random() < spec.tone_fidelity:
                    tone_pool = pos_vocab if actual >= 0 else neg_vocab
                else:
                    tone_pool = pos_vocab if rng.random() < 0.5 else neg_vocab
                tokens = (list(rng.choice(topic_vocab[c], size=8))
                          + list(rng.choice(common_vocab, size=6))
                          + list(rng.choice(tone_pool, size=3)))
                articles.append({
                    "id": f"A{art_id:07d}",
                    "date": calendar[t].isoformat(),
                    "symbols": sorted(symbols[i] for i in mentions),
                    "text": " ".join(tokens),
                })
                art_id += 1
    return articles


def ref_write_market(market, outdir):
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"bars": outdir / "bars.csv", "news": outdir / "news.jsonl",
             "truth": outdir / "truth.json", "signals": outdir / "truth_signals.csv"}
    with open(paths["bars"], "w", encoding="utf-8") as fh:
        fh.write("date,symbol,open,high,low,close,volume\n")
        for b in market.bars:
            fh.write(f"{b.date.isoformat()},{b.symbol},{b.open:.6f},{b.high:.6f},"
                     f"{b.low:.6f},{b.close:.6f},{int(b.volume)}\n")
    with open(paths["news"], "w", encoding="utf-8") as fh:
        for rec in market.articles:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(paths["truth"], "w", encoding="utf-8") as fh:
        json.dump({"spec": asdict(market.spec),
                   "cluster_of": market.cluster_of,
                   "cluster_reversal_slopes":
                       [float(v) for v in cluster_reversal_slopes(market.spec)]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["signals"], "w", encoding="utf-8") as fh:
        fh.write("date,symbol,signal\n")
        D, n = market.signals.shape
        for t in range(D):
            if not np.isfinite(market.signals[t]).any():
                continue
            for i in range(n):
                fh.write(f"{market.calendar[t].isoformat()},{market.symbols[i]},"
                         f"{repr(float(market.signals[t, i]))}\n")
    return paths


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(SPECS))
def test_market_files_byte_equal_to_scalar_reference(tmp_path, name):
    spec = SPECS[name]
    market, ref = generate(spec), ref_generate(spec)
    assert market.calendar == ref.calendar and market.symbols == ref.symbols
    assert market.cluster_of == ref.cluster_of and market.articles == ref.articles
    assert same(market.signals, ref.signals) and same(market.returns, ref.returns)
    paths = write_market(market, tmp_path / "new")
    ref_paths = ref_write_market(ref, tmp_path / "ref")
    assert list(paths) == list(ref_paths)
    for key in paths:
        assert paths[key].read_bytes() == ref_paths[key].read_bytes(), key


@pytest.mark.parametrize("name", ["news-text-1", "150-stocks", "one-cluster"])
def test_panel_equals_loaded_bars_file(tmp_path, name):
    market = generate(SPECS[name])
    panel = synthetic_panel(market)
    loaded = load_bars(write_market(market, tmp_path)["bars"])
    assert panel.calendar == loaded.calendar and panel.symbols == loaded.symbols
    assert same(panel.mask, loaded.mask)
    for field in BarPanel.FIELDS:
        assert same(panel.arrays[field], loaded.arrays[field]), field
        assert panel.arrays[field].flags.c_contiguous, field


# exact ties: a / 128 with odd a has 7 decimals ending in 5
_TIES = st.integers(1, 64 * 10**6).map(lambda k: (2 * k - 1) / 128)
# (k + 1/2) / 10**6 and the doubles on either side of it
_NEAR_HALF = st.integers(0, 10**12).map(lambda k: (k + 0.5) / 1e6).flatmap(
    lambda x: st.sampled_from([x, float(np.nextafter(x, np.inf)),
                               float(np.nextafter(x, -np.inf))]))
_MAGNITUDES = st.floats(1e-3, 1e6)
# from |x| * 1e6 = 2**52 on the product has no fractional bits to test
_HUGE = st.floats(1e9, 1e15)
_VALUES = st.one_of(_TIES, _NEAR_HALF, _MAGNITUDES, _HUGE).flatmap(
    lambda v: st.sampled_from([v, -v]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=40))
@example([2561 / 128, -2561 / 128, 0.0000005, 2.5e-7, 1e6 - 5e-7, 0.1, 123.4567895,
          97131170040.98996, 15801564337043.12])
def test_round6_equals_python_round_bit_for_bit(values):
    expected = np.array([round(v, 6) for v in values])
    assert same(round6(np.array(values)), expected)
