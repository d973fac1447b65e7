"""Synthetic planted-signal market and news generator.

Returns follow a process whose predictable part is recoverable from the
shipped factor registry, so the whole pipeline can be verified end to end:

    r[i, t+1] = b_volume * f[i, t] - b_reversal * r[i, t]
                + cluster_vol * z[c(i), t+1] + noise_std * eps[i, t+1]

where ``f`` is a per-stock AR(1) activity state surfaced through traded
volume (``volume = base * exp(f)``), the reversal term feeds on the stock's
own last daily return, ``z`` are per-cluster common shocks, and ``eps`` is
idiosyncratic. Both drivers are functions of observable history: the volume
z-score and 1-day reversal factors pick them up.

News articles co-mention same-cluster stocks with configurable fidelity
(fidelity 1.0 makes the co-mention matrix block-diagonal) and carry tone
tokens correlated with the cluster shocks inside the article's future label
window. The exact conditional mean of every sample label is written to a
sidecar, giving tests a noiseless oracle.

The market is whole-array data: the open, high, low, close and volume are
(dates, stocks) arrays, rounded as ``bars.csv`` holds them, and
:meth:`SyntheticMarket.panel` is the :class:`~alphagraph.market.BarPanel`
that :func:`~alphagraph.market.load_bars` reads back from that file.
``write_market`` formats a block of dates at a time.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .config import SyntheticSpec
from .market import BarPanel

WRITE_BLOCK_DATES = 64   # dates write_market formats at once; bounds its memory


@dataclass
class SyntheticMarket:
    spec: SyntheticSpec
    calendar: list              # D dates
    symbols: list               # S symbols, in generation order
    cluster_of: dict            # symbol -> cluster id
    arrays: dict                # BarPanel.FIELDS name -> (D, S) float64, as bars.csv holds it
    articles: list              # list of dicts (JSONL records)
    signals: np.ndarray         # (D, S) conditional mean of the label entered at day t
    returns: np.ndarray         # (D, S) realized daily log returns (row t ends at t)

    def panel(self) -> BarPanel:
        """The bars as a panel, symbols sorted as ``load_bars`` sorts them."""
        order = sorted(range(len(self.symbols)), key=self.symbols.__getitem__)
        arrays = {f: np.take(a, order, axis=1) for f, a in self.arrays.items()}
        mask = np.ones((len(self.calendar), len(order)), dtype=bool)
        return BarPanel(self.calendar, [self.symbols[i] for i in order], arrays, mask)


def trading_calendar(start: dt.date, days: int) -> list:
    # by ordinal, so that a calendar ending on date.max does not step past it
    out, day = [], start.toordinal()
    while len(out) < days:
        d = dt.date.fromordinal(day)
        if d.weekday() < 5:
            out.append(d)
        day += 1
    return out


def cluster_reversal_slopes(spec: SyntheticSpec) -> np.ndarray:
    """Per-cluster reversal coefficients, spread around the mean slope.

    The spread plants a cross-categorical interaction: the return response to
    yesterday's move depends on which cluster a stock belongs to, so stock
    identity carries predictive value beyond the pooled linear fit.
    """
    if spec.n_clusters == 1:
        return np.array([spec.b_reversal])
    offsets = np.linspace(-1.0, 1.0, spec.n_clusters)
    return spec.b_reversal * (1.0 + spec.reversal_spread * offsets)


def _label_signal(f_state, r_state, b_rev, spec: SyntheticSpec) -> np.ndarray:
    """Exact conditional mean of the label entered at the next open.

    The label entered at day a sums daily returns r[a+1..a+h]; with features
    through day a-1, that is steps 2..h+1 of the return recursion from the
    day a-1 state. ``f_state`` and ``r_state`` are (..., S) rows of states
    and ``b_rev`` is the (S,) per-stock reversal slope vector.
    """
    m_f = f_state.copy()
    m_r = r_state.copy()
    total = np.zeros_like(m_f)
    for s in range(1, spec.horizon + 2):
        m_r = spec.b_volume * m_f - b_rev * m_r
        m_f = spec.phi * m_f
        if s >= 2:
            total += m_r
    return total


def generate(spec: SyntheticSpec) -> SyntheticMarket:
    """Build the market in memory. Deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    n, D, C = spec.n_stocks, spec.days, spec.n_clusters
    symbols = [f"S{i:02d}" for i in range(n)]
    clusters = np.array([i * C // n for i in range(n)])
    calendar = trading_calendar(dt.date.fromisoformat(spec.start), D)

    # state paths
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

    # conditional label means, keyed by entry day a (uses the day a-1 state)
    signals = np.full((D, n), np.nan)
    signals[1:] = _label_signal(f[:-1], r[:-1], b_rev, spec)

    # prices and bars; opens[t] = opens[t - 1] * exp(r[t]), multiplied in order
    base_price = np.exp(rng.uniform(np.log(20.0), np.log(100.0), size=n))
    growth = np.exp(r)
    growth[0] = base_price
    opens = np.multiply.accumulate(growth, axis=0)
    base_vol = np.exp(rng.uniform(np.log(2e5), np.log(8e5), size=n))
    intraday = 0.004 * rng.standard_normal((D, n))
    wick_hi = np.abs(0.002 * rng.standard_normal((D, n)))
    wick_lo = np.abs(0.002 * rng.standard_normal((D, n)))
    closes = opens * np.exp(intraday)
    highs = np.maximum(opens, closes) * np.exp(wick_hi)
    lows = np.minimum(opens, closes) * np.exp(-wick_lo)
    volumes = np.round(base_vol[None, :] * np.exp(f + 0.05 * rng.standard_normal((D, n))))

    o, c = round6(opens), round6(closes)
    arrays = {"open": o,
              "high": np.maximum(np.maximum(round6(highs), o), c),
              "low": np.minimum(np.minimum(round6(lows), o), c),
              "close": c,
              "volume": volumes}

    articles = _generate_news(spec, rng, calendar, symbols, clusters, z)
    cluster_of = {symbols[i]: int(clusters[i]) for i in range(n)}
    return SyntheticMarket(spec, calendar, symbols, cluster_of, arrays, articles,
                           signals, r)


def round6(x: np.ndarray) -> np.ndarray:
    """``round(v, 6)`` of every element of ``x``, bit for bit.

    ``rint(x * 1e6)`` is the integer nearest the exact ``x * 10**6`` unless
    the rounded product lies within its rounding error, at most
    ``|x * 1e6| * 2**-53``, of a half-integer; dividing that integer by
    ``1e6`` then rounds correctly, as ``round`` does. The few elements in a
    band of ``|x * 1e6| * 2**-50`` around a half-integer go through
    ``round`` itself; from ``|x * 1e6| >= 2**49`` the band holds every
    element, so products too large for an exact integer are ``round``'s too.
    """
    y = x * 1e6
    whole = np.rint(y)
    out = whole / 1e6
    near = np.abs(np.abs(y - whole) - 0.5) <= np.abs(y) * 2.0 ** -50
    out[near] = [round(v, 6) for v in x[near].tolist()]
    return out


def _generate_news(spec, rng, calendar, symbols, clusters, z):
    # each draw is one rng.integers call, as rng.choice makes it, so the
    # stream is the one rng.choice(...) over the same pools would consume
    n, D, C = spec.n_stocks, spec.days, spec.n_clusters
    members = [np.flatnonzero(clusters == c) for c in range(C)]
    topic_vocab = [np.array([f"t{c}w{k}" for k in range(25)]) for c in range(C)]
    common_vocab = np.array([f"comw{k}" for k in range(50)])
    pos_vocab = np.array([f"posw{k}" for k in range(10)])
    neg_vocab = np.array([f"negw{k}" for k in range(10)])

    def draw(pool, size=None):
        return pool[rng.integers(len(pool), size=size)]

    articles = []
    art_id = 0
    for t in range(D - 1):
        for c in range(C):
            count = rng.poisson(spec.news_rate / C)
            for _ in range(count):
                anchor = int(draw(members[c]))
                mentions = {anchor}
                for _ in range(int(rng.integers(1, 4))):
                    if rng.random() < spec.co_mention_fidelity or C == 1:
                        mentions.add(int(draw(members[c])))
                    else:
                        other = (c + 1 + int(rng.integers(C - 1))) % C
                        mentions.add(int(draw(members[other])))
                # tone tracks the cluster shocks inside the label window of
                # samples that will see this article (entered at day t+1)
                window = z[min(t + 2, D - 1):min(t + 1 + spec.horizon, D), c]
                actual = window.sum() if window.size else 0.0
                if rng.random() < spec.tone_fidelity:
                    tone_pool = pos_vocab if actual >= 0 else neg_vocab
                else:
                    tone_pool = pos_vocab if rng.random() < 0.5 else neg_vocab
                tokens = (draw(topic_vocab[c], 8).tolist()
                          + draw(common_vocab, 6).tolist()
                          + draw(tone_pool, 3).tolist())
                articles.append({
                    "id": f"A{art_id:07d}",
                    "date": calendar[t].isoformat(),
                    "symbols": sorted(symbols[i] for i in mentions),
                    "text": " ".join(tokens),
                })
                art_id += 1
    return articles


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------

def write_market(market: SyntheticMarket, outdir) -> dict:
    """Write bars.csv, news.jsonl, truth.json, truth_signals.csv.

    Returns the paths. Files are byte-identical across runs with the same
    spec and seed.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "bars": outdir / "bars.csv",
        "news": outdir / "news.jsonl",
        "truth": outdir / "truth.json",
        "signals": outdir / "truth_signals.csv",
    }
    with open(paths["bars"], "w", encoding="utf-8") as fh:
        fh.write("date,symbol,open,high,low,close,volume\n")
        _write_rows(fh, market.calendar, market.symbols,
                    [market.arrays[f] for f in BarPanel.FIELDS],
                    "%s,%s,%.6f,%.6f,%.6f,%.6f,%d\n")
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
        rows = np.flatnonzero(np.isfinite(market.signals).any(axis=1))
        _write_rows(fh, [market.calendar[t] for t in rows], market.symbols,
                    [market.signals[rows]], "%s,%s,%r\n")
    return paths


def _write_rows(fh, calendar, symbols, columns, line: str) -> None:
    """Write ``line % (date, symbol, *values)`` for every cell of the (D, S)
    ``columns``, date after date, one ``%``-format per block of dates."""
    n = len(symbols)
    cells = np.empty((WRITE_BLOCK_DATES, n, 2 + len(columns)), dtype=object)
    cells[:, :, 1] = symbols
    for t0 in range(0, len(calendar), WRITE_BLOCK_DATES):
        block = cells[:len(calendar) - t0]      # a view; the last block is short
        dates = [d.isoformat() for d in calendar[t0:t0 + WRITE_BLOCK_DATES]]
        block[:, :, 0] = np.array(dates, dtype=object)[:, None]
        for k, col in enumerate(columns):
            block[:, :, 2 + k] = col[t0:t0 + WRITE_BLOCK_DATES]   # Python floats
        fh.write(line * (len(dates) * n) % tuple(block.ravel().tolist()))

