"""Synthetic generator: determinism, invariants, planted-signal identity."""

import numpy as np
import pytest

from alphagraph import backtest as bt
from alphagraph import model as mdl
from alphagraph.market import BarPanel
from alphagraph.news import build_cooccurrence, load_articles
from alphagraph.synth import (SyntheticSpec, cluster_reversal_slopes, generate,
                              write_market)

from helpers import TEST_SIGNAL, cooccurrence_dense, factor_panel, read_truth_signals

SMALL = SyntheticSpec(n_stocks=10, days=60, n_clusters=2, news_rate=4.0, seed=11,
                      **TEST_SIGNAL)


def test_same_seed_identical_files(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    pa = write_market(generate(SMALL), a_dir)
    pb = write_market(generate(SMALL), b_dir)
    for key in pa:
        assert pa[key].read_bytes() == pb[key].read_bytes()


def test_different_seed_differs(tmp_path):
    import dataclasses
    other = dataclasses.replace(SMALL, seed=12)
    pa = write_market(generate(SMALL), tmp_path / "a")
    pb = write_market(generate(other), tmp_path / "b")
    assert pa["bars"].read_bytes() != pb["bars"].read_bytes()


def test_generated_bars_satisfy_invariants():
    market = generate(SMALL)
    o, h, lo, c, v = (market.arrays[f] for f in BarPanel.FIELDS)
    assert (np.minimum(np.minimum(o, h), np.minimum(lo, c)) > 0).all()
    assert (lo <= np.minimum(o, c)).all() and (np.maximum(o, c) <= h).all()
    assert (v >= 0).all()
    panel = market.panel()
    assert panel.n_dates == SMALL.days and panel.n_symbols == SMALL.n_stocks


def test_full_comention_fidelity_block_diagonal():
    spec = SyntheticSpec(n_stocks=12, days=40, n_clusters=3,
                         co_mention_fidelity=1.0, news_rate=8.0, seed=3, **TEST_SIGNAL)
    market = generate(spec)
    panel = market.panel()
    arts = [type("A", (), {"symbols": a["symbols"], "date": None})
            for a in market.articles]
    x = build_cooccurrence(arts, panel.symbols)
    dense = cooccurrence_dense(x)
    cluster = np.array([market.cluster_of[s] for s in panel.symbols])
    off_block = dense[cluster[:, None] != cluster[None, :]]
    assert off_block.sum() == 0
    assert dense.sum() > 0


def test_noiseless_oracle_r2_is_one():
    spec = SyntheticSpec(n_stocks=8, days=80, n_clusters=2, noise_std=0.0,
                         b_volume=TEST_SIGNAL["b_volume"], b_reversal=TEST_SIGNAL["b_reversal"],
                         cluster_vol=0.0, factor_innovation=0.0,
                         factor_init_scale=1.0, phi=0.995, horizon=3,
                         news_rate=2.0, seed=5)
    market = generate(spec)
    panel = market.panel()
    cfg = mdl.ModelConfig(lookback=2, n_factors=1, use_graph=False,
                          use_news=False, horizon=3, tech_dim=2, hidden=4)
    from alphagraph.factors import FactorPanel
    factors = FactorPanel(["dummy"], np.zeros((80, 8, 1)),
                          np.ones((80, 8, 1), bool), panel.calendar, panel.symbols)
    ds = mdl.build_dataset(panel, factors, None, cfg)
    keep = ds.anchor_idx >= 40
    labels = ds.labels[keep]
    sig = np.array([market.signals[a, s]
                    for a, s in zip(ds.anchor_idx[keep], ds.stock_idx[keep])])
    assert bt.r_squared(labels, sig) == pytest.approx(1.0, abs=1e-9)


def test_truth_signal_matches_pipeline_labels_statistically():
    """The sidecar signal must be an unbiased conditional mean: regressing
    realized labels on it gives slope ~ 1 at the tests' noise levels."""
    spec = SyntheticSpec(n_stocks=20, days=300, n_clusters=4, seed=7, **TEST_SIGNAL)
    market = generate(spec)
    panel = market.panel()
    cfg = mdl.ModelConfig(lookback=2, n_factors=1, use_graph=False,
                          use_news=False, horizon=spec.horizon, tech_dim=2, hidden=4)
    from alphagraph.factors import FactorPanel
    factors = FactorPanel(["dummy"], np.zeros((300, 20, 1)),
                          np.ones((300, 20, 1), bool), panel.calendar, panel.symbols)
    ds = mdl.build_dataset(panel, factors, None, cfg)
    sig = np.array([market.signals[a, s] for a, s in zip(ds.anchor_idx, ds.stock_idx)])
    slope = np.cov(sig, ds.labels)[0, 1] / np.var(sig)
    assert slope == pytest.approx(1.0, abs=0.1)


def test_truth_sidecar_round_trip(tmp_path):
    market = generate(SMALL)
    paths = write_market(market, tmp_path)
    table = read_truth_signals(paths["signals"])
    sym = market.symbols[3]
    a = 30
    assert table[(market.calendar[a], sym)] == pytest.approx(market.signals[a, 3])


def test_news_file_loads_through_pipeline(tmp_path):
    market = generate(SMALL)
    paths = write_market(market, tmp_path)
    articles = load_articles(paths["news"])
    assert len(articles) == len(market.articles)
    assert all(a.tokens for a in articles)
    tagged = {s for a in articles for s in a.symbols}
    assert tagged <= set(market.symbols)


def test_cluster_reversal_slopes_mean_preserved():
    spec = SyntheticSpec(n_clusters=5, b_reversal=0.2, reversal_spread=0.6)
    slopes = cluster_reversal_slopes(spec)
    assert len(slopes) == 5
    assert slopes.mean() == pytest.approx(0.2)
    assert slopes.max() > slopes.min()


def test_factors_recover_planted_volume_signal():
    """The volume z-score factor must correlate with the latent activity
    state that drives it."""
    spec = SyntheticSpec(n_stocks=6, days=200, n_clusters=2, seed=9, **TEST_SIGNAL)
    market = generate(spec)
    panel = market.panel()
    fp = factor_panel(panel, {"volume_z": [63]})
    k = fp.factor_names.index("volume_z_63")
    # generated activity state, recomputed independently of the factor path
    rng = np.random.default_rng(spec.seed)
    n, D, C = spec.n_stocks, spec.days, spec.n_clusters
    rng.standard_normal((D, C))          # z draws
    rng.standard_normal((D, n))          # eps draws
    eta = rng.standard_normal((D, n))
    f = np.zeros((D, n))
    f[0] = spec.factor_innovation * eta[0]
    for t in range(1, D):
        f[t] = spec.phi * f[t - 1] + spec.factor_innovation * eta[t]
    valid = fp.mask[:, :, k]
    corr = np.corrcoef(fp.values[:, :, k][valid], f[valid])[0, 1]
    assert corr > 0.7
