"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured values. Heavier pipelines are built once in
session fixtures and the stated time budgets are asserted.
"""

import datetime as dt
import json
import time

import numpy as np
import pytest

from alphagraph import autodiff as ad
from alphagraph import backtest as bt
from alphagraph import model as M
from alphagraph import nn
from alphagraph.autodiff import Tensor
from alphagraph.cli import main as cli_main
from alphagraph.config import sha256_file
from alphagraph.embeddings import (StockEmbeddingSet, StockGraph,
                                   attention_representation, build_knn_graph,
                                   glove_loss_and_grads, glove_weight,
                                   train_glove)
from alphagraph.model import Dataset, FeatureStore, ModelConfig
from alphagraph.news import (CooccurrenceMatrix, NewsArticle, build_cooccurrence,
                             build_vocabulary, clean_tokens,
                             daily_stock_news_vectors)
from alphagraph.samples import _sample_windows
from alphagraph.synth import SyntheticSpec, generate
from alphagraph.word2vec import train_cbow

from helpers import (add, build_ridge_features, factor_panel, forecast_stats, gradient_check,
                     markowitz_closed_form, mean, mul, mul_rows, news_rows, ridge_predict,
                     ridge_scan, sigmoid, stack_rows, synthetic_panel, take_row)

N_SEEDS = 10
PRIMITIVE_TOL = 1e-6
END_TO_END_TOL = 1e-4


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. Gradient integrity
# ---------------------------------------------------------------------------

def _tiny_model_world(seed):
    rng = np.random.default_rng(seed)
    n, T, l, m, d, dw, hidden = 4, 3, 5, 4, 3, 4, 6
    D = 10
    cfg = ModelConfig(lookback=T, embed_dim=d, n_factors=l,
                      tech_dim=m, news_dim=dw, hidden=hidden, attn_hidden=3,
                      temporal_hidden=3, horizon=1, seed=seed)
    emb = StockEmbeddingSet(tuple(f"S{i}" for i in range(n)),
                            rng.normal(size=(n, d)), np.zeros(n))
    graph = StockGraph(emb.symbols, np.array([[1, 2], [0, 3], [3, 0], [2, 1]]),
                       np.ones((4, 2)))
    store = FeatureStore(tuple(range(D)), emb.symbols, rng.normal(size=(D, n, l)),
                         news_rows(rng.normal(size=(D, n, dw))))
    params = M.build_params(cfg, rng, emb)
    stock_idx = np.array([0, 1, 2, 3, 0, 1])
    anchor_idx = np.array([3, 4, 5, 6, 7, 8])
    labels = rng.normal(scale=0.1, size=6)
    return cfg, params, store, graph, stock_idx, anchor_idx, labels


def test_criterion_1_gradient_integrity():
    start = time.monotonic()
    worst = {"primitives": 0.0, "attention": 0.0, "lstm": 0.0, "bilstm": 0.0,
             "temporal": 0.0, "end_to_end": 0.0}
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(seed)

        # primitive set
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        v = Tensor(rng.normal(size=6) + np.sign(rng.normal(size=6)) * 0.2,
                   requires_grad=True)
        s = Tensor(rng.normal(size=3), requires_grad=True)
        probe = Tensor(rng.normal(size=5), requires_grad=False)
        softmax_readout = rng.normal(size=4)

        cases = [
            (lambda: mean(ad.affine(x, w, b)), [x, w, b]),
            (lambda: mean(ad.relu(v)), [v]),
            (lambda: mean(ad.tanh(v)), [v]),
            (lambda: mean(sigmoid(v)), [v]),
            (lambda: mean(ad.matmul(ad.softmax(ad.gather_rows(x, [0])),
                                    Tensor(softmax_readout))), [x]),
            (lambda: mean(ad.concat([v, v], axis=0)), [v]),
            (lambda: mean(add(mul(take_row(x, 1), take_row(x, 2)),
                                    take_row(x, 0))), [x]),
            (lambda: mean(mul_rows(x, s)), [x, s]),
            (lambda: mean(ad.gather_rows(x, np.array([0, 2, 2]))), [x]),
            (lambda: ad.sq_error(ad.affine(ad.gather_rows(x, [0]), w, b), probe.values[None]),
             [x, w, b]),
        ]
        for build, params in cases:
            worst["primitives"] = max(worst["primitives"],
                                      gradient_check(build, params, h=1e-5, seed=seed))

        # stock attention layer
        e = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        aw = Tensor(rng.normal(scale=0.5, size=(6, 4)), requires_grad=True)
        ab = Tensor(np.zeros(4), requires_grad=True)
        av = Tensor(rng.normal(scale=0.5, size=4), requires_grad=True)

        def attn():
            rep, _ = attention_representation(ad.gather_rows(e, [0]),
                                              ad.gather_rows(e, [[1, 3, 4]]),
                                              aw, ab, av)
            return mean(rep)

        worst["attention"] = max(worst["attention"],
                                 gradient_check(attn, [e, aw, ab, av], h=1e-5, seed=seed))

        # LSTM recurrence over three steps, both directions, so that the
        # forget gate and the recurrent matrix get non-zero gradients
        lstm_params = {}
        nn.init_lstm_params(rng, 3, 4, lstm_params, "c")
        xs = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        windows = np.array([[0, 1, 2]])  # one sequence of the three rows

        def recurrence():
            zx = ad.affine(xs, lstm_params["c.w"], lstm_params["c.b"])
            return mean(add(ad.lstm(zx, windows, lstm_params["c.u"]),
                            ad.lstm(zx, windows, lstm_params["c.u"], reverse=True)))

        worst["lstm"] = max(worst["lstm"],
                            gradient_check(recurrence, list(lstm_params.values()) + [xs],
                                           h=1e-5, seed=seed))

        # BiLSTM
        bi_params = {}
        nn.init_bilstm_params(rng, 2, 3, bi_params, "b")
        seq = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def bi():
            return mean(nn.bilstm(seq, windows, bi_params, "b"))

        worst["bilstm"] = max(worst["bilstm"],
                              gradient_check(bi, list(bi_params.values()) + [seq],
                                             h=1e-5, seed=seed))

        # temporal attention
        tp = {}
        nn.init_score_net(rng, 4, 3, tp, "t")
        vs = [Tensor(rng.normal(size=4), requires_grad=True) for _ in range(4)]

        def temporal():
            rows = stack_rows(vs)
            beta = ad.softmax(ad.reshape(nn.score_net(rows, tp, "t"), (1, 4)))
            return mean(ad.matmul(beta, rows))

        worst["temporal"] = max(worst["temporal"],
                                gradient_check(temporal, list(tp.values()) + vs,
                                               h=1e-5, seed=seed))

        # full end-to-end loss on the tiny configuration
        cfg, params, store, graph, stock_idx, anchor_idx, labels = _tiny_model_world(seed)

        def full():
            yhat = M.model_forward(params, cfg, store, stock_idx, anchor_idx, graph)
            return ad.sq_error(yhat, labels)

        worst["end_to_end"] = max(worst["end_to_end"],
                                  gradient_check(full, list(params.values()), h=1e-5,
                                                 max_coords_per_param=25, seed=seed))

    elapsed = time.monotonic() - start
    for name in ("primitives", "attention", "lstm", "bilstm", "temporal"):
        assert worst[name] <= PRIMITIVE_TOL, f"{name}: {worst[name]}"
    assert worst["end_to_end"] <= END_TO_END_TOL, f"end_to_end: {worst['end_to_end']}"
    assert elapsed < 120.0
    report(1, f"max rel errors {({k: float(f'{v:.2e}') for k, v in worst.items()})}, "
              f"{N_SEEDS} seeds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. GloVe correctness
# ---------------------------------------------------------------------------

def test_criterion_2_glove_correctness():
    start = time.monotonic()
    # analytic vs finite differences on a random instance
    rng = np.random.default_rng(0)
    counts = {}
    for i in range(4):
        for j in range(i + 1, 4):
            counts[(i, j)] = int(rng.integers(1, 40))
    x = CooccurrenceMatrix(("A", "B", "C", "D"), counts)
    rows, cols, vals = x.to_coo()
    logx = np.log(vals)
    wgt = np.array([glove_weight(v, 100.0, 0.75) for v in vals])
    emb = rng.normal(scale=0.5, size=(4, 3))
    bias = rng.normal(scale=0.1, size=4)
    _, g_emb, g_bias = glove_loss_and_grads(emb, bias, rows, cols, logx, wgt)
    h = 1e-6
    worst = 0.0
    for arr, grad in ((emb, g_emb), (bias, g_bias)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            fp = glove_loss_and_grads(emb, bias, rows, cols, logx, wgt)[0]
            flat[k] = orig - h
            fm = glove_loss_and_grads(emb, bias, rows, cols, logx, wgt)[0]
            flat[k] = orig
            numeric = (fp - fm) / (2 * h)
            worst = max(worst, abs(numeric - gflat[k]) /
                        max(abs(numeric), abs(gflat[k]), 1e-8))
    assert worst <= 1e-6

    # planted two clusters: monotone full-batch descent at lr 0.05, separation
    planted = {}
    for i in range(4):
        for j in range(i + 1, 4):
            same = (i < 2) == (j < 2)
            planted[(i, j)] = 100 if same else 1
    px = CooccurrenceMatrix(("A", "B", "C", "D"), planted)
    trained = train_glove(px, dim=8, x_max=100.0, alpha=0.75, epochs=200, lr=0.05,
                          seed=0)
    trace = trained.loss_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])), "loss not monotone"
    within, cross = [], []
    for i in range(4):
        for j in range(i + 1, 4):
            dist = np.linalg.norm(trained.vectors[i] - trained.vectors[j])
            ((within) if (i < 2) == (j < 2) else cross).append(dist)
    assert max(within) < min(cross)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(2, f"grad err {worst:.2e}, monotone over {len(trace)} steps, "
              f"separation {max(within):.3f} < {min(cross):.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Overfit sanity
# ---------------------------------------------------------------------------

def test_criterion_3_overfit_twenty_samples():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    n, T, l, d, dw = 4, 3, 5, 3, 4
    D = 15
    cfg = ModelConfig(lookback=T, embed_dim=d, n_factors=l,
                      tech_dim=4, news_dim=dw, hidden=6, attn_hidden=3,
                      temporal_hidden=3, horizon=1, epochs=500, lr=1e-2,
                      batch_size=20, val_fraction=0.0, patience=10 ** 6, seed=0)
    emb = StockEmbeddingSet(tuple(f"S{i}" for i in range(n)),
                            rng.normal(size=(n, d)), np.zeros(n))
    graph = StockGraph(emb.symbols, np.array([[1, 2], [0, 3], [3, 0], [2, 1]]),
                       np.ones((4, 2)))
    store = FeatureStore(tuple(range(D)), emb.symbols, rng.normal(size=(D, n, l)),
                         news_rows(rng.normal(size=(D, n, dw))))
    pairs = [(s, a) for s in range(n) for a in range(T, D - 1)]
    chosen = rng.choice(len(pairs), size=20, replace=False)
    stock_idx = np.asarray([pairs[k][0] for k in chosen], dtype=np.intp)
    anchor_idx = np.asarray([pairs[k][1] for k in chosen], dtype=np.intp)
    labels = rng.normal(scale=0.02, size=20)
    ds = Dataset(store, stock_idx, anchor_idx, labels)
    model = M.train(ds, cfg, emb, graph)
    first = model.trace[0]["train_mse"]
    last = model.trace[-1]["train_mse"]
    elapsed = time.monotonic() - start
    assert last <= 0.05 * first, f"{last} vs 5% of {first}"
    assert elapsed < 300.0
    report(3, f"train MSE {first:.3e} -> {last:.3e} "
              f"({100 * last / first:.2f}% of epoch 1), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Planted-signal recovery (n=50, 750 days, 2 factors, 5 clusters)
# ---------------------------------------------------------------------------

RECOVERY_REGISTRY = {"momentum": [5, 10, 21], "reversal": [1], "volatility": [21],
                     "volume_z": [63], "rsi": [14], "ma_ratio": [21], "amihud": [21]}


@pytest.fixture(scope="session")
def recovery_world():
    start = time.monotonic()
    spec = SyntheticSpec(horizon=1, b_volume=0.012, b_reversal=0.30, noise_std=0.01, seed=42)
    market = generate(spec)
    panel = synthetic_panel(market)
    factors = factor_panel(panel, RECOVERY_REGISTRY)
    articles = [NewsArticle(a["id"], dt.date.fromisoformat(a["date"]),
                            a["symbols"], clean_tokens(a["text"]))
                for a in market.articles]
    cal = panel.calendar
    train_end = cal[599]
    (_, last_train), (first_test, last_test) = _sample_windows(
        {"split": {"train_end": train_end.isoformat(), "gap_days": 10}}, cal)
    train_articles = [a for a in articles if a.date <= train_end]
    corpus = [a.tokens for a in train_articles]
    wordvecs = train_cbow(corpus, build_vocabulary(corpus, 10), dim=16, window=5,
                          negatives=5, epochs=3, lr=0.025, seed=1)
    stockvecs = train_glove(build_cooccurrence(train_articles, panel.symbols),
                            dim=8, x_max=100.0, alpha=0.75, epochs=300, lr=0.01, seed=2)
    graph = build_knn_graph(stockvecs, 5)
    news_panel = daily_stock_news_vectors(articles, wordvecs, panel.symbols, cal)
    cfg = ModelConfig(lookback=5, embed_dim=8,
                      n_factors=factors.n_factors, tech_dim=8, news_dim=16,
                      hidden=10, attn_hidden=4, temporal_hidden=8, horizon=1,
                      epochs=220, lr=2e-3, batch_size=256, patience=30, seed=7)
    ds = M.build_dataset(panel, factors, news_panel, cfg)
    train_ds = ds.split_by_anchor(0, last_train)
    test_ds = ds.split_by_anchor(first_test, last_test)
    return dict(market=market, panel=panel, cfg=cfg, stockvecs=stockvecs,
                graph=graph, train_ds=train_ds, test_ds=test_ds, start=start)


def test_criterion_4_planted_signal_recovery(recovery_world):
    w = recovery_world
    market, cfg = w["market"], w["cfg"]
    train_ds, test_ds = w["train_ds"], w["test_ds"]

    # (c) graph purity
    cluster = np.array([market.cluster_of[s] for s in w["panel"].symbols])
    per_stock = [np.mean([cluster[j] == cluster[i] for j in w["graph"].neighbors[i]])
                 for i in range(len(cluster))]
    assert min(per_stock) >= 0.9

    # noiseless-oracle R2 from the generator sidecar signal
    signal = np.array([market.signals[a, s]
                       for a, s in zip(test_ds.anchor_idx, test_ds.stock_idx)])
    r2_oracle = bt.r_squared(test_ds.labels, signal)

    # (a) ridge baseline with the published penalty range
    x_train = build_ridge_features(train_ds, cfg, w["stockvecs"])
    x_test = build_ridge_features(test_ds, cfg, w["stockvecs"])
    beta, icpt, lam = ridge_scan(x_train, train_ds.labels,
                                   [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0],
                                   seed=0)
    r2_ridge = bt.r_squared(test_ds.labels, ridge_predict(x_test, beta, icpt))
    assert r2_ridge >= 0.5 * r2_oracle

    # (b) full model within 0.02 of ridge
    model = M.train(train_ds, cfg, w["stockvecs"], w["graph"])
    forecast, _ = M.predict(model, test_ds)
    aligned = forecast.aligned()
    r2_model = bt.r_squared(forecast.y[aligned], forecast.yhat[aligned])
    assert r2_model >= r2_ridge - 0.02

    elapsed = time.monotonic() - w["start"]
    assert elapsed < 900.0
    report(4, f"oracle R2 {r2_oracle:.4f}, ridge {r2_ridge:.4f} (lam {lam:g}), "
              f"model {r2_model:.4f}, graph purity {min(per_stock):.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. Metric oracles
# ---------------------------------------------------------------------------

def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        y = rng.normal(size=n)
        yh = rng.normal(size=n)

        r2 = bt.r_squared(y, yh)
        r2_brute = 1.0 - np.sum((y - yh) ** 2) / np.sum((y - np.mean(y)) ** 2)
        assert abs(r2 - r2_brute) <= 1e-10

        sr = bt.sharpe(y, rf=0.001, annualization=1.0)
        excess = y - 0.001
        sr_brute = np.mean(excess) / np.std(excess, ddof=1)
        assert abs(sr - sr_brute) <= 1e-10

        reports = bt.quantile_analysis(yh[None, :], y[None, :], thresholds=(1,))
        ppd_brute = np.mean(np.sign(yh) * y) * 1e4
        assert abs(reports[1].ppd_bps - ppd_brute) <= 1e-10

        _, corr, _ = forecast_stats(yh[None, :], y[None, :])
        corr_brute = (np.mean((yh - yh.mean()) * (y - y.mean()))
                      / (yh.std() * y.std()))
        assert abs(corr[0] - corr_brute) <= 1e-10
    report(5, "R2, Sharpe, PPD, daily correlation vs brute force on "
              "100 random instances, all within 1e-10")


# ---------------------------------------------------------------------------
# 6. Simulator invariants
# ---------------------------------------------------------------------------

def test_criterion_6_simulator_invariants():
    from test_market import weekday_calendar
    rng = np.random.default_rng(7)
    D, S = 40, 8
    yhat = rng.normal(size=(D, S))
    rets = rng.normal(0, 0.02, size=(D, S))
    cal = weekday_calendar(D)
    syms = [f"S{i}" for i in range(S)]

    ledger = bt.simulate_longshort(yhat, rets, cal, syms, horizon=5)
    neutrality = np.max(np.abs(ledger.positions.sum(axis=1)))
    assert neutrality <= 1e-12

    cut = 19
    zeroed = rets.copy()
    zeroed[cut + 1:] = 0.0
    trimmed = bt.simulate_longshort(yhat, zeroed, cal, syms, horizon=5)
    assert np.array_equal(ledger.pnl[:cut + 1], trimmed.pnl[:cut + 1])
    assert np.array_equal(ledger.positions[:cut + 1], trimmed.positions[:cut + 1])

    yh_row = rng.normal(size=S)
    w_closed = markowitz_closed_form(yh_row, np.eye(S), 0.5)
    assert np.max(np.abs(w_closed - yh_row)) <= 1e-9
    report(6, f"dollar neutrality {neutrality:.1e}, future-zeroing exact, "
              f"closed-form max dev {np.max(np.abs(w_closed - yh_row)):.1e}")


# ---------------------------------------------------------------------------
# 7. Quantile analysis
# ---------------------------------------------------------------------------

def test_criterion_7_quantile_analysis():
    rng = np.random.default_rng(11)
    yhat = rng.normal(size=(20, 12))
    y = rng.normal(0, 0.02, size=(20, 12))
    reports = bt.quantile_analysis(yhat, y)
    expected = np.mean(np.sign(yhat) * y) * 1e4
    assert reports[1].ppd_bps == pytest.approx(expected, abs=1e-12)
    for t in range(20):
        for qr in (2, 3, 4):
            assert np.all(reports[qr - 1].members[t][reports[qr].members[t]])

    hand_yh = np.array([[0.03, -0.02, 0.01, -0.005]])
    hand_y = np.array([[0.02, 0.01, -0.01, -0.02]])
    hand = bt.quantile_analysis(hand_yh, hand_y)
    assert hand[1].ppd_bps == pytest.approx(50.0, abs=1e-9)
    report(7, f"QR=1 PPD exact ({reports[1].ppd_bps:.4f} bps), buckets nested, "
              f"hand example 50.0 bps")


# ---------------------------------------------------------------------------
# 8. Temporal attention shape (qualitative diagnostic)
# ---------------------------------------------------------------------------

def test_criterion_8_temporal_attention_recency():
    rng = np.random.default_rng(0)
    D, S, L, T = 120, 8, 4, 5
    cfg = ModelConfig(lookback=T, n_factors=L, tech_dim=6, hidden=8,
                      attn_hidden=3, temporal_hidden=4, horizon=1,
                      use_graph=False, use_news=False, epochs=120, lr=5e-3,
                      batch_size=128, val_fraction=0.1, patience=200, seed=1)
    factors = rng.normal(size=(D, S, L))
    store = FeatureStore(tuple(range(D)), tuple(f"S{i}" for i in range(S)),
                         factors, None)
    w_true = np.array([0.5, -0.3, 0.2, 0.1])
    stock_idx, anchor_idx, labels = [], [], []
    for s in range(S):
        for a in range(T, D - 1):
            stock_idx.append(s)
            anchor_idx.append(a)
            # label driven by the newest feature day only
            labels.append(factors[a - 1, s] @ w_true + 0.05 * rng.normal())
    ds = Dataset(store, np.asarray(stock_idx, dtype=np.intp),
                 np.asarray(anchor_idx, dtype=np.intp), np.asarray(labels))
    model = M.train(ds, cfg, None, None)
    _, beta = M.predict(model, ds)
    assert beta.sum() == pytest.approx(1.0, abs=1e-9)
    # diagnostic shape: newest lag outweighs the oldest
    assert beta[-1] > beta[0]
    report(8, f"mean temporal weights oldest->newest {np.round(beta, 4).tolist()}")


# ---------------------------------------------------------------------------
# 9. End-to-end CLI determinism
# ---------------------------------------------------------------------------

def _smoke_config(tmp_path):
    cfg = {
        "universe": {"min_median_dollar_volume": 1e4, "min_price": 0.5,
                     "min_history": 40},
        "factors": {"momentum": [5, 10], "reversal": [1], "volatility": [10],
                    "volume_z": [21], "ma_ratio": [10]},
        "word2vec": {"dim": 12, "epochs": 2, "min_count": 5},
        "glove": {"dim": 4, "epochs": 150, "lr": 0.02},
        "graph": {"k": 3},
        "model": {"lookback": 3, "tech_dim": 6, "hidden": 8, "attn_hidden": 3,
                  "temporal_hidden": 4, "horizon": 3, "epochs": 3,
                  "batch_size": 128, "patience": 5},
        "split": {"train_end": "2015-04-06", "gap_days": 5},
        "synth": {"n_stocks": 10, "days": 120, "n_clusters": 2,
                  "news_rate": 5.0, "horizon": 3},
        "seed": 23,
    }
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(cfg))
    return path


COMMANDS = ["synth", "ingest", "cooccur", "train-word2vec", "train-glove",
            "graph", "train", "predict", "backtest", "quantiles", "interpret"]


def test_criterion_9_end_to_end_smoke(tmp_path):
    start = time.monotonic()
    cfg_path = _smoke_config(tmp_path)
    hashes = []
    for run_dir in (tmp_path / "run_a", tmp_path / "run_b"):
        for command in COMMANDS:
            argv = [command, "--config", str(cfg_path), "--out", str(run_dir)]
            assert cli_main(argv) == 0, command
        hashes.append({c: sha256_file(run_dir / f"{c.replace('-', '_')}_manifest.json")
                       for c in COMMANDS})
        assert (run_dir / "metrics.csv").exists()
    assert hashes[0] == hashes[1], "manifest hashes differ between runs"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(9, f"{len(COMMANDS)} commands x 2 runs, identical manifest hashes, "
              f"{elapsed:.1f}s")
