"""Model assembly, training behavior, prediction purity, and the ridge
baseline of the tests (``helpers``)."""

import numpy as np
import pytest

from alphagraph import autodiff as ad
from alphagraph import model as mdl
from alphagraph.autodiff import Tensor
from alphagraph.config import ModelConfig, ablation_config
from alphagraph.embeddings import StockEmbeddingSet, StockGraph
from alphagraph.errors import ConfigError, DataError, NumericalFault, ShapeError
from alphagraph.model import (Dataset, build_dataset, build_params, model_forward, predict,
                              temporal_pool, train)

from helpers import (gate_cols, gradient_check, mse_loss, news_rows, ridge_fit,
                     ridge_predict, ridge_scan)
from test_market import make_bars  # shared panel builder


# ---------------------------------------------------------------------------
# layers of the forward pass
# ---------------------------------------------------------------------------

def tech_layer(f, w, b):
    """The technical factor embedding as model_forward applies it."""
    return ad.relu(ad.affine(Tensor(f), Tensor(w), Tensor(b))).values


def test_tech_embed_zero_weights():
    out = tech_layer(np.array([[1.0, -2.0, 3.0]]), np.zeros((3, 4)), np.zeros(4))
    assert np.array_equal(out, np.zeros((1, 4)))


def test_tech_embed_relu_clips_negative():
    w = np.eye(3)
    out = tech_layer(np.array([[-1.0, 2.0, -0.5]]), w, np.zeros(3))
    assert np.array_equal(out, [[0.0, 2.0, 0.0]])


def test_tech_embed_matches_bruteforce():
    rng = np.random.default_rng(0)
    f, w, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)
    assert np.allclose(tech_layer(f, w, b), np.maximum(f @ w + b, 0.0), atol=1e-15)


def test_tech_embed_dimension_mismatch():
    with pytest.raises(ShapeError):
        tech_layer(np.zeros((1, 4)), np.zeros((3, 2)), np.zeros(2))


def input_reaches_forecast(perturb, seed, blind_block=None):
    """Whether ``perturb(store)`` changes the forecast after the LSTM input
    rows of ``blind_block`` ("graph", "tech" or "news") are zeroed."""
    _, cfg, ds, emb, graph = tiny_world(seed=seed)
    params = build_params(cfg, np.random.default_rng(0), emb)
    params["head.w"].values[:] = 1.0
    if blind_block is not None:
        g = cfg.embed_dim
        t = g + cfg.tech_dim
        lo, hi = {"graph": (0, g), "tech": (g, t), "news": (t, cfg.input_dim())}[blind_block]
        for name, p in params.items():
            if name.startswith("lstm.") and name.endswith(".w"):
                assert p.values.shape[0] == cfg.input_dim()
                p.values[lo:hi] = 0.0
    idx = np.arange(6)

    def forward():
        return model_forward(params, cfg, ds.store, ds.stock_idx[idx],
                             ds.anchor_idx[idx], graph).values

    before = forward()
    perturb(ds.store)
    return not np.array_equal(forward(), before)


def bump_news(store):
    rows, _ = store.news
    rows += 1.0


def bump_factors(store):
    store.factors += 1.0


def test_assemble_input_order_and_lengths():
    """The per-day input is [graph c, tech g, news o]: news is the last block."""
    cfg = tiny_world()[1]
    assert cfg.input_dim() == cfg.embed_dim + cfg.tech_dim + cfg.news_dim
    assert input_reaches_forecast(bump_news, 10)
    assert not input_reaches_forecast(bump_news, 10, "news")


def test_assemble_input_disabled_news():
    _, cfg, ds, emb, graph = tiny_world(seed=11, with_news=False)
    cfg = ablation_config("Graph+Tech", cfg)
    assert cfg.input_dim() == cfg.embed_dim + cfg.tech_dim
    params = build_params(cfg, np.random.default_rng(0), emb)
    assert params["lstm.fwd.w"].shape == (cfg.input_dim(), 4 * cfg.hidden)
    out = model_forward(params, cfg, ds.store, ds.stock_idx[:3], ds.anchor_idx[:3], graph)
    assert out.shape == (3,)


def test_assemble_input_round_trip_slices():
    """The technical embedding occupies the columns between graph and news."""
    assert input_reaches_forecast(bump_factors, 12, "news")
    assert input_reaches_forecast(bump_factors, 12, "graph")
    assert not input_reaches_forecast(bump_factors, 12, "tech")


def pool(vs, w, b, u):
    """temporal_pool over T single vectors (a batch of one row)."""
    params = {"t.w": Tensor(w), "t.b": Tensor(b), "t.v": Tensor(u)}
    pooled, beta = temporal_pool(Tensor(np.stack(vs)[None]), params, "t")
    return pooled.values[0], beta.values[0]


def test_temporal_attention_identical_inputs_uniform():
    rng = np.random.default_rng(2)
    v = rng.normal(size=6)
    w, b, u = rng.normal(size=(6, 3)), np.zeros(3), rng.normal(size=3)
    pooled, beta = pool([v, v.copy(), v.copy()], w, b, u)
    assert np.allclose(beta, 1.0 / 3.0, atol=1e-12)
    assert np.allclose(pooled, v, atol=1e-12)


def test_temporal_attention_t1():
    rng = np.random.default_rng(3)
    v = rng.normal(size=4)
    pooled, beta = pool([v], rng.normal(size=(4, 2)), np.zeros(2), rng.normal(size=2))
    assert np.array_equal(beta, [1.0])
    assert np.allclose(pooled, v)


def test_temporal_attention_matches_bruteforce():
    rng = np.random.default_rng(4)
    vs = [rng.normal(size=5) for _ in range(5)]
    w, b, u = rng.normal(size=(5, 3)), rng.normal(size=3), rng.normal(size=3)
    pooled, beta = pool(vs, w, b, u)
    scores = np.array([u @ np.tanh(v @ w + b) for v in vs])
    e = np.exp(scores - scores.max())
    expected = e / e.sum()
    assert np.allclose(beta, expected, atol=1e-12)
    assert np.allclose(pooled, expected @ np.vstack(vs), atol=1e-12)
    assert beta.sum() == pytest.approx(1.0, abs=1e-12)


def head_forward(seed, w, b):
    """model_forward on six samples with the head set to (w, b)."""
    _, cfg, ds, emb, graph = tiny_world(seed=seed)
    params = build_params(cfg, np.random.default_rng(0), emb)
    params["head.w"].values = np.asarray(w, dtype=float)
    params["head.b"].values = np.asarray(b, dtype=float)
    return model_forward(params, cfg, ds.store, ds.stock_idx[:6], ds.anchor_idx[:6],
                         graph).values


def test_predict_head_linear_bias_only():
    width = 2 * tiny_world()[1].hidden
    assert np.array_equal(head_forward(13, np.zeros(width), 0.7), np.full(6, 0.7))


def test_predict_head_linear_matches_dot():
    """The forecast is linear in the head: pooled @ w + b."""
    width = 2 * tiny_world()[1].hidden
    pooled = np.column_stack([head_forward(14, np.eye(width)[k], 0.0)
                              for k in range(width)])
    w = np.random.default_rng(5).normal(size=width)
    assert np.allclose(head_forward(14, w, 0.1), pooled @ w + 0.1, atol=1e-12)


def test_mse_loss_examples():
    assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse_loss([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)
    base = mse_loss([0.0, 0.0], [1.0, 2.0])
    assert mse_loss([0.0, 0.0], [2.0, 4.0]) == pytest.approx(4 * base)
    with pytest.raises(DataError):
        mse_loss([], [])


# ---------------------------------------------------------------------------
# ablation configs
# ---------------------------------------------------------------------------

def test_ablation_flag_map():
    base = ModelConfig(n_factors=5)
    assert (lambda c: (c.use_graph, c.use_tech, c.use_news))(ablation_config("News", base)) == (False, False, True)
    assert (lambda c: (c.use_graph, c.use_tech, c.use_news))(ablation_config("Graph + Tech", base)) == (True, True, False)
    assert (lambda c: (c.use_graph, c.use_tech, c.use_news))(ablation_config("Full", base)) == (True, True, True)
    assert (lambda c: (c.use_graph, c.use_tech, c.use_news))(ablation_config("tech+news", base)) == (False, True, True)


def test_ablation_unknown_name():
    with pytest.raises(ConfigError):
        ablation_config("Everything", ModelConfig())


def test_config_validation():
    """A stored model config is checked field by field against the ranges
    of the config table, and must enable a module it can use."""
    stored = vars(ModelConfig(n_factors=3))
    assert ModelConfig.from_dict(stored) == ModelConfig(n_factors=3)
    with pytest.raises(ConfigError, match="^model.lookback must be >= 1, got 0$"):
        ModelConfig.from_dict(dict(stored, lookback=0))
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        ModelConfig.from_dict(dict(stored, seed=-1))
    with pytest.raises(ConfigError, match="at least one input module"):
        ModelConfig.from_dict(dict(stored, use_graph=False, use_tech=False, use_news=False))
    with pytest.raises(ConfigError, match="needs model.n_factors >= 1, got 0"):
        ModelConfig.from_dict(dict(stored, n_factors=0))
    assert ModelConfig.from_dict(dict(stored, n_factors=0, use_tech=False)).n_factors == 0


# ---------------------------------------------------------------------------
# dataset and training fixtures
# ---------------------------------------------------------------------------

def tiny_world(seed=0, n=4, days=30, l=5, with_graph=True, with_news=True,
               horizon=1, lookback=3):
    """Handmade panel + features small enough for exhaustive checks."""
    rng = np.random.default_rng(seed)
    prices = {f"S{i}": list(50 * np.exp(np.cumsum(rng.normal(0, 0.01, size=days))))
              for i in range(n)}
    panel = make_bars(prices)
    cfg = ModelConfig(lookback=lookback, embed_dim=3, n_factors=l,
                      tech_dim=4, news_dim=4, hidden=6, attn_hidden=3,
                      temporal_hidden=3, horizon=horizon, epochs=10, lr=5e-3,
                      batch_size=16, val_fraction=0.25, patience=50, seed=seed,
                      use_graph=with_graph, use_news=with_news)
    from alphagraph.factors import FactorPanel
    values = rng.normal(size=(days, n, l))
    factors = FactorPanel([f"f{k}" for k in range(l)], values,
                          np.ones((days, n, l), bool), panel.calendar, panel.symbols)
    news = None
    if with_news:
        from alphagraph.news import DailyNewsPanel
        vectors, row_index = news_rows(rng.normal(size=(days, n, 4)))
        news = DailyNewsPanel(panel.calendar, panel.symbols, vectors, row_index)
    emb = StockEmbeddingSet(panel.symbols, rng.normal(size=(n, 3)), np.zeros(n))
    graph = StockGraph(panel.symbols, (np.arange(n)[:, None] + [1, 2]) % n, np.ones((n, 2)))
    ds = build_dataset(panel, factors, news, cfg)
    return panel, cfg, ds, emb, graph


def test_dataset_label_hygiene_and_window():
    panel, cfg, ds, _, _ = tiny_world()
    assert ds.n > 0
    # anchors start at lookback and leave room for the label window
    assert ds.anchor_idx.min() >= cfg.lookback
    assert ds.anchor_idx.max() <= panel.n_dates - 1 - cfg.horizon
    assert np.all(np.isfinite(ds.labels))


def test_dataset_drops_windows_with_missing_bars():
    prices = {"S0": [50.0] * 30, "S1": [50.0] * 10 + [None] * 5 + [50.0] * 15}
    panel = make_bars(prices)
    from alphagraph.factors import FactorPanel
    l = 2
    rng = np.random.default_rng(0)
    factors = FactorPanel(["f0", "f1"], rng.normal(size=(30, 2, l)),
                          np.ones((30, 2, l), bool), panel.calendar, panel.symbols)
    cfg = ModelConfig(lookback=3, n_factors=l, use_graph=False, use_news=False,
                      horizon=1, tech_dim=4, hidden=4)
    ds = build_dataset(panel, factors, None, cfg)
    s1 = panel.symbol_index["S1"]
    s1_anchors = ds.anchor_idx[ds.stock_idx == s1]
    # any anchor whose window [a-3, a) touches days 10..14 must be absent
    for a in s1_anchors:
        assert not (a - 3 <= 14 and a - 1 >= 10)


def test_training_constant_zero_labels_drives_loss_to_zero():
    _, cfg, ds, emb, graph = tiny_world(seed=1)
    ds.labels[:] = 0.0
    cfg.epochs = 50
    cfg.lr = 6e-2
    cfg.val_fraction = 0.0
    model = train(ds, cfg, emb, graph)
    assert model.trace[-1]["train_mse"] <= 1e-6


def test_training_overfits_twenty_sample_toy():
    _, cfg, ds, emb, graph = tiny_world(seed=2)
    keep = np.arange(20)
    ds20 = ds.subset(keep)
    cfg.epochs = 500
    cfg.lr = 1e-2
    cfg.batch_size = 20
    cfg.val_fraction = 0.0
    model = train(ds20, cfg, emb, graph)
    first = model.trace[0]["train_mse"]
    last = model.trace[-1]["train_mse"]
    assert last <= 0.05 * first


def test_training_deterministic_per_seed():
    _, cfg, ds, emb, graph = tiny_world(seed=3)
    cfg.epochs = 4
    a = train(ds, cfg, emb, graph)
    b = train(ds, cfg, emb, graph)
    assert a.trace == b.trace
    for key in a.params:
        assert np.array_equal(a.params[key].values, b.params[key].values)


def test_training_nan_label_faults_with_location():
    _, cfg, ds, emb, graph = tiny_world(seed=4)
    ds.labels[3] = np.nan
    with pytest.raises(DataError):
        train(ds, cfg, emb, graph)


def test_training_numerical_fault_identifies_epoch():
    _, cfg, ds, emb, graph = tiny_world(seed=5)
    ds.store.factors[ds.anchor_idx[0] - 1, ds.stock_idx[0]] = np.nan
    cfg.val_fraction = 0.0
    with pytest.raises(NumericalFault) as exc:
        train(ds, cfg, emb, graph)
    assert "epoch" in str(exc.value)


def test_full_model_gradient_check_tiny_config():
    _, cfg, ds, emb, graph = tiny_world(seed=6)
    rng = np.random.default_rng(0)
    params = build_params(cfg, rng, emb)
    idx = np.arange(6)

    def f():
        yhat = model_forward(params, cfg, ds.store, ds.stock_idx[idx],
                             ds.anchor_idx[idx], graph)
        return ad.sq_error(yhat, ds.labels[idx])

    err = gradient_check(f, list(params.values()), h=1e-5,
                            max_coords_per_param=40, seed=0)
    assert err <= 1e-4


def test_ablation_containment_checkpoint_keys():
    _, cfg, ds, emb, graph = tiny_world(seed=7)
    rng = np.random.default_rng(0)
    full_keys = set(build_params(ablation_config("Full", cfg), rng, emb))
    news_keys = set(build_params(ablation_config("News", cfg),
                                 np.random.default_rng(0), None))
    graph_tech = set(build_params(ablation_config("Graph+Tech", cfg),
                                  np.random.default_rng(0), emb))
    assert not any(k.startswith(("graph.", "tech.")) for k in news_keys)
    assert news_keys < full_keys
    assert not any(k.startswith("graph.attn") and k not in graph_tech for k in full_keys - graph_tech)
    assert all(not k.startswith("tech.") or k in graph_tech for k in full_keys)
    assert full_keys - graph_tech == set()  # news module adds no parameters
    assert "graph.bias" not in full_keys    # the forward never read it


def test_predict_pure_and_order_invariant():
    _, cfg, ds, emb, graph = tiny_world(seed=8)
    cfg.epochs = 3
    model = train(ds, cfg, emb, graph)
    fc1, att1 = predict(model, ds)
    fc2, att2 = predict(model, ds)
    assert np.array_equal(fc1.yhat, fc2.yhat, equal_nan=True)
    assert np.array_equal(att1, att2)
    perm = np.random.default_rng(0).permutation(ds.n)
    fc3, att3 = predict(model, ds.subset(perm))
    finite = np.isfinite(fc1.yhat)
    assert np.array_equal(finite, np.isfinite(fc3.yhat))
    assert np.allclose(fc1.yhat[finite], fc3.yhat[finite], atol=1e-12)
    assert np.allclose(att1, att3, atol=1e-12)


def test_predict_attention_is_the_mean_over_labelled_samples(monkeypatch):
    """Summed chunk by chunk, the mean attention per lag has the bits of
    one mean over the labelled samples' weights, held at once; samples
    without a label are left out, and without any the mean is None."""
    _, cfg, ds, emb, graph = tiny_world(seed=8)
    cfg.epochs = 1
    model = train(ds, cfg, emb, graph)
    labels = ds.labels.copy()
    labels[::3] = np.nan
    unlabelled = Dataset(ds.store, ds.stock_idx, ds.anchor_idx, labels)
    monkeypatch.setattr(mdl, "EVAL_CHUNK", 7)
    idx = np.arange(ds.n)
    weights = np.concatenate([beta for _, _, beta in mdl._eval_chunks(
        model.params, cfg, ds, graph, idx)])
    _, attention = predict(model, unlabelled)
    assert np.array_equal(attention, weights[np.isfinite(labels)].mean(axis=0))
    assert attention.sum() == pytest.approx(1.0)
    labels[:] = np.nan
    assert predict(model, Dataset(ds.store, ds.stock_idx, ds.anchor_idx, labels))[1] is None


def test_single_sample_layerwise_oracle():
    """Trace one sample through every layer with plain numpy."""
    _, cfg, ds, emb, graph = tiny_world(seed=9, with_news=True)
    rng = np.random.default_rng(1)
    params = build_params(cfg, rng, emb)
    i = 0
    stock = int(ds.stock_idx[i])
    anchor = int(ds.anchor_idx[i])
    out = model_forward(params, cfg, ds.store, ds.stock_idx[[i]],
                        ds.anchor_idx[[i]], graph)

    def p(name):
        return params[name].values

    # neighbor attention
    nbrs = graph.neighbors[stock]
    e = p("graph.emb")
    scores = []
    for j in nbrs:
        pair = np.concatenate([e[stock], e[j]])
        scores.append(p("graph.attn.v") @ np.tanh(pair @ p("graph.attn.w") + p("graph.attn.b")))
    a = np.exp(scores - np.max(scores))
    a /= a.sum()
    c = a @ e[nbrs]
    # per-lag inputs
    hs = []
    for lag in range(cfg.lookback):
        day = anchor - cfg.lookback + lag
        f = ds.store.factors[day, stock]
        g = np.maximum(f @ p("tech.w") + p("tech.b"), 0.0)
        o = ds.store.news_at(day, stock)
        hs.append(np.concatenate([c, g, o]))

    def lstm_dir(seq, prefix):
        h = np.zeros(cfg.hidden)
        cc = np.zeros(cfg.hidden)
        outs = []
        for x in seq:
            def gate(gname, act):
                cols = gate_cols(gname, cfg.hidden)
                z = x @ p(f"{prefix}.w")[:, cols] + p(f"{prefix}.b")[cols] \
                    + h @ p(f"{prefix}.u")[:, cols]
                return act(z)
            sig = lambda z: 1 / (1 + np.exp(-z))
            ii, ff, gg, oo = gate("i", sig), gate("f", sig), gate("g", np.tanh), gate("o", sig)
            cc = ff * cc + ii * gg
            h = oo * np.tanh(cc)
            outs.append(h)
        return outs

    fwd = lstm_dir(hs, "lstm.fwd")
    bwd = lstm_dir(hs[::-1], "lstm.bwd")[::-1]
    vs = [np.concatenate([f_, b_]) for f_, b_ in zip(fwd, bwd)]
    sc = np.array([p("temporal.v") @ np.tanh(v @ p("temporal.w") + p("temporal.b")) for v in vs])
    beta = np.exp(sc - sc.max())
    beta /= beta.sum()
    pooled = beta @ np.vstack(vs)
    expected = pooled @ p("head.w") + p("head.b")
    assert out.values[0] == pytest.approx(float(expected), abs=1e-10)


# ---------------------------------------------------------------------------
# ridge baseline
# ---------------------------------------------------------------------------

def test_ridge_hand_least_squares():
    x = np.array([[1.0], [2.0], [3.0]])
    y = 2.0 * x[:, 0]
    beta, icpt = ridge_fit(x, y, 0.0)
    assert beta[0] == pytest.approx(2.0, abs=1e-12)
    assert icpt == pytest.approx(0.0, abs=1e-12)


def test_ridge_large_penalty_shrinks_to_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    beta, _ = ridge_fit(x, y, 1e9)
    assert np.linalg.norm(beta) <= 1e-6


def test_ridge_matches_normal_equation_inversion():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    lam = 0.3
    beta, icpt = ridge_fit(x, y, lam)
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    expected = np.linalg.inv(xc.T @ xc + lam * np.eye(3)) @ (xc.T @ yc)
    assert np.allclose(beta, expected, atol=1e-8)
    pred = ridge_predict(x, beta, icpt)
    assert np.allclose(pred, x @ beta + icpt, atol=1e-12)


def test_ridge_singular_at_zero_penalty_advises():
    x = np.ones((5, 2))  # duplicate constant columns, centered to zero
    y = np.arange(5.0)
    with pytest.raises(NumericalFault) as exc:
        ridge_fit(x, y, 0.0)
    assert "positive" in str(exc.value)


def test_ridge_scan_picks_reasonable_penalty():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 8))
    beta_true = np.zeros(8)
    beta_true[0] = 1.0
    y = x @ beta_true + 0.1 * rng.normal(size=200)
    beta, icpt, lam = ridge_scan(x, y, [1e-5, 1e-2, 10.0, 1e6], seed=0)
    assert lam != 1e6
    assert abs(beta[0] - 1.0) < 0.2
