"""The batched forward pass against the per-stock, per-gate reference.

``ref_forward`` below is the forward the batched ``model_forward`` replaced,
kept here so the two can be compared: one attention call per distinct
stock, four separate gate affines per LSTM step on the column blocks of
the fused LSTM parameters, each step's input projected inside the
recurrence, and temporal pooling as a chain of T row-scaled adds. The
batched form sums some dot products in another order, so outputs are
compared to 1e-12 and parameter gradients to 1e-10, relative to the
largest magnitude of each array.
"""

import numpy as np
import pytest

from alphagraph import autodiff as ad
from alphagraph import nn
from alphagraph.autodiff import Tape, Tensor
from alphagraph.config import ModelConfig, ablation_config
from alphagraph.embeddings import StockEmbeddingSet, StockGraph
from alphagraph.model import FeatureStore, build_params, model_forward

from helpers import add, gate_block, mul, mul_rows, news_rows, sigmoid, stack, take_col

OUT_RTOL = 1e-12
GRAD_RTOL = 1e-10


# ---------------------------------------------------------------------------
# per-stock / per-gate reference
# ---------------------------------------------------------------------------

def ref_attention(emb, i, nbrs, w, b, v):
    """Stock i's (1, d) representation, attending over its neighbors ``nbrs``."""
    k = len(nbrs)
    rows = ad.gather_rows(emb, nbrs)
    pairs = ad.concat([ad.gather_rows(emb, [i] * k), rows], axis=1)
    scores = ad.matmul(ad.tanh(ad.affine(pairs, w, b)), v)
    return ad.matmul(ad.softmax(ad.reshape(scores, (1, k))), rows)


def ref_lstm_cell(x, h_prev, c_prev, gates):
    """One step with four separate gate affines; ``gates`` maps each of
    "ifgo" to its (w, u, b) blocks."""
    def gate(name, activation):
        w, u, b = gates[name]
        return activation(add(ad.affine(x, w, b), ad.matmul(h_prev, u)))

    i = gate("i", sigmoid)
    f = gate("f", sigmoid)
    g = gate("g", ad.tanh)
    o = gate("o", sigmoid)
    c_t = add(mul(f, c_prev), mul(i, g))
    return mul(o, ad.tanh(c_t)), c_t


def ref_bilstm(xs, hidden, params, prefix):
    def run(seq, sub):
        gates = {name: tuple(gate_block(params[f"{prefix}.{sub}.{piece}"], name)
                             for piece in "wub")
                 for name in "ifgo"}
        h = Tensor(np.zeros((xs[0].shape[0], hidden)))
        c = Tensor(np.zeros((xs[0].shape[0], hidden)))
        out = []
        for x in seq:
            h, c = ref_lstm_cell(x, h, c, gates)
            out.append(h)
        return out

    fwd = run(xs, "fwd")
    bwd = run(xs[::-1], "bwd")[::-1]
    return [ad.concat([f, b], axis=-1) for f, b in zip(fwd, bwd)]


def ref_forward(params, cfg, store, stock_idx, anchor_idx, graph):
    parts_static = None
    if cfg.use_graph:
        emb = params["graph.emb"]
        uniq = sorted(set(int(i) for i in stock_idx))
        reps = [ref_attention(emb, i, graph.neighbors[i], params["graph.attn.w"],
                              params["graph.attn.b"], params["graph.attn.v"]) for i in uniq]
        pos = {i: r for r, i in enumerate(uniq)}
        parts_static = ad.gather_rows(ad.concat(reps, axis=0), [pos[int(i)] for i in stock_idx])
    tech_w = None
    if cfg.use_tech:
        tech_w = ad.relu(params["tech.w"]) if cfg.nonneg_tech else params["tech.w"]
    xs = []
    T = cfg.lookback
    for lag in range(T):
        days = anchor_idx - T + lag
        parts = [parts_static] if parts_static is not None else []
        if cfg.use_tech:
            f = Tensor(store.factors[days, stock_idx])
            parts.append(ad.relu(ad.affine(f, tech_w, params["tech.b"])))
        if cfg.use_news:
            parts.append(Tensor(store.news_at(days, stock_idx)))
        xs.append(parts[0] if len(parts) == 1 else ad.concat(parts, axis=1))
    vs = ref_bilstm(xs, cfg.hidden, params, "lstm")
    beta = ad.softmax(stack([nn.score_net(v, params, "temporal") for v in vs], axis=1))
    pooled = mul_rows(vs[0], take_col(beta, 0))
    for k, v in enumerate(vs[1:], start=1):
        pooled = add(pooled, mul_rows(v, take_col(beta, k)))
    return ad.add_bias(ad.matmul(pooled, params["head.w"]), params["head.b"])


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

N_STOCKS, N_DAYS = 12, 40


def world(ablation="Full", seed=0, nonneg_tech=False):
    rng = np.random.default_rng(seed)
    base = ModelConfig(lookback=5, embed_dim=4, n_factors=5, tech_dim=6, news_dim=7,
                       hidden=5, attn_hidden=3, temporal_hidden=4, seed=seed,
                       nonneg_tech=nonneg_tech)
    cfg = ablation_config(ablation, base)
    symbols = tuple(f"S{i}" for i in range(N_STOCKS))
    store = FeatureStore(tuple(range(N_DAYS)), symbols,
                         rng.normal(size=(N_DAYS, N_STOCKS, 5)),
                         news_rows(rng.normal(size=(N_DAYS, N_STOCKS, 7))))
    neighbors = (np.arange(N_STOCKS)[:, None] + [1, 2, 3]) % N_STOCKS
    graph = StockGraph(symbols, neighbors, np.ones(neighbors.shape))
    emb = StockEmbeddingSet(symbols, rng.normal(size=(N_STOCKS, 4)), np.zeros(N_STOCKS))
    params = build_params(cfg, rng, emb)
    for t in params.values():  # every parameter away from its initial zeros
        t.values = rng.normal(scale=0.5, size=t.shape)
    return cfg, store, graph, params, rng


def batch(rng, n, repeat=False):
    stocks = rng.integers(0, 3 if repeat else N_STOCKS, size=n)
    anchors = rng.integers(5, N_DAYS, size=n)
    return stocks, anchors


def outputs_and_grads(forward, params, cfg, store, stocks, anchors, graph, labels):
    for t in params.values():
        t.zero_grad()
    with Tape() as tape:
        yhat = forward(params, cfg, store, stocks, anchors, graph)
        tape.backward(ad.sq_error(yhat, labels))
    grads = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.values))
             for k, t in params.items()}
    return yhat.values.copy(), grads, len(tape)


def assert_parity(cfg, store, graph, params, stocks, anchors, labels):
    y_new, g_new, _ = outputs_and_grads(model_forward, params, cfg, store, stocks, anchors,
                                        graph, labels)
    y_ref, g_ref, _ = outputs_and_grads(ref_forward, params, cfg, store, stocks, anchors,
                                        graph, labels)
    assert np.max(np.abs(y_new - y_ref)) <= OUT_RTOL * np.max(np.abs(y_ref))
    assert g_new.keys() == g_ref.keys()
    for name in g_ref:
        scale = max(np.max(np.abs(g_ref[name])), 1e-300)
        assert np.max(np.abs(g_new[name] - g_ref[name])) <= GRAD_RTOL * scale, name


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ablation", ["Full", "Graph+Tech", "Tech", "News"])
@pytest.mark.parametrize("seed", [0, 1])
def test_forward_and_gradients_match_reference(ablation, seed):
    cfg, store, graph, params, rng = world(ablation, seed)
    stocks, anchors = batch(rng, 32)
    assert_parity(cfg, store, graph, params, stocks, anchors, rng.normal(size=32))


def test_repeated_stocks_and_nonneg_tech_match_reference():
    cfg, store, graph, params, rng = world("Full", seed=3, nonneg_tech=True)
    stocks, anchors = batch(rng, 24, repeat=True)
    assert len(set(stocks.tolist())) < stocks.size
    assert_parity(cfg, store, graph, params, stocks, anchors, rng.normal(size=24))


@pytest.mark.parametrize("ablation", ["Full", "Tech"])
def test_overlapping_windows_match_reference(ablation):
    """Consecutive anchors of a stock, as predict's stock-major chunks hold
    them, share T-1 cells: each cell is computed once and read by several
    windows, in the forward and in the scatter of the backward."""
    cfg, store, graph, params, rng = world(ablation, seed=6)
    stocks = np.repeat([2, 7, 2], [9, 6, 3])
    anchors = np.concatenate([np.arange(10, 19), np.arange(20, 26), np.arange(5, 8)])
    n_cells = len({(int(a) - k, int(s)) for s, a in zip(stocks, anchors) for k in range(1, 6)})
    assert n_cells < stocks.size * cfg.lookback / 2
    assert_parity(cfg, store, graph, params, stocks, anchors, rng.normal(size=stocks.size))


@pytest.mark.parametrize("ablation", ["Full", "Tech"])
def test_single_sample_batch_matches_reference(ablation):
    cfg, store, graph, params, rng = world(ablation, seed=4)
    stocks, anchors = batch(rng, 1)
    assert_parity(cfg, store, graph, params, stocks, anchors, rng.normal(size=1))


def test_full_batch_tape_is_short():
    """One record per layer op, not per stock, gate or step."""
    cfg, store, graph, params, rng = world("Full", seed=5)
    stocks, anchors = batch(rng, 128)
    labels = rng.normal(size=128)
    _, _, records = outputs_and_grads(model_forward, params, cfg, store, stocks, anchors,
                                      graph, labels)
    _, _, ref_records = outputs_and_grads(ref_forward, params, cfg, store, stocks, anchors,
                                          graph, labels)
    assert records <= 30
    assert ref_records >= 300  # 12 distinct stocks: 9 records each, 21 per LSTM step
