"""Micro-benchmarks of the model's forward pass: one Full training batch
(forward, backward and Adam step) at the news-text shape of perfbench, and one
prediction chunk of the Tech model at its wide-panel shape.

Run from the repository root (tier-1 does not collect this directory):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_model.py --benchmark-only

``--benchmark-autosave`` stores the results under ``.benchmarks/`` and
``--benchmark-compare`` sets them against the last saved run.
"""

import numpy as np
import pytest

from alphagraph import autodiff as ad
from alphagraph import nn
from alphagraph.autodiff import Tape
from alphagraph.config import ModelConfig, ablation_config
from alphagraph.embeddings import StockEmbeddingSet, build_knn_graph
from alphagraph.model import EVAL_CHUNK, FeatureStore, build_params, model_forward

# the model settings of perfbench's workloads
BASE = ModelConfig(lookback=5, embed_dim=8, n_factors=9, tech_dim=16, news_dim=8,
                   hidden=10, attn_hidden=4, temporal_hidden=8, seed=1)


def world(ablation, n_stocks, n_days, n_samples):
    rng = np.random.default_rng(1)
    cfg = ablation_config(ablation, BASE)
    symbols = tuple(f"S{i}" for i in range(n_stocks))
    shape = (n_days, n_stocks)
    factors = rng.normal(size=shape + (cfg.n_factors,))
    # every cell has news: one row per cell, then the zero row
    news = np.concatenate([rng.normal(size=(n_days * n_stocks, cfg.news_dim)),
                           np.zeros((1, cfg.news_dim))])
    store = FeatureStore(tuple(range(n_days)), symbols, factors,
                         (news, np.arange(n_days * n_stocks).reshape(shape)))
    emb = StockEmbeddingSet(symbols, rng.normal(size=(n_stocks, cfg.embed_dim)),
                            np.zeros(n_stocks))
    params = build_params(cfg, rng, emb)
    for t in params.values():
        t.values = rng.normal(scale=0.3, size=t.shape)
    stocks = rng.integers(0, n_stocks, size=n_samples)
    anchors = rng.integers(cfg.lookback, n_days, size=n_samples)
    labels = rng.normal(scale=0.01, size=n_samples)
    return cfg, store, build_knn_graph(emb, 5), params, stocks, anchors, labels


def test_bench_full_training_batch(benchmark):
    cfg, store, graph, params, stocks, anchors, labels = world("Full", 40, 400, 128)
    adam = nn.Adam(params, lr=1e-3)

    def step():
        adam.zero_grad()
        with Tape() as tape:
            loss = ad.sq_error(model_forward(params, cfg, store, stocks, anchors, graph),
                               labels)
            tape.backward(loss)
        adam.step()
        return len(tape)

    assert benchmark(step) <= 32


def test_bench_tech_predict_chunk(benchmark):
    cfg, store, graph, params, stocks, anchors, _ = world("Tech", 120, 600, EVAL_CHUNK)
    out = benchmark(model_forward, params, cfg, store, stocks, anchors, graph)
    assert out.shape == (EVAL_CHUNK,)
