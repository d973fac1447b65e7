"""Micro-benchmarks of the synthetic market set-up and the three
data-preparation steps on a 120 x 600 market, of the stock-embedding
factorization on a news-text sized co-mention matrix, and of CBOW training on
the same news-text sized corpus.

Run from the repository root (tier-1 does not collect this directory):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_dataprep.py --benchmark-only

``--benchmark-autosave`` stores the results under ``.benchmarks/`` and
``--benchmark-compare`` sets them against the last saved run.
"""

import math

import numpy as np
import pytest

from alphagraph import artifacts
from alphagraph.embeddings import train_glove
from alphagraph.factors import factor_windows
from alphagraph.market import load_bars
from alphagraph.model import ModelConfig, build_dataset
from alphagraph.news import build_cooccurrence, build_vocabulary, load_articles
from alphagraph.synth import SyntheticSpec, generate, write_market
from alphagraph.word2vec import train_cbow

# the factor set of the acceptance recovery workload
REGISTRY = {"momentum": [5, 10, 21], "reversal": [1], "volatility": [21],
            "volume_z": [63], "rsi": [14], "ma_ratio": [21], "amihud": [21]}


SPEC = SyntheticSpec(n_stocks=120, days=600, news_rate=1.0, b_volume=0.01, b_reversal=0.25,
                     noise_std=0.01, seed=1)


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    where = tmp_path_factory.mktemp("bench")
    path = write_market(generate(SPEC), where)["bars"]
    panel = load_bars(path)
    artifacts._save_factors(where / "factors.npz", panel, factor_windows(REGISTRY))
    with artifacts._NpzArrays(where / "factors.npz") as z:
        return path, panel, artifacts._read_factors(z)


def test_bench_synth(benchmark, tmp_path):
    paths = benchmark(lambda: write_market(generate(SPEC), tmp_path))
    assert paths["bars"].stat().st_size > 0


def test_bench_load_bars(benchmark, market):
    path, panel, _ = market
    out = benchmark(load_bars, path)
    assert out.n_symbols == panel.n_symbols


def test_bench_compute_factors(benchmark, market, tmp_path):
    """What ingest runs for the factors: each block of dates computed and
    streamed into factors.npz."""
    _, panel, fp = market
    path = tmp_path / "factors.npz"
    benchmark(artifacts._save_factors, path, panel, factor_windows(REGISTRY))
    with np.load(path) as z:
        assert z["values"].shape == fp.values.shape


def test_bench_build_dataset(benchmark, market):
    _, panel, fp = market
    cfg = ModelConfig(lookback=5, horizon=1, n_factors=fp.n_factors,
                      use_graph=False, use_news=False)
    ds = benchmark(build_dataset, panel, fp, None, cfg)
    assert ds.n > 0


@pytest.fixture(scope="module")
def news(tmp_path_factory):
    """The articles in the first half of a 40 x 400 market, 2.5 a day, as the
    news-text workload of perfbench trains on them, and the market's symbols."""
    spec = SyntheticSpec(n_stocks=40, days=400, news_rate=2.5, b_volume=0.01, b_reversal=0.25,
                         noise_std=0.01, seed=1)
    market = generate(spec)
    path = write_market(market, tmp_path_factory.mktemp("bench"))["news"]
    train_end = market.calendar[len(market.calendar) // 2]
    return [a for a in load_articles(path) if a.date <= train_end], market.symbols


@pytest.fixture(scope="module")
def cooccur(news):
    return build_cooccurrence(*news)


def test_bench_train_glove(benchmark, cooccur):
    emb = benchmark(train_glove, cooccur, dim=8, x_max=100.0, alpha=0.75, epochs=40,
                    lr=0.01, seed=1)
    assert len(emb.loss_trace) == 41 and emb.loss_trace[-1] < emb.loss_trace[0]


def test_bench_train_cbow(benchmark, news):
    # the news-text word2vec settings: dim 8, one epoch at lr 0.25
    corpus = [a.tokens for a in news[0]]
    vocab = build_vocabulary(corpus, min_count=5)
    emb = benchmark(train_cbow, corpus, vocab, dim=8, window=5, negatives=5, epochs=1,
                    lr=0.25, seed=1)
    assert emb.vectors.shape == (len(vocab), 8) and emb.epoch_losses[0] < math.log(2)
