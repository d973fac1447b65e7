"""Micro-benchmarks of the three data-preparation steps on a 120 x 600 market.

Run from the repository root (tier-1 does not collect this directory):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_dataprep.py --benchmark-only

``--benchmark-autosave`` stores the results under ``.benchmarks/`` and
``--benchmark-compare`` sets them against the last saved run.
"""

import pytest

from alphagraph.factors import compute_factors
from alphagraph.market import load_bars
from alphagraph.model import ModelConfig, build_dataset
from alphagraph.synth import SyntheticSpec, generate, write_market

# the factor set of the acceptance recovery workload
REGISTRY = {"momentum": [5, 10, 21], "reversal": [1], "volatility": [21],
            "volume_z": [63], "rsi": [14], "ma_ratio": [21], "amihud": [21]}


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    spec = SyntheticSpec(n_stocks=120, days=600, news_rate=1.0, seed=1)
    path = write_market(generate(spec), tmp_path_factory.mktemp("bench"))["bars"]
    panel = load_bars(path)
    return path, panel, compute_factors(panel, REGISTRY)


def test_bench_load_bars(benchmark, market):
    path, panel, _ = market
    out = benchmark(load_bars, path)
    assert out.n_symbols == panel.n_symbols


def test_bench_compute_factors(benchmark, market):
    _, panel, fp = market
    out = benchmark(compute_factors, panel, REGISTRY)
    assert out.values.shape == fp.values.shape


def test_bench_build_dataset(benchmark, market):
    _, panel, fp = market
    cfg = ModelConfig(lookback=5, horizon=1, n_factors=fp.n_factors,
                      use_graph=False, use_news=False)
    ds = benchmark(build_dataset, panel, fp, None, cfg)
    assert ds.n > 0
