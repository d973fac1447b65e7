"""Workload definitions: synthetic market spec, pipeline config and stages.

Each workload is sized so that one pass of its pipeline takes a few seconds
on a 2-core machine with BLAS pinned to one thread, which lets a single
benchmark run repeat the pipeline and report medians.
"""

from __future__ import annotations

from dataclasses import dataclass

# Factor set of the acceptance recovery workload (tests/test_acceptance.py).
RECOVERY_REGISTRY = {"momentum": [5, 10, 21], "reversal": [1], "volatility": [21],
                     "volume_z": [63], "rsi": [14], "ma_ratio": [21], "amihud": [21]}

RETRAIN_STAGES = ("train", "predict", "backtest", "quantiles")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict                 # SyntheticSpec fields other than the seed
    config: dict                # pipeline config sections (paths/split/seed filled at run time)
    stages: tuple               # (command, extra argv) in pipeline order
    train_frac: float           # share of the calendar up to split.train_end

    @property
    def commands(self) -> tuple:
        return tuple(c for c, _ in self.stages)


def _model(**kw) -> dict:
    base = {"lookback": 5, "tech_dim": 16, "hidden": 10, "attn_hidden": 4,
            "temporal_hidden": 8, "horizon": 1, "epochs": 2, "lr": 3e-3,
            "batch_size": 256, "val_fraction": 0.2, "patience": 30}
    base.update(kw)
    return base


_COMMON = {
    "universe": {"min_median_dollar_volume": 1e6, "min_price": 1.0,
                 "min_history": 100},
    "factors": RECOVERY_REGISTRY,
    "simulator": {"horizon": 1},
}

# A stronger planted signal than the acceptance recovery market (three times
# its volume coefficient, 0.45 of its idiosyncratic noise, 0.75 of its
# cluster noise), so that a short training run learns it and the quality
# metrics vary little from seed to seed.
_SIGNAL = {"n_clusters": 5, "horizon": 1, "b_volume": 0.036, "b_reversal": 0.30,
           "noise_std": 0.0045, "cluster_vol": 0.003}

NEWS_TEXT = Workload(
    name="news-text",
    why=("Full model, all ten CLI stages, news on: training 28%, CBOW 13%, "
         "factors 10%, GloVe and neighbor attention about 4% each, stage "
         "start-up and import 19%."),
    synth=dict(_SIGNAL, n_stocks=40, days=400, news_rate=2.5),
    config=dict(_COMMON,
                # at the default lr of 0.025 one epoch on this small corpus
                # leaves the loss within 2e-4 of ln 2, its untrained value
                word2vec={"dim": 8, "epochs": 1, "lr": 0.25, "min_count": 5,
                          "window": 5, "negatives": 5},
                glove={"dim": 8, "epochs": 40, "lr": 0.01},
                graph={"k": 5},
                model=_model(epochs=3, lr=2e-3, batch_size=128)),
    stages=(("ingest", ()), ("cooccur", ()), ("train-word2vec", ()),
            ("train-glove", ()), ("graph", ()), ("train", ("--ablation", "Full")),
            ("predict", ()), ("backtest", ("--simulator", "longshort")),
            ("quantiles", ()), ("interpret", ())),
    train_frac=0.5,
)

WIDE_PANEL = Workload(
    name="wide-panel",
    why=("Tech ablation, wide panel, bulk predict, markowitz: factors, "
         "build_dataset and bar CSV parsing take about half, start-up and "
         "import 13%; graph attention and CBOW are not run."),
    synth=dict(_SIGNAL, n_stocks=120, days=600, news_rate=1.0),
    config=dict(_COMMON,
                glove={"dim": 4, "epochs": 20, "lr": 0.01},
                model=_model(epochs=1),
                # heavier covariance shrinkage keeps the markowitz Sharpe
                # ratio steady from seed to seed
                simulator={"horizon": 1, "shrinkage": 0.5}),
    stages=(("ingest", ()), ("cooccur", ()), ("train-glove", ()),
            ("train", ("--ablation", "Tech")), ("predict", ()),
            ("backtest", ("--simulator", "markowitz")), ("quantiles", ())),
    train_frac=0.3,
)

WORKLOADS = {w.name: w for w in (NEWS_TEXT, WIDE_PANEL)}

ALL_COMMANDS = ("ingest", "cooccur", "train-word2vec", "train-glove", "graph",
                "train", "predict", "backtest", "quantiles", "interpret")
