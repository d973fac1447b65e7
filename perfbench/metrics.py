"""Metric definitions and the per-layer aggregation of a traced pass.

Every per-layer metric maps onto an end-to-end metric on a named workload
(see README.md). A layer a workload does not run reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from workloads import ALL_COMMANDS

# (name, unit, better)
END_TO_END = (
    ("pipeline_s", "s", "lower"),
    ("retrain_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("r2_test", "ratio", "higher"),
    ("r2_oracle_frac", "ratio", "higher"),
    ("sharpe", "ratio", "higher"),
)

# Layer functions whose total time over the pass is reported as <name>_s.
TIMED_CALLS = {
    "market.load_bars_s": "market.load_bars",
    "market.filter_universe_s": "market.filter_universe",
    "factors.compute_factors_s": "factors.compute_factors",
    "news.load_articles_s": "news.load_articles",
    "news.build_cooccurrence_s": "news.build_cooccurrence",
    "news.daily_stock_news_vectors_s": "news.daily_stock_news_vectors",
    "word2vec.train_cbow_s": "word2vec.train_cbow",
    "embeddings.train_glove_s": "embeddings.train_glove",
    "embeddings.build_knn_graph_s": "embeddings.build_knn_graph",
    "model.build_dataset_s": "model.build_dataset",
    "model.predict_s": "model.predict",
    "backtest.simulate_markowitz_s": "backtest.simulate_markowitz",
    "backtest.simulate_longshort_s": "backtest.simulate_longshort",
    "backtest.quantile_analysis_s": "backtest.quantile_analysis",
    "checkpoint.save_s": "checkpoint.save_checkpoint",
    "checkpoint.load_s": "checkpoint.load_checkpoint",
    "config.write_manifest_s": "config.write_manifest",
    "interpret.stage_s": "cli.interpret",
}

# Further spans the aggregation reads. trace_stage.py wraps exactly the
# functions named in TRACED_SPANS: "<module>.<attr>" under alphagraph, where
# attr may be "Class.method", or "cli.<command>" for a stage handler.
OTHER_SPANS = (
    "embeddings.attention_representation",
    "autodiff.Tape.backward",
    "nn.bilstm",
    "nn.Adam.step",
    "model.model_forward",
    "model.train",
)
TRACED_SPANS = (*TIMED_CALLS.values(), *OTHER_SPANS)

PER_LAYER = (
    ("synth.generate_s", "s", "lower"),
    ("synth.write_market_s", "s", "lower"),
    *((name, "s", "lower") for name in TIMED_CALLS),
    ("factors.cells_per_s", "1/s", "higher"),
    ("news.panel_mb", "MB", "lower"),
    ("word2vec.tokens_per_s", "1/s", "higher"),
    ("word2vec.final_loss", "nats", "lower"),
    ("embeddings.pair_updates_per_s", "1/s", "higher"),
    ("embeddings.attention_calls_per_batch", "count", "lower"),
    ("embeddings.attention_ms_per_batch", "ms", "lower"),
    ("autodiff.tape_records_per_batch", "count", "lower"),
    ("autodiff.backward_ms_per_batch", "ms", "lower"),
    ("nn.bilstm_ms_per_batch", "ms", "lower"),
    ("nn.adam_step_ms", "ms", "lower"),
    ("model.forward_ms_per_batch", "ms", "lower"),
    ("model.epoch_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    # single-stage rates: too noisy for an end-to-end bound (see README.md)
    ("cli.train_samples_per_s", "1/s", "higher"),
    ("cli.predict_samples_per_s", "1/s", "higher"),
    *((f"cli.{c}_s", "s", "lower") for c in ALL_COMMANDS),
    *((f"cli.{c}_rss_mb", "MB", "lower") for c in ALL_COMMANDS),
    ("trace.traced_pipeline_s", "s", "lower"),
    ("trace.untraced_pipeline_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _ratio(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _median_or_zero(values) -> float:
    return median(values) if values else 0.0


def layer_metrics(stages: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``stages`` maps each command to its StageRun, whose ``spans`` holds the
    document written by trace_stage.py.
    """
    spans = [s for run in stages.values() for s in run.spans["spans"]]
    busy = defaultdict(float)
    info = defaultdict(list)
    for name, start, end, _, extra in spans:
        busy[name] += end - start
        info[name].append(extra)

    m = {metric: busy[call] for metric, call in TIMED_CALLS.items()}
    m["factors.cells_per_s"] = _ratio(sum(i["cells"] for i in info["factors.compute_factors"]),
                                      busy["factors.compute_factors"])
    m["news.panel_mb"] = max((i["bytes"] for i in info["news.daily_stock_news_vectors"]),
                             default=0) / 1e6
    cbow = info["word2vec.train_cbow"]
    m["word2vec.tokens_per_s"] = _ratio(sum(i["tokens"] * i["epochs"] for i in cbow),
                                        busy["word2vec.train_cbow"])
    m["word2vec.final_loss"] = cbow[-1]["final_loss"] if cbow else 0.0
    m["embeddings.pair_updates_per_s"] = _ratio(
        sum(i["pairs"] * i["epochs"] for i in info["embeddings.train_glove"]),
        busy["embeddings.train_glove"])
    m.update(_batch_metrics(stages["train"].spans["spans"] if "train" in stages else []))
    m["model.epoch_s"] = _ratio(busy["model.train"],
                                sum(i["epochs"] for i in info["model.train"]))
    m["cli.import_s"] = median(run.spans["import_s"] for run in stages.values())
    for command in ALL_COMMANDS:
        run = stages.get(command)
        m[f"cli.{command}_s"] = run.seconds if run else 0.0
        m[f"cli.{command}_rss_mb"] = run.rss_mb if run else 0.0
    return m


def _batch_metrics(spans: list) -> dict:
    """Training-batch metrics from the train stage's spans.

    A training batch is a model_forward call made while a tape is active.
    Counts are those of the first batch, which is fixed by the seed; times
    are medians over all batches.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[3]].append(span)
    forwards = [i for i, s in enumerate(spans)
                if s[0] == "model.model_forward" and s[4].get("training")]

    def child_ms(i, name):
        return [1e3 * (c[2] - c[1]) for c in children[i] if c[0] == name]

    attention = [child_ms(i, "embeddings.attention_representation") for i in forwards]
    backward = [s for s in spans if s[0] == "autodiff.Tape.backward"]
    return {
        "embeddings.attention_calls_per_batch": float(len(attention[0])) if forwards else 0.0,
        "embeddings.attention_ms_per_batch": _median_or_zero([sum(a) for a in attention]),
        "autodiff.tape_records_per_batch": float(backward[0][4]["records"]) if backward else 0.0,
        "autodiff.backward_ms_per_batch": _median_or_zero(
            [1e3 * (s[2] - s[1]) for s in backward]),
        "nn.bilstm_ms_per_batch": _median_or_zero(
            [sum(child_ms(i, "nn.bilstm")) for i in forwards]),
        "nn.adam_step_ms": _median_or_zero(
            [1e3 * (s[2] - s[1]) for s in spans if s[0] == "nn.Adam.step"]),
        "model.forward_ms_per_batch": _median_or_zero(
            [1e3 * (spans[i][2] - spans[i][1]) for i in forwards]),
    }
