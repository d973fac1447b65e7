"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from metrics import END_TO_END, PER_LAYER, layer_metrics
from workloads import NEWS_TEXT, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A small Full-model pipeline that runs every stage, and so every traced layer.
TINY = dataclasses.replace(
    NEWS_TEXT, name="tiny",
    synth=dict(NEWS_TEXT.synth, n_stocks=12, days=160, news_rate=4.0),
    config=dict(NEWS_TEXT.config,
                universe={"min_median_dollar_volume": 1e4, "min_price": 0.5,
                          "min_history": 40},
                factors={"momentum": [5], "reversal": [1], "volume_z": [21]},
                word2vec={"dim": 6, "epochs": 1, "min_count": 5},
                glove={"dim": 4, "epochs": 20, "lr": 0.01},
                graph={"k": 3},
                model=dict(NEWS_TEXT.config["model"], epochs=1, batch_size=64)),
    train_frac=0.6)


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------

def test_timings_sum_per_stage_medians():
    def fake(train_s, predict_s, other_s):
        p = run.PipelinePass(False, values={"train_samples": 1000, "forecasts": 500})
        for command, seconds, rss in (("ingest", other_s, 40.0), ("train", train_s, 60.0),
                                      ("predict", predict_s, 50.0), ("backtest", 1.0, 30.0),
                                      ("quantiles", 1.0, 30.0)):
            p.stages[command] = run.StageRun(command, seconds, rss, 0, Path("."))
        return p
    # each pass has one slow stage; the per-stage medians drop all three
    passes = [fake(9.0, 1.0, 2.0), fake(2.0, 5.0, 2.0), fake(2.0, 1.0, 7.0)]
    t = run.timing_metrics(passes)
    assert t["pipeline_s"] == pytest.approx(2.0 + 2.0 + 1.0 + 1.0 + 1.0)
    assert t["retrain_s"] == pytest.approx(2.0 + 1.0 + 1.0 + 1.0)
    assert t["cli.train_samples_per_s"] == pytest.approx(500.0)
    assert t["cli.predict_samples_per_s"] == pytest.approx(500.0)
    assert t["peak_rss_mb"] == 60.0


# ---------------------------------------------------------------------------
# Metric names and BENCHMARK.json
# ---------------------------------------------------------------------------

def test_metric_names_are_valid_and_unique():
    names = [n for n, _, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for w in spec["workloads"]:
        assert NAME.fullmatch(w["name"]) and "\n" not in w["why"] and len(w["why"]) <= 200


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _forecasts(path: Path, yhat: str) -> Path:
    path.write_text("date,symbol,yhat,y\n2016-01-04,S00,0.01,0.02\n"
                    f"2016-01-04,S01,{yhat},-0.01\n")
    return path


def test_forecast_check_flags_corrupted_file(tmp_path):
    ok, rows = checks.check_forecasts(_forecasts(tmp_path / "a.csv", "-0.003"))
    assert ok[1] and len(rows) == 2
    for bad in ("nan", "inf", "garbage"):
        result, _ = checks.check_forecasts(_forecasts(tmp_path / f"{bad}.csv", bad))
        assert not result[1], bad
    (tmp_path / "truncated.csv").write_text("date,symbol,yhat,y\n")
    assert not checks.check_forecasts(tmp_path / "truncated.csv")[0][1]
    assert not checks.check_forecasts(tmp_path / "missing.csv")[0][1]


def test_stage_check_flags_nonzero_exit_and_stages_not_run(tmp_path):
    (tmp_path / "ingest_manifest.json").write_text("{}")
    stages = {"ingest": run.StageRun("ingest", 1.0, 50.0, 0, tmp_path),
              "cooccur": run.StageRun("cooccur", 1.0, 50.0, 2, tmp_path)}
    results = {name: ok for name, ok, _ in
               checks.stage_checks(stages, ("ingest", "cooccur", "graph"))}
    assert results == {"ingest.exit": True, "ingest.manifest": True,
                       "cooccur.exit": False, "graph.ran": False}


def test_reference_checks_apply_stated_tolerances():
    want = {"r2_test": 0.2, "cbow_losses": [0.49], "glove_trace": [5.0, 4.0],
            "tape_records_per_batch": 700}
    near = {"r2_test": 0.21, "cbow_losses": [0.495], "glove_trace": [5.0, 4.0],
            "tape_records_per_batch": 100}
    assert all(ok for _, ok, _ in checks.reference_checks(near, want))
    far = {"r2_test": 0.25, "cbow_losses": [0.52], "glove_trace": [5.0, 4.001],
           "tape_records_per_batch": 701}
    assert not any(ok for _, ok, _ in checks.reference_checks(far, want))
    assert checks.reference_checks(near, None) == []


def test_cbow_check_fails_an_untrained_run():
    """An epoch that learns nothing has loss ln 2; no stored reference admits
    it, while every one admits losses 1% away (the planned minibatch CBOW)."""
    def cbow_ok(losses, want):
        [(_, ok, _)] = checks.reference_checks({"cbow_losses": losses},
                                               {"cbow_losses": want})
        return ok

    for workload, table in checks.load_reference()["workloads"].items():
        for seed, want in table.items():
            if "cbow_losses" not in want:
                continue
            want = want["cbow_losses"]
            assert not cbow_ok([math.log(2.0)] * len(want), want), (workload, seed)
            for factor in (0.99, 1.01):
                assert cbow_ok([factor * v for v in want], want), (workload, seed)


# ---------------------------------------------------------------------------
# End to end on a tiny pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_passes(tmp_path_factory):
    where = tmp_path_factory.mktemp("tiny")
    inputs = run.setup(TINY, 5, where / "inputs")
    run.repeat_setup(TINY, 5, inputs)
    cfg = run.write_config(TINY, 5, inputs, where)
    passes = {}
    for traced in (False, True):
        p = run.run_pass(TINY, cfg, where / f"traced{int(traced)}", traced)
        results = run.evaluate_pass(TINY, p, inputs)
        assert all(ok for _, ok, _ in results), [r for r in results if not r[1]]
        passes[traced] = p
    return inputs, cfg, passes


def test_traced_and_untraced_passes_write_identical_outputs(tiny_passes):
    inputs, _, passes = tiny_passes
    assert len(inputs.setup_s) == 2 and inputs.identical
    assert passes[False].hashes == passes[True].hashes
    assert set(passes[True].hashes) == set(TINY.commands)


def test_traced_pass_reports_every_layer(tiny_passes):
    _, _, passes = tiny_passes
    m = layer_metrics(passes[True].stages)
    traced_names = {n for n, _, _ in PER_LAYER} - {
        "synth.generate_s", "synth.write_market_s", "trace.traced_pipeline_s",
        "trace.untraced_pipeline_s", "trace.overhead_s",
        "cli.train_samples_per_s", "cli.predict_samples_per_s",
        # the tiny pipeline runs the longshort simulator only
        "backtest.simulate_markowitz_s"}
    assert traced_names <= set(m)
    assert all(m[n] > 0 for n in traced_names), [n for n in traced_names if m[n] <= 0]
    assert m["embeddings.attention_calls_per_batch"] <= TINY.synth["n_stocks"]


def test_tape_records_match_a_direct_count(tiny_passes):
    """The traced count equals len(tape) for the same first training batch."""
    import numpy as np
    from alphagraph import autodiff as ad
    from alphagraph import cli
    from alphagraph import model as mdl
    from alphagraph.config import load_config

    _, cfg_path, passes = tiny_passes
    out = passes[True].stages["train"].out
    cfg = load_config(cfg_path)
    glove = cli._load_glove(out / cli.GLOVE_FILE)
    model_cfg = mdl.ModelConfig(**json.loads((out / cli.MODELCFG_FILE).read_text()))
    _, ds, _ = cli._assemble_dataset(cfg, out, model_cfg)
    lo, hi = cli._window_indices(ds.store.calendar, None, cli._train_end(cfg))
    train_ds = ds.split_by_anchor(lo, hi)
    graph = cli._load_graph(out / cli.GRAPH_FILE, glove.symbols)

    # the first batch of model.train, drawn from the same generator sequence
    rng = np.random.default_rng(model_cfg.seed)
    params = mdl.build_params(model_cfg, rng, glove)
    perm = rng.permutation(train_ds.n)
    train_idx = perm[int(round(model_cfg.val_fraction * train_ds.n)):]
    idx = train_idx[rng.permutation(train_idx.size)][:model_cfg.batch_size]
    with ad.Tape() as tape:
        yhat = mdl.model_forward(params, model_cfg, train_ds.store,
                                 train_ds.stock_idx[idx], train_ds.anchor_idx[idx], graph)
        ad.sq_error(yhat, train_ds.labels[idx])
    traced = layer_metrics(passes[True].stages)
    assert traced["autodiff.tape_records_per_batch"] == len(tape)
    assert traced["embeddings.attention_calls_per_batch"] == len(set(train_ds.stock_idx[idx]))


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "news-text",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
