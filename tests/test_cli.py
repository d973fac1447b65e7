"""CLI pipeline: command wiring, exit codes, manifests, determinism."""

import collections
import csv
import dataclasses
import datetime as dt
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from alphagraph import artifacts, cli, factors, samples, stage_interpret, stage_model
from alphagraph.checkpoint import load_checkpoint, save_checkpoint
from alphagraph.cli import main
from alphagraph.config import DEFAULTS, ModelConfig, ablation_config, load_config, sha256_file
from alphagraph.embeddings import build_knn_graph
from alphagraph.embfile import embedding_dim, read_embeddings
from alphagraph.errors import AlphagraphError, DataError
from alphagraph.forecasts import write_forecasts
from alphagraph.news import daily_stock_news_vectors, load_articles
from alphagraph.synth import SyntheticSpec, generate, write_market

from test_market import weekday_calendar


def small_config(tmp_path, train_end):
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
        "split": {"train_end": train_end, "gap_days": 5},
        "synth": {"n_stocks": 10, "days": 120, "n_clusters": 2,
                  "news_rate": 5.0, "horizon": 3},
        "seed": 17,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_pipeline(out, cfg_path, ablation=None):
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["synth"] + base) == 0
    assert main(["ingest"] + base) == 0
    assert main(["cooccur"] + base) == 0
    assert main(["train-word2vec"] + base) == 0
    assert main(["train-glove"] + base) == 0
    assert main(["graph"] + base) == 0
    train_args = ["train"] + base
    if ablation:
        train_args += ["--ablation", ablation]
    assert main(train_args) == 0
    assert main(["predict"] + base) == 0
    assert main(["backtest"] + base + ["--simulator", "longshort"]) == 0
    assert main(["quantiles"] + base) == 0
    assert main(["interpret"] + base) == 0


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    out = tmp / "run"
    cfg_path = small_config(tmp, train_end="2015-04-06")
    run_pipeline(out, cfg_path)
    return out, cfg_path


def test_pipeline_produces_expected_artifacts(pipeline_run):
    out, _ = pipeline_run
    for name in ("bars.csv", "news.jsonl", "panel.npz", "factors.npz",
                 "cooccur.npz", "word_embeddings.txt", "glove.npz",
                 "graph.csv", "checkpoint.npz",
                 "model_config.json", "forecasts.csv", "temporal_attention.csv",
                 "pnl_daily.csv", "metrics.csv", "quantiles.csv", "pair_distances.csv",
                 "factor_importance.csv", "news_error_buckets.csv",
                 "final_stock_embeddings.txt"):
        assert (out / name).exists(), name


def test_metrics_csv_contains_core_rows(pipeline_run):
    out, _ = pipeline_run
    with open(out / "metrics.csv") as fh:
        rows = dict((r["metric"], float(r["value"])) for r in csv.DictReader(fh))
    assert "r2_out" in rows and "total_pnl" in rows and "paper_pnl_total" in rows


def test_forecasts_cover_test_window_only(pipeline_run):
    out, _ = pipeline_run
    with open(out / "forecasts.csv") as fh:
        dates = sorted({r["date"] for r in csv.DictReader(fh)})
    assert dates[0] > "2015-04-06"


def test_every_command_writes_manifest(pipeline_run):
    out, _ = pipeline_run
    for cmd in ("synth", "ingest", "cooccur", "train_word2vec", "train_glove",
                "graph", "train", "predict", "backtest", "quantiles", "interpret"):
        path = out / f"{cmd}_manifest.json"
        assert path.exists(), cmd
        manifest = json.loads(path.read_text())
        assert manifest["seed"] == 17
        assert "outputs" in manifest and manifest["outputs"]


def test_readme_file_formats_name_every_file_the_stages_write(pipeline_run):
    """README's File formats section names, in backticks, each file that a
    stage of the pipeline run lists among the outputs of its manifest."""
    out, _ = pipeline_run
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## File formats\n")[1].split("\n## ")[0]
    written = {name for manifest in out.glob("*_manifest.json")
               for name in json.loads(manifest.read_text())["outputs"]}
    assert len(written) > 20
    assert written - set(re.findall(r"`([\w.]+)`", section)) == set()


def test_rerun_is_deterministic(tmp_path, pipeline_run):
    out_a, cfg_path = pipeline_run
    out_b = tmp_path / "second"
    run_pipeline(out_b, cfg_path)
    for cmd in ("synth", "ingest", "cooccur", "train_word2vec", "train_glove",
                "graph", "train", "predict", "backtest", "quantiles"):
        ha = sha256_file(out_a / f"{cmd}_manifest.json")
        hb = sha256_file(out_b / f"{cmd}_manifest.json")
        assert ha == hb, cmd
    assert sha256_file(out_a / "checkpoint.npz") == sha256_file(out_b / "checkpoint.npz")


def test_ablation_checkpoint_key_containment(tmp_path):
    cfg_path = small_config(tmp_path, train_end="2015-04-06")
    out = tmp_path / "ablate"
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["synth"] + base) == 0
    assert main(["ingest"] + base) == 0
    assert main(["cooccur"] + base) == 0
    assert main(["train-word2vec"] + base) == 0
    assert main(["train-glove"] + base) == 0
    assert main(["graph"] + base) == 0
    assert main(["train"] + base + ["--ablation", "News"]) == 0
    keys = set(load_checkpoint(out / "checkpoint.npz"))
    assert not any(k.startswith("graph.") or k.startswith("tech.") for k in keys)
    assert any(k.startswith("lstm.") for k in keys)


def test_usage_error_exit_code_1(capsys, tmp_path):
    assert main(["train"]) == 1  # missing --out
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1


def test_data_error_exit_code_2(capsys, tmp_path):
    out = tmp_path / "nodata"
    assert main(["ingest", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data:")


def test_config_error_exit_code_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: config:")


def test_train_end_outside_calendar_is_data_error(tmp_path, capsys):
    """A split that cannot work fails at ingest, before it writes anything:
    a train_end that is not a trading day, and a gap that leaves no test
    day (the panel ends 54 trading days after 2015-04-06)."""
    cfg_path = small_config(tmp_path, train_end="2030-01-06")
    out = tmp_path / "badsplit"
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["synth"] + base) == 0
    capsys.readouterr()
    for flags, message in (
            ([], "split.train_end 2030-01-06 is not a trading day in the panel"),
            (["--set", "split.train_end=2015-04-06", "--set", "split.gap_days=54"],
             "split.gap_days 54 leaves no test day: the panel ends 54 trading days "
             "after split.train_end 2015-04-06")):
        assert main(["ingest"] + base + flags) == 2
        assert capsys.readouterr().err == f"error: data: {message}\n"
        assert not (out / "panel.npz").exists() and not (out / "ingest_manifest.json").exists()
    assert main(["ingest"] + base + ["--set", "split.train_end=2015-04-06",
                                     "--set", "split.gap_days=53"]) == 0


@pytest.mark.parametrize("setting, message", [
    ("split.train_end=2015-04-04", "split.train_end 2015-04-04 is not a trading day in the panel"),
    ("split.gap_days=500", "split.gap_days 500 leaves no test day: the panel ends 54 trading "
                           "days after split.train_end 2015-04-06")],
    ids=["saturday", "long gap"])
def test_broken_split_has_one_message_at_every_stage(run_copy, capsys, setting, message):
    """Each stage that reads the split refuses a broken one with the same
    line. A failed stage deletes its previous outputs, so each runs before
    the stages whose outputs it reads."""
    out, cfg_path = run_copy
    for command in ("interpret", "predict", "train", "ingest"):
        argv = [command, "--config", str(cfg_path), "--out", str(out), "--set", setting]
        assert main(argv) == 2, command
        assert capsys.readouterr().err == f"error: data: {message}\n", command


@given(n_days=st.integers(1, 40), offset=st.integers(-3, 60), gap_days=st.integers(0, 45))
def test_sample_windows(n_days, offset, gap_days):
    """Training runs from the first day through split.train_end; the test
    window from exactly gap_days + 1 trading days later through the last
    day; the gap days are in neither. A train_end that is not a trading day,
    or a calendar too short for the gap, is a DataError."""
    cal = weekday_calendar(n_days)  # from a Monday
    train_end = cal[0] + dt.timedelta(days=offset)
    cfg = {"split": {"train_end": train_end.isoformat(), "gap_days": gap_days}}
    if train_end not in cal:
        with pytest.raises(DataError, match=f"^split.train_end {train_end} is not a trading day"):
            samples._sample_windows(cfg, cal)
        return
    i = cal.index(train_end)
    if i + gap_days + 1 >= n_days:
        with pytest.raises(DataError, match=f"^split.gap_days {gap_days} leaves no test day"):
            samples._sample_windows(cfg, cal)
        return
    (train_lo, train_hi), (test_lo, test_hi) = samples._sample_windows(cfg, cal)
    assert (train_lo, cal[train_hi]) == (0, train_end)
    assert test_lo == i + gap_days + 1 and test_hi == n_days - 1
    gap = [k for k, d in enumerate(cal) if train_end < d < cal[test_lo]]
    assert len(gap) == gap_days
    assert not any(train_lo <= k <= train_hi or test_lo <= k <= test_hi for k in gap)


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = small_config(tmp_path, train_end="2015-04-06")
    out = tmp_path / "seeded"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "99"]) == 0
    manifest = json.loads((out / "synth_manifest.json").read_text())
    assert manifest["seed"] == 99


# ---------------------------------------------------------------------------
# bad inputs end as typed errors with their documented exit codes
# ---------------------------------------------------------------------------

@pytest.fixture
def run_copy(tmp_path, pipeline_run):
    out, cfg_path = pipeline_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    return copy, cfg_path


def test_short_bar_row_is_data_error(tmp_path, capsys):
    bars = tmp_path / "bars.csv"
    bars.write_text("date,symbol,open,high,low,close,volume\n"
                    "2020-01-06,AAA,10,11,9,10.5,1000\n\n2020-01-06,BBB,10,11\n")
    assert main(["ingest", "--out", str(tmp_path / "o"), "--bars", str(bars)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: line 4: malformed bar row") and err.count("\n") == 1


def test_missing_config_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["synth", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: config:")


def _assert_config_error(capsys, setting):
    """One stderr line naming the setting, and no traceback."""
    err = capsys.readouterr().err
    key = setting.split("=")[0]
    assert err.startswith(f"error: config: {key} must be ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("setting", ["synth.n_clusters=0", "synth.noise_std=-1",
                                     "synth.days=0", "synth.days=2.5", "synth.days=abc",
                                     "synth.news_rate=-1", "synth.news_rate=NaN",
                                     "synth.news_rate=1e308",
                                     "synth.start=notadate", "synth.start=20150105",
                                     "synth.start=9999-12-30",
                                     "synth.horizon=0", "synth.horizon=-3",
                                     "synth.n_clusters=51", "synth.phi=1.5", "synth.phi=-1",
                                     "synth.co_mention_fidelity=2", "synth.tone_fidelity=-0.5",
                                     "synth.factor_innovation=-1", "synth.b_volume=NaN",
                                     "seed=-1"])
def test_invalid_synth_spec_is_config_error(tmp_path, capsys, setting):
    assert main(["synth", "--out", str(tmp_path / "o"), "--set", setting]) == 1
    _assert_config_error(capsys, setting)


@pytest.mark.parametrize("command, setting", [("cooccur", "split.train_end=2015-13-01"),
                                              ("train", "model.hidden=0"),
                                              ("train", "model.batch_size=0"),
                                              ("train", "model.val_fraction=1.5"),
                                              ("predict", "split.gap_days=-5"),
                                              ("train-glove", "glove.epochs=-1"),
                                              ("train-glove", "glove.dim=0"),
                                              ("train-word2vec", "word2vec.dim=0"),
                                              ("backtest", "simulator.horizon=0"),
                                              ("train-word2vec", "seed=-1"),
                                              ("train-glove", "seed=-1"),
                                              ("train", "seed=-1"),
                                              ("train", "model.epochs=0"),
                                              ("train", "model.patience=-1"),
                                              ("train", "model.lr=Infinity"),
                                              ("train", "model.lr=0"),
                                              ("train", "model.tech_dim=1025"),
                                              ("train-word2vec", "word2vec.window=0"),
                                              ("train-word2vec", "word2vec.negatives=0"),
                                              ("train-word2vec", "word2vec.epochs=0"),
                                              ("train-word2vec", "word2vec.lr=0"),
                                              ("train-glove", "glove.epochs=0"),
                                              ("train-glove", "glove.lr=0"),
                                              ("train-glove", "glove.x_max=0"),
                                              ("train-glove", "glove.alpha=1.5"),
                                              ("graph", "graph.k=0"),
                                              ("ingest", "universe.min_price=-1"),
                                              ("interpret", "interpret.error_tail=2"),
                                              ("interpret", "interpret.distance_band=-5"),
                                              ("interpret", "interpret.k_emb=0"),
                                              ("backtest", "simulator.per_name_cap=-1"),
                                              ("backtest", "simulator.cost_linear=-1"),
                                              ("backtest", "simulator.cov_window=0"),
                                              ("backtest", "simulator.halflife=0"),
                                              ("backtest", "simulator.shrinkage=1.5"),
                                              ("backtest", "simulator.risk_aversion=0"),
                                              ("backtest", "simulator.initial_capital=0")])
def test_invalid_setting_is_config_error(run_copy, capsys, command, setting):
    """Refused when the config loads: by the stage that uses the value, and
    by synth, which does not."""
    out, cfg_path = run_copy
    manifests = {p.name: p.read_bytes() for p in out.glob("*_manifest.json")}
    for stage in (command, "synth"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out),
                     "--set", setting]) == 1
        _assert_config_error(capsys, setting)
    assert {p.name: p.read_bytes() for p in out.glob("*_manifest.json")} == manifests


def test_bars_and_news_flags_are_paths(run_copy, tmp_path, monkeypatch):
    """--bars and --news name files as given, even a name that reads as JSON."""
    out, cfg_path = run_copy
    monkeypatch.chdir(tmp_path)
    shutil.copy(out / "bars.csv", tmp_path / "123")
    assert main(["ingest", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--bars", "123", "--news", "true"]) == 0
    manifest = json.loads((tmp_path / "o" / "ingest_manifest.json").read_text())
    assert manifest["config"]["paths"] == {"bars": "123", "news": "true"}


def _leaves(node=DEFAULTS, path=""):
    for key, default in node.items():
        if isinstance(default, dict) and key != "factors":
            yield from _leaves(default, f"{path}{key}.")
        else:
            yield path + key, default


def _wrong_values(default) -> list[str]:
    """Values, as ``--set`` writes them, whose type is not ``default``'s."""
    if isinstance(default, bool):
        return ["1", "abc"]
    if isinstance(default, int):
        return ["true", "abc", "2.5"]
    if isinstance(default, float):
        return ["true", "abc"]
    return ["true", "[1]"]  # a string, None (paths.*, split.train_end) or factors


@pytest.mark.parametrize("key, raw", [(key, raw) for key, default in _leaves()
                                      for raw in _wrong_values(default)])
def test_wrong_type_of_any_setting_is_config_error(tmp_path, capsys, key, raw):
    """Every setting is type-checked when the config loads, before any stage
    runs, whatever stage reads it."""
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), "--set", f"{key}={raw}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {key} must be ") and len(err.splitlines()) == 1, err
    assert not out.exists()


def test_mistyped_model_setting_is_refused_before_train(run_copy, capsys):
    """A flag that train would store in model_config.json, where predict
    refuses it, is refused at load; the stored config stays."""
    out, cfg_path = run_copy
    stored = (out / artifacts.MODELCFG_FILE).read_bytes()
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--set", "model.nonneg_tech=1"]) == 1
    assert capsys.readouterr().err.startswith("error: config: model.nonneg_tech must be ")
    assert (out / artifacts.MODELCFG_FILE).read_bytes() == stored


def test_synth_defaults_are_the_generator_defaults(tmp_path):
    """`alphagraph synth` with no settings writes the market of SyntheticSpec()."""
    assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
    (tmp_path / "lib").mkdir()
    paths = write_market(generate(SyntheticSpec()), tmp_path / "lib")
    for path in paths.values():
        assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes(), path.name


def test_one_day_window_without_signal_is_config_error(run_copy, capsys):
    out, cfg_path = run_copy
    code = main(["ingest", "--config", str(cfg_path), "--out", str(out),
                 "--set", 'factors={"volatility": [1], "momentum": [5]}'])
    err = capsys.readouterr().err
    assert code == 1 and err == ("error: config: factor volatility_1 carries no signal: "
                                 "its window must be at least 2\n")


@pytest.mark.parametrize("registry", ['{"volatility": [1], "momentum": [5]}',
                                      '{"momentum": [0]}', '{"rsi": [2.5]}',
                                      '{"momentum": ["21"]}', '{"momentum": [true]}',
                                      '{"momentum": [5], "beta": [21]}'])
def test_bad_factor_registry_fails_before_any_output(run_copy, capsys, monkeypatch, registry):
    """A bad factor window or family is a config error raised before ingest
    opens an output; the outputs and manifest of its earlier run go."""
    out, cfg_path = run_copy
    written = []
    monkeypatch.setattr(artifacts.OutDir, "write", lambda self, name: written.append(name))
    assert main(["ingest", "--config", str(cfg_path), "--out", str(out),
                 "--set", f"factors={registry}"]) == 1
    assert capsys.readouterr().err.startswith("error: config: ")
    assert written == []
    assert not {"panel.npz", "factors.npz", "ingest_manifest.json"} & {
        p.name for p in out.iterdir()}


def test_data_error_while_writing_the_factors_leaves_no_ingest_output(run_copy, capsys,
                                                                      monkeypatch):
    """A block of factors that fails after earlier blocks were written to
    factors.npz ends ingest with exit code 2, and neither factors.npz nor
    panel.npz nor the manifest remains, of this run or the earlier one."""
    out, cfg_path = run_copy
    compute, calls = factors.compute_factors, []

    def third_block_fails(*args):
        calls.append(args[-1])
        if len(calls) == 3:
            raise DataError("a block failed")
        return compute(*args)

    monkeypatch.setattr(factors, "DATE_BLOCK", 16)
    monkeypatch.setattr(factors, "compute_factors", third_block_fails)
    assert main(["ingest", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: data: a block failed\n"
    assert calls == [range(0, 16), range(16, 32), range(32, 48)]
    assert not {"panel.npz", "factors.npz", "ingest_manifest.json"} & {
        p.name for p in out.iterdir()}


def test_truncated_checkpoint_is_data_error(run_copy, capsys):
    out, cfg_path = run_copy
    ckpt = out / "checkpoint.npz"
    ckpt.write_bytes(ckpt.read_bytes()[:-20])
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"{ckpt}: truncated or corrupt .npz file" in capsys.readouterr().err


def test_flipped_weight_byte_in_checkpoint_is_data_error(run_copy, capsys):
    """One byte flipped inside a stored weight fails its member's CRC
    check: predict exits 2 instead of forecasting with a changed weight."""
    out, cfg_path = run_copy
    ckpt = out / "checkpoint.npz"
    data = bytearray(ckpt.read_bytes())
    at = data.find(load_checkpoint(ckpt)["head.w"].tobytes())
    assert at > 0
    data[at + 6] ^= 0x01
    ckpt.write_bytes(bytes(data))
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {ckpt}: truncated or corrupt .npz file (Bad CRC-32")
    assert err.endswith("; rerun train\n") and len(err.splitlines()) == 1


def test_old_checkpoint_bin_is_not_read(run_copy, capsys):
    """The hand-written checkpoint.bin of earlier versions is never read:
    without a checkpoint.npz, predict asks to run train."""
    out, cfg_path = run_copy
    (out / "checkpoint.npz").rename(out / "checkpoint.bin")
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: data: {out / 'checkpoint.npz'} not found; "
                                       f"run train first\n")


@pytest.mark.parametrize("reruns, name, field, width, trained, readers", [
    ([["train-word2vec", "--set", "word2vec.dim=6"]], "word_embeddings.txt", "news_dim", 6, 12,
     ["predict"]),
    ([["train-glove", "--set", "glove.dim=6"], ["graph"]], "glove.npz", "embed_dim", 6, 4,
     ["predict"]),
    ([["ingest", "--set", 'factors={"momentum": [5]}']], "factors.npz", "n_factors", 1, 6,
     ["interpret", "predict"])],
    ids=["word2vec", "glove", "factors"])
def test_upstream_rerun_at_another_width_is_data_error(run_copy, capsys, reruns, name, field,
                                                       width, trained, readers):
    """An upstream stage rerun after train at another width leaves an input
    the trained model cannot read: each stage that reads it with the model
    exits 2, naming that input and model_config.json and asking to rerun
    train."""
    out, cfg_path = run_copy
    base = ["--config", str(cfg_path), "--out", str(out)]
    for argv in reruns:
        assert main(argv[:1] + base + argv[1:]) == 0
    capsys.readouterr()
    for command in readers:
        assert main([command] + base) == 2
        assert capsys.readouterr().err == (
            f"error: data: {out / name}: width {width}, but {out / 'model_config.json'} has "
            f"{field} {trained}; rerun train\n")


def _drop_head_bias(values: dict) -> dict:
    return {k: v for k, v in values.items() if k != "head.b"}


def _widen_head_weights(values: dict) -> dict:
    return dict(values, **{"head.w": np.zeros(values["head.w"].size + 1)})


def _add_unknown_param(values: dict) -> dict:
    return dict(values, **{"head.extra": np.zeros(2)})


@pytest.mark.parametrize("edit, detail", [
    (_drop_head_bias, "checkpoint parameter head.b is missing, expected shape ()"),
    (_widen_head_weights, "checkpoint parameter head.w is of shape (17,), expected shape (16,)"),
    (_add_unknown_param, "checkpoint parameter head.extra is not one of the model's")])
def test_checkpoint_not_matching_the_model_config_is_data_error(run_copy, capsys, edit,
                                                                detail):
    out, cfg_path = run_copy
    ckpt = out / "checkpoint.npz"
    save_checkpoint(ckpt, edit(load_checkpoint(ckpt)))
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: data: {ckpt}: {detail}; rerun train\n"


def _python(*argv) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``argv``, the package's sources on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          check=False)


def _modules_left_loaded(run, command, modules) -> list[str]:
    """Run ``command`` on ``run`` in a fresh interpreter; the last line it
    prints: the exit code and those of ``modules`` left in sys.modules."""
    out, cfg_path = run
    script = ("import sys\nfrom alphagraph.cli import main\n"
              f"code = main([{command!r}, '--config', {str(cfg_path)!r}, '--out', {str(out)!r}])\n"
              f"print(code, [m for m in {modules!r} if m in sys.modules])\n")
    proc = _python("-c", script)
    assert proc.stdout, proc.stderr
    return proc.stdout.splitlines()[-1:]


@pytest.mark.parametrize("command", ["predict", "interpret"])
def test_model_stages_do_not_import_numpy_random(run_copy, command):
    """A checkpoint is loaded into the parameter layout without drawing
    initial values, so these stages leave numpy.random (about 6 MB in a
    fresh process) unimported."""
    assert _modules_left_loaded(run_copy, command, ["numpy.random"]) == ["0 []"]


# the alphagraph modules that each command imports besides alphagraph.cli's
# own (config, errors and artifacts): its stage module and what its stage calls
_EMBEDDING_STAGE = {"stage_embeddings", "samples", "news", "word2vec", "embfile", "embeddings"}
_MODEL_STAGE = {"stage_model", "samples", "model", "nn", "autodiff", "checkpoint", "embeddings",
                "embfile", "factors", "forecasts", "market", "news", "orderstats", "word2vec"}
_REPORT_STAGE = {"stage_reports", "backtest", "forecasts", "market", "orderstats"}
STAGE_IMPORTS = {
    "synth": {"stage_synth", "synth", "market", "orderstats"},
    "ingest": {"stage_ingest", "samples", "factors", "market", "orderstats"},
    "cooccur": _EMBEDDING_STAGE, "train-word2vec": _EMBEDDING_STAGE,
    "train-glove": _EMBEDDING_STAGE, "graph": _EMBEDDING_STAGE,
    "train": _MODEL_STAGE, "predict": _MODEL_STAGE,
    "backtest": _REPORT_STAGE, "quantiles": _REPORT_STAGE,
    "interpret": {"stage_interpret", "samples", "checkpoint", "interpret", "forecasts", "news",
                  "embfile"},
}


@pytest.mark.parametrize("command", list(STAGE_IMPORTS))
def test_each_command_imports_exactly_its_modules(run_copy, command):
    """``python -m alphagraph.cli COMMAND`` imports exactly the alphagraph
    modules of its row. So cooccur loads neither autodiff, model nor synth,
    the stages that read forecasts.csv load neither model nor nn, and no
    module imports alphagraph.cli, which would run it a second time beside
    ``__main__``."""
    out, cfg_path = run_copy
    proc = _python("-X", "importtime", "-m", "alphagraph.cli", command,
                   "--config", str(cfg_path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {name.removeprefix("alphagraph.") for name in imported
            if name.startswith("alphagraph.")} == {"config", "errors", "artifacts",
                                                    *STAGE_IMPORTS[command]}


@pytest.mark.parametrize("command", ["ingest", "backtest", "quantiles"])
def test_order_statistics_leave_numpy_ma_unimported(run_copy, command):
    """The universe's medians, the factors' and quantiles' distinct counts
    and the quantile thresholds come from alphagraph.orderstats, so these
    stages leave numpy.ma (about 1.3 MB in a fresh process) unimported."""
    assert _modules_left_loaded(run_copy, command, ["numpy.ma"]) == ["0 []"]


def _truncate(data: bytes) -> bytes:
    return data[:2000]


def _empty(data: bytes) -> bytes:
    return b""


def _flip_member_byte(data: bytes) -> bytes:
    """One byte changed inside the stored data of the ``open`` array."""
    at = data.index(b"open.npy") + 500
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]


@pytest.mark.parametrize("damage, detail", [
    (_truncate, "truncated or corrupt .npz file (File is not a zip file)"),
    (_flip_member_byte, "truncated or corrupt .npz file (Bad CRC-32"),
    (_empty, "truncated or corrupt .npz file"),
])
def test_corrupt_npz_is_data_error(run_copy, capsys, damage, detail):
    out, cfg_path = run_copy
    panel = out / "panel.npz"
    panel.write_bytes(damage(panel.read_bytes()))
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--ablation", "Tech"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and len(err.splitlines()) == 1
    assert f"{panel}: {detail}" in err


def test_npz_without_a_member_is_data_error(run_copy, capsys):
    out, cfg_path = run_copy
    panel = out / "panel.npz"
    with np.load(panel) as z:
        arrays = {name: z[name] for name in z.files if name != "mask"}
    np.savez(panel, **arrays)
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--ablation", "Tech"]) == 2
    assert f"{panel}: no array 'mask'; rerun ingest" in capsys.readouterr().err


def test_stages_after_ingest_read_only_calendar_symbols_mask_and_open(run_copy):
    """cooccur, train, predict and backtest run on a panel.npz without its
    high, low, close and volume, and write what they wrote on the full one."""
    out, cfg_path = run_copy
    panel = out / "panel.npz"
    with np.load(panel) as z:
        assert set(z.files) == {"calendar", "symbols", "mask", "open", "high", "low", "close",
                                "volume"}
        np.savez(panel, **{name: z[name] for name in ("calendar", "symbols", "mask", "open")})
    written = ("cooccur.npz", "checkpoint.npz", "forecasts.csv", "pnl_daily.csv", "metrics.csv")
    before = {name: (out / name).read_bytes() for name in written}
    base = ["--config", str(cfg_path), "--out", str(out)]
    for argv in (["cooccur"], ["train"], ["predict"], ["backtest", "--simulator", "longshort"]):
        assert main(argv + base) == 0
    assert {name: (out / name).read_bytes() for name in written} == before


npz_arrays = hnp.arrays(
    st.sampled_from([np.dtype(d) for d in ("?", "i1", "<i8", ">u2", "<f4", "<f8", "<U1", "<U5")]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(npz_arrays, st.sampled_from(["C", "F", "strided", "blocks"]),
                          st.integers(1, 5)),
                min_size=1, max_size=3))
# row blocks of one row, an uneven last block and zero rows
@example([(np.arange(12.0).reshape(4, 3), "blocks", 1)])
@example([(np.asfortranarray(np.arange(14).reshape(7, 2)), "blocks", 3)])
@example([(np.zeros((0, 2, 3), dtype="<f8"), "blocks", 2), (np.ones(3, dtype="?"), "C", 1)])
def test_npz_writer_writes_the_bytes_of_np_savez(drawn):
    """Each member is written as np.savez writes it, whether it is given as
    an array or as an iterator of its row blocks."""
    arrays, members = {}, {}
    for k, (a, layout, n) in enumerate(drawn):
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "strided" and a.ndim:
            a = a[..., ::2]
        if layout == "blocks" and a.ndim:
            blocks = [a[i:i + n] for i in range(0, len(a), n)]
            members[f"a{k}"] = artifacts._RowBlocks(a.shape, a.dtype, iter(blocks))
            # the blocks assembled, in C order as they are written
            a = np.ascontiguousarray(np.concatenate([a[:0], *blocks], dtype=a.dtype))
        else:
            members[f"a{k}"] = a
        arrays[f"a{k}"] = a
    ours, numpys = io.BytesIO(), io.BytesIO()
    artifacts._save_npz(ours, **members)
    np.savez(numpys, **arrays)
    assert ours.getvalue() == numpys.getvalue()


_row_bounds = st.one_of(st.none(), st.integers(-6, 6))


@settings(max_examples=80, deadline=None)
@given(npz_arrays, st.sampled_from(["C", "F"]), _row_bounds, _row_bounds)
def test_rows_read_are_the_rows_of_the_whole_read(tmp_path_factory, a, layout, start, stop):
    """An array read as a range of rows of its leading axis is that range
    of the array read whole: same dtype, shape and bytes. A Fortran-ordered
    array cannot be read by rows, and is a DataError asking to rerun the
    stage that wrote it."""
    if a.ndim == 0:
        return
    if layout == "F":
        a = np.asfortranarray(a)
    path = tmp_path_factory.mktemp("rows") / "panel.npz"
    artifacts._save_npz(path, a=a)
    rows = slice(start, stop)
    with artifacts._NpzArrays(path) as z:
        whole = z.shaped("a", *a.shape)
        if a.flags.f_contiguous and not a.flags.c_contiguous:   # stored F-ordered
            with pytest.raises(DataError, match=rf"^{path}: array 'a' cannot be read by rows "
                               r"\(not a C-ordered \.npy 1\.0 array\); rerun ingest$"):
                z.shaped("a", *a.shape, rows=rows)
            return
        part = z.shaped("a", *a.shape, rows=rows)
    assert part.dtype == whole.dtype and part.shape == whole[rows].shape
    assert part.tobytes() == np.ascontiguousarray(whole[rows]).tobytes()


def _member_data(data: bytes, member: str) -> tuple[int, int]:
    """(first, end) byte offsets of the array data of a stored .npz member."""
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        info = zf.getinfo(member)
    at = info.header_offset
    name_len, extra_len = struct.unpack("<HH", data[at + 26:at + 30])
    start = at + 30 + name_len + extra_len
    (header_len,) = struct.unpack("<H", data[start + 8:start + 10])   # .npy version 1.0
    return start + 10 + header_len, start + info.compress_size


@pytest.mark.parametrize("command, name, member, row", [
    ("train", "panel.npz", "open.npy", "last"),
    ("train", "factors.npz", "values.npy", "last"),
    ("train", "factors.npz", "mask.npy", "last"),
    ("predict", "panel.npz", "mask.npy", "first"),
    ("predict", "factors.npz", "values.npy", "first"),
])
def test_byte_flipped_outside_the_rows_read_is_data_error(run_copy, capsys, command, name,
                                                          member, row):
    """train reads the rows through split.train_end + model.horizon and
    predict those from the test window's lookback days on, yet a byte
    flipped in a row outside them still fails the member's CRC check."""
    out, cfg_path = run_copy
    path = out / name
    data = path.read_bytes()
    first, end = _member_data(data, member)
    at = first if row == "first" else end - 1
    path.write_bytes(data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:])
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: truncated or corrupt .npz file (Bad CRC-32" in err
    assert len(err.splitlines()) == 1


def _whole_calendar_dataset(out, model_cfg, require_labels):
    """The bar panel and the dataset of every row of panel.npz and
    factors.npz and every article: the reference of the windowed reads."""
    from alphagraph import model as mdl
    bars = artifacts._load_panel(out / "panel.npz")
    with artifacts._NpzArrays(out / "factors.npz") as z:
        fp = artifacts._read_factors(z)
    news = None
    if model_cfg.use_news:
        wordvecs = artifacts._load_word_embeddings(out / "word_embeddings.txt")
        news = daily_stock_news_vectors(load_articles(out / "news.jsonl"), wordvecs,
                                        bars.symbols, bars.calendar)
    return bars, mdl.build_dataset(bars, fp, news, model_cfg, require_labels=require_labels)


def test_windowed_predict_writes_the_forecasts_of_the_whole_calendar(run_copy, tmp_path):
    """predict reads only the test window and its lookback days, and drops
    the articles dated before the day ahead of them; it writes the bytes
    that a prediction over the whole calendar with every article writes.
    The market has articles before that day, which a windowed calendar
    alone would place on its first day."""
    from alphagraph import model as mdl
    out, cfg_path = run_copy
    cfg = load_config(cfg_path)
    model_cfg = artifacts._read_model_config(out / "model_config.json")
    bars, ds = _whole_calendar_dataset(out, model_cfg, require_labels=False)
    _, (lo, hi) = samples._sample_windows(cfg, bars.calendar)
    articles = load_articles(out / "news.jsonl")
    assert min(a.date for a in articles) < bars.calendar[lo - model_cfg.lookback - 1]
    glove = artifacts._load_glove(out / "glove.npz")
    params = mdl.build_params(model_cfg, None, glove)
    for name, values in load_checkpoint(out / "checkpoint.npz").items():
        params[name].values = values
    model = mdl.TrainedModel(params, model_cfg,
                             artifacts._load_graph(out / "graph.csv", glove.symbols))
    panel, attention = mdl.predict(model, ds.split_by_anchor(lo, hi))
    write_forecasts(tmp_path / "forecasts.csv", panel)
    lags = "".join(f"-{model_cfg.lookback - k}day,{float(w)!r}\n" for k, w in enumerate(attention))

    (out / "forecasts.csv").unlink()
    (out / "temporal_attention.csv").unlink()
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "forecasts.csv").read_bytes() == (tmp_path / "forecasts.csv").read_bytes()
    assert (out / "temporal_attention.csv").read_text() == "lag,mean_weight\n" + lags


def _same_samples(ds, ref, first):
    """Whether the dataset ``ds``, read from the calendar rows starting at
    ``first``, holds the samples of ``ref``, of every row, bit for bit."""
    n, n_symbols = len(ds.store.calendar), len(ds.store.symbols)
    days, stocks = np.arange(n)[:, None], np.arange(n_symbols)[None, :]
    same_news = ds.store.news is None and ref.store.news is None or (
        ds.store.news_at(days, stocks).tobytes()
        == ref.store.news_at(days + first, stocks).tobytes())
    same_factors = ds.store.factors is None and ref.store.factors is None or (
        ds.store.factors.tobytes() == ref.store.factors[first:first + n].tobytes())
    return (ds.store.calendar == ref.store.calendar[first:first + n]
            and ds.store.symbols == ref.store.symbols
            and np.array_equal(ds.stock_idx, ref.stock_idx)
            and np.array_equal(ds.anchor_idx + first, ref.anchor_idx)
            and ds.labels.tobytes() == ref.labels.tobytes() and same_news and same_factors)


@settings(max_examples=15, deadline=None)
@given(lookback=st.integers(1, 12), horizon=st.integers(1, 8), gap_days=st.integers(0, 12),
       ablation=st.sampled_from(["Full", "News", "Tech"]))
@example(lookback=3, horizon=3, gap_days=5, ablation="Full")   # the run's own settings
@example(lookback=12, horizon=8, gap_days=0, ablation="Full")  # labels past train_end
def test_windowed_samples_are_those_of_the_whole_calendar(pipeline_run, lookback, horizon,
                                                          gap_days, ablation):
    """The training and test windows' samples, read as train and predict
    read them (only their rows of panel.npz and factors.npz, and their
    articles), are the samples of the whole calendar anchored in the
    window: the training window's only those with a label, the test
    window's all of them. Read with no window, they are every labelled
    sample of the whole calendar."""
    out, cfg_path = pipeline_run
    cfg = load_config(cfg_path, overrides=[f"model.lookback={lookback}",
                                           f"model.horizon={horizon}",
                                           f"split.gap_days={gap_days}"])
    stored = artifacts._read_model_config(out / "model_config.json")
    model_cfg = ablation_config(ablation, dataclasses.replace(stored, lookback=lookback,
                                                              horizon=horizon))
    bars, labelled = _whole_calendar_dataset(out, model_cfg, require_labels=True)
    _, every = _whole_calendar_dataset(out, model_cfg, require_labels=False)
    train, test = samples._sample_windows(cfg, bars.calendar)
    for window, ref in ((train, labelled), (test, every)):
        first = max(window[0] - lookback, 0)
        read, ds, _ = samples._assemble_dataset(cfg, out, model_cfg, window)
        assert read.calendar == bars.calendar[first:window[1] + horizon + 1]
        assert _same_samples(ds, ref.split_by_anchor(*window), first)
    assert _same_samples(samples._assemble_dataset(cfg, out, model_cfg)[1], labelled, 0)


@pytest.mark.parametrize("ablation", ["News", "Graph+News"])
def test_train_without_the_technical_module_reads_no_factor_rows(run_copy, monkeypatch,
                                                                 ablation):
    """A model without the technical module reads nothing of factors.npz:
    its model config takes the number of factors from the config's
    registry."""
    out, cfg_path = run_copy
    read = []
    shaped = artifacts._NpzArrays.shaped

    def spy(self, name, *shape, rows=None):
        read.append((self.path.name, name))
        return shaped(self, name, *shape, rows=rows)

    monkeypatch.setattr(artifacts._NpzArrays, "shaped", spy)
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--ablation", ablation]) == 0
    assert not [name for file, name in read if file == "factors.npz"]
    assert ("panel.npz", "open") in read
    assert "factors.npz" not in json.loads((out / "train_manifest.json").read_text())["inputs"]
    stored = json.loads((out / "model_config.json").read_text())
    assert stored["n_factors"] == len(factors.factor_windows(load_config(cfg_path)["factors"]))


def test_train_and_predict_read_rows_of_c_ordered_members(run_copy, monkeypatch, capsys):
    """ingest writes every member of panel.npz and factors.npz in C order,
    and train and predict read their bars, factor values and masks by rows,
    never whole. A panel.npz with a Fortran-ordered member (as earlier
    versions of ingest wrote it) is a DataError asking to rerun ingest."""
    out, cfg_path = run_copy
    for name in ("panel.npz", "factors.npz"):
        with zipfile.ZipFile(out / name) as zf:
            for member in zf.namelist():
                with zf.open(member) as fh:
                    assert np.lib.format.read_magic(fh) == (1, 0)
                    assert not np.lib.format.read_array_header_1_0(fh)[1], (name, member)
    by_rows, whole = set(), set()
    shaped = artifacts._NpzArrays.shaped

    def spy(self, name, *shape, rows=None):
        (whole if rows is None else by_rows).add((self.path.name, name))
        return shaped(self, name, *shape, rows=rows)

    monkeypatch.setattr(artifacts._NpzArrays, "shaped", spy)
    for command in ("train", "predict"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert by_rows == {("panel.npz", "open"), ("panel.npz", "mask"),
                       ("factors.npz", "values"), ("factors.npz", "mask")}
    assert {name for file, name in whole if file in ("panel.npz", "factors.npz")} == {
        "calendar", "symbols", "names"}

    with np.load(out / "panel.npz") as z:
        arrays = {name: z[name] for name in z.files}
    artifacts._save_npz(out / "panel.npz", **dict(arrays, open=np.asfortranarray(arrays["open"])))
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: data: {out / 'panel.npz'}: array 'open' cannot be read by rows (not a "
        f"C-ordered .npy 1.0 array); rerun ingest\n")


def test_npz_writer_holds_no_copy_of_an_array(tmp_path):
    """np.savez copies each array it writes; the npz writer writes the
    array's own buffer, in either order."""
    for a in (np.ones((300, 200)), np.asfortranarray(np.ones((300, 200)))):
        tracemalloc.start()
        try:
            artifacts._save_npz(tmp_path / "a.npz", values=a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4


def test_unknown_graph_symbol_is_data_error(run_copy, capsys):
    out, cfg_path = run_copy
    graph = out / "graph.csv"
    lines = graph.read_text().splitlines()
    first = lines[1].split(",")
    lines[1] = ",".join(["ZZZ"] + first[1:])
    graph.write_text("\n".join(lines) + "\n")
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "'ZZZ' has no stock embedding" in capsys.readouterr().err


def test_ragged_graph_is_data_error(run_copy, capsys):
    """A graph whose last stock lost its farthest neighbor is not a table."""
    out, cfg_path = run_copy
    graph = out / "graph.csv"
    lines = graph.read_text().splitlines()
    graph.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {graph}: ") and len(err.splitlines()) == 1
    assert err.rstrip().endswith("rerun graph")


def test_graph_csv_reads_back_as_the_built_table(pipeline_run):
    out, _ = pipeline_run
    glove = artifacts._load_glove(out / "glove.npz")
    built = build_knn_graph(glove, 3)
    read = artifacts._load_graph(out / "graph.csv", glove.symbols)
    assert read.k == built.k == 3
    assert np.array_equal(read.neighbors, built.neighbors)
    assert read.neighbors.dtype == np.intp
    assert np.array_equal(read.distances, built.distances)


def test_non_graph_train_runs_without_glove(run_copy, capsys):
    out, cfg_path = run_copy
    base = ["--config", str(cfg_path), "--out", str(out)]
    (out / "glove.npz").unlink()
    assert main(["train"] + base + ["--ablation", "Tech"]) == 0
    stored = json.loads((out / "model_config.json").read_text())
    assert stored["embed_dim"] == json.loads(cfg_path.read_text())["glove"]["dim"]
    assert "glove.npz" not in json.loads((out / "train_manifest.json").read_text())["inputs"]
    assert main(["predict"] + base) == 0
    capsys.readouterr()
    assert main(["interpret"] + base) == 2
    assert "glove.npz not found" in capsys.readouterr().err
    assert main(["train"] + base + ["--ablation", "Full"]) == 2
    assert "glove.npz not found" in capsys.readouterr().err


def test_tech_train_reads_neither_glove_nor_word_vectors(run_copy):
    """A Tech model reads no input of the graph or news modules, so a stale
    glove.npz, of more stocks than the panel, does not stop it."""
    out, cfg_path = run_copy
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["ingest"] + base + ["--set", "universe.min_price=40"]) == 0
    assert artifacts._load_glove(out / "glove.npz").n == 10
    assert len(artifacts._load_panel(out / "panel.npz").symbols) == 7
    assert main(["train", "--ablation", "Tech"] + base) == 0
    inputs = json.loads((out / "train_manifest.json").read_text())["inputs"]
    assert not {"glove.npz", "graph.csv", "word_embeddings.txt", "news.jsonl"} & set(inputs)


def test_news_train_runs_without_factors(run_copy):
    out, cfg_path = run_copy
    (out / "factors.npz").unlink()
    assert main(["train", "--ablation", "News", "--config", str(cfg_path),
                 "--out", str(out)]) == 0


def _assert_stale_glove(out, err):
    assert err == (f"error: data: {out / 'glove.npz'}: its stocks are not those of "
                   f"{out / 'panel.npz'}; rerun cooccur, train-glove and graph on this "
                   f"panel\n")


def test_glove_of_a_wider_universe_is_data_error(run_copy, capsys):
    """ingest rerun with a narrower universe (7 of the 10 stocks) after
    graph: predict and train refuse glove.npz, whose row 0 is not the
    panel's stock 0, instead of giving each stock another's embedding."""
    out, cfg_path = run_copy
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["ingest"] + base + ["--set", "universe.min_price=40"]) == 0
    assert len(artifacts._load_panel(out / "panel.npz").symbols) == 7
    capsys.readouterr()
    # predict first: a failed train deletes the checkpoint that predict reads
    for command in ("predict", "train"):
        assert main([command] + base) == 2
        _assert_stale_glove(out, capsys.readouterr().err)


def test_glove_of_a_narrower_universe_is_data_error(run_copy, capsys):
    """cooccur, train-glove and graph run on a narrower universe, then
    ingest on the whole one: train, which indexed past glove.npz's rows,
    and interpret, which reads glove.npz for a Tech model, refuse it."""
    out, cfg_path = run_copy
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["train", "--ablation", "Tech"] + base) == 0
    assert main(["predict"] + base) == 0
    for command in ("ingest", "cooccur", "train-glove", "graph"):
        assert main([command] + base + ["--set", "universe.min_price=40"]) == 0
    assert main(["ingest"] + base) == 0
    assert artifacts._load_glove(out / "glove.npz").n == 7
    capsys.readouterr()
    for command in ("interpret", "train"):
        assert main([command] + base) == 2
        _assert_stale_glove(out, capsys.readouterr().err)


@pytest.mark.parametrize("command, missing, producer", [
    (["train", "--ablation", "Tech"], "factors.npz", "ingest"),
    (["train-glove"], "cooccur.npz", "cooccur"),
    (["graph"], "glove.npz", "train-glove"),
    (["predict"], "model_config.json", "train"),
    (["backtest"], "forecasts.csv", "predict"),
])
def test_missing_upstream_artifact_is_data_error(tmp_path, capsys, command, missing,
                                                 producer):
    out = tmp_path / "empty"
    assert main([command[0], "--out", str(out)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and len(err.splitlines()) == 1
    assert f"{missing} not found; run {producer} first" in err


def test_model_config_with_removed_setting_is_data_error(run_copy, capsys):
    """A model_config.json written before the head and neighbors settings
    were removed asks for train to run again."""
    out, cfg_path = run_copy
    path = out / "model_config.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), neighbors=5)))
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'neighbors'" in err and "rerun train" in err


@pytest.mark.parametrize("missing, producer", [("graph.csv", "graph"),
                                               ("word_embeddings.txt", "train-word2vec")])
def test_missing_graph_or_word_vectors_is_data_error(run_copy, capsys, missing, producer):
    out, cfg_path = run_copy
    (out / missing).unlink()
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"{missing} not found; run {producer} first" in capsys.readouterr().err


def test_diverging_train_glove_is_numerical_fault(tmp_path, capsys):
    """The failed run also removes what the earlier successful run wrote, so
    graph cannot read the stale glove.npz."""
    cfg_path = small_config(tmp_path, train_end="2015-04-06")
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "run")]
    for command in ("synth", "ingest", "cooccur", "train-glove"):
        assert main([command] + base) == 0
    capsys.readouterr()
    assert main(["train-glove"] + base + ["--set", "glove.lr=50"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: train_glove: ") and "epoch" in err
    assert len(err.splitlines()) == 1
    for name in ("glove.npz", "train_glove_manifest.json"):
        assert not (tmp_path / "run" / name).exists(), name
    assert main(["graph"] + base) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "glove.npz not found; run train-glove first" in err


def test_diverging_train_word2vec_is_numerical_fault(tmp_path, capsys):
    """The failed run also removes what the earlier successful run wrote."""
    cfg_path = small_config(tmp_path, train_end="2015-04-06")
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "run")]
    for command in ("synth", "train-word2vec"):
        assert main([command] + base) == 0
    capsys.readouterr()
    assert main(["train-word2vec"] + base + ["--set", "word2vec.lr=1e6"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: train_cbow: ") and "epoch" in err
    assert "word2vec.lr" in err and len(err.splitlines()) == 1
    for name in ("word_embeddings.txt", "train_word2vec_manifest.json"):
        assert not (tmp_path / "run" / name).exists(), name


# ---------------------------------------------------------------------------
# forecasts.csv: every malformed file is a one-line DataError naming the line
# ---------------------------------------------------------------------------

def _set_field(lines, line_no, field, value):
    cells = lines[line_no - 1].split(",")
    cells[field] = value
    lines[line_no - 1] = ",".join(cells)
    return lines


FORECAST_DAMAGE = {
    "yhat not a number": (lambda lines: _set_field(lines, 3, 2, "notanumber"),
                          "line 3: yhat 'notanumber' is not a number"),
    "y not a number": (lambda lines: _set_field(lines, 6, 3, "0.1.2"),
                       "line 6: y '0.1.2' is not a number"),
    "non-finite yhat": (lambda lines: _set_field(lines, 4, 2, "inf"),
                        "line 4: yhat inf is not finite"),
    "header without y": (lambda lines: ["date,symbol,yhat"] + lines[1:],
                         "line 1: header 'date,symbol,yhat', expected 'date,symbol,yhat,y'"),
    "empty file": (lambda lines: [], "line 1: header '', expected"),
    "no rows": (lambda lines: lines[:1], "no forecasts"),
    "short row": (lambda lines: lines[:6] + [lines[6].rsplit(",", 1)[0]] + lines[7:],
                  "line 7: 3 fields, expected 4"),
    "impossible date": (lambda lines: _set_field(lines, 5, 0, "2021-13-45"),
                        "line 5: bad date '2021-13-45' (month must be in 1..12)"),
    "date not YYYY-MM-DD": (
        lambda lines: _set_field(lines, 2, 0, lines[1][:10].replace("-", "")),
        "line 2: date"),
    "empty symbol": (lambda lines: _set_field(lines, 8, 1, ""), "line 8: empty symbol"),
    "duplicate row": (lambda lines: lines[:4] + [lines[2]] + lines[4:],
                      "line 5: second forecast for"),
}


@pytest.mark.parametrize("case", sorted(FORECAST_DAMAGE))
def test_malformed_forecasts_are_data_errors(run_copy, capsys, case):
    out, cfg_path = run_copy
    damage, detail = FORECAST_DAMAGE[case]
    path = out / "forecasts.csv"
    lines = damage(path.read_text().splitlines())
    path.write_text("".join(line + "\n" for line in lines))
    for command in ("backtest", "quantiles"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {path}") and len(err.splitlines()) == 1
        assert detail in err


@pytest.mark.parametrize("field, replacement", [(0, "2030-01-02"), (1, "ZZZ")])
def test_forecasts_not_matching_the_panel_are_data_errors(run_copy, capsys, field,
                                                          replacement):
    out, cfg_path = run_copy
    path = out / "forecasts.csv"
    lines = path.read_text().splitlines()
    original = lines[1].split(",")[field]
    lines = [lines[0]] + [",".join(replacement if i == field and c == original else c
                                   for i, c in enumerate(line.split(",")))
                          for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n")
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["backtest"] + base) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert (f"error: data: {path}: {replacement} is not in {out / 'panel.npz'}; the "
            f"forecasts do not match the panel, rerun predict") in err
    assert main(["quantiles"] + base) == 0    # quantiles reads no panel


def test_interpret_without_temporal_attention_is_data_error(run_copy, capsys):
    out, cfg_path = run_copy
    (out / "temporal_attention.csv").unlink()
    assert main(["interpret", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and len(err.splitlines()) == 1
    assert "temporal_attention.csv not found; run predict first" in err


def test_interpret_after_a_train_window_predict_is_data_error(run_copy, capsys):
    """interpret reports on the test window: forecasts from before it (here
    from a predict run with a shorter gap) ask for predict to run again."""
    out, cfg_path = run_copy
    base = ["--config", str(cfg_path), "--out", str(out), "--set", "split.gap_days=8"]
    assert main(["interpret"] + base) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {out / 'forecasts.csv'}: forecasts from ")
    assert len(err.splitlines()) == 1 and err.endswith("; rerun predict\n")


@pytest.mark.parametrize("symbols", [[["S00"]], "S00", ["S00", ""]],
                         ids=["nested list", "string", "empty symbol"])
def test_news_symbols_not_a_list_of_names_is_data_error(run_copy, capsys, symbols):
    """A string is not split into one-letter symbols, and a nested list
    does not reach the co-mention count."""
    out, cfg_path = run_copy
    path = out / "news.jsonl"
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), symbols=symbols))
    path.write_text("".join(line + "\n" for line in lines))
    assert main(["cooccur", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {path} line 1: malformed news record: symbols ")
    assert len(err.splitlines()) == 1 and "is not a list of non-empty strings" in err


@pytest.mark.parametrize("field", ["id", "text", "symbols"])
def test_news_lone_surrogate_is_data_error(run_copy, capsys, field):
    """A lone surrogate (the JSON escape \\ud800) cannot be written as
    UTF-8: the news loader rejects it, before the word vectors are written."""
    out, cfg_path = run_copy
    path = out / "news.jsonl"
    lines = path.read_text().splitlines()
    lone = {"id": "x\ud800", "text": " ".join(["x\ud800"] * 50),
            "symbols": ["S00", "x\ud800"]}
    lines[1] = json.dumps(dict(json.loads(lines[1]), **{field: lone[field]}))
    path.write_text("".join(line + "\n" for line in lines))
    assert main(["train-word2vec", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {path} line 2: malformed news record: ")
    assert len(err.splitlines()) == 1 and "lone surrogate" in err


# ---------------------------------------------------------------------------
# manifests list what each stage read and wrote; a failed command leaves
# none of its outputs
# ---------------------------------------------------------------------------

TRAINED = {"model_config.json", "checkpoint.npz", "panel.npz", "factors.npz", "news.jsonl",
           "word_embeddings.txt", "glove.npz", "graph.csv"}
INTERPRET_OUTPUTS = {"pair_distances.csv", "final_stock_embeddings.txt",
                     "factor_importance.csv", "news_error_buckets.csv"}
READS_AND_WRITES = {
    "synth": (set(), {"bars.csv", "news.jsonl", "truth.json", "truth_signals.csv"}),
    "ingest": ({"bars.csv"}, {"panel.npz", "factors.npz"}),
    "cooccur": ({"news.jsonl", "panel.npz"}, {"cooccur.npz"}),
    "train_word2vec": ({"news.jsonl"}, {"word_embeddings.txt"}),
    "train_glove": ({"cooccur.npz"}, {"glove.npz"}),
    "graph": ({"glove.npz"}, {"graph.csv"}),
    "train": (TRAINED - {"model_config.json", "checkpoint.npz"},
              {"checkpoint.npz", "model_config.json"}),
    "predict": (TRAINED, {"forecasts.csv", "temporal_attention.csv"}),
    "backtest": ({"forecasts.csv", "panel.npz"}, {"pnl_daily.csv", "metrics.csv"}),
    "quantiles": ({"forecasts.csv"}, {"quantiles.csv"}),
    "interpret": ({"model_config.json", "checkpoint.npz", "panel.npz", "factors.npz",
                   "news.jsonl", "forecasts.csv", "temporal_attention.csv"},
                  INTERPRET_OUTPUTS),
}


@pytest.mark.parametrize("cmd", sorted(READS_AND_WRITES))
def test_manifest_lists_exactly_what_the_stage_read_and_wrote(pipeline_run, cmd):
    out, _ = pipeline_run
    manifest = json.loads((out / f"{cmd}_manifest.json").read_text())
    inputs, outputs = READS_AND_WRITES[cmd]
    assert set(manifest["inputs"]) == inputs
    assert set(manifest["outputs"]) == outputs
    for name, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
        assert digest == sha256_file(out / name), name


def test_failed_command_removes_what_it_wrote(run_copy, capsys, monkeypatch):
    """interpret writes three reports before it reads news.jsonl; without
    that file it fails, and neither those reports nor the ones and the
    manifest of its earlier run remain."""
    out, cfg_path = run_copy
    (out / "news.jsonl").rename(out / "news.moved")
    written = []
    write = artifacts.OutDir.write
    monkeypatch.setattr(artifacts.OutDir, "write",
                        lambda self, name: written.append(name) or write(self, name))
    assert main(["interpret", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "news.jsonl not found; run synth first" in capsys.readouterr().err
    assert written == ["pair_distances.csv", "final_stock_embeddings.txt",
                       "factor_importance.csv"]
    left = {p.name for p in out.iterdir()}
    assert not left & (INTERPRET_OUTPUTS | {"interpret_manifest.json"})
    assert {"forecasts.csv", "predict_manifest.json", "checkpoint.npz"} <= left


@pytest.mark.parametrize("cmd", ["train", "predict", "interpret"])
def test_model_stages_read_each_panel_once(run_copy, monkeypatch, cmd):
    """A model stage opens factors.npz and panel.npz at most once each, and
    writes the manifest it wrote before."""
    out, cfg_path = run_copy
    opened = collections.Counter()

    class CountingNpz(artifacts._NpzArrays):
        def __init__(self, path, *names):
            opened[Path(path).name] += 1
            super().__init__(path, *names)

    for module in (artifacts, samples, stage_model, stage_interpret):
        monkeypatch.setattr(module, "_NpzArrays", CountingNpz)
    manifest = out / f"{cmd}_manifest.json"
    before = manifest.read_bytes()
    assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert opened["panel.npz"] == 1
    assert opened["factors.npz"] == 1
    assert manifest.read_bytes() == before


# ---------------------------------------------------------------------------
# no traceback escapes a corrupted artifact
# ---------------------------------------------------------------------------

def _rewrite_npz(path, change):
    """Replace arrays of an .npz file by those ``change(arrays)`` returns."""
    with np.load(path) as z:
        arrays = {name: z[name] for name in z.files}
    np.savez(path, **dict(arrays, **change(arrays)))


def _edit_json(path, **changes):
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **changes)))


def _wordvec_value(path):
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0] + " abc"
    path.write_text("\n".join(lines) + "\n")


def _append_invalid_utf8(path):
    path.write_bytes(path.read_bytes() + b"\xff")


def _set_first(name, value):
    """Damage: entry 0 of .npz array ``name`` becomes ``value(arrays)``."""
    def damage(path):
        def change(arrays):
            a = arrays[name].copy()
            a[0] = value(arrays)
            return {name: a}
        _rewrite_npz(path, change)
    return damage


def _nan_in_checkpoint(path):
    values = load_checkpoint(path)
    values["tech.w"][0, 0] = np.nan
    save_checkpoint(path, values)


def _quote_left_open(path):
    # a quote opened and not closed makes the rest of the file one field
    path.write_text(path.read_text() + '"' + "x" * 140_000)


# artifact -> the first command of the pipeline that reads it
FIRST_READER = {
    "bars.csv": "ingest", "news.jsonl": "cooccur", "panel.npz": "cooccur",
    "cooccur.npz": "train-glove", "glove.npz": "graph", "factors.npz": "train",
    "word_embeddings.txt": "train", "graph.csv": "train", "checkpoint.npz": "predict",
    "model_config.json": "predict", "forecasts.csv": "backtest",
}
CORRUPTIONS = {
    **{f"{name} empty": (name, lambda path: path.write_bytes(b""), None)
       for name in FIRST_READER},
    "word vector header x y": ("word_embeddings.txt",
                               lambda path: path.write_text("x y\n"), "line 1: header"),
    "word vector not a number": ("word_embeddings.txt", _wordvec_value,
                                 "line 2: could not convert string to float: 'abc'"),
    "model config not JSON": ("model_config.json", lambda path: path.write_text("{"),
                              "rerun train"),
    "model config string width": ("model_config.json",
                                  lambda path: _edit_json(path, hidden="8"),
                                  "hidden must be an integer, got '8'; rerun train"),
    "model config negative width": ("model_config.json",
                                    lambda path: _edit_json(path, hidden=-1),
                                    "hidden must be >= 1, got -1; rerun train"),
    "model config no module": ("model_config.json",
                               lambda path: _edit_json(path, use_graph=False, use_tech=False,
                                                       use_news=False),
                               "at least one input module must be enabled; rerun train"),
    "model config tech without factors": ("model_config.json",
                                          lambda path: _edit_json(path, n_factors=0),
                                          "the technical module needs model.n_factors >= 1, "
                                          "got 0; rerun train"),
    "news not UTF-8": ("news.jsonl", _append_invalid_utf8, "not UTF-8 text"),
    "graph not UTF-8": ("graph.csv", _append_invalid_utf8, "not UTF-8 text"),
    "graph quote left open": ("graph.csv", _quote_left_open,
                              "field larger than field limit (131072); rerun graph"),
    "bars quote left open": ("bars.csv", _quote_left_open,
                             "bars.csv: field larger than field limit (131072)"),
    "panel dates not ISO": (
        "panel.npz", lambda path: _rewrite_npz(path, lambda a: {"calendar": np.array(["x"])}),
        "array 'calendar': Invalid isoformat string: 'x'; rerun ingest"),
    "checkpoint non-finite": ("checkpoint.npz", _nan_in_checkpoint,
                              "parameter tech.w holds a non-finite value; rerun train"),
    "glove vectors non-finite": (
        "glove.npz", _set_first("vectors", lambda a: np.nan),
        "array 'vectors' holds a non-finite value; rerun train-glove"),
    "glove biases non-finite": (
        "glove.npz", _set_first("biases", lambda a: np.inf),
        "array 'biases' holds a non-finite value; rerun train-glove"),
    "glove vectors 1-D": (
        "glove.npz", lambda path: _rewrite_npz(path, lambda a: {"vectors": np.zeros(10)}),
        "array 'vectors' has shape (10,), expected 10 x *; rerun train-glove"),
    "cooccur lengths differ": (
        "cooccur.npz", lambda path: _rewrite_npz(path, lambda a: {"vals": a["vals"][:-1]}),
        "array 'vals' has shape (89,), expected 90; rerun cooccur"),
    "cooccur column past the symbols": (
        "cooccur.npz", _set_first("cols", lambda a: a["symbols"].size),
        "array 'cols' holds an entry that is not an index in [0, 10); rerun cooccur"),
    "cooccur row past the symbols": (
        "cooccur.npz", _set_first("rows", lambda a: a["symbols"].size),
        "array 'rows' holds an entry that is not an index in [0, 10); rerun cooccur"),
    "cooccur negative row": (
        "cooccur.npz", _set_first("rows", lambda a: -1),
        "array 'rows' holds an entry that is not an index in [0, 10); rerun cooccur"),
    "cooccur stock paired with itself": (
        "cooccur.npz", _set_first("cols", lambda a: a["rows"][0]),
        "a pair (i, i) of a stock with itself; rerun cooccur"),
    "cooccur pair in one order only": (
        "cooccur.npz", lambda path: _rewrite_npz(path, lambda a: {
            k: a[k][1:] for k in ("rows", "cols", "vals")}),
        "a pair not present once in each order with one count; rerun cooccur"),
    "cooccur counts differ by order": (
        "cooccur.npz", _set_first("vals", lambda a: a["vals"][0] + 1),
        "a pair not present once in each order with one count; rerun cooccur"),
    "cooccur negative counts": (
        "cooccur.npz", lambda path: _rewrite_npz(path, lambda a: {"vals": -a["vals"]}),
        "a count that is not a positive integer; rerun cooccur"),
    "cooccur zero counts": (
        "cooccur.npz", lambda path: _rewrite_npz(path, lambda a: {"vals": 0 * a["vals"]}),
        "a count that is not a positive integer; rerun cooccur"),
    "cooccur fractional count": (
        "cooccur.npz", _set_first("vals", lambda a: 0.5),
        "a count that is not a positive integer; rerun cooccur"),
    "factor values narrower than names": (
        "factors.npz",
        lambda path: _rewrite_npz(path, lambda a: {"values": a["values"][..., :-1]}),
        "array 'values' has shape"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_artifact_is_a_one_line_error(run_copy, capsys, case):
    out, cfg_path = run_copy
    name, damage, detail = CORRUPTIONS[case]
    damage(out / name)
    code = main([FIRST_READER[name], "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: data: ") and len(err.splitlines()) == 1, err
    assert detail is None or detail in err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(vars(ModelConfig())) + ["neighbors", ""]),
                       st.integers(0, 9) | st.booleans() | _json_values, max_size=3),
       st.just(0) | st.integers(1, 60))
def test_model_config_loader_fuzz(tmp_path_factory, changes, cut):
    """Any edit of a stored model config, or a cut of its text, loads as a
    config of the right types or raises a DataError."""
    path = tmp_path_factory.mktemp("mc") / "model_config.json"
    text = json.dumps(dict(vars(ModelConfig(n_factors=3)), **changes))
    path.write_text(text[:len(text) - cut])
    try:
        cfg = artifacts._read_model_config(path)
    except DataError:
        return
    for name, default in vars(ModelConfig()).items():
        assert type(getattr(cfg, name)) in ((int, float) if type(default) is float
                                            else (type(default),))


@st.composite
def _embedding_files(draw):
    """The bytes of an embedding file, maybe with one token replaced, cut
    short or not UTF-8."""
    n, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tokens = [[str(n), str(dim)]] + [
        [draw(st.sampled_from(["a", "b", "é"]))]
        + [repr(draw(st.floats(width=32))) for _ in range(dim)] for _ in range(n)]
    line = draw(st.integers(0, n))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(tokens[line]) - 1))
        tokens[line][at] = draw(st.sampled_from(["", "x", "-1", "0", "1.5", "1e999", "9" * 30]))
    text = "".join(" ".join(row) + "\n" for row in tokens)
    text = text[:len(text) - draw(st.just(0) | st.integers(1, len(text)))]
    return text.encode(draw(st.sampled_from(["utf-8", "latin-1"])))


@settings(max_examples=200, deadline=None)
@given(_embedding_files())
def test_embedding_file_loader_fuzz(tmp_path_factory, data):
    """Any such file reads as (labels, count x dim matrix) or raises a DataError."""
    path = tmp_path_factory.mktemp("emb") / "vectors.txt"
    path.write_bytes(data)
    try:
        labels, matrix = read_embeddings(path)
        dim = embedding_dim(path)
    except DataError:
        return
    assert matrix.shape == (len(labels), dim) and matrix.dtype == np.float64


# ---------------------------------------------------------------------------
# fuzzed graph and checkpoint files
# ---------------------------------------------------------------------------

_GRAPH_TOKENS = ["", "x", "0", "-1", "1", "2", "3", "4", "1.5", "nan", "1e999", "9" * 30,
                 '"', "source"]
_U32_VALUES = [0, 1, 2, 3, 255, 2 ** 16, 2 ** 31, 2 ** 32 - 1]


@st.composite
def _line_edits(draw, text: str) -> bytes:
    """``text`` with one to three lines deleted, repeated or swapped, or one
    comma-separated field of a line replaced."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "repeat", "swap", "field"]))
        if kind == "delete":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_GRAPH_TOKENS))
            lines[i] = ",".join(cells)
    return "".join(line + "\n" for line in lines).encode()


# the signature of each zip record with the length of its fixed fields, and
# the start of an .npy header's dict, which runs to its closing brace
_HEADER_MARKS = ((b"PK\x03\x04", 30), (b"PK\x01\x02", 46), (b"PK\x05\x06", 22),
                 (b"{'descr'", None))


def _header_positions(data: bytes) -> list[int]:
    """The offsets of the bytes of ``data``'s zip records (each member's
    local header and central-directory entry, and the end record) and of
    each member's .npy header dict."""
    positions = []
    for mark, length in _HEADER_MARKS:
        at = data.find(mark)
        while at >= 0:
            end = data.find(b"}", at) + 1 if length is None else at + length
            positions.extend(range(at, min(end, len(data))))
            at = data.find(mark, at + 1)
    return positions


@st.composite
def _byte_edits(draw, data: bytes) -> bytes:
    """``data`` with one to three edits: a byte or a little-endian u32
    overwritten, a short span deleted or repeated, or the tail cut. Edits
    favour the first 64 bytes, and half the edits of an .npz file overwrite
    a byte or u32 of a zip record or an .npy header dict, where a random
    position rarely falls."""
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        headers = _header_positions(data)
        if headers and draw(st.booleans()):
            at, kinds = draw(st.sampled_from(headers)), ["byte", "u32"]
        else:
            at = draw(st.integers(0, min(63, len(data) - 1)) | st.integers(0, len(data) - 1))
            kinds = ["byte", "u32", "delete", "repeat", "cut"]
        kind = draw(st.sampled_from(kinds))
        if kind == "byte":
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif kind == "u32":
            value = draw(st.sampled_from(_U32_VALUES)).to_bytes(4, "little")
            data = data[:at] + value + data[at + 4:]
        elif kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 8)):]
        elif kind == "repeat":
            data = data[:at + draw(st.integers(1, 8))] + data[at:]
        else:
            data = data[:at]
    return data


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory, pipeline_run):
    """A copy of the pipeline run that the fuzz tests damage and restore."""
    out, cfg_path = pipeline_run
    copy = tmp_path_factory.mktemp("fuzz") / "run"
    shutil.copytree(out, copy)
    return copy, cfg_path


def _load_and_run(run, command, name, data, load):
    """Put ``data`` in place of the run's ``name``; its loader may raise
    only an AlphagraphError, and ``command`` must succeed or exit 2. The
    run's files are restored after, those the command wrote or removed too."""
    out, cfg_path = run
    files = {path: path.read_bytes() for path in out.iterdir()}
    (out / name).write_bytes(data)
    try:
        try:
            load(out / name)
        except AlphagraphError:
            pass
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) in (0, 2)
    finally:
        for path in set(out.iterdir()) - set(files):
            path.unlink()
        for path, content in files.items():
            path.write_bytes(content)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph_loader_fuzz(fuzz_run, data):
    out, _ = fuzz_run
    symbols = artifacts._load_glove(out / "glove.npz").symbols
    original = (out / "graph.csv").read_bytes()
    damaged = data.draw(_line_edits(original.decode()) | _byte_edits(original))
    _load_and_run(fuzz_run, "predict", "graph.csv", damaged,
                  lambda path: artifacts._load_graph(path, symbols))


def _central_entry(data: bytes, field: int) -> int:
    """The offset of a field of the first central-directory entry of a zip."""
    return data.index(b"PK\x01\x02") + field


def _npy_shape_end(data: bytes) -> int:
    """The offset of the ``)`` that closes the first ``.npy`` header's shape."""
    return data.index(b")", data.index(b"'shape': ("))


@pytest.mark.parametrize("at, value", [
    (lambda data: _central_entry(data, 6), 142),   # "version needed" 14.2
    (lambda data: _central_entry(data, 8), 1),     # flag bit 0, encrypted
    (lambda data: _central_entry(data, 10), 99),   # compression method 99
    (_npy_shape_end, ord("("))],                   # a bracket left open
    ids=["zip version", "encrypted", "compression", "npy header"])
def test_damaged_npz_header_is_data_error(run_copy, capsys, at, value):
    """zipfile's NotImplementedError and RuntimeError and numpy's TokenError
    for a damaged header end, like any other damage, in exit 2."""
    out, cfg_path = run_copy
    panel = out / "panel.npz"
    data = bytearray(panel.read_bytes())
    data[at(data)] = value
    panel.write_bytes(bytes(data))
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {panel}: truncated or corrupt .npz file (")
    assert err.endswith("; rerun ingest\n") and len(err.splitlines()) == 1


def _load_factors(path):
    with artifacts._NpzArrays(path) as z:
        return artifacts._read_factors(z)


NPZ_LOADERS = {"checkpoint.npz": load_checkpoint, "panel.npz": artifacts._load_panel,
               "factors.npz": _load_factors}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checkpoint_loader_fuzz(fuzz_run, data):
    """The .npz files predict reads, the checkpoint among them, with bytes
    edited anywhere, headers and data alike."""
    out, _ = fuzz_run
    name = data.draw(st.sampled_from(sorted(NPZ_LOADERS)))
    damaged = data.draw(_byte_edits((out / name).read_bytes()))
    _load_and_run(fuzz_run, "predict", name, damaged, NPZ_LOADERS[name])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("cooccur.npz", artifacts._load_cooccur, "train-glove"),
                        ("glove.npz", artifacts._load_glove, "graph")]), st.data())
def test_news_stage_npz_loader_fuzz(fuzz_run, reader, data):
    """cooccur.npz through train-glove and glove.npz through graph, with
    bytes edited anywhere, headers and data alike."""
    out, _ = fuzz_run
    name, load, command = reader
    damaged = data.draw(_byte_edits((out / name).read_bytes()))
    _load_and_run(fuzz_run, command, name, damaged, load)


# ---------------------------------------------------------------------------
# fuzzed news records
# ---------------------------------------------------------------------------

_NEWS_FIELDS = ["id", "date", "symbols", "text", ""]
_NEWS_VALUES = [["S00"], [["S00"]], "S00", [""], ["S00", 1], "2015-13-01", "2015-02-03",
                "20150203", "", " ", "http://x.y/z", {"a": 1}]
# text that may hold lone surrogates, which json.dumps writes as \udXXX escapes
_surrogate_text = st.text(st.characters(exclude_categories=()) | st.sampled_from("\ud800\udfff"),
                          max_size=6)


@st.composite
def _record_edits(draw, text: str) -> bytes:
    """``text``, one JSON object per line, with one to three records edited:
    a field set to another JSON value or deleted, the symbols set to a list
    of JSON values, or the whole record replaced by a JSON value."""
    lines = text.splitlines()
    values = _json_values | _surrogate_text | st.sampled_from(_NEWS_VALUES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[i])
        kind = draw(st.sampled_from(["set", "delete", "symbols", "replace"]))
        if kind == "replace" or not isinstance(record, dict):
            record = draw(values)
        elif kind == "delete":
            record.pop(draw(st.sampled_from(_NEWS_FIELDS)), None)
        elif kind == "symbols":
            record["symbols"] = draw(st.lists(values | st.sampled_from(["S00", "S01"]),
                                              max_size=3))
        else:
            record[draw(st.sampled_from(_NEWS_FIELDS))] = draw(values)
        lines[i] = json.dumps(record)
    return "".join(line + "\n" for line in lines).encode()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_news_loader_fuzz(fuzz_run, data):
    """Any such news file loads, or raises an AlphagraphError; cooccur
    exits 0 or 2."""
    out, cfg_path = fuzz_run
    path = out / "news.jsonl"
    original = path.read_bytes()
    damaged = data.draw(_record_edits(original.decode()) | _byte_edits(original))
    path.write_bytes(damaged)
    try:
        try:
            load_articles(path)
        except AlphagraphError:
            pass
        assert main(["cooccur", "--config", str(cfg_path), "--out", str(out)]) in (0, 2)
    finally:
        path.write_bytes(original)
