"""CLI pipeline: command wiring, exit codes, manifests, determinism."""

import csv
import json
import shutil

import numpy as np
import pytest

from alphagraph.checkpoint import load_checkpoint
from alphagraph.cli import main
from alphagraph.config import sha256_file


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
                 "stock_embeddings.txt", "graph.csv", "checkpoint.bin",
                 "model_config.json", "forecasts.csv", "pnl_daily.csv",
                 "metrics.csv", "quantiles.csv", "pair_distances.csv",
                 "factor_importance.csv", "temporal_attention.csv",
                 "news_error_buckets.csv", "final_stock_embeddings.txt"):
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


def test_rerun_is_deterministic(tmp_path, pipeline_run):
    out_a, cfg_path = pipeline_run
    out_b = tmp_path / "second"
    run_pipeline(out_b, cfg_path)
    for cmd in ("synth", "ingest", "cooccur", "train_word2vec", "train_glove",
                "graph", "train", "predict", "backtest", "quantiles"):
        ha = sha256_file(out_a / f"{cmd}_manifest.json")
        hb = sha256_file(out_b / f"{cmd}_manifest.json")
        assert ha == hb, cmd
    assert sha256_file(out_a / "checkpoint.bin") == sha256_file(out_b / "checkpoint.bin")


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
    keys = set(load_checkpoint(out / "checkpoint.bin"))
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
    cfg_path = small_config(tmp_path, train_end="2030-01-06")
    out = tmp_path / "badsplit"
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["synth"] + base) == 0
    assert main(["ingest"] + base) == 0
    assert main(["cooccur"] + base) == 0
    assert main(["train-word2vec"] + base) == 0
    assert main(["train-glove"] + base) == 0
    assert main(["graph"] + base) == 0
    assert main(["train"] + base) == 2
    assert capsys.readouterr().err.startswith("error: data:")


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


@pytest.mark.parametrize("setting", ["synth.n_clusters=0", "synth.noise_std=-1"])
def test_invalid_synth_spec_is_config_error(tmp_path, capsys, setting):
    assert main(["synth", "--out", str(tmp_path / "o"), "--set", setting]) == 1
    assert capsys.readouterr().err.startswith("error: config: synth.")


def test_truncated_checkpoint_is_data_error(run_copy, capsys):
    out, cfg_path = run_copy
    ckpt = out / "checkpoint.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:-20])
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "truncated or corrupt checkpoint" in capsys.readouterr().err


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


def test_unknown_graph_symbol_is_data_error(run_copy, capsys):
    out, cfg_path = run_copy
    graph = out / "graph.csv"
    lines = graph.read_text().splitlines()
    first = lines[1].split(",")
    lines[1] = ",".join(["ZZZ"] + first[1:])
    graph.write_text("\n".join(lines) + "\n")
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "'ZZZ' has no stock embedding" in capsys.readouterr().err


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
    cfg_path = small_config(tmp_path, train_end="2015-04-06")
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "run")]
    for command in ("synth", "ingest", "cooccur"):
        assert main([command] + base) == 0
    capsys.readouterr()
    assert main(["train-glove"] + base + ["--set", "glove.lr=5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical: train_glove: ") and "epoch" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run" / "glove.npz").exists()
    assert not (tmp_path / "run" / "stock_embeddings.txt").exists()
