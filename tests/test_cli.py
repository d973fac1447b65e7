"""CLI pipeline: command wiring, exit codes, manifests, determinism."""

import csv
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphagraph import cli
from alphagraph.checkpoint import load_checkpoint
from alphagraph.cli import main
from alphagraph.config import sha256_file
from alphagraph.embfile import embedding_dim, read_embeddings
from alphagraph.errors import DataError
from alphagraph.model import ModelConfig


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


@pytest.mark.parametrize("command, setting", [("cooccur", "split.train_end=2015-13-01"),
                                              ("train", "model.hidden=0"),
                                              ("train", "model.batch_size=0")])
def test_invalid_setting_is_config_error(run_copy, capsys, command, setting):
    out, cfg_path = run_copy
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and len(err.splitlines()) == 1, err


def test_one_day_window_without_signal_is_config_error(run_copy, capsys):
    out, cfg_path = run_copy
    code = main(["ingest", "--config", str(cfg_path), "--out", str(out),
                 "--set", 'factors={"volatility": [1], "momentum": [5]}'])
    err = capsys.readouterr().err
    assert code == 1 and err == ("error: config: factor volatility_1 carries no signal: "
                                 "its window must be at least 2\n")


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
    for name in ("glove.npz", "stock_embeddings.txt", "train_glove_manifest.json"):
        assert not (tmp_path / "run" / name).exists(), name
    assert main(["graph"] + base) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "glove.npz not found; run train-glove first" in err


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


# ---------------------------------------------------------------------------
# manifests list what each stage read and wrote; a failed command leaves
# none of its outputs
# ---------------------------------------------------------------------------

TRAINED = {"model_config.json", "checkpoint.bin", "panel.npz", "factors.npz", "news.jsonl",
           "word_embeddings.txt", "glove.npz", "graph.csv"}
INTERPRET_OUTPUTS = {"pair_distances.csv", "final_stock_embeddings.txt",
                     "factor_importance.csv", "temporal_attention.csv",
                     "news_error_buckets.csv"}
READS_AND_WRITES = {
    "synth": (set(), {"bars.csv", "news.jsonl", "truth.json", "truth_signals.csv"}),
    "ingest": ({"bars.csv"}, {"panel.npz", "factors.npz"}),
    "cooccur": ({"news.jsonl", "panel.npz"}, {"cooccur.npz"}),
    "train_word2vec": ({"news.jsonl"}, {"word_embeddings.txt"}),
    "train_glove": ({"cooccur.npz"}, {"glove.npz", "stock_embeddings.txt"}),
    "graph": ({"glove.npz"}, {"graph.csv"}),
    "train": (TRAINED - {"model_config.json", "checkpoint.bin"},
              {"checkpoint.bin", "model_config.json"}),
    "predict": (TRAINED, {"forecasts.csv"}),
    "backtest": ({"forecasts.csv", "panel.npz"}, {"pnl_daily.csv", "metrics.csv"}),
    "quantiles": ({"forecasts.csv"}, {"quantiles.csv"}),
    "interpret": (TRAINED, INTERPRET_OUTPUTS),
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
    write = cli.OutDir.write
    monkeypatch.setattr(cli.OutDir, "write",
                        lambda self, name: written.append(name) or write(self, name))
    assert main(["interpret", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "news.jsonl not found; run synth first" in capsys.readouterr().err
    assert written == ["pair_distances.csv", "final_stock_embeddings.txt",
                       "factor_importance.csv"]
    left = {p.name for p in out.iterdir()}
    assert not left & (INTERPRET_OUTPUTS | {"interpret_manifest.json"})
    assert {"forecasts.csv", "predict_manifest.json", "checkpoint.bin"} <= left


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


# artifact -> the first command of the pipeline that reads it
FIRST_READER = {
    "bars.csv": "ingest", "news.jsonl": "cooccur", "panel.npz": "cooccur",
    "cooccur.npz": "train-glove", "glove.npz": "graph", "factors.npz": "train",
    "word_embeddings.txt": "train", "graph.csv": "train", "checkpoint.bin": "predict",
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
                                  "hidden is '8', expected int; rerun train"),
    "model config negative width": ("model_config.json",
                                    lambda path: _edit_json(path, hidden=-1),
                                    "hidden must be >= 1, got -1; rerun train"),
    "news not UTF-8": ("news.jsonl", _append_invalid_utf8, "not UTF-8 text"),
    "graph not UTF-8": ("graph.csv", _append_invalid_utf8, "not UTF-8 text"),
    "panel dates not ISO": (
        "panel.npz", lambda path: _rewrite_npz(path, lambda a: {"calendar": np.array(["x"])}),
        "array 'calendar': Invalid isoformat string: 'x'; rerun ingest"),
    "glove vectors 1-D": (
        "glove.npz", lambda path: _rewrite_npz(path, lambda a: {"vectors": np.zeros(10)}),
        "array 'vectors' has shape (10,), expected 10 x *; rerun train-glove"),
    "cooccur lengths differ": (
        "cooccur.npz", lambda path: _rewrite_npz(path, lambda a: {"vals": a["vals"][:-1]}),
        "array 'vals' has shape (89,), expected 90; rerun cooccur"),
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
    text = json.dumps(dict(vars(ModelConfig()), **changes))
    path.write_text(text[:len(text) - cut])
    try:
        cfg = cli._read_model_config(path)
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
