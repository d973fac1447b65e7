"""The paper-scale harness on a tiny market: the JSON it stores per run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "paper_scale.py"

# a market small enough for the whole pipeline to take a few seconds
TINY = ["synth.n_stocks=10", "synth.days=160", "synth.news_rate=5.0",
        "split.train_end=2015-06-30", "universe.min_history=60",
        "universe.min_median_dollar_volume=1e4", "universe.min_price=0.5",
        "factors.momentum=[5,10]", "word2vec.dim=8", "word2vec.min_count=5",
        "word2vec.epochs=1", "glove.dim=4", "model.tech_dim=6", "model.hidden=4"]
STAGES = ["synth", "ingest", "cooccur", "train-word2vec", "train-glove", "graph", "train",
          "predict", "backtest --simulator markowitz", "backtest --simulator longshort",
          "quantiles", "interpret"]


def bench(path, *overrides):
    argv = [sys.executable, str(SCRIPT), "--name", "tiny", "--json", str(path)]
    for item in overrides:
        argv += ["--set", item]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_paper_scale_records_every_stage_and_replaces_a_run_by_name(tmp_path):
    path = tmp_path / "BENCH_paper_scale.json"
    proc = bench(path, *TINY)
    assert proc.returncode == 0, proc.stderr
    (run,) = json.loads(path.read_text())["runs"]
    assert set(run) == {"name", "commit", "dirty", "src_diff_sha256", "preset", "overrides",
                        "environment", "completed", "stages"}
    assert run["name"] == "tiny" and run["preset"] == "runs-today" and run["completed"]
    assert "model.epochs=1" in run["overrides"] and run["overrides"][-len(TINY):] == TINY
    assert {"python", "numpy", "blas_threads", "nproc"} <= set(run["environment"])
    assert [s["stage"] for s in run["stages"]] == STAGES
    for stage in run["stages"]:
        assert set(stage) == {"stage", "seconds", "rss_mb", "exit_code"}
        assert stage["exit_code"] == 0 and stage["seconds"] > 0 and stage["rss_mb"] > 0

    # a run that fails stops at the failing stage and records its exit code
    # and error line, in place of the stored run of the same name
    proc = bench(path, *TINY, "universe.min_history=100000")
    assert proc.returncode == 1
    (run,) = json.loads(path.read_text())["runs"]
    assert not run["completed"]
    assert [s["stage"] for s in run["stages"]] == STAGES[:2]
    failed = run["stages"][-1]
    assert failed["exit_code"] == 2
    assert failed["error"] == "error: data: universe filter removed every symbol"
