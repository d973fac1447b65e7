#!/usr/bin/env python3
"""Paper-scale benchmark: every CLI stage on a 500-stock, 2,500-day market.

The stages run in pipeline order, each in a fresh process started through
``perfbench/launch.py``, which records its wall time, its peak RSS (from
``os.wait4``) and its exit code. BLAS is pinned to one thread, as in
perfbench. A run stops at the first stage that fails and records its exit
code. The run is stored under its name in ``BENCH_paper_scale.json``, with
the commit it ran, its config overrides and the environment; a run of the
same name replaces the stored one.

    python3 benchmarks/paper_scale.py --name "NAME" --preset runs-today
    python3 benchmarks/paper_scale.py --name "NAME" --preset dim400 --repo OTHER_CHECKOUT

Presets (each also sets the market size):

* ``runs-today``: ``glove.lr=0.005`` (the default diverges),
  ``word2vec.dim=50``, ``model.epochs=1`` and ``split.train_end=2019-12-31``;
* ``dim400``: the same at the default ``word2vec.dim`` of 400.

``--set SECTION.KEY=VALUE`` adds overrides after the preset's; a later item
wins. A run records the checkout's HEAD commit and, when its tracked files
differ from it, the SHA-256 of ``git diff --full-index HEAD -- src``, which
names the code that ran. One ``runs-today`` run takes about four minutes on
a 2-core machine and peaks below 0.5 GB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import LAUNCH, THREAD_ENV, environment  # noqa: E402  one launcher, one environment

MARKET = ("synth.n_stocks=500", "synth.days=2500")
PRESETS = {
    "runs-today": (*MARKET, "glove.lr=0.005", "word2vec.dim=50", "model.epochs=1",
                   "split.train_end=2019-12-31"),
    "dim400": (*MARKET, "glove.lr=0.005", "model.epochs=1", "split.train_end=2019-12-31"),
}
STAGES = (("synth", ()), ("ingest", ()), ("cooccur", ()), ("train-word2vec", ()),
          ("train-glove", ()), ("graph", ()), ("train", ()), ("predict", ()),
          ("backtest", ("--simulator", "markowitz")), ("backtest", ("--simulator", "longshort")),
          ("quantiles", ()), ("interpret", ()))


def git_state(repo: Path) -> dict:
    """The checkout's HEAD commit, whether its tracked files differ from it,
    and the SHA-256 of its source diff against HEAD (None when there is none)."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(repo), *args], capture_output=True)
        return proc.stdout if proc.returncode == 0 else None
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    diff = git("diff", "--full-index", "--no-color", "--no-ext-diff", "HEAD", "--", "src")
    return {"commit": commit.decode().strip() if commit is not None else None,
            "dirty": bool(status) if status is not None else None,
            "src_diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def run_stage(repo: Path, command: str, extra, overrides, out: Path, work: Path) -> dict:
    cli = ["-m", "alphagraph.cli", command, "--out", str(out), *extra]
    for item in overrides:
        cli += ["--set", item]
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=os.pathsep.join(
        p for p in (str(repo / "src"), os.environ.get("PYTHONPATH")) if p))
    report = work / "stage.json"
    report.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(LAUNCH), str(report), sys.executable, *cli],
                          capture_output=True, text=True, env=env, cwd=work, check=False)
    stage = {"stage": " ".join((command, *extra)), "seconds": None, "rss_mb": None, "exit_code": None}
    if report.exists():
        result = json.loads(report.read_text(encoding="utf-8"))
        stage.update(seconds=round(result["seconds"], 2), rss_mb=round(result["rss_mb"], 1),
                     exit_code=result["exit_code"])
    if stage["exit_code"] != 0:
        lines = (proc.stdout + proc.stderr).strip().splitlines()
        stage["error"] = lines[-1] if lines else ""
    return stage


def run_pipeline(repo: Path, overrides, work: Path) -> list:
    out = work / "out"
    stages = []
    for command, extra in STAGES:
        stage = run_stage(repo, command, extra, overrides, out, work)
        stages.append(stage)
        print(json.dumps(stage), file=sys.stderr, flush=True)
        if stage["exit_code"] != 0:
            break
    return stages


def store_run(path: Path, run: dict) -> None:
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.exists() else []
    runs = [r for r in runs if r["name"] != run["name"]] + [run]
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--name", required=True, help="the run's name in the JSON file")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="runs-today")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="SECTION.KEY=VALUE")
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="the checkout whose src/ runs (default: this one)")
    parser.add_argument("--json", type=Path, default=ROOT / "BENCH_paper_scale.json")
    args = parser.parse_args(argv)

    repo = args.repo.resolve()
    if not (repo / "src" / "alphagraph" / "cli.py").is_file():
        parser.error(f"no alphagraph sources under {repo / 'src'}")
    overrides = [*PRESETS[args.preset], *args.overrides]
    work = Path(tempfile.mkdtemp(prefix="paper_scale_"))
    try:
        stages = run_pipeline(repo, overrides, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    completed = len(stages) == len(STAGES) and all(s["exit_code"] == 0 for s in stages)
    run = {"name": args.name, **git_state(repo), "preset": args.preset,
           "overrides": overrides, "environment": environment(), "completed": completed,
           "stages": stages}
    store_run(args.json, run)
    return 0 if completed else 1


if __name__ == "__main__":
    sys.exit(main())
