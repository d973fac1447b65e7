#!/usr/bin/env python3
"""Pipeline benchmark for alphagraph.

One run generates a workload's inputs from ``--seed`` (the set-up), then
drives the real CLI one stage per process, as a user runs it, repeating the
workload's pipeline while passes fit in ``--seconds`` (at least three). The
set-up is timed again between passes, so its samples span the run as the
passes do. Every pass is checked; the last line printed is the JSON result.

    python3 perfbench/run.py --workload news-text --seed 1 --seconds 50 --trace 0

``--trace 1`` alternates untraced passes with traced ones (stages run under
trace_stage.py) and reports the per-layer metrics and the tracing overhead.

    python3 perfbench/run.py --table [--trace 1] [--seed 1] [--seconds 50]

runs every workload and prints one table: end-to-end metrics with units and
sample counts, one row per workload, or with ``--trace 1`` the per-layer
metrics. ``--record-reference 0-20 [--workload NAME]`` rewrites the entries
of reference.json for those seeds.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_STAGE = HERE / "trace_stage.py"
LAUNCH = HERE / "launch.py"

# BLAS/OpenMP threads, pinned in this process (before numpy loads) and in
# every stage process; at most nproc.
THREADS = 1
THREAD_ENV = {var: str(THREADS) for var in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

MIN_SETUPS = 5          # set-up samples per run, for the median setup_s
MIN_PASSES = 3          # medians of three; the determinism check needs two
PASS_DEADLINE_S = 120   # no new pass starts after this, so a run ends within 180 s


@dataclass
class StageRun:
    command: str
    seconds: float
    rss_mb: float
    exit_code: int
    out: Path
    spans: dict | None = None


@dataclass
class PipelinePass:
    traced: bool
    stages: dict = field(default_factory=dict)   # command -> StageRun
    seconds: float = 0.0
    values: dict | None = None                   # quality values and work counts when complete
    hashes: dict | None = None


@dataclass
class Inputs:
    bars: Path
    news: Path
    calendar: list
    symbols: list
    signals: object        # (D, S) noiseless label means from the generator
    generate_s: list
    write_s: list
    digests: set           # one entry when every set-up wrote the same bytes

    @property
    def setup_s(self) -> list:
        return [g + w for g, w in zip(self.generate_s, self.write_s)]

    @property
    def identical(self) -> bool:
        return len(self.digests) == 1


def environment() -> dict:
    import numpy as np
    return {"blas_threads": THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed
# ---------------------------------------------------------------------------

def _generate(workload, seed: int, where: Path):
    """One timed set-up into ``where``: (market, paths, generate_s, write_s, digest)."""
    from alphagraph.synth import SyntheticSpec, generate, write_market
    from checks import sha256
    shutil.rmtree(where, ignore_errors=True)
    t0 = time.perf_counter()
    market = generate(SyntheticSpec(seed=seed, **workload.synth))
    t1 = time.perf_counter()
    paths = write_market(market, where)
    t2 = time.perf_counter()
    digest = tuple(sha256(p) for p in sorted(paths.values()))
    return market, paths, t1 - t0, t2 - t1, digest


def setup(workload, seed: int, where: Path) -> Inputs:
    market, paths, gen_s, write_s, digest = _generate(workload, seed, where)
    return Inputs(paths["bars"], paths["news"], market.calendar, market.symbols,
                  market.signals, [gen_s], [write_s], {digest})


def repeat_setup(workload, seed: int, inputs: Inputs) -> None:
    """Time the set-up again, rewriting the same input files."""
    _, _, gen_s, write_s, digest = _generate(workload, seed, inputs.bars.parent)
    inputs.generate_s.append(gen_s)
    inputs.write_s.append(write_s)
    inputs.digests.add(digest)


def write_config(workload, seed: int, inputs: Inputs, where: Path) -> Path:
    cfg = copy.deepcopy(workload.config)
    cfg["paths"] = {"bars": str(inputs.bars), "news": str(inputs.news)}
    train_end = inputs.calendar[int(workload.train_frac * len(inputs.calendar))]
    cfg["split"] = {"train_end": train_end.isoformat(), "gap_days": 10}
    cfg["seed"] = seed
    path = where / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Stages and passes
# ---------------------------------------------------------------------------

def run_stage(command: str, extra, cfg_path: Path, out: Path, logs: Path,
              spans_path: Path | None) -> StageRun:
    cli_args = [command, "--config", str(cfg_path), "--out", str(out), *extra]
    if spans_path is None:
        argv = [sys.executable, "-m", "alphagraph.cli", *cli_args]
    else:
        argv = [sys.executable, str(TRACE_STAGE), str(spans_path), *cli_args]
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    report = logs / f"{command}.run.json"
    with open(logs / f"{command}.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, str(LAUNCH), str(report), *argv],
                                stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT, start_new_session=True)
        try:
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0 or not report.exists():
        return StageRun(command, 0.0, 0.0, proc.returncode or -1, out)
    run = json.loads(report.read_text(encoding="utf-8"))
    spans = None
    if spans_path is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
    return StageRun(command, run["seconds"], run["rss_mb"], run["exit_code"], out, spans)


def run_pass(workload, cfg_path: Path, where: Path, traced: bool) -> PipelinePass:
    out, logs = where / "out", where / "logs"
    out.mkdir(parents=True)
    logs.mkdir()
    result = PipelinePass(traced)
    for command, extra in workload.stages:
        spans_path = logs / f"{command}.spans.json" if traced else None
        run = run_stage(command, extra, cfg_path, out, logs, spans_path)
        result.stages[command] = run
        if run.exit_code != 0:
            break
    # stages run back to back, so the pipeline's wall time is their sum
    result.seconds = sum(r.seconds for r in result.stages.values())
    return result


def oracle_r2(rows, inputs: Inputs) -> float:
    """R^2 of the generator's noiseless label mean on the forecast rows."""
    import numpy as np
    d_idx = {d.isoformat(): i for i, d in enumerate(inputs.calendar)}
    s_idx = {s: i for i, s in enumerate(inputs.symbols)}
    y, signal = [], []
    for date, symbol, _, label in rows:
        if math.isfinite(label):
            y.append(label)
            signal.append(inputs.signals[d_idx[date], s_idx[symbol]])
    y, signal = np.asarray(y), np.asarray(signal)
    return 1.0 - float(np.sum((y - signal) ** 2)) / float(np.sum((y - y.mean()) ** 2))


def evaluate_pass(workload, p: PipelinePass, inputs: Inputs) -> list:
    """Output checks of one pass; fills ``p.values`` and ``p.hashes`` when complete."""
    from alphagraph.cli import MODELCFG_FILE
    from checks import (check_forecasts, output_hashes, read_manifest,
                        read_metrics_csv, stage_checks)
    results = stage_checks(p.stages, workload.commands)
    if not all(ok for _, ok, _ in results):
        return results
    out = p.stages[workload.commands[0]].out
    forecasts, rows = check_forecasts(out / "forecasts.csv")
    results.append(forecasts)
    if not forecasts[1]:
        return results
    try:
        metrics = read_metrics_csv(out / "metrics.csv")
        quality = {"r2_test": metrics.get("r2_out", math.nan),
                   "sharpe": metrics.get("sharpe", math.nan)}
        quality["r2_oracle_frac"] = quality["r2_test"] / oracle_r2(rows, inputs)
        train = read_manifest(out, "train")["extra"]
        predict = read_manifest(out, "predict")["extra"]
        val_fraction = json.loads((out / MODELCFG_FILE).read_text(
            encoding="utf-8"))["val_fraction"]
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        results.append(("outputs.readable", False, f"{type(exc).__name__}: {exc}"))
        return results
    for name, value in quality.items():
        ok = math.isfinite(value) and value > 0
        results.append((f"quality.{name}", ok, f"{value:.6g} (must be finite and > 0)"))
    # model.train holds round(val_fraction * n) samples out of training
    n = train["n_train_samples"]
    p.values = dict(quality, train_samples=(n - round(val_fraction * n)) * len(train["trace"]),
                    forecasts=predict["n_forecasts"])
    p.hashes = output_hashes(out, workload.commands)
    return results


def timing_metrics(passes: list) -> dict:
    """End-to-end timings from each stage's median over complete passes.

    The pipeline and the retrain loop are sums of per-stage medians, so a
    slow moment of the machine costs only the stages it hit.
    """
    from workloads import RETRAIN_STAGES
    stage_s = {c: median(p.stages[c].seconds for p in passes) for c in passes[0].stages}
    return {
        "pipeline_s": sum(stage_s.values()),
        "retrain_s": sum(stage_s[c] for c in RETRAIN_STAGES),
        "cli.train_samples_per_s": passes[0].values["train_samples"] / stage_s["train"],
        "cli.predict_samples_per_s": passes[0].values["forecasts"] / stage_s["predict"],
        "peak_rss_mb": max(median(p.stages[c].rss_mb for p in passes) for c in stage_s),
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, repeat the pipeline for ``seconds`` and check every pass.

    Returns {"checks": [...], "metrics": {name: (value, n)}}.
    """
    from checks import (load_reference, observed_reference_values,
                        reference_checks)
    from metrics import END_TO_END, PER_LAYER, layer_metrics

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = setup(workload, seed, work / "inputs")
    cfg_path = write_config(workload, seed, inputs, work)
    expected = load_reference()["workloads"].get(workload.name, {}).get(str(seed))

    passes: list[PipelinePass] = []
    checks = []
    start = time.perf_counter()
    while True:
        if passes:
            repeat_setup(workload, seed, inputs)
        traced = trace and len(passes) % 2 == 1
        p = run_pass(workload, cfg_path, work / f"pass{len(passes)}", traced)
        checks += evaluate_pass(workload, p, inputs)
        if p.values is not None:
            observed = observed_reference_values(p.stages["train"].out,
                                                 workload.commands, p.values["r2_test"])
            if traced:
                observed["tape_records_per_batch"] = \
                    layer_metrics(p.stages)["autodiff.tape_records_per_batch"]
            checks += reference_checks(observed, expected)
            first = next(q for q in passes + [p] if q.hashes is not None)
            if first is not p:
                kind = "traced and untraced" if first.traced != p.traced else "repeated"
                checks.append(("outputs.deterministic", p.hashes == first.hashes,
                               f"{kind} passes wrote identical manifests"))
        passes.append(p)
        shutil.rmtree(work / f"pass{len(passes) - 1}" / "out", ignore_errors=True)
        elapsed = time.perf_counter() - start
        # stop before a set-up and pass that would end past the budget
        next_end = elapsed + median(inputs.setup_s) + median(q.seconds for q in passes)
        if elapsed >= PASS_DEADLINE_S or (next_end > seconds and len(passes) >= MIN_PASSES):
            break
    while len(inputs.setup_s) < MIN_SETUPS:
        repeat_setup(workload, seed, inputs)
    checks.append(("setup.deterministic", inputs.identical,
                   f"{len(inputs.setup_s)} set-ups wrote identical inputs"))

    done = [p for p in passes if p.values is not None and not p.traced]
    metrics = {}
    if done and not trace:
        timings = timing_metrics(done)
        for name, _, _ in END_TO_END:
            if name == "setup_s":
                metrics[name] = (median(inputs.setup_s), len(inputs.setup_s))
            elif name in timings:
                metrics[name] = (timings[name], len(done))
            else:
                metrics[name] = (done[0].values[name], 1)   # deterministic per seed
    traced_done = [p for p in passes if p.values is not None and p.traced]
    if done and traced_done and trace:
        per_pass = [layer_metrics(p.stages) for p in traced_done]
        for name, _, _ in PER_LAYER:
            if name in per_pass[0]:
                metrics[name] = (median(m[name] for m in per_pass), len(per_pass))
        metrics["synth.generate_s"] = (median(inputs.generate_s), len(inputs.generate_s))
        metrics["synth.write_market_s"] = (median(inputs.write_s), len(inputs.write_s))
        untraced = timing_metrics(done)
        for name in ("cli.train_samples_per_s", "cli.predict_samples_per_s"):
            metrics[name] = (untraced[name], len(done))
        traced_s = timing_metrics(traced_done)["pipeline_s"]
        untraced_s = untraced["pipeline_s"]
        metrics["trace.traced_pipeline_s"] = (traced_s, len(traced_done))
        metrics["trace.untraced_pipeline_s"] = (untraced_s, len(done))
        metrics["trace.overhead_s"] = (traced_s - untraced_s, min(len(done), len(traced_done)))
    if all(ok for _, ok, _ in checks):
        shutil.rmtree(work, ignore_errors=True)
    return {"checks": checks, "metrics": metrics, "passes": len(passes)}


def result_line(result: dict, trace: bool) -> dict:
    from metrics import END_TO_END, PER_LAYER
    wanted = PER_LAYER if trace else END_TO_END
    checks = result["checks"]
    failed = sum(1 for _, ok, _ in checks if not ok)
    metrics = {name: {"value": result["metrics"][name][0], "unit": unit}
               for name, unit, _ in wanted if name in result["metrics"]}
    correct = failed == 0 and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": len(checks), "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Table and reference modes
# ---------------------------------------------------------------------------

def print_table(results: dict, trace: bool) -> None:
    from metrics import END_TO_END, PER_LAYER, UNITS
    names = list(results)
    if not trace:
        header = ["workload", "passes", "failed_frac"] + [
            f"{n} [{u}] (n)" for n, u, _ in END_TO_END]
        print(" | ".join(header))
        for w, r in results.items():
            line = result_line(r, trace)
            cells = [w, str(r["passes"]), f"{line['failed'] / line['attempted']:.3f}"]
            for n, _, _ in END_TO_END:
                value, count = r["metrics"].get(n, (math.nan, 0))
                cells.append(f"{value:.6g} ({count})")
            print(" | ".join(cells))
        return
    width = max(len(n) for n, _, _ in PER_LAYER) + 8
    print(f"{'metric [unit]':<{width}}" + "".join(f"{w:>22}" for w in names))
    for n, _, _ in PER_LAYER:
        row = f"{n + ' [' + UNITS[n] + ']':<{width}}"
        for w in names:
            value, count = results[w]["metrics"].get(n, (math.nan, 0))
            row += f"{value:>17.6g} ({count})"
        print(row)
    for w in names:
        line = result_line(results[w], trace)
        print(f"{w}: failed_frac {line['failed'] / line['attempted']:.3f} "
              f"({line['failed']} of {line['attempted']})")


def record_reference(seeds, workloads) -> None:
    """Store, per workload and seed, the values later runs are checked against."""
    from checks import REFERENCE_FILE, load_reference, observed_reference_values
    from metrics import layer_metrics
    reference = load_reference() if REFERENCE_FILE.exists() else {}
    reference["environment"] = environment()
    table = reference.setdefault("workloads", {})
    for workload in workloads:
        for seed in seeds:
            work = WORK / workload.name
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            inputs = setup(workload, seed, work / "inputs")
            cfg_path = write_config(workload, seed, inputs, work)
            p = run_pass(workload, cfg_path, work / "pass0", traced=True)
            failures = [c for c in evaluate_pass(workload, p, inputs) if not c[1]]
            if failures:
                raise SystemExit(f"{workload.name} seed {seed}: {failures}")
            values = observed_reference_values(p.stages["train"].out, workload.commands,
                                               p.values["r2_test"])
            values["tape_records_per_batch"] = \
                layer_metrics(p.stages)["autodiff.tape_records_per_batch"]
            table.setdefault(workload.name, {})[str(seed)] = values
            print(f"{workload.name} seed {seed}: {values['r2_test']:.6f}", file=sys.stderr)
            shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    os.environ.update(THREAD_ENV)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true",
                        help="run every workload and print a table")
    parser.add_argument("--record-reference", metavar="LO-HI",
                        help="rewrite reference.json for these seeds")
    args = parser.parse_args(argv)

    if not (SRC / "alphagraph" / "cli.py").is_file():
        print(f"error: alphagraph sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.record_reference:
        if args.workload is not None and args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        record_reference(parse_seeds(args.record_reference),
                         [WORKLOADS[args.workload]] if args.workload else WORKLOADS.values())
        return 0
    print(json.dumps({"environment": environment()}))
    if args.table:
        results = {}
        for name, w in WORKLOADS.items():
            try:
                results[name] = run_workload(w, args.seed, args.seconds, bool(args.trace))
            except Exception as exc:  # report the workload as failed, run the rest
                traceback.print_exc()
                results[name] = {"checks": [("run", False, repr(exc))], "metrics": {},
                                 "passes": 0}
        print_table(results, bool(args.trace))
        return 0 if all(result_line(r, bool(args.trace))["correct"]
                        for r in results.values()) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
