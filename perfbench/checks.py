"""Output checks run on every pipeline pass.

Each check returns ``(name, ok, detail)``. A failed check counts against the
run; it never raises, so one bad pass does not stop the rest of the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Reference tolerances. CBOW starts its output weights at zero, so an epoch
# that learns nothing has a loss of exactly ln 2; each CBOW epoch is
# therefore compared by its loss decrease below ln 2, loosely enough to admit
# the minibatch reformulation that the roadmap plans (it moved per-epoch
# losses by under 1%). The GloVe trace has an exact vectorised twin, so it is
# held to rounding. r2_test may move slightly when CBOW changes; the tape
# record count may fall (that is the planned optimisation) but never rise.
CBOW_UNTRAINED_LOSS = math.log(2.0)
CBOW_RTOL = 0.05
GLOVE_RTOL = 1e-6
R2_ATOL = 0.02


def manifest_name(command: str) -> str:
    return f"{command.replace('-', '_')}_manifest.json"


def read_manifest(out: Path, command: str) -> dict:
    with open(out / manifest_name(command), encoding="utf-8") as fh:
        return json.load(fh)


def read_metrics_csv(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}


def stage_checks(stages, commands) -> list:
    """Every stage ran, exited 0 and wrote its manifest."""
    out = []
    for command in commands:
        run = stages.get(command)
        if run is None:
            out.append((f"{command}.ran", False, "not run after an earlier failure"))
            continue
        out.append((f"{command}.exit", run.exit_code == 0, f"exit code {run.exit_code}"))
        if run.exit_code == 0:
            present = (run.out / manifest_name(command)).exists()
            out.append((f"{command}.manifest", present, "manifest written" if present
                        else "manifest missing"))
    return out


def check_forecasts(path: Path):
    """forecasts.csv parses and every yhat is finite. Returns (check, rows)."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                yhat = float(row["yhat"])
                if not math.isfinite(yhat):
                    return ("forecasts.finite", False,
                            f"non-finite yhat for {row['date']} {row['symbol']}"), rows
                rows.append((row["date"], row["symbol"], yhat,
                             float(row["y"]) if row["y"] else math.nan))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return ("forecasts.finite", False, f"unreadable: {exc}"), rows
    if not rows:
        return ("forecasts.finite", False, "no forecasts"), rows
    return ("forecasts.finite", True, f"{len(rows)} finite forecasts"), rows


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_hashes(out: Path, commands) -> dict:
    """SHA-256 of each manifest. Manifests hash every artifact a stage wrote,
    so equal manifest hashes mean equal outputs."""
    return {c: sha256(out / manifest_name(c)) for c in commands
            if (out / manifest_name(c)).exists()}


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def glove_checkpoints(trace) -> list:
    """The GloVe loss trace every 10 epochs plus the final loss."""
    trace = [float(v) for v in trace]
    return trace[:-1:10] + [trace[-1]]


def observed_reference_values(out: Path, commands, r2_test) -> dict:
    """The values a reference entry stores, read from one pipeline pass."""
    values = {"r2_test": r2_test}
    if "train-word2vec" in commands:
        values["cbow_losses"] = read_manifest(out, "train-word2vec")["extra"]["epoch_losses"]
    if "train-glove" in commands:
        with np.load(out / "glove.npz", allow_pickle=False) as z:
            values["glove_trace"] = glove_checkpoints(z["trace"])
    return values


def _close(a, b, rtol=0.0, atol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def reference_checks(observed: dict, expected: dict | None) -> list:
    """Compare one pass against the stored reference for its seed."""
    if expected is None:
        return []
    out = []
    for key, want in expected.items():
        got = observed.get(key)
        if got is None:
            continue
        if key == "tape_records_per_batch":
            ok = got <= want
            detail = f"{got} records (reference {want}, may not rise)"
        elif key == "r2_test":
            ok = _close(got, want, atol=R2_ATOL)
            detail = f"{got:.6f} vs reference {want:.6f} (atol {R2_ATOL})"
        elif key == "cbow_losses":
            drop = [CBOW_UNTRAINED_LOSS - v for v in got]
            want_drop = [CBOW_UNTRAINED_LOSS - v for v in want]
            ok = len(drop) == len(want_drop) and all(
                _close(g, w, rtol=CBOW_RTOL) for g, w in zip(drop, want_drop))
            detail = (f"loss decrease below ln 2 {[round(v, 6) for v in drop]} vs "
                      f"reference {[round(v, 6) for v in want_drop]} (rtol {CBOW_RTOL:g})")
        else:
            ok = len(got) == len(want) and all(_close(g, w, rtol=GLOVE_RTOL)
                                               for g, w in zip(got, want))
            detail = f"{len(got)} values vs reference (rtol {GLOVE_RTOL:g})"
        out.append((f"reference.{key}", ok, detail))
    return out
