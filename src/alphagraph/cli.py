"""Command-line pipeline driver.

Commands map one-to-one onto pipeline stages; each reads its inputs from the
output directory (or the configured raw-data paths), writes its artifacts
there, and records a manifest with content hashes. Exit codes: 0 success,
1 usage/configuration, 2 data validation, 3 numerical fault.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .artifacts import OutDir
# perfbench reads these file names and loaders through this module
from .artifacts import GLOVE_FILE, GRAPH_FILE, MODELCFG_FILE, _load_glove, _load_graph
from .config import load_config, manifest_outputs, manifest_path, sha256_file, write_manifest
from .errors import (AlphagraphError, ConfigError, DataError, NumericalFault,
                     UsageError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _stage(module: str):
    """Stage module ``module``, imported when one of its commands runs (by
    ``__import__``, as an import statement is, so ``-X importtime`` lists it)."""
    name = f"{__package__}.{module}"
    __import__(name)
    return sys.modules[name]


# each a (cfg, out, args) callable that imports its stage module when
# called, so a command loads only the modules its stage runs
COMMANDS = {
    "synth": lambda *a: _stage("stage_synth").cmd_synth(*a),
    "ingest": lambda *a: _stage("stage_ingest").cmd_ingest(*a),
    "cooccur": lambda *a: _stage("stage_embeddings").cmd_cooccur(*a),
    "train-word2vec": lambda *a: _stage("stage_embeddings").cmd_train_word2vec(*a),
    "train-glove": lambda *a: _stage("stage_embeddings").cmd_train_glove(*a),
    "graph": lambda *a: _stage("stage_embeddings").cmd_graph(*a),
    "train": lambda *a: _stage("stage_model").cmd_train(*a),
    "predict": lambda *a: _stage("stage_model").cmd_predict(*a),
    "backtest": lambda *a: _stage("stage_reports").cmd_backtest(*a),
    "quantiles": lambda *a: _stage("stage_reports").cmd_quantiles(*a),
    "interpret": lambda *a: _stage("stage_interpret").cmd_interpret(*a),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="alphagraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--bars", default=None, help="bar CSV path")
        p.add_argument("--news", default=None, help="news JSONL path")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE")
        if name == "train":
            p.add_argument("--ablation", default=None,
                           help="News | Tech | Tech+News | Graph+Tech | Graph+News | Full")
        if name == "backtest":
            p.add_argument("--simulator", choices=("longshort", "markowitz"),
                           default="longshort")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    cfg = load_config(args.config, overrides=overrides)
    # the flags name files, so they are set as given, not read as JSON
    for key in ("bars", "news"):
        if getattr(args, key):
            cfg["paths"][key] = getattr(args, key)
    out = OutDir(Path(args.out), cfg)
    out.path.mkdir(parents=True, exist_ok=True)
    try:
        extra = COMMANDS[args.command](cfg, out, args)
    except AlphagraphError:
        # a failed command leaves neither a partial output nor a stale one
        # of its previous run
        manifest = manifest_path(out.path, args.command)
        for path in {*out.outputs, *manifest_outputs(manifest), manifest}:
            if path.is_file():
                path.unlink()
        raise
    manifest = write_manifest(out.path, args.command, cfg, out.inputs, out.outputs, extra)
    print(f"{args.command}: ok ({manifest.name} {sha256_file(manifest)[:12]})")
    return 0


# (error class, label, exit code), the first class that matches applies
EXITS = ((UsageError, "usage", 1), (ConfigError, "config", 1), (DataError, "data", 2),
         (NumericalFault, "numerical", 3), (AlphagraphError, "internal", 3))


def main(argv=None) -> int:
    try:
        return run(argv)
    except AlphagraphError as exc:
        label, code = next((label, code) for cls, label, code in EXITS if isinstance(exc, cls))
        print(f"error: {label}: {exc}", file=sys.stderr)
        return code


def _samples_attribute(name: str):
    """The module's ``__getattr__`` (PEP 562), called for a name it lacks:
    perfbench reads the run's windows and ``_assemble_dataset`` through this
    module, and they are imported from ``samples`` only then."""
    if name in ("_assemble_dataset", "_train_end", "_window_indices"):
        from . import samples
        return getattr(samples, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__getattr__ = _samples_attribute


if __name__ == "__main__":
    sys.exit(main())
