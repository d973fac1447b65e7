"""Run configuration and reproducibility manifests.

Configuration is a JSON file of nested sections (see ``DEFAULTS``), merged
with precedence defaults < file < repeated ``--set section.key=value``
flags; no environment variable is read. Each setting is declared once: the
``model`` and ``synth`` sections are the defaults of ``ModelConfig`` and
``SyntheticSpec`` fields. Unknown keys are rejected, and ``load_config``
checks every merged value with the one rule of ``check_setting``: its
type, and its range in ``RANGES``, the one table of the values each
bounded setting accepts.

Every command writes a manifest JSON recording the effective configuration,
the seed, and SHA-256 hashes of input and output files (keyed by basename,
so manifests from different working directories compare equal). All
randomness in a run flows from the single manifest seed.

``ModelConfig`` is the model's own configuration: the ``model`` section plus
the widths read from upstream artifacts, stored by ``train`` as
``model_config.json``. ``SyntheticSpec`` is the market that ``synth``
generates: the ``synth`` section plus the seed.
"""

from __future__ import annotations

import copy
import datetime as dt
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError

# ---------------------------------------------------------------------------
# Model and synthetic-market configuration
# ---------------------------------------------------------------------------

ABLATIONS = {
    "news": (False, False, True),
    "tech": (False, True, False),
    "tech+news": (False, True, True),
    "graph+tech": (True, True, False),
    "graph+news": (True, False, True),
    "full": (True, True, True),
}


@dataclass
class ModelConfig:
    lookback: int = 5          # days of history per sample
    embed_dim: int = 32        # stock embedding width
    n_factors: int = 0         # technical factor count (set from the panel)
    tech_dim: int = 200        # technical embedding width
    news_dim: int = 400        # word/news vector width
    hidden: int = 32           # LSTM width per direction
    attn_hidden: int = 16      # neighbor-attention scorer width
    temporal_hidden: int = 16  # temporal-attention scorer width
    use_graph: bool = True
    use_tech: bool = True
    use_news: bool = True
    horizon: int = 5
    epochs: int = 30
    lr: float = 1e-3
    batch_size: int = 256
    val_fraction: float = 0.2
    patience: int = 10
    nonneg_tech: bool = False  # interpretability mode: use relu(W) in the tech layer
    seed: int = 0

    @classmethod
    def from_dict(cls, stored) -> "ModelConfig":
        """The config whose ``vars`` are ``stored``. A TypeError names an
        unknown field, a ConfigError a value that breaks the rule of
        ``check_setting`` or enables no usable input module."""
        if not isinstance(stored, dict):
            raise TypeError(f"expected an object of config fields, got {type(stored).__name__}")
        cfg = cls(**stored)
        for f in fields(cls):
            # the model's seed is the run's top-level seed
            where = f.name if f.name == "seed" else f"model.{f.name}"
            check_setting(where, getattr(cfg, f.name), f.default)
        if not (cfg.use_graph or cfg.use_tech or cfg.use_news):
            raise ConfigError("at least one input module must be enabled")
        if cfg.use_tech and cfg.n_factors < 1:
            raise ConfigError(f"the technical module needs model.n_factors >= 1, "
                              f"got {cfg.n_factors}")
        return cfg

    def input_dim(self) -> int:
        return (self.embed_dim * self.use_graph + self.tech_dim * self.use_tech
                + self.news_dim * self.use_news)


def ablation_config(name: str, base: ModelConfig) -> ModelConfig:
    """Module flags for the named baseline; everything else matches ``base``."""
    key = name.strip().lower().replace(" ", "")
    if key not in ABLATIONS:
        raise ConfigError(f"unknown ablation {name!r}; choose from {sorted(ABLATIONS)}")
    graph, tech, news = ABLATIONS[key]
    return replace(base, use_graph=graph, use_tech=tech, use_news=news)


@dataclass
class SyntheticSpec:
    n_stocks: int = 50
    days: int = 750
    n_clusters: int = 5
    b_volume: float = 0.004      # next-day return per unit of activity state
    b_reversal: float = 0.10     # mean next-day reversal of today's return
    reversal_spread: float = 0.6  # per-cluster reversal slope dispersion
    phi: float = 0.7             # activity state AR(1) persistence
    factor_innovation: float = 0.5
    factor_init_scale: float | None = None  # std of the day-0 state; default = innovation scale
    cluster_vol: float = 0.004
    noise_std: float = 0.012
    news_rate: float = 6.0       # expected articles per day, whole universe
    co_mention_fidelity: float = 0.9
    tone_fidelity: float = 0.8
    horizon: int = 5             # label horizon the sidecar signals target
    start: str = "2015-01-05"
    seed: int = 0


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def _field_defaults(cls, *skip) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


DEFAULTS = {
    "paths": {
        "bars": None,
        "news": None,
    },
    "universe": {
        "min_median_dollar_volume": 1e6,
        "min_price": 1.0,
        "min_history": 250,
    },
    "factors": {},  # optional registry override: family -> window list
    "word2vec": {
        "dim": 400,
        "window": 5,
        "negatives": 5,
        "epochs": 5,
        "lr": 0.025,
        "min_count": 10,
    },
    "glove": {
        "dim": 32,
        "x_max": 100.0,
        "alpha": 0.75,
        "epochs": 200,
        "lr": 0.05,
    },
    "graph": {
        "k": 5,
    },
    # the widths of the upstream artifacts, the seed and the ablation's
    # module flags are set by train, not by the config
    "model": _field_defaults(ModelConfig, "embed_dim", "n_factors", "news_dim", "use_graph",
                             "use_tech", "use_news", "seed"),
    "split": {
        "train_end": None,
        "gap_days": 10,
    },
    "simulator": {
        "horizon": 5,
        "risk_aversion": 0.5,
        "cov_window": 60,
        "halflife": 20.0,
        "shrinkage": 0.1,
        "per_name_cap": 0.05,
        "gross_cap": 1.0,
        "cost_linear": 5e-4,
        "cost_quadratic": 0.0,
        "hedge": True,
        "initial_capital": 5e7,
    },
    "synth": _field_defaults(SyntheticSpec, "reversal_spread", "factor_init_scale", "seed"),
    "interpret": {
        "k_emb": 50,
        "distance_band": 1.0,
        "error_tail": 0.05,
    },
    "seed": 0,
}

# the settings whose null is a value: no cap
NULLABLE = ("simulator.per_name_cap", "simulator.gross_cap")
_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
          list: "a list", dict: "an object"}

# The values each bounded setting accepts: ">= a" and "> a" bound it below,
# "[a, b]", "(a, b]" and so on are intervals. A key names a DEFAULTS leaf or
# a ModelConfig field; the three fields train reads from upstream artifacts
# (model.embed_dim, model.n_factors, model.news_dim) are not settings.
RANGES = {
    "seed": ">= 0",
    "universe.min_median_dollar_volume": ">= 0",
    "universe.min_price": ">= 0",
    "universe.min_history": ">= 0",
    "word2vec.dim": ">= 1",
    "word2vec.window": ">= 1",
    "word2vec.negatives": ">= 1",
    "word2vec.epochs": ">= 1",
    "word2vec.lr": "> 0",
    "word2vec.min_count": ">= 1",
    "glove.dim": ">= 1",
    "glove.x_max": "> 0",
    "glove.alpha": "(0, 1]",
    "glove.epochs": ">= 1",
    "glove.lr": "> 0",
    "graph.k": ">= 1",
    "model.lookback": ">= 1",
    "model.embed_dim": ">= 1",
    "model.n_factors": ">= 0",
    "model.tech_dim": "[1, 1024]",
    "model.news_dim": ">= 1",
    "model.hidden": ">= 1",
    "model.attn_hidden": ">= 1",
    "model.temporal_hidden": ">= 1",
    "model.horizon": ">= 1",  # at 0 every label is log(open[a] / open[a]) = 0
    "model.epochs": ">= 1",
    "model.lr": "> 0",
    "model.batch_size": ">= 1",
    "model.val_fraction": "[0, 1)",
    "model.patience": ">= 0",
    "split.gap_days": ">= 0",  # below 0 the test window starts inside the training window
    "simulator.horizon": ">= 1",
    "simulator.risk_aversion": "> 0",
    "simulator.cov_window": ">= 1",
    "simulator.halflife": "> 0",
    "simulator.shrinkage": "[0, 1]",
    "simulator.per_name_cap": "> 0",
    "simulator.gross_cap": "> 0",
    "simulator.cost_linear": ">= 0",
    "simulator.cost_quadratic": ">= 0",
    "simulator.initial_capital": "> 0",
    "synth.n_stocks": ">= 1",
    "synth.days": ">= 1",
    "synth.n_clusters": ">= 1",
    "synth.phi": "(-1, 1)",
    "synth.factor_innovation": ">= 0",
    "synth.cluster_vol": ">= 0",
    "synth.noise_std": ">= 0",
    # synth holds every article, about 0.6 KB each (0.44 MB of peak RSS per
    # unit of rate over 750 days, measured at rates 25 to 200): 1,000 a day
    # over 2,500 days needs about 1.5 GB
    "synth.news_rate": "[0, 1000]",
    "synth.co_mention_fidelity": "[0, 1]",
    "synth.tone_fidelity": "[0, 1]",
    "synth.horizon": ">= 1",
    "interpret.k_emb": ">= 1",
    "interpret.distance_band": "(0, 100]",
    "interpret.error_tail": "(0, 1]",
}


def _in_range(value, rule: str) -> bool:
    """Whether ``value`` lies in the range ``rule`` of ``RANGES``."""
    if rule.startswith(">"):
        bound = float(rule.lstrip(">="))
        return value >= bound if rule.startswith(">=") else value > bound
    lo, hi = (float(end) for end in rule[1:-1].split(","))
    return ((lo <= value) if rule[0] == "[" else (lo < value)) and \
        ((value <= hi) if rule[-1] == "]" else (value < hi))


def check_setting(where: str, value, default) -> None:
    """The rule of every setting. ``value`` has the type of ``default``,
    where an int may stand for a float and a bool never stands for a
    number; a float is finite; and the setting ``where`` names in
    ``RANGES`` lies in its range. A setting whose default is None, or one
    of ``NULLABLE``, may also be null; the first takes a string otherwise.
    Raises a one-line ConfigError that starts with ``where``; converts
    nothing."""
    if value is None and (default is None or where in NULLABLE):
        return
    kind = str if default is None else type(default)
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise ConfigError(f"{where} must be {_KINDS[kind]}, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    rule = RANGES.get(where)
    if rule is not None and not _in_range(value, rule):
        raise ConfigError(f"{where} must be {'' if rule[0] == '>' else 'in '}{rule}, "
                          f"got {value!r}")


def _check_joint(cfg: dict) -> None:
    """The rules ``RANGES`` cannot state: a bound set by another setting,
    and the dates."""
    synth = cfg["synth"]
    if synth["n_clusters"] > synth["n_stocks"]:
        raise ConfigError(f"synth.n_clusters must be <= synth.n_stocks ({synth['n_stocks']}), "
                          f"got {synth['n_clusters']}")
    for where, value in (("synth.start", synth["start"]),
                         ("split.train_end", cfg["split"]["train_end"])):
        if value is None:  # split.train_end is unset
            continue
        try:
            dt.date.fromisoformat(value)
        except ValueError:
            raise ConfigError(f"{where} must be a YYYY-MM-DD date, got {value!r}") from None
    # synth's calendar is the synth.days weekdays from synth.start on; k is
    # the position of the last one, counted in weekdays from the Monday of
    # synth.start's week (a weekend start begins on the next Monday)
    start, days = dt.date.fromisoformat(synth["start"]), synth["days"]
    k = days - 1 + min(start.weekday(), 5)
    if start.toordinal() - start.weekday() + k // 5 * 7 + k % 5 > dt.date.max.toordinal():
        raise ConfigError(f"synth.start must be early enough for synth.days ({days}) weekdays "
                          f"to end by {dt.date.max}, got {synth['start']!r}")


def _check_all(cfg: dict, defaults: dict, path: str = "") -> None:
    for key, default in defaults.items():
        if isinstance(default, dict) and key != "factors":
            _check_all(cfg[key], default, f"{path}{key}.")
        else:
            check_setting(path + key, cfg[key], default)


def _coerce(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _merge(base: dict, override: dict, path: str = "") -> None:
    for key, value in override.items():
        where = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and key != "factors":
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be a section")
            _merge(base[key], value, where + ".")
        else:
            base[key] = value


def load_config(path=None, overrides=None) -> dict:
    """Resolve the effective configuration from the defaults, the file at
    ``path`` and the ``section.key=value`` strings of ``overrides``, and
    check every value's type and range."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        _merge(cfg, file_cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        keys = dotted.split(".")
        node: dict = {}
        leaf = node
        for key in keys[:-1]:
            leaf[key] = {}
            leaf = leaf[key]
        leaf[keys[-1]] = _coerce(raw)
        _merge(cfg, node)
    _check_all(cfg, DEFAULTS)
    for family, windows in cfg["factors"].items():
        check_setting(f"factors.{family}", windows, [])
    _check_joint(cfg)
    return cfg


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _portable(cfg: dict) -> dict:
    """Effective config with file paths reduced to basenames."""
    out = copy.deepcopy(cfg)
    for key, value in out.get("paths", {}).items():
        if isinstance(value, str):
            out["paths"][key] = os.path.basename(value)
    return out


def manifest_path(outdir, command: str) -> Path:
    return Path(outdir) / f"{command.replace('-', '_')}_manifest.json"


def manifest_outputs(path) -> list[Path]:
    """The outputs that the manifest at ``path`` lists, beside it; none if
    there is no readable manifest."""
    try:
        with open(path, encoding="utf-8") as fh:
            names = list(json.load(fh)["outputs"])
    except (OSError, ValueError, KeyError, TypeError):
        return []
    return [Path(path).parent / os.path.basename(str(name)) for name in names]


def write_manifest(outdir, command: str, cfg: dict, inputs, outputs,
                   extra: dict | None = None) -> Path:
    """Write ``<command>_manifest.json`` and return its path.

    ``inputs``/``outputs`` are iterables of file paths; hashes are keyed by
    basename so the manifest is location-independent and its own hash is a
    determinism check.
    """
    manifest = {
        "command": command,
        "seed": cfg.get("seed"),
        "config": _portable(cfg),
        "inputs": {os.path.basename(str(p)): sha256_file(p) for p in inputs},
        "outputs": {os.path.basename(str(p)): sha256_file(p) for p in outputs},
    }
    if extra:
        manifest["extra"] = extra
    path = manifest_path(outdir, command)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
