"""Run configuration and reproducibility manifests.

Configuration is a JSON file of nested sections (see ``DEFAULTS``), merged
with precedence defaults < file < repeated ``--set section.key=value``
flags; no environment variable is read. Each setting is declared once: the
``model`` and ``synth`` sections are the defaults of ``ModelConfig`` and
``SyntheticSpec`` fields. Unknown keys are rejected, and ``load_config``
checks every merged value with the one type rule, ``check_setting``.

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

MAX_TECH_DIM = 1024

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

    def validate(self) -> None:
        if self.lookback < 1:
            raise ConfigError("lookback must be >= 1")
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not (self.use_graph or self.use_tech or self.use_news):
            raise ConfigError("at least one input module must be enabled")
        if self.tech_dim > MAX_TECH_DIM:
            raise ConfigError(f"tech_dim {self.tech_dim} exceeds maximum {MAX_TECH_DIM}")
        for name in ("embed_dim", "tech_dim", "news_dim", "hidden", "attn_hidden",
                     "temporal_hidden", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, stored) -> "ModelConfig":
        """The config whose ``vars`` are ``stored``. A TypeError names an
        unknown field, a ConfigError a value that breaks the type rule of
        ``check_setting``."""
        if not isinstance(stored, dict):
            raise TypeError(f"expected an object of config fields, got {type(stored).__name__}")
        cfg = cls(**stored)
        for f in fields(cls):
            check_setting(f.name, getattr(cfg, f.name), f.default)
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

    def validate(self):
        if self.days < 1 or self.horizon < 1:
            raise ConfigError(f"synth.days and synth.horizon must be >= 1, "
                              f"got {self.days} and {self.horizon}")
        if not (math.isfinite(self.news_rate) and self.news_rate >= 0):
            raise ConfigError(f"synth.news_rate must be finite and >= 0, got {self.news_rate}")
        try:
            dt.date.fromisoformat(self.start)
        except ValueError:
            raise ConfigError(f"synth.start must be a YYYY-MM-DD date, "
                              f"got {self.start!r}") from None
        if not 1 <= self.n_clusters <= self.n_stocks:
            raise ConfigError(f"synth.n_clusters must be in [1, n_stocks={self.n_stocks}], "
                              f"got {self.n_clusters}")
        if self.noise_std < 0 or self.cluster_vol < 0:
            raise ConfigError("synth.noise_std and synth.cluster_vol must be >= 0")


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


def check_setting(where: str, value, default) -> None:
    """The type rule of every setting: ``value`` has the type of
    ``default``, where an int may stand for a float and a bool never stands
    for a number. A setting whose default is None, or one of ``NULLABLE``,
    may also be null; the first takes a string otherwise. Raises a one-line
    ConfigError that starts with ``where``; converts nothing."""
    if value is None and (default is None or where in NULLABLE):
        return
    kind = str if default is None else type(default)
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise ConfigError(f"{where} must be {_KINDS[kind]}, got {value!r}")


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
    check every value's type."""
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
