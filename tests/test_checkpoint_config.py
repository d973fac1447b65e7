"""Checkpoint container format and configuration handling."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from alphagraph.checkpoint import load_checkpoint, save_checkpoint
from alphagraph.config import (DEFAULTS, RANGES, ModelConfig, check_setting, load_config,
                               sha256_file, write_manifest)
from alphagraph.errors import ConfigError, DataError

from helpers import dump_config


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "b.matrix": rng.normal(size=(3, 4)),
        "a.vector": rng.normal(size=5),
        "c.scalar": np.asarray(1.5),
    }
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], np.asarray(params[k]))
        assert loaded[k].dtype == np.float64


def test_checkpoint_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=(4, 4)), "b": rng.normal(size=4)}
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(p1, params)
    save_checkpoint(p2, dict(reversed(list(params.items()))))
    assert p1.read_bytes() == p2.read_bytes()  # name-sorted, order independent


def test_checkpoint_refuses_a_file_that_is_not_one(tmp_path):
    """A file that is not an .npz archive, such as the hand-written format
    of earlier versions (magic b"AGCP"), and a parameter that is not
    float64 are DataErrors asking to rerun train; under another name, to
    rerun what wrote it."""
    path, elsewhere = tmp_path / "checkpoint.npz", tmp_path / "params.npz"
    for name, writer in ((path, "train"), (elsewhere, "the command that wrote it")):
        name.write_bytes(b"AGCP" + (3).to_bytes(4, "little") + b"\x00" * 4)
        with pytest.raises(DataError, match=f"truncated or corrupt .npz file .*; rerun {writer}$"):
            load_checkpoint(name)
    for values in (np.zeros(2, dtype=np.float32), np.array(["x"])):
        np.savez(path, x=values)
        with pytest.raises(DataError, match=f"parameter x is of dtype {values.dtype}, not "
                                            f"float64; rerun train"):
            load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2])
def test_checkpoint_old_version_asks_to_rerun_train(tmp_path, version):
    """A whole checkpoint of the hand-written format of earlier versions
    (magic b"AGCP", then version, count and one named float64 parameter),
    even put under the new file name, is refused with a request to rerun
    train rather than read."""
    name = b"x"
    body = (len(name).to_bytes(4, "little") + name + (1).to_bytes(4, "little")
            + (2).to_bytes(4, "little") + np.zeros(2, dtype="<f8").tobytes())
    old = tmp_path / "checkpoint.npz"
    old.write_bytes(b"AGCP" + version.to_bytes(4, "little") + (1).to_bytes(4, "little") + body)
    with pytest.raises(DataError, match=r"^.*checkpoint\.npz: .*; rerun train$"):
        load_checkpoint(old)


def test_checkpoint_accepts_tensors(tmp_path):
    from alphagraph.autodiff import Tensor
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, {"p": Tensor(np.arange(6.0).reshape(2, 3))})
    assert np.array_equal(load_checkpoint(path)["p"], np.arange(6.0).reshape(2, 3))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_defaults_load_without_sources():
    cfg = load_config()
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS


def test_default_values_contract():
    """The shipped defaults other components are calibrated around."""
    cfg = load_config()
    assert cfg["word2vec"]["dim"] == 400
    assert cfg["word2vec"]["min_count"] == 10
    assert cfg["glove"]["dim"] == 32
    assert cfg["glove"]["x_max"] == 100.0
    assert cfg["glove"]["alpha"] == 0.75
    assert cfg["graph"]["k"] == 5
    assert cfg["split"]["gap_days"] == 10
    assert cfg["model"]["lookback"] == 5
    assert cfg["model"]["horizon"] == 5
    assert cfg["model"]["tech_dim"] == 200
    assert cfg["model"]["val_fraction"] == 0.2
    assert cfg["interpret"]["k_emb"] == 50
    assert cfg["simulator"]["initial_capital"] == 5e7


def test_file_values_merge(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": {"epochs": 3}, "seed": 9}))
    cfg = load_config(p)
    assert cfg["model"]["epochs"] == 3
    assert cfg["seed"] == 9
    assert cfg["model"]["hidden"] == DEFAULTS["model"]["hidden"]


def test_unknown_keys_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"modell": {"epochs": 3}}))
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text(json.dumps({"model": {"epocsh": 3}}))
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize("setting, value", [
    ("model.lr=1", 1),  # an int stands for a float, and is recorded as given
    ("simulator.per_name_cap=null", None),  # no cap
    ("simulator.gross_cap=null", None),
    ("paths.bars=null", None),
    ("split.train_end=2015-04-06", "2015-04-06"),
    ('factors={"momentum": [5]}', {"momentum": [5]}),
])
def test_type_rule_accepts(setting, value):
    cfg = load_config(overrides=[setting])
    for key in setting.split("=")[0].split("."):
        cfg = cfg[key]
    assert cfg == value and type(cfg) is type(value)


@pytest.mark.parametrize("where, value", [
    ("model.lr", True),  # a bool never stands for a number
    ("model.epochs", 2.5),
    ("model.nonneg_tech", 1),
    ("simulator.hedge", "abc"),
    ("simulator.horizon", None),
    ("seed", "abc"),
    ("paths.news", 1),
    ("factors", [1]),
    ("factors.momentum", 5),
    ("model.lr", math.inf),  # a number is finite
    ("synth.b_volume", -math.inf),
    ("simulator.per_name_cap", math.nan),
])
def test_type_rule_refuses(tmp_path, where, value):
    node = value
    for key in reversed(where.split(".")):
        node = {key: node}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(node))
    for source in ({"path": p}, {"overrides": [f"{where}={json.dumps(value)}"]}):
        with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be "):
            load_config(**source)


def test_readme_example_config_loads(tmp_path):
    """The example config of README.md obeys the type rule."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("A minimal config for a synthetic run:")[1].split("```json\n")[1]
    p = tmp_path / "cfg.json"
    p.write_text(text.split("```")[0])
    cfg, given = load_config(p), json.loads(p.read_text())
    for section, value in given.items():
        assert cfg[section] == (dict(DEFAULTS[section], **value)
                                if isinstance(value, dict) and section != "factors" else value)


# the table key of each ModelConfig field: the model's seed is the run's
MODEL_KEYS = {("seed" if f.name == "seed" else f"model.{f.name}"): f for f in fields(ModelConfig)}
# a valid stored model config, whose n_factors may be 0
MODEL_BASE = vars(ModelConfig(n_factors=3, use_tech=False))
# lets synth.n_stocks reach its bound of 1 without breaking n_clusters <= n_stocks
BASE_SETTINGS = {"synth.n_clusters": 1}


def _leaf(key):
    node = DEFAULTS
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _edges(rule: str, integer: bool):
    """(inside, outside) at each finite end of ``rule``: the value nearest
    the end that lies in the range, and the nearest that does not."""
    if rule.startswith(">"):
        ends = [(float(rule.lstrip(">=")), rule.startswith(">="), -1)]
    else:
        lo, hi = (float(end) for end in rule[1:-1].split(","))
        ends = [(lo, rule[0] == "[", -1), (hi, rule[-1] == "]", 1)]
    for end, closed, outward in ends:
        if integer:
            end = int(end)
            yield (end if closed else end - outward), (end + outward if closed else end)
        else:
            within = math.nextafter(end, -outward * math.inf)
            beyond = math.nextafter(end, outward * math.inf)
            yield (end if closed else within), (beyond if closed else end)


def _sources(key, value):
    """load_config's arguments that set ``key`` to ``value`` by file and by flag."""
    settings = dict(BASE_SETTINGS, **{key: value})
    node: dict = {}
    for dotted, v in settings.items():
        *parents, last = dotted.split(".")
        leaf = node
        for part in parents:
            leaf = leaf.setdefault(part, {})
        leaf[last] = v
    return node, [f"{dotted}={json.dumps(v)}" for dotted, v in settings.items()]


@pytest.mark.parametrize("key", sorted(RANGES))
def test_range_table(tmp_path, key):
    """Each bounded setting loads at its bound and is refused just past it,
    from a file, a --set flag and a stored model config alike."""
    default, field = _leaf(key), MODEL_KEYS.get(key)
    kind = type(field.default if default is None else default)
    for inside, outside in _edges(RANGES[key], kind is int):
        for value, ok in ((inside, True), (outside, False)):
            checks = []
            if default is not None:
                node, flags = _sources(key, value)
                path = tmp_path / "cfg.json"
                path.write_text(json.dumps(node))
                checks += [lambda: load_config(path), lambda: load_config(overrides=flags)]
            if field is not None:
                stored = dict(MODEL_BASE, **{field.name: value})
                checks.append(lambda: ModelConfig.from_dict(stored))
            for check in checks:
                if ok:
                    check()
                else:
                    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be "):
                        check()


def test_range_table_names_settings_and_holds_their_defaults():
    """Every row names a DEFAULTS leaf or a ModelConfig field, and that
    setting's default lies in its range."""
    for key in RANGES:
        defaults = [d for d in (_leaf(key), getattr(MODEL_KEYS.get(key), "default", None))
                    if d is not None]
        assert defaults, key
        for default in defaults:
            check_setting(key, default, default)


def test_readme_lists_the_range_table():
    """README.md states the range of every bounded setting, as the table does."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Bounded settings and the values they accept")[1].split("\n\n")[1]
    rows = re.findall(r"^\| `([\w.]+)` \| `([^`]+)` \|$", section, re.MULTILINE)
    assert dict(rows) == RANGES and len(rows) == len(RANGES)


def test_config_round_trip(tmp_path):
    cfg = load_config(overrides=["model.epochs=2", "split.gap_days=4"])
    p = tmp_path / "dump.json"
    p.write_text(dump_config(cfg))
    reloaded = load_config(p)
    assert reloaded == cfg


def test_manifest_location_independent(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        d.mkdir()
        (d / "input.txt").write_text("payload")
        (d / "output.txt").write_text("result")
    cfg = load_config()
    cfg["paths"]["bars"] = str(a_dir / "input.txt")
    ma = write_manifest(a_dir, "demo", cfg, [a_dir / "input.txt"], [a_dir / "output.txt"])
    cfg["paths"]["bars"] = str(b_dir / "input.txt")
    mb = write_manifest(b_dir, "demo", cfg, [b_dir / "input.txt"], [b_dir / "output.txt"])
    assert sha256_file(ma) == sha256_file(mb)
