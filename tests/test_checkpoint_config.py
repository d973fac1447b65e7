"""Checkpoint container format and configuration handling."""

import json

import numpy as np
import pytest

from alphagraph.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from alphagraph.cli import main
from alphagraph.config import DEFAULTS, load_config, sha256_file, write_manifest
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
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], np.asarray(params[k]))
        assert loaded[k].dtype == np.float64


def test_checkpoint_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=(4, 4)), "b": rng.normal(size=4)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, params)
    save_checkpoint(p2, dict(reversed(list(params.items()))))
    assert p1.read_bytes() == p2.read_bytes()  # name-sorted, order independent


def test_checkpoint_magic_and_version(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(DataError):
        load_checkpoint(path)
    good = tmp_path / "good.bin"
    save_checkpoint(good, {"x": np.zeros(2)})
    assert good.read_bytes()[:4] == MAGIC
    corrupt = tmp_path / "trail.bin"
    corrupt.write_bytes(good.read_bytes() + b"extra")
    with pytest.raises(DataError):
        load_checkpoint(corrupt)


@pytest.mark.parametrize("version", [1, 2])
def test_checkpoint_old_version_asks_to_rerun_train(tmp_path, version):
    """Version 1 also stored graph.bias; versions 1 and 2 stored the LSTM
    one tensor per gate."""
    good = tmp_path / "good.bin"
    save_checkpoint(good, {"x": np.zeros(2)})
    old = tmp_path / f"v{version}.bin"
    old.write_bytes(MAGIC + version.to_bytes(4, "little") + good.read_bytes()[8:])
    with pytest.raises(DataError, match=f"checkpoint version {version}, .*; rerun train"):
        load_checkpoint(old)


def test_checkpoint_accepts_tensors(tmp_path):
    from alphagraph.autodiff import Tensor
    path = tmp_path / "t.bin"
    save_checkpoint(path, {"p": Tensor(np.arange(6.0).reshape(2, 3))})
    assert np.array_equal(load_checkpoint(path)["p"], np.arange(6.0).reshape(2, 3))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_defaults_load_without_sources():
    cfg = load_config(env={})
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS


def test_default_values_contract():
    """The shipped defaults other components are calibrated around."""
    cfg = load_config(env={})
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
    cfg = load_config(p, env={})
    assert cfg["model"]["epochs"] == 3
    assert cfg["seed"] == 9
    assert cfg["model"]["hidden"] == DEFAULTS["model"]["hidden"]


def test_unknown_keys_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"modell": {"epochs": 3}}))
    with pytest.raises(ConfigError):
        load_config(p, env={})
    p.write_text(json.dumps({"model": {"epocsh": 3}}))
    with pytest.raises(ConfigError):
        load_config(p, env={})


def test_env_overrides_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"model": {"epochs": 3}}))
    cfg = load_config(p, env={"ALPHAGRAPH_MODEL_EPOCHS": "7"})
    assert cfg["model"]["epochs"] == 7


def test_flags_override_env():
    cfg = load_config(env={"ALPHAGRAPH_SEED": "5"}, overrides=["seed=8"])
    assert cfg["seed"] == 8


def test_numba_env_flag_not_a_config_key(tmp_path, monkeypatch, capsys):
    """ALPHAGRAPH_NUMBA selected a kernel path that no longer exists; it is
    now an unknown key like any other."""
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(env={"ALPHAGRAPH_NUMBA": "0"})
    monkeypatch.setenv("ALPHAGRAPH_NUMBA", "0")
    assert main(["synth", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: config: unknown config key")


def test_config_round_trip(tmp_path):
    cfg = load_config(env={}, overrides=["model.epochs=2", "split.gap_days=4"])
    p = tmp_path / "dump.json"
    p.write_text(dump_config(cfg))
    reloaded = load_config(p, env={})
    assert reloaded == cfg


def test_manifest_location_independent(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        d.mkdir()
        (d / "input.txt").write_text("payload")
        (d / "output.txt").write_text("result")
    cfg = load_config(env={})
    cfg["paths"]["bars"] = str(a_dir / "input.txt")
    ma = write_manifest(a_dir, "demo", cfg, [a_dir / "input.txt"], [a_dir / "output.txt"])
    cfg["paths"]["bars"] = str(b_dir / "input.txt")
    mb = write_manifest(b_dir, "demo", cfg, [b_dir / "input.txt"], [b_dir / "output.txt"])
    assert sha256_file(ma) == sha256_file(mb)
