"""The model stages: train fits the forecasting model on the training
window, and predict forecasts the test window with it.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

from . import model as mdl
from .artifacts import (ATTENTION_FILE, CHECKPOINT_FILE, FACTORS_FILE, FORECASTS_FILE,
                        GLOVE_FILE, GRAPH_FILE, MODELCFG_FILE, PANEL_FILE, WORDVEC_FILE,
                        OutDir, _check_glove_symbols, _check_width, _load_glove, _load_graph,
                        _NpzArrays, _read_model_config, _save_model_config, _stored_param)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ModelConfig, ablation_config
from .embfile import embedding_dim
from .errors import DataError
from .factors import factor_windows
from .forecasts import write_forecasts
from .samples import _assemble_dataset, _sample_windows


def cmd_train(cfg, out: OutDir, args):
    # the ablation's module flags come first: train reads the inputs of only
    # the modules it trains, and records a disabled module's configured
    # width. Every key of the model section is a ModelConfig field
    model_cfg = ModelConfig(**cfg["model"], seed=cfg["seed"])
    if args.ablation:
        model_cfg = ablation_config(args.ablation, model_cfg)
    glove = _load_glove(out.read(GLOVE_FILE)) if model_cfg.use_graph else None
    with contextlib.ExitStack() as opened:
        fz = (opened.enter_context(_NpzArrays(out.read(FACTORS_FILE)))
              if model_cfg.use_tech else None)
        pz = opened.enter_context(_NpzArrays(out.read(PANEL_FILE)))
        if glove is not None:
            _check_glove_symbols(out, glove, pz.strings("symbols"))
        window, _ = _sample_windows(cfg, pz.dates("calendar"))
        model_cfg = replace(
            model_cfg,
            embed_dim=cfg["glove"]["dim"] if glove is None else glove.dim,
            n_factors=(len(fz.strings("names")) if fz is not None
                       else len(factor_windows(cfg["factors"] or None))),
            news_dim=(embedding_dim(out.read(WORDVEC_FILE)) if model_cfg.use_news
                      else cfg["word2vec"]["dim"]))
        # of what is read, only the samples' feature store is held while the
        # model trains, not the bar prices or the factor mask
        _, train_ds, _ = _assemble_dataset(cfg, out, model_cfg, window, pz, fz)
    graph = None if glove is None else _load_graph(out.read(GRAPH_FILE), glove.symbols)
    trained = mdl.train(train_ds, model_cfg, glove, graph)
    save_checkpoint(out.write(CHECKPOINT_FILE), trained.params)
    _save_model_config(out.write(MODELCFG_FILE), model_cfg)
    return {"ablation": args.ablation or "Full", "n_train_samples": train_ds.n,
            "trace": trained.trace}


def cmd_predict(cfg, out: OutDir, args):
    model_cfg = _read_model_config(out.read(MODELCFG_FILE))
    glove = graph = None
    if model_cfg.use_graph:
        glove = _load_glove(out.read(GLOVE_FILE))
        _check_width(out, GLOVE_FILE, glove.dim, model_cfg, "embed_dim")
        graph = _load_graph(out.read(GRAPH_FILE), glove.symbols)
    params = mdl.build_params(model_cfg, None, glove)  # the layout; draws nothing
    path = out.read(CHECKPOINT_FILE)
    stored = load_checkpoint(path)
    unknown = sorted(set(stored) - set(params))
    if unknown:
        raise DataError(f"{path}: checkpoint parameter {unknown[0]} is not one of the "
                        f"model's; rerun train")
    for name, param in params.items():
        param.values = _stored_param(path, stored, name, param.values.shape)
    with _NpzArrays(out.read(PANEL_FILE)) as pz:
        calendar = pz.dates("calendar")
        if glove is not None:
            _check_glove_symbols(out, glove, pz.strings("symbols"))
        _, window = _sample_windows(cfg, calendar)
        _, sub, _ = _assemble_dataset(cfg, out, model_cfg, window, pz)
    if sub.n == 0:
        raise DataError("no samples in the test window")
    model = mdl.TrainedModel(params, model_cfg, graph)
    panel, attention = mdl.predict(model, sub)
    n_forecasts, test_start = sub.n, calendar[window[0]]
    del sub  # the forecasts are written without the factor panel
    write_forecasts(out.write(FORECASTS_FILE), panel)
    if attention is not None:  # the mean over the forecasts that have a label
        with open(out.write(ATTENTION_FILE), "w", encoding="utf-8") as fh:
            fh.write("lag,mean_weight\n")
            for idx, wgt in enumerate(attention):
                fh.write(f"-{model_cfg.lookback - idx}day,{repr(float(wgt))}\n")
    return {"n_forecasts": n_forecasts, "test_start": test_start.isoformat()}
