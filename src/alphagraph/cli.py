"""Command-line pipeline driver.

Commands map one-to-one onto pipeline stages; each reads its inputs from the
output directory (or the configured raw-data paths), writes its artifacts
there, and records a manifest with content hashes. Exit codes: 0 success,
1 usage/configuration, 2 data validation, 3 numerical fault.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import itertools
import json
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import backtest as bt
from . import interpret as itp
from . import model as mdl
from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config, sha256_file, write_manifest
from .embeddings import (StockEmbeddingSet, StockGraph, build_knn_graph,
                         export_graph_csv, train_glove)
from .embfile import read_embeddings, write_embeddings
from .errors import (AlphagraphError, ConfigError, DataError, NumericalFault,
                     UsageError)
from .factors import FactorPanel, compute_factors
from .market import (BarPanel, daily_simple_returns, filter_universe, load_bars)
from .news import (CooccurrenceMatrix, build_cooccurrence,
                   build_vocabulary, daily_stock_news_vectors, load_articles)
from .synth import SyntheticSpec, generate, write_market
from .word2vec import WordEmbeddingSet, train_cbow

PANEL_FILE = "panel.npz"
FACTORS_FILE = "factors.npz"
COOCCUR_FILE = "cooccur.npz"
WORDVEC_FILE = "word_embeddings.txt"
GLOVE_FILE = "glove.npz"
STOCKVEC_FILE = "stock_embeddings.txt"
GRAPH_FILE = "graph.csv"
CHECKPOINT_FILE = "checkpoint.bin"
MODELCFG_FILE = "model_config.json"
FORECASTS_FILE = "forecasts.csv"
FORECASTS_HEADER = "date,symbol,yhat,y"
# forecast rows formatted or parsed at a time: text temporaries stay at ~1 MB
FORECAST_CHUNK = 8192


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Artifact I/O helpers
# ---------------------------------------------------------------------------

def _artifact(path, producer: str) -> Path:
    """``path`` if it exists, else a DataError naming the stage that writes it."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path} not found; run {producer} first")
    return path


class _NpzArrays(dict):
    """The arrays of one ``.npz`` artifact; asking for a missing one is a
    DataError naming the file."""

    def __init__(self, arrays, path, producer: str):
        super().__init__(arrays)
        self.path, self.producer = path, producer

    def __missing__(self, name):
        raise DataError(f"{self.path}: no array {name!r}; rerun {self.producer}")


def _load_npz(path, producer: str) -> _NpzArrays:
    """Every array of an ``.npz`` artifact, read at once.

    A truncated or corrupt file (no zip directory, a member failing its
    CRC check) is a DataError naming it.
    """
    path = _artifact(path, producer)
    try:
        z = np.load(path, allow_pickle=False)
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with z:
            return _NpzArrays({name: z[name] for name in z.files}, path, producer)
    except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
        raise DataError(f"{path}: truncated or corrupt .npz file ({exc}); "
                        f"rerun {producer}") from exc


def _save_panel(path, panel: BarPanel) -> None:
    np.savez(path,
             calendar=np.array([d.isoformat() for d in panel.calendar]),
             symbols=np.array(panel.symbols),
             mask=panel.mask,
             **{f: panel.arrays[f] for f in BarPanel.FIELDS})


def _load_panel(path) -> BarPanel:
    z = _load_npz(path, "ingest")
    calendar = [dt.date.fromisoformat(s) for s in z["calendar"]]
    symbols = [str(s) for s in z["symbols"]]
    arrays = {f: z[f] for f in BarPanel.FIELDS}
    return BarPanel(calendar, symbols, arrays, z["mask"])


def _save_factors(path, fp: FactorPanel) -> None:
    np.savez(path, names=np.array(fp.factor_names), values=fp.values,
             mask=fp.mask,
             calendar=np.array([d.isoformat() for d in fp.calendar]),
             symbols=np.array(fp.symbols))


def _load_factors(path) -> FactorPanel:
    z = _load_npz(path, "ingest")
    return FactorPanel([str(s) for s in z["names"]], z["values"], z["mask"],
                       tuple(dt.date.fromisoformat(s) for s in z["calendar"]),
                       tuple(str(s) for s in z["symbols"]))


def _load_cooccur(path) -> CooccurrenceMatrix:
    z = _load_npz(path, "cooccur")
    counts = {}
    for i, j, v in zip(z["rows"], z["cols"], z["vals"]):
        if i < j:
            counts[(int(i), int(j))] = int(v)
    return CooccurrenceMatrix(tuple(str(s) for s in z["symbols"]), counts)


def _load_glove(path) -> StockEmbeddingSet:
    z = _load_npz(path, "train-glove")
    return StockEmbeddingSet(tuple(str(s) for s in z["symbols"]),
                             z["vectors"], z["biases"],
                             [float(v) for v in z["trace"]])


def _load_graph(path, symbols) -> StockGraph:
    index = {s: i for i, s in enumerate(symbols)}
    adjacency = [[] for _ in symbols]
    distances = [[] for _ in symbols]
    k = 0
    with open(_artifact(path, "graph"), encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path} line {reader.line_num}"
            try:
                source, target = row["source"], row["target"]
                distance, rank = float(row["distance"]), int(row["rank"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{where}: malformed graph row: {exc!r}") from exc
            for sym in (source, target):
                if sym not in index:
                    raise DataError(f"{where}: symbol {sym!r} has no stock embedding")
            adjacency[index[source]].append(index[target])
            distances[index[source]].append(distance)
            k = max(k, rank)
    return StockGraph(tuple(symbols), k, adjacency, distances)


def _load_word_embeddings(path) -> WordEmbeddingSet:
    labels, matrix = read_embeddings(_artifact(path, "train-word2vec"))
    return WordEmbeddingSet({t: i for i, t in enumerate(labels)}, matrix)


def _write_forecasts(path, panel: mdl.ForecastPanel) -> None:
    """One ``date,symbol,yhat,y`` row per forecast, in date order and then
    in the panel's (sorted) symbol order; floats are their ``repr``, y is
    empty where not finite."""
    t_idx, s_idx = np.nonzero(panel.mask())
    dates = [d.isoformat() for d in panel.calendar]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FORECASTS_HEADER + "\n")
        for start in range(0, t_idx.size, FORECAST_CHUNK):
            t = t_idx[start:start + FORECAST_CHUNK]
            s = s_idx[start:start + FORECAST_CHUNK]
            y = panel.y[t, s]
            labels = [repr(v) if ok else ""
                      for v, ok in zip(y.tolist(), np.isfinite(y).tolist())]
            rows = zip(t.tolist(), s.tolist(), panel.yhat[t, s].tolist(), labels)
            fh.write("".join([f"{dates[d]},{panel.symbols[n]},{yhat!r},{label}\n"
                              for d, n, yhat, label in rows]))


def _float_column(path, name: str, texts: list, first_line: int) -> np.ndarray:
    """float64 of each text as ``float`` parses it; a text it rejects is a
    DataError naming its line (``texts[i]`` is on line first_line + i)."""
    try:
        return np.array(texts, dtype=np.float64)
    except ValueError as exc:
        for line, text in enumerate(texts, start=first_line):
            try:
                float(text)
            except ValueError:
                raise DataError(f"{path} line {line}: {name} {text!r} is not a number; "
                                f"rerun predict") from None
        raise DataError(f"{path}: {name}: {exc}; rerun predict") from exc


def _sorted_codes(codes: dict, code: np.ndarray):
    """The sorted keys of ``codes`` (key -> code, numbered 0, 1, ... in
    insertion order) and the position of each entry of ``code`` among them."""
    keys = sorted(codes)
    rank = {key: i for i, key in enumerate(keys)}
    return keys, np.array([rank[key] for key in codes], dtype=np.intp)[code]


def _read_forecasts(path) -> mdl.ForecastPanel:
    """``forecasts.csv`` as (D, S) panels over its sorted dates and symbols.

    The header must be ``date,symbol,yhat,y``. Each row has four fields: a
    YYYY-MM-DD date, a non-empty symbol, a finite yhat and an empty (NaN) or
    numeric y, and no (date, symbol) pair repeats. Anything else is a
    DataError naming the line.

    Rows are read FORECAST_CHUNK at a time: a chunk is split into its four
    columns, dates and symbols become integer codes in order of first
    appearance, and each float column is parsed in one numpy call.
    """
    date_codes: dict[str, int] = {}
    name_codes: dict[str, int] = {}
    date_of, name_of = date_codes.setdefault, name_codes.setdefault
    d_code, s_code, yhat_v, y_v = [], [], [], []  # one array per chunk
    try:
        with open(_artifact(path, "predict"), encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != FORECASTS_HEADER:
                raise DataError(f"{path} line 1: header {header!r}, expected "
                                f"{FORECASTS_HEADER!r}; rerun predict")
            for first in itertools.count(2, FORECAST_CHUNK):
                lines = list(itertools.islice(fh, FORECAST_CHUNK))
                if not lines:
                    break
                for line, text in enumerate(lines, start=first):
                    if text.count(",") != 3:
                        raise DataError(f"{path} line {line}: {text.count(',') + 1} "
                                        f"fields, expected 4; rerun predict")
                # four cells per line; a final newline leaves one empty cell past them
                cells = "".join(lines).replace("\n", ",").split(",")[:4 * len(lines)]
                d_code.append(np.array([date_of(t, len(date_codes)) for t in cells[0::4]]))
                s_code.append(np.array([name_of(t, len(name_codes)) for t in cells[1::4]]))
                yhat_v.append(_float_column(path, "yhat", cells[2::4], first))
                y_v.append(_float_column(path, "y", [t or "nan" for t in cells[3::4]], first))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc}); rerun predict") from exc
    if not d_code:
        raise DataError(f"{path}: no forecasts")
    d_code, s_code = np.concatenate(d_code), np.concatenate(s_code)
    yhat_v, y_v = np.concatenate(yhat_v), np.concatenate(y_v)

    def line_of(rows) -> str:
        return f"{path} line {int(np.argmax(rows)) + 2}"

    for k, text in enumerate(date_codes):
        try:
            day = dt.date.fromisoformat(text)
        except ValueError as exc:
            raise DataError(f"{line_of(d_code == k)}: bad date {text!r} ({exc}); "
                            f"rerun predict") from None
        if day.isoformat() != text:
            raise DataError(f"{line_of(d_code == k)}: date {text!r} is not "
                            f"YYYY-MM-DD; rerun predict")
    if "" in name_codes:
        raise DataError(f"{line_of(s_code == name_codes[''])}: empty symbol; "
                        f"rerun predict")
    bad = ~np.isfinite(yhat_v)
    if bad.any():
        raise DataError(f"{line_of(bad)}: yhat {float(yhat_v[bad][0])} is not finite; "
                        f"rerun predict")
    dates, d_idx = _sorted_codes(date_codes, d_code)
    symbols, s_idx = _sorted_codes(name_codes, s_code)
    cell = d_idx * len(symbols) + s_idx
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
    if repeats.size:
        i = int(repeats.min())
        raise DataError(f"{path} line {i + 2}: second forecast for {symbols[s_idx[i]]} on "
                        f"{dates[d_idx[i]]}; rerun predict")
    yhat = np.full((len(dates), len(symbols)), np.nan)
    y = np.full_like(yhat, np.nan)
    yhat[d_idx, s_idx] = yhat_v
    y[d_idx, s_idx] = y_v
    return mdl.ForecastPanel(tuple(map(dt.date.fromisoformat, dates)), tuple(symbols),
                             yhat, y)


# ---------------------------------------------------------------------------
# Shared pipeline assembly
# ---------------------------------------------------------------------------

def _require(cfg, section, key):
    value = cfg[section][key]
    if value is None:
        raise ConfigError(f"config value {section}.{key} is required for this command")
    return value


def _train_end(cfg) -> dt.date:
    return dt.date.fromisoformat(_require(cfg, "split", "train_end"))


def _news_path(cfg, out: Path) -> Path:
    p = cfg["paths"]["news"]
    path = Path(p) if p else out / "news.jsonl"
    if not path.exists():
        raise DataError(f"news file {path} not found")
    return path


def _bars_path(cfg, out: Path) -> Path:
    p = cfg["paths"]["bars"]
    path = Path(p) if p else out / "bars.csv"
    if not path.exists():
        raise DataError(f"bars file {path} not found")
    return path


def _model_config(cfg, ablation: str | None, glove_dim: int, n_factors: int,
                  news_dim: int) -> mdl.ModelConfig:
    m = cfg["model"]
    base = mdl.ModelConfig(
        lookback=m["lookback"], embed_dim=glove_dim, n_factors=n_factors,
        tech_dim=m["tech_dim"], news_dim=news_dim,
        hidden=m["hidden"], attn_hidden=m["attn_hidden"],
        temporal_hidden=m["temporal_hidden"], horizon=m["horizon"],
        epochs=m["epochs"], lr=m["lr"], batch_size=m["batch_size"],
        val_fraction=m["val_fraction"], patience=m["patience"],
        nonneg_tech=m["nonneg_tech"], seed=cfg["seed"])
    if ablation:
        base = mdl.ablation_config(ablation, base)
    return base


def _assemble_dataset(cfg, out: Path, model_cfg: mdl.ModelConfig,
                      require_labels: bool = True):
    bars = _load_panel(out / PANEL_FILE)
    factors = _load_factors(out / FACTORS_FILE) if model_cfg.use_tech else None
    news_panel = None
    if model_cfg.use_news:
        articles = load_articles(_news_path(cfg, out))
        wordvecs = _load_word_embeddings(out / WORDVEC_FILE)
        news_panel = daily_stock_news_vectors(articles, wordvecs, bars.symbols,
                                              bars.calendar)
    ds = mdl.build_dataset(bars, factors, news_panel, model_cfg,
                           require_labels=require_labels)
    return bars, ds, news_panel


def _window_indices(calendar, start: dt.date | None, end: dt.date | None):
    lo = 0
    if start is not None:
        later = [i for i, d in enumerate(calendar) if d >= start]
        if not later:
            raise DataError(f"no calendar dates at or after {start}")
        lo = later[0]
    hi = len(calendar) - 1
    if end is not None:
        earlier = [i for i, d in enumerate(calendar) if d <= end]
        if not earlier:
            raise DataError(f"no calendar dates at or before {end}")
        hi = earlier[-1]
    return lo, hi


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg, out: Path, args):
    spec = SyntheticSpec(seed=cfg["seed"], **cfg["synth"])
    market = generate(spec)
    paths = write_market(market, out)
    return [], list(paths.values()), {"n_articles": len(market.articles)}


def cmd_ingest(cfg, out: Path, args):
    bars_path = _bars_path(cfg, out)
    panel = load_bars(bars_path)
    u = cfg["universe"]
    window = panel
    if cfg["split"]["train_end"]:
        window = panel.restrict_dates(end=_train_end(cfg))
    universe = filter_universe(window, u["min_median_dollar_volume"],
                               u["min_price"], u["min_history"])
    if not universe:
        raise DataError("universe filter removed every symbol")
    panel = panel.restrict_symbols(universe)
    registry = cfg["factors"] or None
    fp = compute_factors(panel, registry)
    _save_panel(out / PANEL_FILE, panel)
    _save_factors(out / FACTORS_FILE, fp)
    return [bars_path], [out / PANEL_FILE, out / FACTORS_FILE], {
        "n_symbols": panel.n_symbols, "n_dates": panel.n_dates,
        "factors": fp.factor_names}


def cmd_cooccur(cfg, out: Path, args):
    news_path = _news_path(cfg, out)
    train_end = _train_end(cfg)
    panel = _load_panel(out / PANEL_FILE)
    articles = [a for a in load_articles(news_path) if a.date <= train_end]
    x = build_cooccurrence(articles, panel.symbols)
    rows, cols, vals = x.to_coo()
    np.savez(out / COOCCUR_FILE, rows=rows, cols=cols, vals=vals,
             symbols=np.array(panel.symbols))
    return [news_path, out / PANEL_FILE], [out / COOCCUR_FILE], {
        "n_articles": len(articles), "n_pairs": len(x.counts)}


def cmd_train_word2vec(cfg, out: Path, args):
    news_path = _news_path(cfg, out)
    train_end = _train_end(cfg)
    articles = [a for a in load_articles(news_path) if a.date <= train_end]
    corpus = [a.tokens for a in articles]
    w = cfg["word2vec"]
    vocab = build_vocabulary(corpus, w["min_count"])
    emb = train_cbow(corpus, vocab, dim=w["dim"], window=w["window"],
                     negatives=w["negatives"], epochs=w["epochs"], lr=w["lr"],
                     seed=cfg["seed"])
    labels = sorted(vocab, key=vocab.get)
    write_embeddings(out / WORDVEC_FILE, labels, emb.vectors)
    return [news_path], [out / WORDVEC_FILE], {
        "vocab_size": len(vocab), "epoch_losses": emb.epoch_losses}


def cmd_train_glove(cfg, out: Path, args):
    x = _load_cooccur(out / COOCCUR_FILE)
    g = cfg["glove"]
    emb = train_glove(x, dim=g["dim"], x_max=g["x_max"], alpha=g["alpha"],
                      epochs=g["epochs"], lr=g["lr"], seed=cfg["seed"])
    np.savez(out / GLOVE_FILE, vectors=emb.vectors, biases=emb.biases,
             symbols=np.array(emb.symbols), trace=np.array(emb.loss_trace))
    write_embeddings(out / STOCKVEC_FILE, list(emb.symbols), emb.vectors)
    return [out / COOCCUR_FILE], [out / GLOVE_FILE, out / STOCKVEC_FILE], {
        "loss_first": emb.loss_trace[0], "loss_last": emb.loss_trace[-1]}


def cmd_graph(cfg, out: Path, args):
    emb = _load_glove(out / GLOVE_FILE)
    graph = build_knn_graph(emb, cfg["graph"]["k"])
    export_graph_csv(graph, out / GRAPH_FILE)
    return [out / GLOVE_FILE], [out / GRAPH_FILE], {"k": graph.k}


def cmd_train(cfg, out: Path, args):
    # the graph module needs glove.npz; the other ablations only record its
    # dim in the model config, so without the file they take the configured one
    glove = _load_glove(out / GLOVE_FILE) if (out / GLOVE_FILE).exists() else None
    factors = _load_factors(out / FACTORS_FILE)
    wordvec_dim = None
    if (out / WORDVEC_FILE).exists():
        with open(out / WORDVEC_FILE, encoding="utf-8") as fh:
            wordvec_dim = int(fh.readline().split()[1])
    model_cfg = _model_config(cfg, args.ablation,
                              cfg["glove"]["dim"] if glove is None else glove.dim,
                              len(factors.factor_names),
                              wordvec_dim or cfg["word2vec"]["dim"])
    if model_cfg.use_graph and glove is None:
        raise DataError(f"{out / GLOVE_FILE} not found; the graph module needs "
                        f"train-glove to run first")
    bars, ds, _ = _assemble_dataset(cfg, out, model_cfg)
    train_end = _train_end(cfg)
    if train_end not in bars.date_index:
        raise DataError(f"split.train_end {train_end} is not a trading day in the panel")
    lo, hi = _window_indices(bars.calendar, None, train_end)
    train_ds = ds.split_by_anchor(lo, hi)
    graph = _load_graph(out / GRAPH_FILE, glove.symbols) if model_cfg.use_graph else None
    trained = mdl.train(train_ds, model_cfg, glove if model_cfg.use_graph else None,
                        graph)
    save_checkpoint(out / CHECKPOINT_FILE, trained.params)
    with open(out / MODELCFG_FILE, "w", encoding="utf-8") as fh:
        json.dump(vars(model_cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    inputs = [out / FACTORS_FILE, out / PANEL_FILE]
    if glove is not None:
        inputs.append(out / GLOVE_FILE)
    if model_cfg.use_graph:
        inputs.append(out / GRAPH_FILE)
    if model_cfg.use_news:
        inputs.append(out / WORDVEC_FILE)
    return inputs, [out / CHECKPOINT_FILE, out / MODELCFG_FILE], {
        "ablation": args.ablation or "Full", "n_train_samples": train_ds.n,
        "trace": trained.trace}


def _load_trained(cfg, out: Path):
    with open(_artifact(out / MODELCFG_FILE, "train"), encoding="utf-8") as fh:
        stored = json.load(fh)
    try:
        model_cfg = mdl.ModelConfig(**stored)
    except TypeError as exc:
        raise DataError(f"{out / MODELCFG_FILE}: {exc}; rerun train") from exc
    glove = _load_glove(out / GLOVE_FILE) if model_cfg.use_graph else None
    graph = _load_graph(out / GRAPH_FILE, glove.symbols) if model_cfg.use_graph else None
    rng = np.random.default_rng(model_cfg.seed)
    params = mdl.build_params(model_cfg, rng, glove)
    stored_values = load_checkpoint(_artifact(out / CHECKPOINT_FILE, "train"))
    if set(stored_values) != set(params):
        raise DataError("checkpoint parameter names do not match the model config")
    for name, values in stored_values.items():
        if params[name].values.shape != values.shape:
            raise DataError(f"checkpoint shape mismatch for {name}")
        params[name].values = values.astype(np.float64)
    bars = _load_panel(out / PANEL_FILE)
    model = mdl.TrainedModel(params, model_cfg, graph, bars.symbols)
    return model, model_cfg, bars


def cmd_predict(cfg, out: Path, args):
    model, model_cfg, bars = _load_trained(cfg, out)
    _, ds, _ = _assemble_dataset(cfg, out, model_cfg, require_labels=False)
    train_end = _train_end(cfg)
    spec = bt.split(bars.calendar, train_end, cfg["split"]["gap_days"])
    if args.window == "test":
        lo, hi = _window_indices(bars.calendar, spec.test_start, spec.test_end)
    else:
        lo, hi = _window_indices(bars.calendar, None, train_end)
    sub = ds.split_by_anchor(lo, hi)
    if sub.n == 0:
        raise DataError("no samples in the requested prediction window")
    panel = mdl.predict(model, sub)
    _write_forecasts(out / FORECASTS_FILE, panel)
    return [out / CHECKPOINT_FILE, out / PANEL_FILE], [out / FORECASTS_FILE], {
        "window": args.window, "n_forecasts": sub.n,
        "test_start": spec.test_start.isoformat()}


def cmd_backtest(cfg, out: Path, args):
    fc = _read_forecasts(out / FORECASTS_FILE)
    bars = _load_panel(out / PANEL_FILE)
    unknown = ([d.isoformat() for d in fc.calendar if d not in bars.date_index]
               + [s for s in fc.symbols if s not in bars.symbol_index])
    if unknown:
        raise DataError(f"{out / FORECASTS_FILE}: {unknown[0]} is not in "
                        f"{out / PANEL_FILE}; the forecasts do not match the panel, "
                        f"rerun predict")
    rets_full = daily_simple_returns(bars)
    rows = [bars.date_index[d] for d in fc.calendar]
    cols = [bars.symbol_index[s] for s in fc.symbols]
    rets = rets_full[np.ix_(rows, cols)]
    sim = cfg["simulator"]
    if args.simulator == "longshort":
        ledger = bt.simulate_longshort(fc.yhat, rets, fc.calendar, fc.symbols,
                                       horizon=sim["horizon"])
    else:
        market = np.nanmean(np.where(np.isfinite(rets), rets, np.nan), axis=1)
        ledger = bt.simulate_markowitz(
            fc.yhat, rets, fc.calendar, fc.symbols,
            risk_aversion=sim["risk_aversion"], cov_window=sim["cov_window"],
            halflife=sim["halflife"], shrinkage=sim["shrinkage"],
            per_name_cap=sim["per_name_cap"], gross_cap=sim["gross_cap"],
            cost_linear=sim["cost_linear"], cost_quadratic=sim["cost_quadratic"],
            market=market if sim["hedge"] else None,
            capital=sim["initial_capital"])
    aligned = fc.aligned()
    metrics = {
        "n_forecasts": float(aligned.sum()),
        "total_pnl": float(ledger.pnl.sum()),
        "paper_pnl_total": float(bt.paper_pnl_metric(fc.yhat, fc.y).sum()),
        "mean_turnover": float(ledger.turnover.mean()),
    }
    if aligned.sum() >= 2:
        metrics["r2_out"] = bt.r_squared(fc.y[aligned], fc.yhat[aligned])
    if len(fc.calendar) >= 2 and ledger.pnl.std() > 0:
        metrics["sharpe"] = bt.sharpe(ledger.pnl)
    bt.write_pnl_csv(out / "pnl_daily.csv", ledger)
    bt.write_metrics_csv(out / "metrics.csv", metrics)
    return [out / FORECASTS_FILE, out / PANEL_FILE], \
        [out / "pnl_daily.csv", out / "metrics.csv"], {"simulator": args.simulator}


def cmd_quantiles(cfg, out: Path, args):
    fc = _read_forecasts(out / FORECASTS_FILE)
    reports = bt.quantile_analysis(fc.yhat, fc.y)
    bt.write_quantiles_csv(out / "quantiles.csv", reports)
    extra = {}
    for side in ("long", "short"):
        side_reports = bt.quantile_analysis(fc.yhat, fc.y, side=side)
        extra[side] = {qr: r.ppd_bps for qr, r in side_reports.items()}
    return [out / FORECASTS_FILE], [out / "quantiles.csv"], extra


def cmd_interpret(cfg, out: Path, args):
    model, model_cfg, bars = _load_trained(cfg, out)
    icfg = cfg["interpret"]
    outputs = []

    if model_cfg.use_graph:
        emb = model.params["graph.emb"].values
        symbols = model.symbols
    else:  # a non-graph model has no embeddings of its own: read train-glove's
        glove = _load_glove(out / GLOVE_FILE)
        emb, symbols = glove.vectors, glove.symbols
    report = itp.pairwise_distance_report(emb)
    low, high = itp.extreme_distance_pairs(report, icfg["distance_band"])
    extreme_pairs = {
        "closest": [[symbols[p.i], symbols[p.j]] for p in low],
        "farthest": [[symbols[p.i], symbols[p.j]] for p in high],
    }
    path = out / "pair_distances.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pair_a,pair_b,distance,percentile\n")
        for p in report:
            fh.write(f"{symbols[p.i]},{symbols[p.j]},{repr(p.distance)},"
                     f"{p.percentile:.4f}\n")
    outputs.append(path)
    path = out / "final_stock_embeddings.txt"
    itp.export_embeddings(path, symbols, emb)
    outputs.append(path)

    if model_cfg.use_tech:
        factors = _load_factors(out / FACTORS_FILE)
        w = np.maximum(model.params["tech.w"].values, 0.0).T  # (m, l)
        k_emb = min(icfg["k_emb"], w.shape[1])
        freq = itp.factor_frequency(w, k_emb)
        path = out / "factor_importance.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("rank,factor_index,factor_name,top_k_appearances\n")
            for rank, (j, count) in enumerate(freq, start=1):
                fh.write(f"{rank},{j},{factors.factor_names[j]},{count}\n")
        outputs.append(path)

    _, ds, news_panel = _assemble_dataset(cfg, out, model_cfg)
    spec = bt.split(bars.calendar, _train_end(cfg), cfg["split"]["gap_days"])
    lo, hi = _window_indices(bars.calendar, spec.test_start, spec.test_end)
    test_ds = ds.split_by_anchor(lo, hi)
    if test_ds.n > 0:
        capture: dict = {}
        fc = mdl.predict(model, test_ds, capture=capture)
        beta_mean = itp.aggregate_temporal_attention(capture["temporal_beta"])
        path = out / "temporal_attention.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("lag,mean_weight\n")
            T = model_cfg.lookback
            for idx, wgt in enumerate(beta_mean):
                fh.write(f"-{T - idx}day,{repr(float(wgt))}\n")
        outputs.append(path)

        errors = (fc.yhat[test_ds.anchor_idx, test_ds.stock_idx]
                  - test_ds.labels) ** 2
        keys = [(bars.calendar[a].isoformat(), bars.symbols[s])
                for a, s in zip(test_ds.anchor_idx, test_ds.stock_idx)]
        buckets = itp.news_error_buckets(keys, errors, icfg["error_tail"])
        error_of = dict(zip(keys, errors))
        path = out / "news_error_buckets.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bucket,date,symbol,sq_error,article_ids\n")
            for name, bucket in (("low_error", buckets.low), ("high_error", buckets.high)):
                for date_s, sym in bucket:
                    ids = []
                    if news_panel is not None:
                        a = bars.date_index[dt.date.fromisoformat(date_s)]
                        s = bars.symbol_index[sym]
                        for day in range(a - model_cfg.lookback, a):
                            ids.extend(news_panel.article_ids.get((day, s), []))
                    fh.write(f"{name},{date_s},{sym},"
                             f"{repr(float(error_of[(date_s, sym)]))},{';'.join(ids)}\n")
        outputs.append(path)

    return [out / CHECKPOINT_FILE], outputs, {
        "n_test_samples": test_ds.n, "extreme_pairs": extreme_pairs}


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "cooccur": cmd_cooccur,
    "train-word2vec": cmd_train_word2vec,
    "train-glove": cmd_train_glove,
    "graph": cmd_graph,
    "train": cmd_train,
    "predict": cmd_predict,
    "backtest": cmd_backtest,
    "quantiles": cmd_quantiles,
    "interpret": cmd_interpret,
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
        if name == "predict":
            p.add_argument("--window", choices=("test", "train"), default="test")
        if name == "backtest":
            p.add_argument("--simulator", choices=("longshort", "markowitz"),
                           default="longshort")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.bars:
        overrides.append(f"paths.bars={args.bars}")
    if args.news:
        overrides.append(f"paths.news={args.news}")
    cfg = load_config(args.config, overrides=overrides)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    handler = COMMANDS[args.command]
    created: list[Path] = []
    try:
        inputs, outputs, extra = handler(cfg, out, args)
        created.extend(Path(p) for p in outputs)
        manifest = write_manifest(out, args.command, cfg, inputs, outputs, extra)
        print(f"{args.command}: ok ({manifest.name} {sha256_file(manifest)[:12]})")
        return 0
    except AlphagraphError:
        for p in created:
            if p.exists():
                p.unlink()
        raise


def main(argv=None) -> int:
    try:
        return run(argv)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    except NumericalFault as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except AlphagraphError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
