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
from .config import (load_config, manifest_outputs, manifest_path, sha256_file,
                     write_manifest)
from .embeddings import (StockEmbeddingSet, StockGraph, build_knn_graph,
                         export_graph_csv, train_glove)
from .embfile import embedding_dim, read_embeddings, write_embeddings
from .errors import (AlphagraphError, ConfigError, DataError, NumericalFault,
                     UsageError)
from .factors import FactorPanel, compute_factors
from .market import (BarPanel, daily_simple_returns, filter_universe, load_bars)
from .news import (CooccurrenceMatrix, build_cooccurrence,
                   build_vocabulary, daily_stock_news_vectors, load_articles)
from .synth import SyntheticSpec, generate, write_market
from .word2vec import WordEmbeddingSet, train_cbow

BARS_FILE = "bars.csv"
NEWS_FILE = "news.jsonl"
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

# the command that writes each file a command reads, named by the errors
# about a missing or malformed input
WRITTEN_BY = {BARS_FILE: "synth", NEWS_FILE: "synth", PANEL_FILE: "ingest",
              FACTORS_FILE: "ingest", COOCCUR_FILE: "cooccur", WORDVEC_FILE: "train-word2vec",
              GLOVE_FILE: "train-glove", GRAPH_FILE: "graph", CHECKPOINT_FILE: "train",
              MODELCFG_FILE: "train", FORECASTS_FILE: "predict"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class OutDir:
    """The output directory of one command. The command opens every file it
    reads through ``read`` and every file it writes through ``write``, so
    ``inputs`` and ``outputs`` are what its manifest lists and what ``run``
    deletes when it fails."""

    def __init__(self, path: Path, cfg: dict):
        self.path, self.inputs, self.outputs = path, set(), set()
        # the raw bars and news may live elsewhere (paths.bars, paths.news)
        self._elsewhere = {BARS_FILE: cfg["paths"]["bars"], NEWS_FILE: cfg["paths"]["news"]}

    def has(self, name: str) -> bool:
        return (self.path / name).exists()

    def read(self, name: str) -> Path:
        """The path of input ``name``, recorded; a DataError naming the
        command that writes it if the file does not exist."""
        path = Path(self._elsewhere.get(name) or self.path / name)
        if not path.exists():
            raise DataError(f"{path} not found; run {WRITTEN_BY[name]} first")
        self.inputs.add(path)
        return path

    def write(self, name: str) -> Path:
        """The path of output ``name``, recorded."""
        path = self.path / name
        self.outputs.add(path)
        return path


# ---------------------------------------------------------------------------
# Artifact I/O helpers
# ---------------------------------------------------------------------------

class _NpzArrays:
    """Every array of one ``.npz`` artifact, read at once. A truncated or
    corrupt file (no zip directory, a member failing its CRC check), a
    missing array or one of the wrong shape is a DataError naming the file
    and the command that writes it."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            z = np.load(self.path, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("a single array, not an archive")
            with z:
                self.arrays = {name: z[name] for name in z.files}
        except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
            raise self.error(f"truncated or corrupt .npz file ({exc})") from exc

    def error(self, what: str) -> DataError:
        return DataError(f"{self.path}: {what}; rerun {WRITTEN_BY[self.path.name]}")

    def shaped(self, name: str, *shape) -> np.ndarray:
        """Array ``name``, whose shape must be ``shape``; None matches any length."""
        if name not in self.arrays:
            raise self.error(f"no array {name!r}")
        a = self.arrays[name]
        if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
            want = " x ".join("*" if n is None else str(n) for n in shape)
            raise self.error(f"array {name!r} has shape {a.shape}, expected {want}")
        return a

    def strings(self, name: str) -> list[str]:
        return [str(s) for s in self.shaped(name, None)]

    def dates(self, name: str) -> list[dt.date]:
        try:
            return [dt.date.fromisoformat(s) for s in self.strings(name)]
        except ValueError as exc:
            raise self.error(f"array {name!r}: {exc}") from None


def _save_panel(path, panel: BarPanel) -> None:
    np.savez(path,
             calendar=np.array([d.isoformat() for d in panel.calendar]),
             symbols=np.array(panel.symbols),
             mask=panel.mask,
             **{f: panel.arrays[f] for f in BarPanel.FIELDS})


def _load_panel(path) -> BarPanel:
    z = _NpzArrays(path)
    calendar, symbols = z.dates("calendar"), z.strings("symbols")
    shape = (len(calendar), len(symbols))
    arrays = {f: z.shaped(f, *shape) for f in BarPanel.FIELDS}
    return BarPanel(calendar, symbols, arrays, z.shaped("mask", *shape))


def _save_factors(path, fp: FactorPanel) -> None:
    np.savez(path, names=np.array(fp.factor_names), values=fp.values,
             mask=fp.mask,
             calendar=np.array([d.isoformat() for d in fp.calendar]),
             symbols=np.array(fp.symbols))


def _load_factors(path) -> FactorPanel:
    z = _NpzArrays(path)
    names, calendar, symbols = z.strings("names"), z.dates("calendar"), z.strings("symbols")
    shape = (len(calendar), len(symbols), len(names))
    return FactorPanel(names, z.shaped("values", *shape), z.shaped("mask", *shape),
                       tuple(calendar), tuple(symbols))


def _load_cooccur(path) -> CooccurrenceMatrix:
    z = _NpzArrays(path)
    symbols = z.strings("symbols")
    rows = z.shaped("rows", None)
    cols, vals = z.shaped("cols", rows.size), z.shaped("vals", rows.size)
    counts = {}
    for i, j, v in zip(rows, cols, vals):
        if i < j:
            counts[(int(i), int(j))] = int(v)
    return CooccurrenceMatrix(tuple(symbols), counts)


def _load_glove(path) -> StockEmbeddingSet:
    z = _NpzArrays(path)
    symbols = z.strings("symbols")
    return StockEmbeddingSet(tuple(symbols), z.shaped("vectors", len(symbols), None),
                             z.shaped("biases", len(symbols)),
                             [float(v) for v in z.shaped("trace", None)])


def _load_graph(path, symbols) -> StockGraph:
    index = {s: i for i, s in enumerate(symbols)}
    adjacency = [[] for _ in symbols]
    distances = [[] for _ in symbols]
    k = 0
    try:
        with open(path, encoding="utf-8") as fh:
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
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc}); rerun graph") from exc
    lonely = [s for s, nbrs in zip(symbols, adjacency) if not nbrs]
    if lonely:
        raise DataError(f"{path}: {lonely[0]} has no neighbors; rerun graph")
    return StockGraph(tuple(symbols), k, adjacency, distances)


def _load_word_embeddings(path) -> WordEmbeddingSet:
    labels, matrix = read_embeddings(path)
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
        with open(path, encoding="utf-8") as fh:
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
    value = _require(cfg, "split", "train_end")
    try:
        return dt.date.fromisoformat(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"split.train_end {value!r} is not a YYYY-MM-DD date "
                          f"({exc})") from None


def _model_config(cfg, ablation: str | None, glove_dim: int, n_factors: int,
                  news_dim: int) -> mdl.ModelConfig:
    # every key of the model section is a ModelConfig field
    base = mdl.ModelConfig(**cfg["model"], embed_dim=glove_dim, n_factors=n_factors,
                           news_dim=news_dim, seed=cfg["seed"])
    if ablation:
        base = mdl.ablation_config(ablation, base)
    return base


def _assemble_dataset(cfg, out: OutDir, model_cfg: mdl.ModelConfig,
                      require_labels: bool = True):
    if not isinstance(out, OutDir):   # the directory itself (perfbench's tests pass it)
        out = OutDir(Path(out), cfg)
    bars = _load_panel(out.read(PANEL_FILE))
    factors = _load_factors(out.read(FACTORS_FILE)) if model_cfg.use_tech else None
    news_panel = None
    if model_cfg.use_news:
        articles = load_articles(out.read(NEWS_FILE))
        wordvecs = _load_word_embeddings(out.read(WORDVEC_FILE))
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

def cmd_synth(cfg, out: OutDir, args):
    market = generate(SyntheticSpec(seed=cfg["seed"], **cfg["synth"]))
    for path in write_market(market, out.path).values():
        out.write(path.name)
    return {"n_articles": len(market.articles)}


def cmd_ingest(cfg, out: OutDir, args):
    panel = load_bars(out.read(BARS_FILE))
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
    _save_panel(out.write(PANEL_FILE), panel)
    _save_factors(out.write(FACTORS_FILE), fp)
    return {"n_symbols": panel.n_symbols, "n_dates": panel.n_dates,
            "factors": fp.factor_names}


def cmd_cooccur(cfg, out: OutDir, args):
    news_path = out.read(NEWS_FILE)
    train_end = _train_end(cfg)
    panel = _load_panel(out.read(PANEL_FILE))
    articles = [a for a in load_articles(news_path) if a.date <= train_end]
    x = build_cooccurrence(articles, panel.symbols)
    rows, cols, vals = x.to_coo()
    np.savez(out.write(COOCCUR_FILE), rows=rows, cols=cols, vals=vals,
             symbols=np.array(panel.symbols))
    return {"n_articles": len(articles), "n_pairs": len(x.counts)}


def cmd_train_word2vec(cfg, out: OutDir, args):
    news_path = out.read(NEWS_FILE)
    train_end = _train_end(cfg)
    articles = [a for a in load_articles(news_path) if a.date <= train_end]
    corpus = [a.tokens for a in articles]
    w = cfg["word2vec"]
    vocab = build_vocabulary(corpus, w["min_count"])
    emb = train_cbow(corpus, vocab, dim=w["dim"], window=w["window"],
                     negatives=w["negatives"], epochs=w["epochs"], lr=w["lr"],
                     seed=cfg["seed"])
    labels = sorted(vocab, key=vocab.get)
    write_embeddings(out.write(WORDVEC_FILE), labels, emb.vectors)
    return {"vocab_size": len(vocab), "epoch_losses": emb.epoch_losses}


def cmd_train_glove(cfg, out: OutDir, args):
    x = _load_cooccur(out.read(COOCCUR_FILE))
    g = cfg["glove"]
    emb = train_glove(x, dim=g["dim"], x_max=g["x_max"], alpha=g["alpha"],
                      epochs=g["epochs"], lr=g["lr"], seed=cfg["seed"])
    np.savez(out.write(GLOVE_FILE), vectors=emb.vectors, biases=emb.biases,
             symbols=np.array(emb.symbols), trace=np.array(emb.loss_trace))
    write_embeddings(out.write(STOCKVEC_FILE), list(emb.symbols), emb.vectors)
    return {"loss_first": emb.loss_trace[0], "loss_last": emb.loss_trace[-1]}


def cmd_graph(cfg, out: OutDir, args):
    emb = _load_glove(out.read(GLOVE_FILE))
    graph = build_knn_graph(emb, cfg["graph"]["k"])
    export_graph_csv(graph, out.write(GRAPH_FILE))
    return {"k": graph.k}


def cmd_train(cfg, out: OutDir, args):
    # the graph module needs glove.npz; the other ablations only record its
    # dim in the model config, so without the file they take the configured one
    glove = _load_glove(out.read(GLOVE_FILE)) if out.has(GLOVE_FILE) else None
    factors = _load_factors(out.read(FACTORS_FILE))
    wordvec_dim = embedding_dim(out.read(WORDVEC_FILE)) if out.has(WORDVEC_FILE) else None
    model_cfg = _model_config(cfg, args.ablation,
                              cfg["glove"]["dim"] if glove is None else glove.dim,
                              len(factors.factor_names),
                              wordvec_dim or cfg["word2vec"]["dim"])
    if model_cfg.use_graph and glove is None:
        raise DataError(f"{out.path / GLOVE_FILE} not found; the graph module needs "
                        f"train-glove to run first")
    bars, ds, _ = _assemble_dataset(cfg, out, model_cfg)
    train_end = _train_end(cfg)
    if train_end not in bars.date_index:
        raise DataError(f"split.train_end {train_end} is not a trading day in the panel")
    lo, hi = _window_indices(bars.calendar, None, train_end)
    train_ds = ds.split_by_anchor(lo, hi)
    graph = _load_graph(out.read(GRAPH_FILE), glove.symbols) if model_cfg.use_graph else None
    trained = mdl.train(train_ds, model_cfg, glove if model_cfg.use_graph else None,
                        graph)
    save_checkpoint(out.write(CHECKPOINT_FILE), trained.params)
    with open(out.write(MODELCFG_FILE), "w", encoding="utf-8") as fh:
        json.dump(vars(model_cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"ablation": args.ablation or "Full", "n_train_samples": train_ds.n,
            "trace": trained.trace}


def _read_model_config(path) -> mdl.ModelConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            model_cfg = mdl.ModelConfig.from_dict(json.load(fh))
        model_cfg.validate()
    except (TypeError, ValueError, ConfigError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise DataError(f"{path}: {exc}; rerun train") from exc
    return model_cfg


def _load_trained(cfg, out: OutDir):
    model_cfg = _read_model_config(out.read(MODELCFG_FILE))
    glove = _load_glove(out.read(GLOVE_FILE)) if model_cfg.use_graph else None
    graph = _load_graph(out.read(GRAPH_FILE), glove.symbols) if model_cfg.use_graph else None
    rng = np.random.default_rng(model_cfg.seed)
    params = mdl.build_params(model_cfg, rng, glove)
    stored_values = load_checkpoint(out.read(CHECKPOINT_FILE))
    if set(stored_values) != set(params):
        raise DataError("checkpoint parameter names do not match the model config")
    for name, values in stored_values.items():
        if params[name].values.shape != values.shape:
            raise DataError(f"checkpoint shape mismatch for {name}")
        params[name].values = values.astype(np.float64)
    bars = _load_panel(out.read(PANEL_FILE))
    model = mdl.TrainedModel(params, model_cfg, graph, bars.symbols)
    return model, model_cfg, bars


def cmd_predict(cfg, out: OutDir, args):
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
    _write_forecasts(out.write(FORECASTS_FILE), panel)
    return {"window": args.window, "n_forecasts": sub.n,
            "test_start": spec.test_start.isoformat()}


def cmd_backtest(cfg, out: OutDir, args):
    fc = _read_forecasts(out.read(FORECASTS_FILE))
    bars = _load_panel(out.read(PANEL_FILE))
    unknown = ([d.isoformat() for d in fc.calendar if d not in bars.date_index]
               + [s for s in fc.symbols if s not in bars.symbol_index])
    if unknown:
        raise DataError(f"{out.path / FORECASTS_FILE}: {unknown[0]} is not in "
                        f"{out.path / PANEL_FILE}; the forecasts do not match the panel, "
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
    bt.write_pnl_csv(out.write("pnl_daily.csv"), ledger)
    bt.write_metrics_csv(out.write("metrics.csv"), metrics)
    return {"simulator": args.simulator}


def cmd_quantiles(cfg, out: OutDir, args):
    fc = _read_forecasts(out.read(FORECASTS_FILE))
    reports = bt.quantile_analysis(fc.yhat, fc.y)
    bt.write_quantiles_csv(out.write("quantiles.csv"), reports)
    extra = {}
    for side in ("long", "short"):
        side_reports = bt.quantile_analysis(fc.yhat, fc.y, side=side)
        extra[side] = {qr: r.ppd_bps for qr, r in side_reports.items()}
    return extra


def cmd_interpret(cfg, out: OutDir, args):
    model, model_cfg, bars = _load_trained(cfg, out)
    icfg = cfg["interpret"]

    if model_cfg.use_graph:
        emb = model.params["graph.emb"].values
        symbols = model.symbols
    else:  # a non-graph model has no embeddings of its own: read train-glove's
        glove = _load_glove(out.read(GLOVE_FILE))
        emb, symbols = glove.vectors, glove.symbols
    report = itp.pairwise_distance_report(emb)
    low, high = itp.extreme_distance_pairs(report, icfg["distance_band"])
    extreme_pairs = {
        "closest": [[symbols[p.i], symbols[p.j]] for p in low],
        "farthest": [[symbols[p.i], symbols[p.j]] for p in high],
    }
    with open(out.write("pair_distances.csv"), "w", encoding="utf-8") as fh:
        fh.write("pair_a,pair_b,distance,percentile\n")
        for p in report:
            fh.write(f"{symbols[p.i]},{symbols[p.j]},{repr(p.distance)},"
                     f"{p.percentile:.4f}\n")
    write_embeddings(out.write("final_stock_embeddings.txt"), symbols, emb)

    if model_cfg.use_tech:
        factors = _load_factors(out.read(FACTORS_FILE))
        w = np.maximum(model.params["tech.w"].values, 0.0).T  # (m, l)
        k_emb = min(icfg["k_emb"], w.shape[1])
        freq = itp.factor_frequency(w, k_emb)
        with open(out.write("factor_importance.csv"), "w", encoding="utf-8") as fh:
            fh.write("rank,factor_index,factor_name,top_k_appearances\n")
            for rank, (j, count) in enumerate(freq, start=1):
                fh.write(f"{rank},{j},{factors.factor_names[j]},{count}\n")

    _, ds, news_panel = _assemble_dataset(cfg, out, model_cfg)
    spec = bt.split(bars.calendar, _train_end(cfg), cfg["split"]["gap_days"])
    lo, hi = _window_indices(bars.calendar, spec.test_start, spec.test_end)
    test_ds = ds.split_by_anchor(lo, hi)
    if test_ds.n > 0:
        capture: dict = {}
        fc = mdl.predict(model, test_ds, capture=capture)
        beta_mean = itp.aggregate_temporal_attention(capture["temporal_beta"])
        with open(out.write("temporal_attention.csv"), "w", encoding="utf-8") as fh:
            fh.write("lag,mean_weight\n")
            T = model_cfg.lookback
            for idx, wgt in enumerate(beta_mean):
                fh.write(f"-{T - idx}day,{repr(float(wgt))}\n")

        errors = (fc.yhat[test_ds.anchor_idx, test_ds.stock_idx]
                  - test_ds.labels) ** 2
        keys = [(bars.calendar[a].isoformat(), bars.symbols[s])
                for a, s in zip(test_ds.anchor_idx, test_ds.stock_idx)]
        buckets = itp.news_error_buckets(keys, errors, icfg["error_tail"])
        error_of = dict(zip(keys, errors))
        with open(out.write("news_error_buckets.csv"), "w", encoding="utf-8") as fh:
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

    return {"n_test_samples": test_ds.n, "extreme_pairs": extreme_pairs}


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


if __name__ == "__main__":
    sys.exit(main())
