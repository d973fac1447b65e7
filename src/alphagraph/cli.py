"""Command-line pipeline driver.

Commands map one-to-one onto pipeline stages; each reads its inputs from the
output directory (or the configured raw-data paths), writes its artifacts
there, and records a manifest with content hashes. Exit codes: 0 success,
1 usage/configuration, 2 data validation, 3 numerical fault.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime as dt
import json
import math
import sys
import zipfile
from collections.abc import Iterator
from pathlib import Path
from typing import NamedTuple

import numpy as np

# alphagraph.model, and with it nn, is imported only by the stages that
# train or predict, so that the other stages load without it
from . import backtest as bt
from . import interpret as itp
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (ModelConfig, SyntheticSpec, ablation_config, load_config,
                     manifest_outputs, manifest_path, sha256_file, write_manifest)
from .embeddings import (StockEmbeddingSet, StockGraph, build_knn_graph,
                         export_graph_csv, train_glove)
from .embfile import embedding_dim, read_embeddings, write_embeddings
from .errors import (AlphagraphError, ConfigError, DataError, NumericalFault,
                     UsageError)
from .factors import FactorPanel, factor_blocks, factor_names, factor_windows
from .forecasts import read_forecasts, write_forecasts
from .market import (BarPanel, daily_simple_returns, filter_universe, load_bars)
from .news import (CooccurrenceMatrix, build_cooccurrence, build_vocabulary,
                   daily_stock_news_vectors, load_articles, news_cells)
from .synth import generate, write_market
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
ATTENTION_FILE = "temporal_attention.csv"

# the command that writes each file a command reads, named by the errors
# about a missing or malformed input
WRITTEN_BY = {BARS_FILE: "synth", NEWS_FILE: "synth", PANEL_FILE: "ingest",
              FACTORS_FILE: "ingest", COOCCUR_FILE: "cooccur", WORDVEC_FILE: "train-word2vec",
              GLOVE_FILE: "train-glove", GRAPH_FILE: "graph", CHECKPOINT_FILE: "train",
              MODELCFG_FILE: "train", FORECASTS_FILE: "predict", ATTENTION_FILE: "predict"}


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

# bytes read from a zip member at a time when only some of its rows are kept
_READ_CHUNK = 1 << 20


def _read_rows(fh, rows: slice):
    """The rows ``rows`` (a slice without a step) of the leading axis of
    the ``.npy`` array ``fh`` streams, and the array's whole shape; None
    for an array this cannot cut (0-d, Fortran-ordered, of objects or not
    in the version 1.0 format that ``np.savez`` writes). Every byte to EOF
    is read, a chunk at a time, and those outside the rows are dropped, so
    a zip member's CRC check still covers the whole array."""
    if np.lib.format.read_magic(fh) != (1, 0):
        return None
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    if not shape or fortran_order or dtype.hasobject:
        return None
    first, stop, _ = rows.indices(shape[0])
    out = np.empty((max(stop - first, 0), *shape[1:]), dtype)
    window = out.reshape(-1).view(np.uint8)
    row_bytes = dtype.itemsize * math.prod(shape[1:])
    lo, got = first * row_bytes, 0   # window and chunk offsets in the data
    while chunk := fh.read(_READ_CHUNK):
        a, b = max(got, lo), min(got + len(chunk), lo + window.size)
        if a < b:
            window[a - lo:b - lo] = np.frombuffer(chunk, np.uint8, b - a, a - got)
        got += len(chunk)
    if got < shape[0] * row_bytes:
        raise ValueError(f"EOF: reading array data, expected {shape[0] * row_bytes} bytes "
                         f"got {got}")
    return out, shape


class _NpzArrays:
    """The arrays of one ``.npz`` artifact, each read when asked for; a
    context manager that closes the file. A truncated or corrupt file (no
    zip directory, a member read failing its CRC check), a missing array
    or one of the wrong shape is a DataError naming the file and the
    command that writes it. An array stored in C order may be read as a
    range of rows of its leading axis: its member is still read through to
    its end, so the CRC and shape checks cover all of it, but only those
    rows are kept."""

    def __init__(self, path):
        self.path = Path(path)
        with self._reading():
            self.npz = np.load(self.path, allow_pickle=False)
            if not isinstance(self.npz, np.lib.npyio.NpzFile):
                raise ValueError("a single array, not an archive")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.npz.close()

    @contextlib.contextmanager
    def _reading(self):
        try:
            yield
        except (zipfile.BadZipFile, ValueError, EOFError, OSError) as exc:
            raise self.error(f"truncated or corrupt .npz file ({exc})") from exc

    def error(self, what: str) -> DataError:
        return DataError(f"{self.path}: {what}; rerun {WRITTEN_BY[self.path.name]}")

    def shaped(self, name: str, *shape, rows: slice | None = None) -> np.ndarray:
        """Array ``name``, whose shape must be ``shape`` (None matches any
        length); with ``rows``, only those rows of its leading axis, which
        is a DataError for an array ``_read_rows`` cannot cut."""
        if name not in self.npz.files:
            raise self.error(f"no array {name!r}")
        with self._reading():
            if rows is None:
                a = self.npz[name]
                whole = a.shape
            else:
                # the member NpzFile reads for ``name``
                member = name if name in self.npz.zip.namelist() else name + ".npy"
                with self.npz.zip.open(member) as fh:
                    cut = _read_rows(fh, rows)
                if cut is None:
                    raise self.error(f"array {name!r} cannot be read by rows (not a "
                                     f"C-ordered .npy 1.0 array)")
                a, whole = cut
        if len(whole) != len(shape) or any(n is not None and n != m
                                           for n, m in zip(shape, whole)):
            want = " x ".join("*" if n is None else str(n) for n in shape)
            raise self.error(f"array {name!r} has shape {whole}, expected {want}")
        return a

    def strings(self, name: str) -> list[str]:
        return [str(s) for s in self.shaped(name, None)]

    def dates(self, name: str) -> list[dt.date]:
        try:
            return [dt.date.fromisoformat(s) for s in self.strings(name)]
        except ValueError as exc:
            raise self.error(f"array {name!r}: {exc}") from None


class _RowBlocks(NamedTuple):
    """An array to write given as its shape, its dtype and an iterator of
    its leading-axis row blocks, in order, which must fill that shape."""
    shape: tuple
    dtype: np.dtype
    blocks: Iterator[np.ndarray]


def _save_npz(path, **arrays) -> None:
    """Write ``arrays`` as ``np.savez`` does, byte for byte, each straight
    from its own buffer: ``np.savez`` copies every array it writes into a
    bytes object (16 MiB at a time). An F-ordered array is written as its
    C-ordered transpose, under the header that says so. A ``_RowBlocks``
    is written one block at a time, as its iterator yields them, in
    the order of ``arrays``."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, a in arrays.items():
            if isinstance(a, _RowBlocks):
                header = {"descr": np.lib.format.dtype_to_descr(a.dtype),
                          "fortran_order": False, "shape": a.shape}
                blocks = a.blocks
            else:
                a = np.asanyarray(a)
                header = np.lib.format.header_data_from_array_1_0(a)
                blocks = (a.T if a.flags.f_contiguous and not a.flags.c_contiguous else a,)
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(fh, header)
                for block in blocks:
                    fh.write(np.ascontiguousarray(block).reshape(-1).view(np.uint8))


def _save_panel(path, panel: BarPanel) -> None:
    _save_npz(path,
              calendar=np.array([d.isoformat() for d in panel.calendar]),
              symbols=np.array(panel.symbols),
              mask=panel.mask,
              **{f: panel.arrays[f] for f in BarPanel.FIELDS})


def _read_panel(z: _NpzArrays, rows: slice | None = None) -> BarPanel:
    """The panel's calendar, symbols, mask and opens, of every day or of
    the calendar rows ``rows``: the stages after ingest read no other bar
    field (labels, returns and the universe all price at the open)."""
    calendar, symbols = z.dates("calendar"), z.strings("symbols")
    shape = (len(calendar), len(symbols))
    return BarPanel(calendar if rows is None else calendar[rows], symbols,
                    {"open": z.shaped("open", *shape, rows=rows)},
                    z.shaped("mask", *shape, rows=rows))


def _load_panel(path) -> BarPanel:
    with _NpzArrays(path) as z:
        return _read_panel(z)


def _save_factors(path, panel: BarPanel, windows: list) -> None:
    """``factors.npz`` of the panel's factors ``windows``, its values
    computed and written one block of dates at a time."""
    shape = (panel.n_dates, panel.n_symbols, len(windows))
    # filled block by block as the values are written, and written after them
    mask = np.empty(shape, dtype=bool)
    _save_npz(path, names=np.array(factor_names(windows)),
              values=_RowBlocks(shape, np.dtype(np.float64), factor_blocks(panel, windows, mask)),
              mask=mask,
              calendar=np.array([d.isoformat() for d in panel.calendar]),
              symbols=np.array(panel.symbols))


def _read_factors(z: _NpzArrays, rows: slice | None = None) -> FactorPanel:
    """The factor panel, of every day or of the calendar rows ``rows``."""
    names, calendar, symbols = z.strings("names"), z.dates("calendar"), z.strings("symbols")
    shape = (len(calendar), len(symbols), len(names))
    return FactorPanel(names, z.shaped("values", *shape, rows=rows),
                       z.shaped("mask", *shape, rows=rows),
                       tuple(calendar if rows is None else calendar[rows]), tuple(symbols))


def _check_aligned(factors: _NpzArrays, panel: _NpzArrays) -> None:
    """The factor panel must be of the bar panel's days and stocks: a stage
    that reads some rows of each reads the same rows of both."""
    if (factors.dates("calendar") != panel.dates("calendar")
            or factors.strings("symbols") != panel.strings("symbols")):
        raise DataError("factor panel is not aligned with the bar panel")


def _load_cooccur(path) -> CooccurrenceMatrix:
    """The co-mention counts of a cooccur file: each pair (i, j) of distinct
    indices in [0, n) appears once in each order, with the same positive
    integer count."""
    with _NpzArrays(path) as z:
        symbols = z.strings("symbols")
        rows = z.shaped("rows", None)
        cols, vals = z.shaped("cols", rows.size), z.shaped("vals", rows.size)
    for name, index in (("rows", rows), ("cols", cols)):
        if index.dtype.kind not in "iu" or np.any((index < 0) | (index >= len(symbols))):
            raise z.error(f"array {name!r} holds an entry that is not an index in "
                          f"[0, {len(symbols)})")
    if np.any(rows == cols):
        raise z.error("a pair (i, i) of a stock with itself")
    if vals.dtype.kind not in "iuf" or not np.all(np.isfinite(vals) & (vals > 0)
                                                  & (vals == np.round(vals))):
        raise z.error("a count that is not a positive integer")
    pairs = {(i, j): int(v) for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist())}
    if len(pairs) != rows.size or any(pairs.get((j, i)) != v for (i, j), v in pairs.items()):
        raise z.error("a pair not present once in each order with one count")
    return CooccurrenceMatrix(tuple(symbols), {k: v for k, v in pairs.items() if k[0] < k[1]})


def _load_glove(path) -> StockEmbeddingSet:
    with _NpzArrays(path) as z:
        symbols = z.strings("symbols")
        vectors = z.shaped("vectors", len(symbols), None)
        biases = z.shaped("biases", len(symbols))
        for name, a in (("vectors", vectors), ("biases", biases)):
            if not np.all(np.isfinite(a)):
                raise z.error(f"array {name!r} holds a non-finite value")
        trace = [float(v) for v in z.shaped("trace", None)]
    return StockEmbeddingSet(tuple(symbols), vectors, biases, trace)


def _check_glove_symbols(out: OutDir, glove: StockEmbeddingSet, symbols) -> None:
    """The GloVe embeddings must be of the panel's stocks, in its order: the
    model reads a stock's embedding by its panel column."""
    if tuple(glove.symbols) != tuple(symbols):
        raise DataError(f"{out.path / GLOVE_FILE}: its stocks are not those of "
                        f"{out.path / PANEL_FILE}; rerun cooccur, train-glove and graph "
                        f"on this panel")


def _load_graph(path, symbols) -> StockGraph:
    """The neighbor table of a graph CSV: every stock of ``symbols`` is the
    source of one row of each rank 1..k, with one k for every stock."""
    index = {s: i for i, s in enumerate(symbols)}
    rows = []
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
                rows.append((index[source], rank - 1, index[target], distance))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc}); rerun graph") from exc
    except csv.Error as exc:  # an unclosed quote can run past the field size limit
        raise DataError(f"{path}: {exc}; rerun graph") from exc
    n = len(symbols)
    k = max(len(rows) // max(n, 1), 1)
    neighbors = np.full((n, k), -1, dtype=np.intp)
    distances = np.zeros((n, k))
    for i, slot, j, distance in rows:
        if 0 <= slot < k:
            neighbors[i, slot], distances[i, slot] = j, distance
    # with k rows per stock, a repeated or out-of-range rank leaves a slot empty
    per_stock = np.bincount([i for i, *_ in rows], minlength=n)
    bad = (per_stock != k) | (neighbors < 0).any(axis=1)
    if bad.any():
        raise DataError(f"{path}: {symbols[int(np.argmax(bad))]} does not have one "
                        f"neighbor of each rank 1..{k}; rerun graph")
    return StockGraph(tuple(symbols), neighbors, distances)


def _load_word_embeddings(path) -> WordEmbeddingSet:
    labels, matrix = read_embeddings(path)
    return WordEmbeddingSet({t: i for i, t in enumerate(labels)}, matrix)


# ---------------------------------------------------------------------------
# Shared pipeline assembly
# ---------------------------------------------------------------------------

def _train_end(cfg) -> dt.date:
    value = cfg["split"]["train_end"]
    if value is None:
        raise ConfigError("config value split.train_end is required for this command")
    return dt.date.fromisoformat(value)


def _model_config(cfg, ablation: str | None, glove_dim: int, n_factors: int,
                  news_dim: int) -> ModelConfig:
    # every key of the model section is a ModelConfig field
    base = ModelConfig(**cfg["model"], embed_dim=glove_dim, n_factors=n_factors,
                       news_dim=news_dim, seed=cfg["seed"])
    if ablation:
        base = ablation_config(ablation, base)
    return base


def _assemble_dataset(cfg, out: OutDir, model_cfg: ModelConfig,
                      window: tuple[int, int] | None = None,
                      pz: _NpzArrays | None = None, fz: _NpzArrays | None = None):
    """(bars, dataset, news panel) of the samples anchored in ``window``,
    the (first, last) training or test window of ``_sample_windows``, or
    on every day with None.

    Only the days those samples read are loaded: the rows of ``panel.npz``
    and ``factors.npz`` from ``model.lookback`` days before the first
    anchor through ``model.horizon`` days past the last, where the last
    label exits, and the articles dated from the day before those rows up
    to their last day (earlier ones fall on days not read). The samples
    must have a label, except in the test window, which runs to the
    calendar's last day, where the returns are not known yet. The caller
    may pass the panel and factor files it already has open, so a stage
    opens each once; factor rows are read only for the technical module."""
    from . import model as mdl
    if not isinstance(out, OutDir):   # the directory itself (perfbench's tests pass it)
        out = OutDir(Path(out), cfg)
    with contextlib.ExitStack() as opened:
        if pz is None:
            pz = opened.enter_context(_NpzArrays(out.read(PANEL_FILE)))
        calendar = pz.dates("calendar")
        lo, hi = (0, len(calendar) - 1) if window is None else window
        start = max(lo - model_cfg.lookback, 0)
        rows = slice(start, hi + model_cfg.horizon + 1)
        bars, factors = _read_panel(pz, rows), None
        if model_cfg.use_tech:
            if fz is None:
                fz = opened.enter_context(_NpzArrays(out.read(FACTORS_FILE)))
            _check_aligned(fz, pz)
            factors = _read_factors(fz, rows)
    news_panel = None
    if model_cfg.use_news:
        articles = load_articles(out.read(NEWS_FILE),
                                 since=calendar[start - 1] if start else None,
                                 before=bars.calendar[-1])
        wordvecs = _load_word_embeddings(out.read(WORDVEC_FILE))
        news_panel = daily_stock_news_vectors(articles, wordvecs, bars.symbols,
                                              bars.calendar)
    ds = mdl.build_dataset(bars, factors, news_panel, model_cfg,
                           require_labels=window is None or hi < len(calendar) - 1)
    return bars, ds.split_by_anchor(lo - start, hi - start), news_panel


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


def _sample_windows(cfg, calendar):
    """The (first, last) anchor indices into ``calendar`` of the run's
    training and test samples. Training runs from the first day through
    split.train_end; the test window from split.gap_days + 1 trading days
    after it through the last day, so the gap days are in neither. A
    train_end that is not a trading day, or a gap that leaves no test day,
    is a DataError."""
    train_end, gap_days = _train_end(cfg), cfg["split"]["gap_days"]
    if train_end not in calendar:
        raise DataError(f"split.train_end {train_end} is not a trading day in the panel")
    _, last_train = _window_indices(calendar, None, train_end)
    first_test = last_train + gap_days + 1
    if first_test >= len(calendar):
        raise DataError(f"split.gap_days {gap_days} leaves no test day: the panel ends "
                        f"{len(calendar) - 1 - last_train} trading days after "
                        f"split.train_end {train_end}")
    return (0, last_train), (first_test, len(calendar) - 1)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg, out: OutDir, args):
    market = generate(SyntheticSpec(seed=cfg["seed"], **cfg["synth"]))
    for path in write_market(market, out.path).values():
        out.write(path.name)
    return {"n_articles": len(market.articles)}


def cmd_ingest(cfg, out: OutDir, args):
    windows = factor_windows(cfg["factors"] or None)   # a bad window fails before any output
    panel = load_bars(out.read(BARS_FILE))
    u = cfg["universe"]
    window = panel
    if cfg["split"]["train_end"]:
        _sample_windows(cfg, panel.calendar)  # a split that cannot work fails before any output
        window = panel.restrict_dates(end=_train_end(cfg))
    universe = filter_universe(window, u["min_median_dollar_volume"], u["min_price"],
                               u["min_history"])
    del window
    if not universe:
        raise DataError("universe filter removed every symbol")
    panel = panel.restrict_symbols(universe)
    _save_panel(out.write(PANEL_FILE), panel)
    # the factors read only the opens and volumes
    panel = BarPanel(panel.calendar, panel.symbols,
                     {f: panel.arrays[f] for f in ("open", "volume")}, panel.mask)
    _save_factors(out.write(FACTORS_FILE), panel, windows)
    return {"n_symbols": panel.n_symbols, "n_dates": panel.n_dates,
            "factors": factor_names(windows)}


def cmd_cooccur(cfg, out: OutDir, args):
    news_path = out.read(NEWS_FILE)
    train_end = _train_end(cfg)
    with _NpzArrays(out.read(PANEL_FILE)) as z:
        z.dates("calendar")   # checked by the first stage that reads the panel
        symbols = z.strings("symbols")
    articles = [a for a in load_articles(news_path, tokenize=False) if a.date <= train_end]
    x = build_cooccurrence(articles, symbols)
    rows, cols, vals = x.to_coo()
    _save_npz(out.write(COOCCUR_FILE), rows=rows, cols=cols, vals=vals,
              symbols=np.array(symbols))
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
    _save_npz(out.write(GLOVE_FILE), vectors=emb.vectors, biases=emb.biases,
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
    with _NpzArrays(out.read(FACTORS_FILE)) as fz, _NpzArrays(out.read(PANEL_FILE)) as pz:
        if glove is not None:
            _check_glove_symbols(out, glove, pz.strings("symbols"))
        window, _ = _sample_windows(cfg, pz.dates("calendar"))
        wordvec_dim = embedding_dim(out.read(WORDVEC_FILE)) if out.has(WORDVEC_FILE) else None
        model_cfg = _model_config(cfg, args.ablation,
                                  cfg["glove"]["dim"] if glove is None else glove.dim,
                                  len(fz.strings("names")),
                                  wordvec_dim or cfg["word2vec"]["dim"])
        if model_cfg.use_graph and glove is None:
            raise DataError(f"{out.path / GLOVE_FILE} not found; the graph module needs "
                            f"train-glove to run first")
        # of what is read, only the samples' feature store is held while the
        # model trains, not the bar prices or the factor mask
        _, train_ds, _ = _assemble_dataset(cfg, out, model_cfg, window, pz, fz)
    graph = _load_graph(out.read(GRAPH_FILE), glove.symbols) if model_cfg.use_graph else None
    from . import model as mdl
    trained = mdl.train(train_ds, model_cfg, glove if model_cfg.use_graph else None,
                        graph)
    save_checkpoint(out.write(CHECKPOINT_FILE), trained.params)
    with open(out.write(MODELCFG_FILE), "w", encoding="utf-8") as fh:
        json.dump(vars(model_cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"ablation": args.ablation or "Full", "n_train_samples": train_ds.n,
            "trace": trained.trace}


def _read_model_config(path) -> ModelConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            model_cfg = ModelConfig.from_dict(json.load(fh))
    except (TypeError, ValueError, ConfigError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise DataError(f"{path}: {exc}; rerun train") from exc
    return model_cfg


def _stored_param(path, stored: dict, name: str, shape: tuple) -> np.ndarray:
    """Parameter ``name`` of ``stored``, the checkpoint read from ``path``,
    which must have ``shape``."""
    values = stored.get(name)
    if values is None or values.shape != shape:
        got = "missing" if values is None else f"of shape {values.shape}"
        raise DataError(f"{path}: checkpoint parameter {name} is {got}, expected shape "
                        f"{shape}; rerun train")
    return values


def cmd_predict(cfg, out: OutDir, args):
    from . import model as mdl
    model_cfg = _read_model_config(out.read(MODELCFG_FILE))
    glove = _load_glove(out.read(GLOVE_FILE)) if model_cfg.use_graph else None
    graph = _load_graph(out.read(GRAPH_FILE), glove.symbols) if model_cfg.use_graph else None
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
    model = mdl.TrainedModel(params, model_cfg, graph, sub.store.symbols)
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


def _panel_positions(out: OutDir, fc, calendar, symbols):
    """The panel row of each forecast date and the panel column of each
    forecast symbol; a DataError if the forecasts name one the panel lacks."""
    date_index = {d: i for i, d in enumerate(calendar)}
    symbol_index = {s: i for i, s in enumerate(symbols)}
    unknown = ([d.isoformat() for d in fc.calendar if d not in date_index]
               + [s for s in fc.symbols if s not in symbol_index])
    if unknown:
        raise DataError(f"{out.path / FORECASTS_FILE}: {unknown[0]} is not in "
                        f"{out.path / PANEL_FILE}; the forecasts do not match the panel, "
                        f"rerun predict")
    return ([date_index[d] for d in fc.calendar],
            [symbol_index[s] for s in fc.symbols])


def cmd_backtest(cfg, out: OutDir, args):
    fc = read_forecasts(out.read(FORECASTS_FILE))
    bars = _load_panel(out.read(PANEL_FILE))
    rows, cols = _panel_positions(out, fc, bars.calendar, bars.symbols)
    rets = daily_simple_returns(bars)[np.ix_(rows, cols)]
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
    fc = read_forecasts(out.read(FORECASTS_FILE))
    reports = bt.quantile_analysis(fc.yhat, fc.y)
    bt.write_quantiles_csv(out.write("quantiles.csv"), reports)
    extra = {}
    for side in ("long", "short"):
        side_reports = bt.quantile_analysis(fc.yhat, fc.y, side=side)
        extra[side] = {qr: r.ppd_bps for qr, r in side_reports.items()}
    return extra


def cmd_interpret(cfg, out: OutDir, args):
    """Reports on the trained parameters and on the forecasts of the test
    window, read from what train and predict wrote; runs no model."""
    model_cfg = _read_model_config(out.read(MODELCFG_FILE))
    icfg = cfg["interpret"]
    with _NpzArrays(out.read(PANEL_FILE)) as z:
        calendar, symbols = z.dates("calendar"), z.strings("symbols")
    fc = read_forecasts(out.read(FORECASTS_FILE))
    rows, cols = _panel_positions(out, fc, calendar, symbols)
    _, (lo, hi) = _sample_windows(cfg, calendar)
    if fc.calendar[0] < calendar[lo]:  # its dates are panel dates, so none is past hi
        raise DataError(f"{out.path / FORECASTS_FILE}: forecasts from {fc.calendar[0]} to "
                        f"{fc.calendar[-1]}, not the test window {calendar[lo]} to "
                        f"{calendar[hi]}; rerun predict")
    labelled = fc.aligned()
    if labelled.any():
        out.read(ATTENTION_FILE)
    checkpoint = out.read(CHECKPOINT_FILE)
    stored = load_checkpoint(checkpoint)

    if model_cfg.use_graph:
        emb = _stored_param(checkpoint, stored, "graph.emb", (len(symbols), model_cfg.embed_dim))
    else:  # a non-graph model has no embeddings of its own: read train-glove's
        glove = _load_glove(out.read(GLOVE_FILE))
        _check_glove_symbols(out, glove, symbols)
        emb = glove.vectors
    pair_i, pair_j, distance, percentile = itp.pairwise_distance_report(emb)
    band = icfg["distance_band"]
    extreme_pairs = {
        name: [[symbols[a], symbols[b]] for a, b in zip(pair_i[sel].tolist(),
                                                         pair_j[sel].tolist())]
        for name, sel in (("closest", percentile <= band),
                          ("farthest", percentile > 100.0 - band))}
    with open(out.write("pair_distances.csv"), "w", encoding="utf-8") as fh:
        fh.write("pair_a,pair_b,distance,percentile\n")
        for a, b, dist, pct in zip(pair_i.tolist(), pair_j.tolist(), distance.tolist(),
                                   percentile.tolist()):
            fh.write(f"{symbols[a]},{symbols[b]},{repr(dist)},{pct:.4f}\n")
    write_embeddings(out.write("final_stock_embeddings.txt"), symbols, emb)

    if model_cfg.use_tech:
        with _NpzArrays(out.read(FACTORS_FILE)) as z:
            names = z.strings("names")
        tech_w = _stored_param(checkpoint, stored, "tech.w", (len(names), model_cfg.tech_dim))
        w = np.maximum(tech_w, 0.0).T  # (m, l)
        k_emb = min(icfg["k_emb"], w.shape[1])
        order, counts = itp.factor_frequency(w, k_emb)
        with open(out.write("factor_importance.csv"), "w", encoding="utf-8") as fh:
            fh.write("rank,factor_index,factor_name,top_k_appearances\n")
            for rank, (j, count) in enumerate(zip(order.tolist(), counts.tolist()), start=1):
                fh.write(f"{rank},{j},{names[j]},{count}\n")

    if labelled.any():
        row_index = None
        if model_cfg.use_news:
            articles = load_articles(out.read(NEWS_FILE), tokenize=False)
            row_index, article_ids, _ = news_cells(articles, symbols, calendar)
        # np.nonzero lists the forecasts in date order, then symbol order, so
        # equal errors rank by date, then by symbol (sorted order)
        d_idx, s_idx = np.nonzero(labelled)
        errors = (fc.yhat[d_idx, s_idx] - fc.y[d_idx, s_idx]) ** 2
        low, high = itp.news_error_buckets(errors, icfg["error_tail"])
        T = model_cfg.lookback
        with open(out.write("news_error_buckets.csv"), "w", encoding="utf-8") as fh:
            fh.write("bucket,date,symbol,sq_error,article_ids\n")
            for name, bucket in (("low_error", low), ("high_error", high)):
                for i in bucket:
                    a, s = rows[d_idx[i]], cols[s_idx[i]]
                    ids = []
                    if row_index is not None:
                        for row in row_index[a - T:a, s]:
                            ids.extend(article_ids[row])
                    fh.write(f"{name},{calendar[a].isoformat()},{symbols[s]},"
                             f"{repr(float(errors[i]))},{';'.join(ids)}\n")

    return {"n_test_samples": int(labelled.sum()), "extreme_pairs": extreme_pairs}


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


if __name__ == "__main__":
    sys.exit(main())
