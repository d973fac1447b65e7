"""Each artifact's file name, the command that writes it, and how it is
written and read back. Every binary artifact is an ``.npz`` archive, written
by ``_save_npz`` and read through ``_NpzArrays``, which checks each
member's CRC-32. A loader refuses a malformed file with a DataError naming
it and the command to rerun.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import json
import math
import tokenize
import zipfile
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, DataError

if TYPE_CHECKING:   # each loader imports the module of the type it builds
    from .embeddings import StockEmbeddingSet, StockGraph
    from .factors import FactorPanel
    from .market import BarPanel
    from .news import CooccurrenceMatrix
    from .word2vec import WordEmbeddingSet

BARS_FILE = "bars.csv"
NEWS_FILE = "news.jsonl"
PANEL_FILE = "panel.npz"
FACTORS_FILE = "factors.npz"
COOCCUR_FILE = "cooccur.npz"
WORDVEC_FILE = "word_embeddings.txt"
GLOVE_FILE = "glove.npz"
GRAPH_FILE = "graph.csv"
CHECKPOINT_FILE = "checkpoint.npz"
MODELCFG_FILE = "model_config.json"
FORECASTS_FILE = "forecasts.csv"
ATTENTION_FILE = "temporal_attention.csv"

# the command that writes each file a command reads, named by the errors
# about a missing or malformed input
WRITTEN_BY = {BARS_FILE: "synth", NEWS_FILE: "synth", PANEL_FILE: "ingest",
              FACTORS_FILE: "ingest", COOCCUR_FILE: "cooccur", WORDVEC_FILE: "train-word2vec",
              GLOVE_FILE: "train-glove", GRAPH_FILE: "graph", CHECKPOINT_FILE: "train",
              MODELCFG_FILE: "train", FORECASTS_FILE: "predict", ATTENTION_FILE: "predict"}


class OutDir:
    """The output directory of one command. The command opens every file it
    reads through ``read`` and every file it writes through ``write``, so
    ``inputs`` and ``outputs`` are what its manifest lists and what ``run``
    deletes when it fails."""

    def __init__(self, path: Path, cfg: dict):
        self.path, self.inputs, self.outputs = path, set(), set()
        # the raw bars and news may live elsewhere (paths.bars, paths.news)
        self._elsewhere = {BARS_FILE: cfg["paths"]["bars"], NEWS_FILE: cfg["paths"]["news"]}

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
# The .npz container
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
    zip directory, a member read failing its CRC check or a damaged zip or
    ``.npy`` header), a missing array or one of the wrong shape is a
    DataError naming the file and the command that writes it. An array
    stored in C order may be read as a range of rows of its leading axis:
    its member is still read through to its end, so the CRC and shape
    checks cover all of it, but only those rows are kept."""

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
        # a damaged header makes zipfile raise a RuntimeError, numpy a TokenError
        try:
            yield
        except (zipfile.BadZipFile, ValueError, EOFError, OSError, RuntimeError,
                tokenize.TokenError) as exc:
            raise self.error(f"truncated or corrupt .npz file ({exc})") from exc

    def error(self, what: str) -> DataError:
        writer = WRITTEN_BY.get(self.path.name, "the command that wrote it")
        return DataError(f"{self.path}: {what}; rerun {writer}")

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

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array of the file, by name, of whatever shape."""
        with self._reading():
            return {name: self.npz[name] for name in self.npz.files}

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


# ---------------------------------------------------------------------------
# The artifacts
# ---------------------------------------------------------------------------

def _save_panel(path, panel: BarPanel) -> None:
    _save_npz(path,
              calendar=np.array([d.isoformat() for d in panel.calendar]),
              symbols=np.array(panel.symbols),
              mask=panel.mask,
              **{f: panel.arrays[f] for f in panel.FIELDS})


def _read_panel(z: _NpzArrays, rows: slice | None = None) -> BarPanel:
    """The panel's calendar, symbols, mask and opens, of every day or of
    the calendar rows ``rows``: the stages after ingest read no other bar
    field (labels, returns and the universe all price at the open)."""
    from .market import BarPanel
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
    from .factors import factor_blocks, factor_names
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
    from .factors import FactorPanel
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


def _save_cooccur(path, x: CooccurrenceMatrix) -> None:
    rows, cols, vals = x.to_coo()
    _save_npz(path, rows=rows, cols=cols, vals=vals, symbols=np.array(x.symbols))


def _load_cooccur(path) -> CooccurrenceMatrix:
    """The co-mention counts of a cooccur file: each pair (i, j) of distinct
    indices in [0, n) appears once in each order, with the same positive
    integer count."""
    from .news import CooccurrenceMatrix
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


def _load_word_embeddings(path) -> WordEmbeddingSet:
    from .embfile import read_embeddings
    from .word2vec import WordEmbeddingSet
    labels, matrix = read_embeddings(path)
    return WordEmbeddingSet({t: i for i, t in enumerate(labels)}, matrix)


def _save_glove(path, emb: StockEmbeddingSet) -> None:
    _save_npz(path, vectors=emb.vectors, biases=emb.biases,
              symbols=np.array(emb.symbols), trace=np.array(emb.loss_trace))


def _load_glove(path) -> StockEmbeddingSet:
    from .embeddings import StockEmbeddingSet
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


def _save_graph(path, graph: StockGraph) -> None:
    """``source,target,rank,distance`` with rank 1 = nearest."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("source,target,rank,distance\n")
        for i, (nbrs, dists) in enumerate(zip(graph.neighbors.tolist(),
                                              graph.distances.tolist())):
            for rank, (j, dist) in enumerate(zip(nbrs, dists), start=1):
                fh.write(f"{graph.symbols[i]},{graph.symbols[j]},{rank},{repr(dist)}\n")


def _load_graph(path, symbols) -> StockGraph:
    """The neighbor table of a graph CSV: every stock of ``symbols`` is the
    source of one row of each rank 1..k, with one k for every stock."""
    from .embeddings import StockGraph
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


def _save_model_config(path, model_cfg: ModelConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vars(model_cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_model_config(path) -> ModelConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return ModelConfig.from_dict(json.load(fh))
    except (TypeError, ValueError, ConfigError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise DataError(f"{path}: {exc}; rerun train") from exc


def _check_width(out: OutDir, name: str, width: int, model_cfg: ModelConfig, field: str):
    """Input ``name`` of a trained model must be as wide as when ``train``
    read it: ``model_cfg``'s ``field``, else an upstream rerun changed it."""
    if width != getattr(model_cfg, field):
        raise DataError(f"{out.path / name}: width {width}, but {out.path / MODELCFG_FILE} "
                        f"has {field} {getattr(model_cfg, field)}; rerun train")


def _stored_param(path, stored: dict, name: str, shape: tuple) -> np.ndarray:
    """Parameter ``name`` of ``stored``, the checkpoint read from ``path``,
    which must have ``shape``."""
    values = stored.get(name)
    if values is None or values.shape != shape:
        got = "missing" if values is None else f"of shape {values.shape}"
        raise DataError(f"{path}: checkpoint parameter {name} is {got}, expected shape "
                        f"{shape}; rerun train")
    return values
