"""The run's training and test windows, and the samples of a window, read
from the artifacts of ingest, synth and train-word2vec.
"""

from __future__ import annotations

import contextlib
import datetime as dt
from pathlib import Path

from .artifacts import (FACTORS_FILE, NEWS_FILE, PANEL_FILE, WORDVEC_FILE, OutDir,
                        _check_aligned, _check_width, _load_word_embeddings, _NpzArrays,
                        _read_factors, _read_panel)
from .config import ModelConfig
from .errors import ConfigError, DataError


def _train_end(cfg) -> dt.date:
    value = cfg["split"]["train_end"]
    if value is None:
        raise ConfigError("config value split.train_end is required for this command")
    return dt.date.fromisoformat(value)


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
    # imported here, so that the stages that only read the windows, and
    # perfbench through alphagraph.cli, load neither the model nor the news
    from . import model as mdl
    from .news import daily_stock_news_vectors, load_articles
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
            _check_width(out, FACTORS_FILE, factors.n_factors, model_cfg, "n_factors")
    news_panel = None
    if model_cfg.use_news:
        articles = load_articles(out.read(NEWS_FILE),
                                 since=calendar[start - 1] if start else None,
                                 before=bars.calendar[-1])
        wordvecs = _load_word_embeddings(out.read(WORDVEC_FILE))
        _check_width(out, WORDVEC_FILE, wordvecs.vectors.shape[1], model_cfg, "news_dim")
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
