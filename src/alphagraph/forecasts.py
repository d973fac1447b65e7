"""Forecast panels and ``forecasts.csv``, the file ``predict`` writes and
``backtest``, ``quantiles`` and ``interpret`` read."""

from __future__ import annotations

import datetime as dt
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError

FORECASTS_HEADER = "date,symbol,yhat,y"
# forecast rows formatted or parsed at a time: parsing a chunk of rows of about
# 50 characters peaks at 0.9 MB of temporaries (tracemalloc; 3.8 MB at 8,192)
FORECAST_CHUNK = 2048


@dataclass
class ForecastPanel:
    calendar: tuple
    symbols: tuple
    yhat: np.ndarray  # (D, S), NaN where no forecast
    y: np.ndarray     # (D, S), NaN where unknown

    def mask(self) -> np.ndarray:
        return np.isfinite(self.yhat)

    def aligned(self) -> np.ndarray:
        return np.isfinite(self.yhat) & np.isfinite(self.y)


def write_forecasts(path, panel: ForecastPanel) -> None:
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


def read_forecasts(path) -> ForecastPanel:
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
    return ForecastPanel(tuple(map(dt.date.fromisoformat, dates)), tuple(symbols),
                             yhat, y)
