"""Daily bar ingestion, trading calendar, and return computation.

Bar CSV schema: UTF-8, header ``date,symbol,open,high,low,close,volume``,
dates as ``YYYY-MM-DD``, decimal point ``.``. The daily open is the pricing
reference for every return in the package.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DataError

BAR_HEADER = ["date", "symbol", "open", "high", "low", "close", "volume"]


@dataclass(frozen=True)
class Bar:
    symbol: str
    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def validate(self) -> None:
        # load_bars and build_panel call this only on the rows _suspect_bars
        # flags, so a rule added here must be added there too
        if min(self.open, self.high, self.low, self.close) <= 0:
            raise DataError(f"bar {self.symbol} {self.date}: non-positive price")
        body_lo = min(self.open, self.close)
        body_hi = max(self.open, self.close)
        if not (self.low <= body_lo <= body_hi <= self.high):
            raise DataError(f"bar {self.symbol} {self.date}: high/low do not bracket open/close")
        if self.volume < 0:
            raise DataError(f"bar {self.symbol} {self.date}: negative volume")


class BarPanel:
    """Dense date x symbol grid of daily bars with explicit missing markers."""

    FIELDS = ("open", "high", "low", "close", "volume")

    def __init__(self, calendar, symbols, arrays, mask):
        self.calendar = tuple(calendar)
        self.symbols = tuple(symbols)
        self.arrays = arrays  # field name -> (D, S) float64, NaN where missing
        self.mask = mask
        self.date_index = {d: i for i, d in enumerate(self.calendar)}
        self.symbol_index = {s: i for i, s in enumerate(self.symbols)}

    @property
    def n_dates(self) -> int:
        return len(self.calendar)

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)

    @property
    def open(self) -> np.ndarray:
        return self.arrays["open"]

    @property
    def volume(self) -> np.ndarray:
        return self.arrays["volume"]

    def restrict_dates(self, end: dt.date | None = None, start: dt.date | None = None) -> "BarPanel":
        keep = [i for i, d in enumerate(self.calendar)
                if (end is None or d <= end) and (start is None or d >= start)]
        idx = np.asarray(keep, dtype=np.intp)
        arrays = {f: a[idx] for f, a in self.arrays.items()}
        return BarPanel([self.calendar[i] for i in keep], self.symbols, arrays, self.mask[idx])

    def restrict_symbols(self, symbols) -> "BarPanel":
        keep = [self.symbol_index[s] for s in symbols]
        idx = np.asarray(keep, dtype=np.intp)
        arrays = {f: a[:, idx] for f, a in self.arrays.items()}
        return BarPanel(self.calendar, [self.symbols[i] for i in keep], arrays, self.mask[:, idx])


def _parse_bar_row(row, line_no: int) -> Bar:
    try:
        date = dt.date.fromisoformat(row[0])
        symbol = row[1]
        nums = [float(v) for v in row[2:7]]
    except (ValueError, IndexError) as exc:
        raise DataError(f"line {line_no}: malformed bar row: {exc}") from exc
    if len(row) < len(BAR_HEADER):
        raise DataError(f"line {line_no}: malformed bar row: expected "
                        f"{len(BAR_HEADER)} fields, got {len(row)}")
    if not symbol:
        raise DataError(f"line {line_no}: empty symbol")
    if any(not math.isfinite(v) for v in nums):
        raise DataError(f"line {line_no}: non-finite value")
    bar = Bar(symbol, date, *nums)
    try:
        bar.validate()
    except DataError as exc:
        raise DataError(f"line {line_no}: {exc}") from exc
    return bar


def _suspect_bars(cols: np.ndarray) -> np.ndarray:
    """(N,) flags for rows of (5, N) open/high/low/close/volume columns that
    may fail :meth:`Bar.validate` or hold a non-finite value; the per-row
    check decides, and names the row. Every row that check rejects must be
    flagged here."""
    o, h, lo, c, v = cols
    with np.errstate(invalid="ignore"):
        ok = (np.minimum(np.minimum(o, h), np.minimum(lo, c)) > 0) \
            & (lo <= np.minimum(o, c)) & (np.maximum(o, c) <= h) & (v >= 0)
    return ~(ok & np.isfinite(cols).all(axis=0))


def _duplicate_bar(symbol: str, date: dt.date) -> DataError:
    return DataError(f"duplicate bar for {symbol} on {date}")


def _panel_from_columns(dates: list, date_code: np.ndarray, names: list,
                        name_code: np.ndarray, cols: np.ndarray) -> BarPanel:
    """Scatter coded rows into a panel, rejecting duplicate (date, symbol) keys.

    ``dates[date_code[i]]`` and ``names[name_code[i]]`` are row i's date and
    symbol, ``cols`` its (5, N) fields in :attr:`BarPanel.FIELDS` order.
    Several codes may stand for one date or symbol.
    """
    calendar = sorted(set(dates))
    symbols = sorted(set(names))
    d_index = {d: i for i, d in enumerate(calendar)}
    s_index = {s: i for i, s in enumerate(symbols)}
    d = np.array([d_index[x] for x in dates], dtype=np.intp)[date_code]
    s = np.array([s_index[x] for x in names], dtype=np.intp)[name_code]
    S = len(symbols)
    keys = np.sort(d * S + s)
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if dup.size:
        k = int(keys[dup[0]])
        raise _duplicate_bar(symbols[k % S], calendar[k // S])
    shape = (len(calendar), S)
    arrays = {}
    for f, col in zip(BarPanel.FIELDS, cols):
        arrays[f] = np.full(shape, np.nan)
        arrays[f][d, s] = col
    mask = np.zeros(shape, dtype=bool)
    mask[d, s] = True
    return BarPanel(calendar, symbols, arrays, mask)


def build_panel(bars) -> BarPanel:
    """Assemble bars into a panel; every bar is validated and duplicate
    (date, symbol) keys are rejected.

    Of several problems, the one met first in (date, symbol) order is
    reported: an invalid bar, or the second bar of a duplicate key.
    """
    bars = sorted(bars, key=lambda b: (b.date, b.symbol))
    if not bars:
        raise DataError("no bars to build a panel from")
    cols = np.array([[getattr(b, f) for b in bars] for f in BarPanel.FIELDS],
                    dtype=np.float64)
    for i in np.flatnonzero(_suspect_bars(cols)):
        try:
            bars[i].validate()
        except DataError:
            for a, b in zip(bars[:i], bars[1:i]):   # sorted: duplicates are adjacent
                if (a.date, a.symbol) == (b.date, b.symbol):
                    raise _duplicate_bar(b.symbol, b.date) from None
            raise
    rows = np.arange(len(bars))
    return _panel_from_columns([b.date for b in bars], rows,
                               [b.symbol for b in bars], rows, cols)


def load_bars(path) -> BarPanel:
    """Load and validate a bar CSV into a :class:`BarPanel`.

    Rows stream into a float buffer (fields parsed with ``float``) and
    integer date and symbol codes; the columns are then validated at once.
    A bad row is re-checked alone, so the error names it exactly as a
    row-by-row parse would: the first bad row in file order, by line number.
    """
    values = array("d")          # five fields per row, row after row
    lines = array("q")
    date_codes: dict[str, int] = {}
    name_codes: dict[str, int] = {}
    d_code, s_code = array("q"), array("q")
    # bound methods: this loop runs once per CSV row
    extend, add_line = values.extend, lines.append
    add_date, add_name = d_code.append, s_code.append
    date_of, name_of = date_codes.setdefault, name_codes.setdefault
    stop = None  # (row, line) of a row the stream could not take
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != BAR_HEADER:
            raise DataError(f"{path}: header {header!r} does not match {BAR_HEADER!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(BAR_HEADER):
                stop = (row, line_no)
                break
            try:
                extend(map(float, row[2:7]))
            except ValueError:
                stop = (row, line_no)
                break
            add_line(line_no)
            add_date(date_of(row[0], len(date_codes)))
            add_name(name_of(row[1], len(name_codes)))

    date_text, names = list(date_codes), list(name_codes)
    dates = []
    for text in date_text:
        try:
            dates.append(dt.date.fromisoformat(text))
        except ValueError:
            dates.append(None)
    d_code = np.frombuffer(d_code, dtype=np.int64)
    s_code = np.frombuffer(s_code, dtype=np.int64)
    n = len(lines)  # a failed row may have left part of its fields behind
    columns = np.frombuffer(values)[:5 * n].reshape(n, 5).T.copy()
    bad_date = np.array([d is None for d in dates], dtype=bool)
    bad_name = np.array([not name for name in names], dtype=bool)
    suspect = _suspect_bars(columns) | bad_date[d_code] | bad_name[s_code]
    for i in np.flatnonzero(suspect):
        row = [date_text[d_code[i]], names[s_code[i]], *map(repr, columns[:, i].tolist())]
        _parse_bar_row(row, lines[i])
    if stop is not None:
        _parse_bar_row(*stop)
    if not lines:
        raise DataError(f"{path}: no data rows")
    return _panel_from_columns(dates, d_code, names, s_code, columns)


def log_return(p_t: float, p_prev: float) -> float:
    """Natural log of the price ratio; both prices must be positive."""
    if p_t <= 0 or p_prev <= 0:
        raise DataError(f"log_return: non-positive price ({p_t}, {p_prev})")
    return math.log(p_t / p_prev)


def forward_return(panel: BarPanel, symbol: str, t: dt.date, horizon: int) -> float | None:
    """Future return used as the label for features observed through day ``t``.

    Computed from the open of the trading day after ``t`` to the open
    ``horizon`` trading days later: log(open[t+1+horizon] / open[t+1]).
    Returns None when the window runs past the end of the calendar or a
    needed bar is missing.
    """
    s = panel.symbol_index.get(symbol)
    if s is None:
        raise DataError(f"forward_return: unknown symbol {symbol!r}")
    if t not in panel.date_index:
        raise DataError(f"forward_return: date {t} not in calendar")
    i = panel.date_index[t]
    entry, exit_ = i + 1, i + 1 + horizon
    if exit_ > panel.n_dates - 1:
        return None
    p_in = panel.open[entry, s]
    p_out = panel.open[exit_, s]
    if not (np.isfinite(p_in) and np.isfinite(p_out)):
        return None
    return log_return(float(p_out), float(p_in))


def daily_log_returns(panel: BarPanel) -> np.ndarray:
    """(D, S) open-to-open log returns; row t is the return ending at day t."""
    opens = panel.open
    out = np.full_like(opens, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        out[1:] = np.log(opens[1:] / opens[:-1])
    return out


def daily_simple_returns(panel: BarPanel) -> np.ndarray:
    """(D, S) open-to-open simple returns; row t is the return ending at day t."""
    opens = panel.open
    out = np.full_like(opens, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        out[1:] = opens[1:] / opens[:-1] - 1.0
    return out


def filter_universe(panel: BarPanel, min_median_dollar_volume: float = 1e6,
                    min_price: float = 1.0, min_history: int = 250) -> list[str]:
    """Keep symbols that are liquid, not penny-priced, and long-lived.

    A symbol passes iff, over the given panel window: its count of valid bars
    is at least ``min_history``; the median of open*volume over valid days is
    at least ``min_median_dollar_volume``; and the median open is at least
    ``min_price``. Returns symbols in panel order.
    """
    out = []
    for s, sym in enumerate(panel.symbols):
        valid = panel.mask[:, s]
        if valid.sum() < min_history:
            continue
        opens = panel.open[valid, s]
        dollar = opens * panel.volume[valid, s]
        if np.median(dollar) < min_median_dollar_volume:
            continue
        if np.median(opens) < min_price:
            continue
        out.append(sym)
    return out
