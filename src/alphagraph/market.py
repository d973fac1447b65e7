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

import numpy as np

from .errors import DataError
from .orderstats import median

BAR_HEADER = ["date", "symbol", "open", "high", "low", "close", "volume"]


class BarPanel:
    """Dense date x symbol grid of daily bars with explicit missing markers."""

    FIELDS = ("open", "high", "low", "close", "volume")

    def __init__(self, calendar, symbols, arrays, mask):
        self.calendar = tuple(calendar)
        self.symbols = tuple(symbols)
        self.arrays = arrays  # field name -> (D, S) float64, NaN where missing
        self.mask = mask
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

    def restrict_dates(self, end: dt.date) -> "BarPanel":
        """The dates through ``end``."""
        keep = [i for i, d in enumerate(self.calendar) if d <= end]
        idx = np.asarray(keep, dtype=np.intp)
        arrays = {f: a[idx] for f, a in self.arrays.items()}
        return BarPanel([self.calendar[i] for i in keep], self.symbols, arrays, self.mask[idx])

    def restrict_symbols(self, symbols) -> "BarPanel":
        keep = [self.symbol_index[s] for s in symbols]
        idx = np.asarray(keep, dtype=np.intp)
        # np.take keeps C order, which a[:, idx] does not: the stages after
        # ingest read the rows of these arrays straight from panel.npz
        arrays = {f: np.take(a, idx, axis=1) for f, a in self.arrays.items()}
        return BarPanel(self.calendar, [self.symbols[i] for i in keep], arrays,
                        np.take(self.mask, idx, axis=1))


# The bar rules in the order a row is checked, as (error, predicate) pairs.
# A predicate flags the rows that break its rule, given the (5, N)
# open/high/low/close/volume columns and (N,) flags of the rows whose date
# does not parse and whose symbol is empty. A bad row raises the error of
# the first rule it breaks; an error names the row's ``date_error`` (the
# text of its date's ``ValueError``), ``symbol`` and parsed ``date``.
_BAR_RULES = (
    ("malformed bar row: {date_error}", lambda cols, bad_date, no_symbol: bad_date),
    ("empty symbol", lambda cols, bad_date, no_symbol: no_symbol),
    ("non-finite value", lambda cols, *_: ~np.isfinite(cols).all(axis=0)),
    ("bar {symbol} {date}: non-positive price", lambda cols, *_: cols[:4].min(axis=0) <= 0),
    ("bar {symbol} {date}: high/low do not bracket open/close",
     lambda cols, *_: ((cols[2] > np.minimum(cols[0], cols[3]))
                       | (np.maximum(cols[0], cols[3]) > cols[1]))),
    ("bar {symbol} {date}: negative volume", lambda cols, *_: cols[4] < 0),
)


def _first_broken_rule(cols: np.ndarray, bad_date: np.ndarray,
                       no_symbol: np.ndarray) -> tuple[int, str] | None:
    """(index, error) of the first row that breaks a bar rule, and the error
    of the first rule it breaks; None when no row breaks one. Each rule
    runs over all rows in turn, so one rule's flags are held at a time."""
    broken = np.zeros(cols.shape[1], dtype=bool)
    with np.errstate(invalid="ignore"):
        for _, breaks in _BAR_RULES:
            broken |= breaks(cols, bad_date, no_symbol)
        if not broken.any():
            return None
        i = int(broken.argmax())
        row = slice(i, i + 1)
        return i, next(error for error, breaks in _BAR_RULES
                       if breaks(cols[:, row], bad_date[row], no_symbol[row])[0])


def _unstreamed_row_error(row: list, line_no: int) -> DataError:
    """The error of a row the stream could not take: one with too few
    fields or a field ``float`` rejects. Its date is checked first, as the
    first bar rule checks it."""
    try:
        dt.date.fromisoformat(row[0])
        row[1]  # a one-field row has no symbol: IndexError, before its numbers
        for text in row[2:7]:
            float(text)
        problem = f"expected {len(BAR_HEADER)} fields, got {len(row)}"
    except (ValueError, IndexError) as exc:
        problem = str(exc)
    return DataError(f"line {line_no}: malformed bar row: {problem}")


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


def load_bars(path) -> BarPanel:
    """Load and validate a bar CSV into a :class:`BarPanel`.

    Rows stream into a float buffer (fields parsed with ``float``) and
    integer date and symbol codes; the columns are then checked against
    every bar rule at once. The error names the first bad row in file
    order, by line number, and the first rule it breaks, exactly as a
    row-by-row parse would.
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
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
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
        except csv.Error as exc:  # an unclosed quote can run past the field size limit
            raise DataError(f"{path}: {exc}") from exc

    names = list(name_codes)
    dates, date_errors = [], []
    for text in date_codes:
        try:
            dates.append(dt.date.fromisoformat(text))
            date_errors.append(None)
        except ValueError as exc:
            dates.append(None)
            date_errors.append(str(exc))
    d_code = np.frombuffer(d_code, dtype=np.int64)
    s_code = np.frombuffer(s_code, dtype=np.int64)
    n = len(lines)  # a failed row may have left part of its fields behind
    # a strided view of the buffer, which holds the bars' only copy until
    # the panel's arrays are scattered from it
    columns = np.frombuffer(values)[:5 * n].reshape(n, 5).T
    bad_date = np.array([e is not None for e in date_errors], dtype=bool)
    no_symbol = np.array([not name for name in names], dtype=bool)
    broken = _first_broken_rule(columns, bad_date[d_code], no_symbol[s_code])
    if broken is not None:
        i, error = broken
        d = d_code[i]
        raise DataError(f"line {lines[i]}: " + error.format(
            date_error=date_errors[d], symbol=names[s_code[i]], date=dates[d]))
    if stop is not None:
        raise _unstreamed_row_error(*stop)
    if not lines:
        raise DataError(f"{path}: no data rows")
    return _panel_from_columns(dates, d_code, names, s_code, columns)


def log_return(p_t: float, p_prev: float) -> float:
    """Natural log of the price ratio; both prices must be positive."""
    if p_t <= 0 or p_prev <= 0:
        raise DataError(f"log_return: non-positive price ({p_t}, {p_prev})")
    return math.log(p_t / p_prev)


def daily_log_returns(panel: BarPanel) -> np.ndarray:
    """(D, S) open-to-open log returns; row t is the return ending at day t.
    Computed in place: no (D, S) temporary besides the result."""
    opens = panel.open
    out = np.full_like(opens, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(opens[1:], opens[:-1], out=out[1:])
        np.log(out[1:], out=out[1:])
    return out


def daily_simple_returns(panel: BarPanel) -> np.ndarray:
    """(D, S) open-to-open simple returns; row t is the return ending at day t."""
    opens = panel.open
    out = np.full_like(opens, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        out[1:] = opens[1:] / opens[:-1] - 1.0
    return out


def filter_universe(panel: BarPanel, min_median_dollar_volume: float, min_price: float,
                    min_history: int) -> list[str]:
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
        if median(dollar) < min_median_dollar_volume:
            continue
        if median(opens) < min_price:
            continue
        out.append(sym)
    return out
