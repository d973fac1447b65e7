"""News preprocessing, per-stock daily news vectors, and stock co-mentions.

News records arrive as newline-delimited JSON with fields ``id``, ``date``
(YYYY-MM-DD), ``symbols`` (list of tickers), and ``text``. Timestamps finer
than the date are never used; an article published on date D feeds features
from the first trading day strictly after D, so day-t features see only
articles dated t-1 or earlier.
"""

from __future__ import annotations

import bisect
import datetime as dt
import json
import re
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_PUNCT_STRIP = str.maketrans("", "", string.punctuation)
# JSON decodes a surrogate pair to one code point, so any surrogate left is
# a lone one (the escape \ud800): it cannot be written as UTF-8
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")

DEFAULT_STOPWORDS = frozenset(
    "a an and are as at be by for from has have in is it its of on or that the "
    "to was were will with this those these".split()
)


def whitespace_tokenizer(text: str) -> list[str]:
    return text.split()


def clean_tokens(raw_text: str, tokenizer=whitespace_tokenizer,
                 stopwords=DEFAULT_STOPWORDS) -> list[str]:
    """Tokenize and scrub one document: URLs out, punctuation stripped,
    lowercased, stopwords removed. The tokenizer is pluggable so that
    language-specific segmenters can be dropped in."""
    text = _URL_RE.sub(" ", raw_text)
    out = []
    for tok in tokenizer(text):
        tok = tok.translate(_PUNCT_STRIP).lower()
        if tok and tok not in stopwords:
            out.append(tok)
    return out


def build_vocabulary(token_lists, min_count: int = 10) -> dict[str, int]:
    """Token -> index map over tokens with corpus frequency >= min_count.

    Indices are assigned by descending frequency, ties by token string, so
    the map is deterministic for a fixed corpus.
    """
    counts = Counter()
    for toks in token_lists:
        counts.update(toks)
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return {t: i for i, t in enumerate(kept)}


@dataclass
class NewsArticle:
    id: str
    date: dt.date
    symbols: list[str]
    tokens: list[str] | None  # None when loaded without tokenizing


def load_articles(path, since: dt.date | None = None, before: dt.date | None = None,
                  tokenize: bool = True) -> list[NewsArticle]:
    """Read a JSONL news file: the articles dated from ``since`` up to,
    not including, ``before`` (no bound where None), their text tokenized
    by ``clean_tokens`` unless ``tokenize`` is False.

    Every line is checked, kept or not. A line that is not a JSON object
    with an ``id``, a YYYY-MM-DD ``date``, a ``text`` string and
    (optionally) ``symbols``, a list of non-empty strings, is a DataError
    naming the line, as is an id, text or symbol holding a lone surrogate;
    so is a file without articles, or not UTF-8."""
    articles, n_read = [], 0
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    if not isinstance(rec, dict):
                        raise ValueError(f"{rec!r} is not a JSON object")
                    symbols = rec.get("symbols", [])
                    if not (isinstance(symbols, list)
                            and all(isinstance(s, str) and s for s in symbols)):
                        raise ValueError(f"symbols {symbols!r} is not a list of "
                                         f"non-empty strings")
                    art = NewsArticle(id=str(rec["id"]),
                                      date=dt.date.fromisoformat(rec["date"]),
                                      symbols=symbols, tokens=None)
                    # a text that is not a string fails the first search, with
                    # the TypeError clean_tokens would raise
                    text = rec["text"]
                    if any(map(_LONE_SURROGATE.search, (text, art.id, *symbols))):
                        raise ValueError("the id, text or a symbol holds a lone surrogate")
                except (KeyError, ValueError, TypeError) as exc:
                    raise DataError(f"{path} line {line_no}: malformed news record: "
                                    f"{exc}") from exc
                n_read += 1
                if (since is not None and art.date < since
                        or before is not None and art.date >= before):
                    continue
                if tokenize:
                    art.tokens = clean_tokens(text)
                articles.append(art)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    if not n_read:
        raise DataError(f"{path}: no articles")
    return articles


# ---------------------------------------------------------------------------
# Daily news vectors
# ---------------------------------------------------------------------------

def news_vector(tokens, emb) -> np.ndarray:
    """Arithmetic mean of in-vocabulary token vectors; the zero vector when
    no token is known."""
    rows = [emb.vocabulary[t] for t in tokens if t in emb.vocabulary]
    if not rows:
        return np.zeros(emb.dim)
    return emb.vectors[rows].mean(axis=0)


@dataclass
class DailyNewsPanel:
    """Per (trading day, stock) averaged article vectors, held as ragged
    cell rows.

    Few (day, stock) cells have an article, so the panel keeps one row per
    cell that has one rather than a dense (D, S, d_w) array:

    * ``vectors`` (n_cells + 1, d_w): the mean article vector of each
      non-empty cell, in order of the cell's first article; the last row
      is zero;
    * ``row_index`` (D, S) int32: the row of each cell; every empty cell
      points at the zero row, so ``vectors[row_index[d, s]]`` is the vector
      of cell (d, s) either way.

    ``news_cells`` gives the articles of each row.
    """

    calendar: tuple
    symbols: tuple
    vectors: np.ndarray        # (n_cells + 1, d_w)
    row_index: np.ndarray      # (D, S) int32


def _next_trading_day_index(calendar, date: dt.date) -> int | None:
    """Index of the first calendar date strictly after ``date``."""
    i = bisect.bisect_right(calendar, date)
    return i if i < len(calendar) else None


def news_cells(articles, universe, calendar):
    """Place each article on the first trading day strictly after its
    publication date, in the cell of each of its symbols; day-t cells
    therefore hold only articles dated t-1 or earlier. Symbols outside
    ``universe`` are skipped.

    Each cell with an article gets a row, in order of its first article.
    Returns the (D, S) int32 row of each cell, empty cells pointing at a
    last row without articles; the ids of each row's articles; and
    (article, its rows) for each article inside the calendar.
    """
    sym_index = {s: i for i, s in enumerate(universe)}
    row_index = np.full((len(calendar), len(sym_index)), -1, dtype=np.int32)
    ids: list[list[str]] = []
    placed = []
    for art in articles:
        d = _next_trading_day_index(calendar, art.date)
        if d is None:
            continue
        rows = []
        for sym in art.symbols:
            s = sym_index.get(sym)
            if s is None:
                continue
            r = int(row_index[d, s])
            if r < 0:
                r = len(ids)
                row_index[d, s] = r
                ids.append([])
            ids[r].append(art.id)
            rows.append(r)
        placed.append((art, rows))
    row_index[row_index < 0] = len(ids)
    ids.append([])
    return row_index, ids, placed


def daily_stock_news_vectors(articles, emb, universe, calendar) -> DailyNewsPanel:
    """Average article vectors per stock per forecast day with no look-ahead.

    Articles are placed in their (day, stock) cells by ``news_cells``. Days
    without articles carry the zero vector. Each article's vector is added
    to its rows in article order and the sums divided by the article
    counts, so every mean is the one a dense running sum would give,
    without a (D, S, d_w) array.
    """
    calendar = tuple(calendar)
    symbols = tuple(universe)
    row_index, ids, placed = news_cells(articles, symbols, calendar)
    n_cells = len(ids) - 1
    vectors = np.zeros((n_cells + 1, emb.dim))
    for art, rows in placed:
        vec = news_vector(art.tokens, emb)
        for r in rows:
            vectors[r] += vec
    counts = np.array([len(row) for row in ids[:n_cells]], dtype=np.int64)
    vectors[:n_cells] /= counts[:, None]
    return DailyNewsPanel(calendar, symbols, vectors, row_index)


# ---------------------------------------------------------------------------
# Co-occurrence
# ---------------------------------------------------------------------------

@dataclass
class CooccurrenceMatrix:
    """Sparse symmetric article co-mention counts between stocks."""

    symbols: tuple
    counts: dict  # (i, j) with i < j -> int

    @property
    def n(self) -> int:
        return len(self.symbols)

    def to_coo(self):
        """Ordered-pair COO arrays (both (i,j) and (j,i)) sorted by (row, col)."""
        rows, cols, vals = [], [], []
        for (i, j), c in self.counts.items():
            rows.extend((i, j))
            cols.extend((j, i))
            vals.extend((c, c))
        order = np.lexsort((cols, rows)) if rows else np.array([], dtype=np.intp)
        return (np.asarray(rows, dtype=np.int64)[order],
                np.asarray(cols, dtype=np.int64)[order],
                np.asarray(vals, dtype=np.float64)[order])


def build_cooccurrence(articles, universe) -> CooccurrenceMatrix:
    """Count, per unordered stock pair, the articles mentioning both.

    Callers are expected to pass training-period articles only; the count is
    raw (no damping). Unknown symbols are ignored.
    """
    symbols = tuple(universe)
    sym_index = {s: i for i, s in enumerate(symbols)}
    counts: dict[tuple[int, int], int] = {}
    for art in articles:
        tagged = sorted({sym_index[s] for s in art.symbols if s in sym_index})
        for a in range(len(tagged)):
            for b in range(a + 1, len(tagged)):
                key = (tagged[a], tagged[b])
                counts[key] = counts.get(key, 0) + 1
    return CooccurrenceMatrix(symbols, counts)
