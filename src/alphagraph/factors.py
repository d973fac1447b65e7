"""Technical factor computation over a bar panel.

Every factor is a trailing function of opens and volumes (value at day t uses
data through t only) and is standardized cross-sectionally per date. The
registry maps factor names to window parameters and can be loaded from a JSON
config file of the form ``{"momentum": [5, 21], "rsi": [14], ...}``.

Implemented factor families, each a standard price/volume construction:

* ``momentum_w``   log(open_t / open_{t-w})
* ``reversal_1``   -log(open_t / open_{t-1}), 1-day short-run reversal
* ``volatility_w`` std of the last w daily log returns
* ``volume_z_w``   (volume_t - mean_w) / std_w of raw volume
* ``amihud_w``     mean of |r| / (open * volume) over the last w days, the
                   Amihud illiquidity ratio
* ``rsi_w``        100 - 100 / (1 + avg gain / avg loss) over w returns
* ``ma_ratio_w``   open_t / mean(open over last w days) - 1

Windows are positive integers, and at least 2 for ``volatility``,
``volume_z`` and ``ma_ratio``.

``ingest`` computes the factors one block of DATE_BLOCK dates at a time
(``factor_blocks``), each block from the whole-calendar opens, volumes and
returns, and writes each block to ``factors.npz`` before the next; the values
of a block do not depend on where the calendar is cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .market import BarPanel, daily_log_returns
from .orderstats import distinct

DEFAULT_REGISTRY = {
    "momentum": [5, 10, 21, 63, 126, 252],
    "reversal": [1],
    "volatility": [21],
    "volume_z": [63],
    "amihud": [21],
    "rsi": [14],
    "ma_ratio": [21, 63],
}

# families whose one-day window carries no signal: the ddof=1 std of one
# return is NaN, the z-score of a volume against itself is 0, and open/open - 1
# is 0 on every date
NEEDS_TWO_DAYS = ("ma_ratio", "volatility", "volume_z")

STANDARDIZE_CLIP = 3.0
# rows per standardization block, and windows per trailing-window block (about
# BLOCK_ROWS // w dates of S windows): either keeps its temporaries at a few MB
BLOCK_ROWS = 512
# dates per block of factor values that ingest computes and writes at a time,
# chosen by measurement (README): at 500 stocks and 13 factors a block is
# 3.3 MB; at 120 x 600, shorter blocks cost time and longer ones memory
DATE_BLOCK = 64


@dataclass
class FactorPanel:
    factor_names: list[str]
    values: np.ndarray  # (D, S, L) standardized
    mask: np.ndarray    # (D, S, L) validity
    calendar: tuple = field(default_factory=tuple)
    symbols: tuple = field(default_factory=tuple)

    @property
    def n_factors(self) -> int:
        return len(self.factor_names)


def _trailing(x: np.ndarray, w: int, reduce, start: int) -> np.ndarray:
    """``reduce(block)`` of the trailing windows of x that end on its rows
    start and later: row i of the result holds, for each column s, the
    reduction of the w rows of x ending at row start + i (NaN where fewer
    than w rows end there). ``block[i, s]`` is a C-contiguous copy of
    window (t, s), one block of about BLOCK_ROWS // w windows at a time,
    which ``reduce`` takes along its last axis.

    numpy reduces the contiguous last axis of the copy with the same pairwise
    sum as a 1-D window, so ``block.mean(axis=-1)`` and ``block.std(axis=-1,
    ddof=1)`` equal ``np.mean`` and ``np.std(ddof=1)`` of each window bit for
    bit, however the windows are grouped. Reducing the strided
    ``sliding_window_view`` itself does not: on a C-ordered x it adds the
    window's rows one after another and rounds differently.
    """
    out = np.full((x.shape[0] - start, *x.shape[1:]), np.nan)
    first = max(start, w - 1)   # the first row of x that ends a whole window
    if first < x.shape[0]:
        windows = sliding_window_view(x[first - w + 1:], w, axis=0)
        step = max(1, BLOCK_ROWS // w)
        for t in range(0, windows.shape[0], step):
            at = first - start + t
            out[at:at + step] = reduce(np.ascontiguousarray(windows[t:t + step]))
    return out


def _trailing_mean(x: np.ndarray, w: int, start: int) -> np.ndarray:
    """``np.mean`` of each trailing window of w rows ending on row start of
    x or later, bit for bit (see ``_trailing``)."""
    return _trailing(x, w, lambda block: block.mean(axis=-1), start)


def _trailing_std(x: np.ndarray, w: int, start: int) -> np.ndarray:
    """``np.std(..., ddof=1)`` of each trailing window of w rows ending on
    row start of x or later, bit for bit (see ``_trailing``).
    ``factor_windows`` never allows w = 1, where that std is NaN."""
    return _trailing(x, w, lambda block: block.std(axis=-1, ddof=1), start)


def _nan_before(out: np.ndarray, a: int, t: int) -> None:
    """NaN in the rows of out, which hold calendar rows a, a + 1, ..., that
    come before calendar row t."""
    out[:max(0, t - a)] = np.nan


def _raw_factor(family: str, w: int, opens: np.ndarray, volume: np.ndarray,
                rets: np.ndarray, rows: range) -> np.ndarray:
    """Factor ``family_w`` of the calendar rows ``rows`` (a range without a
    step) of the whole-calendar (D, S) inputs, NaN where its window is not
    covered. A trailing window reads the w - 1 rows before ``rows`` from
    the inputs, so only the windows that end on ``rows`` are reduced; the
    NaN prefixes are rows of the calendar, not of the block. Each family
    works in place on the one array it returns, so a factor holds at most
    two (rows, S) temporaries besides its result."""
    a, b = rows.start, rows.stop
    h = max(0, a - w + 1)   # the first row of the first window ending on rows
    with np.errstate(invalid="ignore", divide="ignore"):
        if family in ("momentum", "reversal"):
            out = np.full((b - a, opens.shape[1]), np.nan)
            first = max(a, w)
            if first < b:
                ratio = out[first - a:]
                np.divide(opens[first:b], opens[first - w:b - w], out=ratio)
                np.log(ratio, out=ratio)
                if family == "reversal":
                    np.negative(ratio, out=ratio)
        elif family == "volatility":
            out = _trailing_std(rets[h:b], w, a - h)
            _nan_before(out, a, w)
        elif family == "volume_z":
            out = _trailing_mean(volume[h:b], w, a - h)
            np.subtract(volume[a:b], out, out=out)
            sd = _trailing_std(volume[h:b], w, a - h)
            out /= sd
            out[~(sd > 0)] = 0.0
            _nan_before(out, a, w - 1)
        elif family == "amihud":
            ratio = opens[h:b] * volume[h:b]
            np.divide(np.abs(rets[h:b]), ratio, out=ratio)
            out = _trailing_mean(ratio, w, a - h)
            _nan_before(out, a, w)
        elif family == "rsi":
            r = rets[h:b]
            out = _trailing_mean(np.where(r > 0, r, 0.0), w, a - h)
            losses = _trailing_mean(np.where(r < 0, -r, 0.0), w, a - h)
            losses += out  # the denominator: gains plus losses
            out *= 100.0
            out /= losses
            out[~(losses > 0)] = 50.0
            _nan_before(out, a, w)
        else:  # ma_ratio, the last family factor_windows admits
            out = _trailing_mean(opens[h:b], w, a - h)
            unset = ~np.isfinite(out)
            np.divide(opens[a:b], out, out=out)
            out -= 1.0
            out[unset] = np.nan
    return out


def _standardize_block(x: np.ndarray) -> np.ndarray:
    """Winsorize and z-score each row of a dense (R, n) block, n >= 2.

    Row by row this is the same arithmetic as a 1-D cross-section: mean, std,
    clip and the equality test all reduce along contiguous rows, so each row
    sees the same pairwise sums. Rows clip in lockstep; a row leaves the loop
    when a clip changes nothing or its dispersion vanishes. Works in place:
    the result is x.
    """
    flat = np.zeros(x.shape[0], dtype=bool)
    active, xa = np.arange(x.shape[0]), x  # the rows still clipping, and their values
    for _ in range(100):
        if active.size == 0:
            break
        mu = xa.mean(axis=1, keepdims=True)
        sd = xa.std(axis=1, keepdims=True)
        dead = sd[:, 0] <= 1e-15
        flat[active[dead]] = True
        clipped = np.clip(xa, mu - STANDARDIZE_CLIP * sd, mu + STANDARDIZE_CLIP * sd)
        moved = (clipped != xa).any(axis=1) & ~dead
        active, xa = active[moved], clipped[moved]
        x[active] = xa
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    flat |= sd[:, 0] <= 1e-15
    x -= mu
    with np.errstate(divide="ignore", invalid="ignore"):  # the flat rows, zeroed next
        x /= sd
    x[flat] = 0.0
    return x


def _standardize_rows(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Winsorize and z-score the masked entries of each row of (R, S)
    ``values``, each row a cross-section of one date and factor.

    A row's valid values are clipped at mean +/- 3 std until nothing clips,
    for at most 100 rounds, then z-scored, so the result has exact zero
    mean. When the clipping settles, every value is inside [-3, 3]. It need
    not settle when a few values lie far from the rest. A lone outlier
    among n - 1 equal values keeps z = sqrt(n - 1) in every round (3.162
    for n = 11) while the rounds pull it in geometrically; once the std
    falls to 1e-15, the whole row becomes zero (``[0.0] * 20 + [1.0]``
    does). No z-score exceeds sqrt(n - 1) in magnitude, so a row of at most
    10 values always ends inside [-3, 3]. The operation is idempotent up to
    float rounding. Rows with no dispersion or fewer than two valid
    entries, and masked entries, come out zero.

    Rows are grouped by their count n of valid entries; the valid values of
    up to BLOCK_ROWS rows of a group, compacted in index order, form one
    (rows, n) block.
    """
    out = np.zeros_like(values)
    counts = mask.sum(axis=1)
    for n in distinct(counts[counts >= 2]):
        group = np.flatnonzero(counts == n)
        for start in range(0, group.size, BLOCK_ROWS):
            rows = group[start:start + BLOCK_ROWS]
            sub_mask = mask[rows]
            sub = values[rows].astype(np.float64, copy=False)
            block = _standardize_block(sub[sub_mask].reshape(rows.size, n))
            sub[~sub_mask] = 0.0
            sub[sub_mask] = block.ravel()
            out[rows] = sub
    return out


def factor_windows(registry: dict | None = None) -> list[tuple[str, int]]:
    """The registry's (family, window) pairs in output order: families
    sorted, each family's windows as listed. A window that is not a
    positive integer, a one-day window of a family that needs two days or a
    family not in DEFAULT_REGISTRY is a ConfigError."""
    registry = DEFAULT_REGISTRY if registry is None else registry
    windows = []
    for family in sorted(registry):
        if family not in DEFAULT_REGISTRY:
            raise ConfigError(f"unknown factor family {family!r}")
        for w in registry[family]:
            if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w < 1:
                raise ConfigError(f"factor window {family} {w!r} is not a positive integer")
            if w == 1 and family in NEEDS_TWO_DAYS:
                raise ConfigError(f"factor {family}_1 carries no signal: its window must be "
                                  "at least 2")
            windows.append((family, w))
    return windows


def factor_names(windows: list) -> list[str]:
    """The name ``family_w`` of each (family, window) pair."""
    return [f"{family}_{w}" for family, w in windows]


def compute_factors(panel: BarPanel, rets: np.ndarray, windows: list,
                    rows: range) -> FactorPanel:
    """The factors ``windows`` of the calendar rows ``rows`` (a range
    without a step) of the panel, whose daily log returns are ``rets``.

    Raw factors use trailing windows only, read from the whole-calendar
    inputs; entries whose window exceeds the available history (or covers
    a missing bar) are masked, never imputed. Each valid (date, factor) row
    is then winsorized and z-scored across symbols, the rows of every
    factor in one batched pass; no value depends on how the calendar is
    cut into rows.
    """
    a, b = rows.start, rows.stop
    S = panel.n_symbols
    raw = np.empty((len(windows), b - a, S))   # one (date, factor) cross-section per row
    for k, (family, w) in enumerate(windows):
        raw[k] = _raw_factor(family, w, panel.open, panel.volume, rets, rows)
    valid = np.isfinite(raw)
    valid &= panel.mask[a:b]
    values = _standardize_rows(raw.reshape(-1, S), valid.reshape(-1, S)).reshape(raw.shape)
    # (rows, S, L) views of the (L, rows, S) arrays
    return FactorPanel(factor_names(windows), values.transpose(1, 2, 0),
                       valid.transpose(1, 2, 0), panel.calendar[a:b], panel.symbols)


def factor_blocks(panel: BarPanel, windows: list, mask: np.ndarray):
    """The standardized (rows, S, L) values of the panel's factors, one
    block of DATE_BLOCK dates at a time in calendar order; each block's
    validity goes into its rows of the (D, S, L) ``mask`` before the block
    is yielded. While a block is computed, the panel, the returns, ``mask``
    and the block yielded before it are all else that is held."""
    D = panel.n_dates
    rets = daily_log_returns(panel)
    for a in range(0, D, DATE_BLOCK):
        block = compute_factors(panel, rets, windows, range(a, min(a + DATE_BLOCK, D)))
        mask[a:a + DATE_BLOCK] = block.mask
        yield block.values
