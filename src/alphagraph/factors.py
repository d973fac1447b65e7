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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .market import BarPanel, daily_log_returns

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


def _window_blocks(x: np.ndarray, w: int):
    """Yield ``(rows, block)`` over the trailing windows of x: ``block[i, s]``
    is a C-contiguous copy of the w rows of column s ending at row
    ``rows.start + i``. A block spans about BLOCK_ROWS // w dates.

    numpy reduces the contiguous last axis of the copy with the same pairwise
    sum as a 1-D window, so ``block.mean(axis=-1)`` and ``block.std(axis=-1,
    ddof=1)`` equal ``np.mean`` and ``np.std(ddof=1)`` of each window bit for
    bit. Reducing the strided ``sliding_window_view`` itself does not: on a
    C-ordered x it adds the window's rows one after another and rounds
    differently.
    """
    if x.shape[0] < w:
        return
    windows = sliding_window_view(x, w, axis=0)
    step = max(1, BLOCK_ROWS // w)
    for t in range(0, windows.shape[0], step):
        block = np.ascontiguousarray(windows[t:t + step])
        yield slice(w - 1 + t, w - 1 + t + block.shape[0]), block


def _trailing_mean(x: np.ndarray, w: int) -> np.ndarray:
    """The mean of each column over the w rows ending at row t, for every
    t >= w - 1 (NaN before): numpy's mean of a contiguous copy of each window
    (see ``_window_blocks``), so ``np.mean`` of that 1-D window, bit for bit."""
    out = np.full_like(x, np.nan)
    for rows, block in _window_blocks(x, w):
        out[rows] = block.mean(axis=-1)
    return out


def _trailing_moments(x: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """``_trailing_mean`` and the ddof=1 standard deviation over the same
    windows: numpy's std of the same contiguous copies, so ``np.std(...,
    ddof=1)`` of each 1-D window, bit for bit. ``compute_factors`` never asks
    for w = 1, where that std is NaN."""
    mean = np.full_like(x, np.nan)
    std = np.full_like(x, np.nan)
    for rows, block in _window_blocks(x, w):
        mean[rows] = block.mean(axis=-1)
        std[rows] = block.std(axis=-1, ddof=1)
    return mean, std


def _raw_factor(family: str, w: int, opens: np.ndarray, volume: np.ndarray,
                rets: np.ndarray) -> np.ndarray:
    D = opens.shape[0]
    out = np.full_like(opens, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        if family == "momentum":
            if D > w:
                out[w:] = np.log(opens[w:] / opens[:-w])
        elif family == "reversal":
            if D > w:
                out[w:] = -np.log(opens[w:] / opens[:-w])
        elif family == "volatility":
            out[w:] = _trailing_moments(rets, w)[1][w:]
        elif family == "volume_z":
            mu, sd = _trailing_moments(volume, w)
            out[w - 1:] = np.where(sd > 0, (volume - mu) / sd, 0.0)[w - 1:]
        elif family == "amihud":
            dollar = opens * volume
            ratio = np.abs(rets) / dollar
            out[w:] = _trailing_mean(ratio, w)[w:]
        elif family == "rsi":
            gains = np.where(rets > 0, rets, 0.0)
            losses = np.where(rets < 0, -rets, 0.0)
            ag = _trailing_mean(gains, w)
            al = _trailing_mean(losses, w)
            denom = ag + al
            out[w:] = np.where(denom > 0, 100.0 * ag / denom, 50.0)[w:]
        elif family == "ma_ratio":
            out = _trailing_mean(opens, w)
            out = np.where(np.isfinite(out), opens / out - 1.0, np.nan)
        else:
            raise ConfigError(f"unknown factor family {family!r}")
    return out


def _standardize_block(x: np.ndarray) -> np.ndarray:
    """Winsorize and z-score each row of a dense (R, n) block, n >= 2.

    Row by row this is the same arithmetic as a 1-D cross-section: mean, std,
    clip and the equality test all reduce along contiguous rows, so each row
    sees the same pairwise sums. Rows clip in lockstep; a row leaves the loop
    when a clip changes nothing or its dispersion vanishes.
    """
    x = x.copy()
    flat = np.zeros(x.shape[0], dtype=bool)
    active = np.arange(x.shape[0])
    for _ in range(100):
        if active.size == 0:
            break
        xa = x[active]
        mu = xa.mean(axis=1, keepdims=True)
        sd = xa.std(axis=1, keepdims=True)
        dead = sd[:, 0] <= 1e-15
        flat[active[dead]] = True
        clipped = np.clip(xa, mu - STANDARDIZE_CLIP * sd, mu + STANDARDIZE_CLIP * sd)
        moved = (clipped != xa).any(axis=1) & ~dead
        x[active[moved]] = clipped[moved]
        active = active[moved]
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    flat |= sd[:, 0] <= 1e-15
    out = np.zeros_like(x)
    live = ~flat
    out[live] = (x[live] - mu[live]) / sd[live]
    return out


def _standardize_rows(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Standardize the masked entries of each row of (R, S) ``values``.

    Rows are grouped by their count n of valid entries; the valid values of
    up to BLOCK_ROWS rows of a group, compacted in index order, form one
    (rows, n) block. Rows with fewer than two valid entries, and masked
    entries, come out zero.
    """
    out = np.zeros_like(values)
    counts = mask.sum(axis=1)
    for n in np.unique(counts[counts >= 2]):
        group = np.flatnonzero(counts == n)
        for start in range(0, group.size, BLOCK_ROWS):
            rows = group[start:start + BLOCK_ROWS]
            sub_mask = mask[rows]
            block = values[rows][sub_mask].astype(np.float64, copy=False)
            sub = np.zeros((rows.size, values.shape[1]), dtype=out.dtype)
            sub[sub_mask] = _standardize_block(block.reshape(rows.size, n)).ravel()
            out[rows] = sub
    return out


def standardize_cross_section(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Winsorize and z-score one date's cross-section in place-safe fashion.

    Clips at mean +/- 3 std repeatedly until nothing clips, then z-scores, so
    the result has exact zero mean and every value inside [-3, 3]. The
    operation is idempotent up to float rounding. Columns with no dispersion
    standardize to zero.
    """
    return _standardize_rows(values[None, :], np.asarray(mask, dtype=bool)[None, :])[0]


def compute_factors(panel: BarPanel, registry: dict | None = None) -> FactorPanel:
    """Compute the registry's factors for every (date, symbol).

    Raw factors use trailing windows only; entries whose window exceeds the
    available history (or covers a missing bar) are masked, never imputed.
    Each valid (date, factor) column is then winsorized and z-scored across
    symbols, all (date, factor) columns in one batched pass.
    """
    if panel.n_dates == 0 or panel.n_symbols == 0:
        raise DataError("compute_factors: empty panel")
    registry = DEFAULT_REGISTRY if registry is None else registry
    opens = panel.open
    volume = panel.volume
    rets = daily_log_returns(panel)

    windows = [(family, w) for family in sorted(registry) for w in registry[family]]
    for family, w in windows:
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w < 1:
            raise ConfigError(f"factor window {family} {w!r} is not a positive integer")
        if w == 1 and family in NEEDS_TWO_DAYS:
            raise ConfigError(f"factor {family}_1 carries no signal: its window must be at "
                              "least 2")
    names = [f"{family}_{w}" for family, w in windows]
    D, S, L = panel.n_dates, panel.n_symbols, len(names)
    raw = np.empty((L, D, S))
    for k, (family, w) in enumerate(windows):
        raw[k] = _raw_factor(family, w, opens, volume, rets)
    valid = np.isfinite(raw) & panel.mask
    std = _standardize_rows(raw.reshape(L * D, S), valid.reshape(L * D, S))
    del raw
    values = np.ascontiguousarray(std.reshape(L, D, S).transpose(1, 2, 0))
    mask = np.ascontiguousarray(valid.transpose(1, 2, 0))
    return FactorPanel(names, values, mask, panel.calendar, panel.symbols)
