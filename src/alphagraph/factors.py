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


def _trailing(x: np.ndarray, w: int, reduce) -> np.ndarray:
    """``reduce(block)`` of the trailing windows of x: row t >= w - 1 of
    the result holds, for each column s, the reduction of the w rows of x
    ending at row t (NaN before). ``block[i, s]`` is a C-contiguous copy
    of window (t, s), one block of about BLOCK_ROWS // w dates at a time,
    which ``reduce`` takes along its last axis.

    numpy reduces the contiguous last axis of the copy with the same pairwise
    sum as a 1-D window, so ``block.mean(axis=-1)`` and ``block.std(axis=-1,
    ddof=1)`` equal ``np.mean`` and ``np.std(ddof=1)`` of each window bit for
    bit. Reducing the strided ``sliding_window_view`` itself does not: on a
    C-ordered x it adds the window's rows one after another and rounds
    differently.
    """
    out = np.full_like(x, np.nan)
    if x.shape[0] >= w:
        windows = sliding_window_view(x, w, axis=0)
        step = max(1, BLOCK_ROWS // w)
        for t in range(0, windows.shape[0], step):
            out[w - 1 + t:w - 1 + t + step] = reduce(np.ascontiguousarray(windows[t:t + step]))
    return out


def _trailing_mean(x: np.ndarray, w: int) -> np.ndarray:
    """``np.mean`` of each trailing window of w rows, bit for bit (see
    ``_trailing``)."""
    return _trailing(x, w, lambda block: block.mean(axis=-1))


def _trailing_std(x: np.ndarray, w: int) -> np.ndarray:
    """``np.std(..., ddof=1)`` of each trailing window of w rows, bit for
    bit (see ``_trailing``). ``compute_factors`` never asks for w = 1,
    where that std is NaN."""
    return _trailing(x, w, lambda block: block.std(axis=-1, ddof=1))


def _raw_factor(family: str, w: int, opens: np.ndarray, volume: np.ndarray,
                rets: np.ndarray) -> np.ndarray:
    """Factor ``family_w`` of every (date, symbol), NaN where its window is
    not covered. Each family works in place on the one array it returns, so
    a factor holds at most two (D, S) temporaries besides its result."""
    with np.errstate(invalid="ignore", divide="ignore"):
        if family in ("momentum", "reversal"):
            out = np.full_like(opens, np.nan)
            if opens.shape[0] > w:
                ratio = out[w:]
                np.divide(opens[w:], opens[:-w], out=ratio)
                np.log(ratio, out=ratio)
                if family == "reversal":
                    np.negative(ratio, out=ratio)
        elif family == "volatility":
            out = _trailing_std(rets, w)
            out[:w] = np.nan
        elif family == "volume_z":
            out = _trailing_mean(volume, w)
            np.subtract(volume, out, out=out)
            sd = _trailing_std(volume, w)
            out /= sd
            out[~(sd > 0)] = 0.0
            out[:w - 1] = np.nan
        elif family == "amihud":
            ratio = opens * volume
            np.divide(np.abs(rets), ratio, out=ratio)
            out = _trailing_mean(ratio, w)
            out[:w] = np.nan
        elif family == "rsi":
            out = _trailing_mean(np.where(rets > 0, rets, 0.0), w)
            losses = _trailing_mean(np.where(rets < 0, -rets, 0.0), w)
            losses += out  # the denominator: gains plus losses
            out *= 100.0
            out /= losses
            out[~(losses > 0)] = 50.0
            out[:w] = np.nan
        elif family == "ma_ratio":
            out = _trailing_mean(opens, w)
            unset = ~np.isfinite(out)
            np.divide(opens, out, out=out)
            out -= 1.0
            out[unset] = np.nan
        else:
            raise ConfigError(f"unknown factor family {family!r}")
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


def compute_factors(panel: BarPanel, registry: dict | None = None) -> FactorPanel:
    """Compute the registry's factors for every (date, symbol).

    Raw factors use trailing windows only; entries whose window exceeds the
    available history (or covers a missing bar) are masked, never imputed.
    Each valid (date, factor) column is then winsorized and z-scored across
    symbols. One factor at a time is computed, standardized in one batched
    pass over its dates and stored into the (D, S, L) output, so besides
    the output only that factor's arrays are held.
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
    values = np.empty((D, S, L))
    mask = np.empty((D, S, L), dtype=bool)
    for k, (family, w) in enumerate(windows):
        raw = _raw_factor(family, w, opens, volume, rets)
        valid = np.isfinite(raw)
        valid &= panel.mask
        mask[:, :, k] = valid
        values[:, :, k] = _standardize_rows(raw, valid)
    return FactorPanel(names, values, mask, panel.calendar, panel.symbols)
