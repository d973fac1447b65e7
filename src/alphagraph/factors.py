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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

STANDARDIZE_CLIP = 3.0
# rows per standardization block: its temporaries stay at a few MB
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


def _pairwise(term, lo: int, n: int) -> np.ndarray:
    """Sum of ``term(lo) ... term(lo + n - 1)`` in the order of numpy's
    pairwise summation of a contiguous run of n float64s (``pairwise_sum``
    in numpy's ``loops_utils.h.src``): sequential below 8, eight
    interleaved partial sums up to 128, halves above."""
    if n < 8:
        acc = term(lo).copy()
        for j in range(lo + 1, lo + n):
            acc += term(j)
        return acc
    if n <= 128:
        part = [term(lo + j).copy() for j in range(8)]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                part[j] += term(lo + i + j)
            i += 8
        acc = ((part[0] + part[1]) + (part[2] + part[3])) + \
              ((part[4] + part[5]) + (part[6] + part[7]))
        for j in range(lo + i, lo + n):
            acc += term(j)
        return acc
    half = n // 2
    half -= half % 8
    return _pairwise(term, lo, half) + _pairwise(term, lo + half, n - half)


def _window_sum(x: np.ndarray, w: int, center: np.ndarray | None = None) -> np.ndarray:
    """Row t of the result sums the w rows of x ending at row t + w - 1, or
    their squared deviations from ``center[t]``.

    Each (t, s) entry equals the 1-D ``np.sum`` of that window of column s,
    bit for bit: 0.0 plus numpy's pairwise sum of the w terms. The pairwise
    tree runs over whole shifted (D - w + 1, S) arrays, so this is O(w)
    numpy calls instead of one reduction per date; a running cumulative sum
    would round differently and carry a NaN into every later window.
    """
    n = x.shape[0] - w + 1

    def term(j):
        return x[j:j + n] if center is None else np.square(x[j:j + n] - center)

    return 0.0 + _pairwise(term, 0, w)


def _trailing_mean(x: np.ndarray, w: int) -> np.ndarray:
    """The mean of each column over the w rows ending at row t, for every
    t >= w - 1 (NaN before): ``np.mean`` of that 1-D window, bit for bit."""
    out = np.full_like(x, np.nan)
    if x.shape[0] >= w:
        out[w - 1:] = _window_sum(x, w) / w
    return out


def _trailing_moments(x: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """``_trailing_mean`` and the ddof=1 standard deviation over the same
    windows: ``np.std(..., ddof=1)`` of each 1-D window, bit for bit (the
    squared deviations from that mean, divide and sqrt of numpy's _var)."""
    mean = _trailing_mean(x, w)
    std = np.full_like(x, np.nan)
    if x.shape[0] >= w:
        std[w - 1:] = np.sqrt(_window_sum(x, w, center=mean[w - 1:]) / (w - 1))
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
