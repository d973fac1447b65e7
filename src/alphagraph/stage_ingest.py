"""The ingest stage: the bars parsed into the universe's panel and its
technical factors.
"""

from __future__ import annotations

from .artifacts import BARS_FILE, FACTORS_FILE, PANEL_FILE, OutDir, _save_factors, _save_panel
from .errors import DataError
from .factors import factor_names, factor_windows
from .market import BarPanel, filter_universe, load_bars
from .samples import _sample_windows, _train_end


def cmd_ingest(cfg, out: OutDir, args):
    windows = factor_windows(cfg["factors"] or None)   # a bad window fails before any output
    panel = load_bars(out.read(BARS_FILE))
    u = cfg["universe"]
    window = panel
    if cfg["split"]["train_end"]:
        _sample_windows(cfg, panel.calendar)  # a split that cannot work fails before any output
        window = panel.restrict_dates(end=_train_end(cfg))
    universe = filter_universe(window, u["min_median_dollar_volume"], u["min_price"],
                               u["min_history"])
    del window
    if not universe:
        raise DataError("universe filter removed every symbol")
    panel = panel.restrict_symbols(universe)
    _save_panel(out.write(PANEL_FILE), panel)
    # the factors read only the opens and volumes
    panel = BarPanel(panel.calendar, panel.symbols,
                     {f: panel.arrays[f] for f in ("open", "volume")}, panel.mask)
    _save_factors(out.write(FACTORS_FILE), panel, windows)
    return {"n_symbols": panel.n_symbols, "n_dates": panel.n_dates,
            "factors": factor_names(windows)}
