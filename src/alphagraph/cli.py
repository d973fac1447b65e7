"""Command-line pipeline driver.

Commands map one-to-one onto pipeline stages; each reads its inputs from the
output directory (or the configured raw-data paths), writes its artifacts
there, and records a manifest with content hashes. Exit codes: 0 success,
1 usage/configuration, 2 data validation, 3 numerical fault.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import sys
from pathlib import Path

import numpy as np

# alphagraph.model, and with it nn, is imported only by the stages that
# train or predict, so that the other stages load without it
from . import backtest as bt
from . import interpret as itp
from .artifacts import (ATTENTION_FILE, BARS_FILE, CHECKPOINT_FILE, COOCCUR_FILE,
                        FACTORS_FILE, FORECASTS_FILE, GLOVE_FILE, GRAPH_FILE, MODELCFG_FILE,
                        NEWS_FILE, PANEL_FILE, WORDVEC_FILE, OutDir, _check_aligned,
                        _check_glove_symbols, _check_width, _load_cooccur, _load_glove,
                        _load_graph, _load_panel, _load_word_embeddings, _NpzArrays,
                        _read_factors, _read_model_config, _read_panel, _save_cooccur,
                        _save_factors, _save_glove, _save_graph, _save_model_config,
                        _save_panel, _stored_param)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (ModelConfig, SyntheticSpec, ablation_config, load_config,
                     manifest_outputs, manifest_path, sha256_file, write_manifest)
from .embeddings import build_knn_graph, train_glove
from .embfile import embedding_dim, write_embeddings
from .errors import (AlphagraphError, ConfigError, DataError, NumericalFault,
                     UsageError)
from .factors import factor_names, factor_windows
from .forecasts import read_forecasts, write_forecasts
from .market import BarPanel, daily_simple_returns, filter_universe, load_bars
from .news import (build_cooccurrence, build_vocabulary, daily_stock_news_vectors,
                   load_articles, news_cells)
from .synth import generate, write_market
from .word2vec import train_cbow


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Shared pipeline assembly
# ---------------------------------------------------------------------------

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
    from . import model as mdl
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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg, out: OutDir, args):
    market = generate(SyntheticSpec(seed=cfg["seed"], **cfg["synth"]))
    for path in write_market(market, out.path).values():
        out.write(path.name)
    return {"n_articles": len(market.articles)}


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


def cmd_cooccur(cfg, out: OutDir, args):
    news_path = out.read(NEWS_FILE)
    train_end = _train_end(cfg)
    with _NpzArrays(out.read(PANEL_FILE)) as z:
        z.dates("calendar")   # checked by the first stage that reads the panel
        symbols = z.strings("symbols")
    articles = [a for a in load_articles(news_path, tokenize=False) if a.date <= train_end]
    x = build_cooccurrence(articles, symbols)
    _save_cooccur(out.write(COOCCUR_FILE), x)
    return {"n_articles": len(articles), "n_pairs": len(x.counts)}


def cmd_train_word2vec(cfg, out: OutDir, args):
    news_path = out.read(NEWS_FILE)
    train_end = _train_end(cfg)
    articles = [a for a in load_articles(news_path) if a.date <= train_end]
    corpus = [a.tokens for a in articles]
    w = cfg["word2vec"]
    vocab = build_vocabulary(corpus, w["min_count"])
    emb = train_cbow(corpus, vocab, dim=w["dim"], window=w["window"],
                     negatives=w["negatives"], epochs=w["epochs"], lr=w["lr"],
                     seed=cfg["seed"])
    labels = sorted(vocab, key=vocab.get)
    write_embeddings(out.write(WORDVEC_FILE), labels, emb.vectors)
    return {"vocab_size": len(vocab), "epoch_losses": emb.epoch_losses}


def cmd_train_glove(cfg, out: OutDir, args):
    x = _load_cooccur(out.read(COOCCUR_FILE))
    g = cfg["glove"]
    emb = train_glove(x, dim=g["dim"], x_max=g["x_max"], alpha=g["alpha"],
                      epochs=g["epochs"], lr=g["lr"], seed=cfg["seed"])
    _save_glove(out.write(GLOVE_FILE), emb)
    return {"loss_first": emb.loss_trace[0], "loss_last": emb.loss_trace[-1]}


def cmd_graph(cfg, out: OutDir, args):
    emb = _load_glove(out.read(GLOVE_FILE))
    graph = build_knn_graph(emb, cfg["graph"]["k"])
    _save_graph(out.write(GRAPH_FILE), graph)
    return {"k": graph.k}


def cmd_train(cfg, out: OutDir, args):
    # the graph module needs glove.npz; the other ablations only record its
    # dim in the model config, so without the file they take the configured one
    glove = _load_glove(out.read(GLOVE_FILE)) if out.has(GLOVE_FILE) else None
    with _NpzArrays(out.read(FACTORS_FILE)) as fz, _NpzArrays(out.read(PANEL_FILE)) as pz:
        if glove is not None:
            _check_glove_symbols(out, glove, pz.strings("symbols"))
        window, _ = _sample_windows(cfg, pz.dates("calendar"))
        # every key of the model section is a ModelConfig field
        model_cfg = ModelConfig(
            **cfg["model"], embed_dim=cfg["glove"]["dim"] if glove is None else glove.dim,
            n_factors=len(fz.strings("names")), seed=cfg["seed"],
            news_dim=(embedding_dim(out.read(WORDVEC_FILE)) if out.has(WORDVEC_FILE)
                      else cfg["word2vec"]["dim"]))
        if args.ablation:
            model_cfg = ablation_config(args.ablation, model_cfg)
        if model_cfg.use_graph and glove is None:
            raise DataError(f"{out.path / GLOVE_FILE} not found; the graph module needs "
                            f"train-glove to run first")
        # of what is read, only the samples' feature store is held while the
        # model trains, not the bar prices or the factor mask
        _, train_ds, _ = _assemble_dataset(cfg, out, model_cfg, window, pz, fz)
    graph = _load_graph(out.read(GRAPH_FILE), glove.symbols) if model_cfg.use_graph else None
    from . import model as mdl
    trained = mdl.train(train_ds, model_cfg, glove if model_cfg.use_graph else None,
                        graph)
    save_checkpoint(out.write(CHECKPOINT_FILE), trained.params)
    _save_model_config(out.write(MODELCFG_FILE), model_cfg)
    return {"ablation": args.ablation or "Full", "n_train_samples": train_ds.n,
            "trace": trained.trace}


def cmd_predict(cfg, out: OutDir, args):
    from . import model as mdl
    model_cfg = _read_model_config(out.read(MODELCFG_FILE))
    glove = graph = None
    if model_cfg.use_graph:
        glove = _load_glove(out.read(GLOVE_FILE))
        _check_width(out, GLOVE_FILE, glove.dim, model_cfg, "embed_dim")
        graph = _load_graph(out.read(GRAPH_FILE), glove.symbols)
    params = mdl.build_params(model_cfg, None, glove)  # the layout; draws nothing
    path = out.read(CHECKPOINT_FILE)
    stored = load_checkpoint(path)
    unknown = sorted(set(stored) - set(params))
    if unknown:
        raise DataError(f"{path}: checkpoint parameter {unknown[0]} is not one of the "
                        f"model's; rerun train")
    for name, param in params.items():
        param.values = _stored_param(path, stored, name, param.values.shape)
    with _NpzArrays(out.read(PANEL_FILE)) as pz:
        calendar = pz.dates("calendar")
        if glove is not None:
            _check_glove_symbols(out, glove, pz.strings("symbols"))
        _, window = _sample_windows(cfg, calendar)
        _, sub, _ = _assemble_dataset(cfg, out, model_cfg, window, pz)
    if sub.n == 0:
        raise DataError("no samples in the test window")
    model = mdl.TrainedModel(params, model_cfg, graph, sub.store.symbols)
    panel, attention = mdl.predict(model, sub)
    n_forecasts, test_start = sub.n, calendar[window[0]]
    del sub  # the forecasts are written without the factor panel
    write_forecasts(out.write(FORECASTS_FILE), panel)
    if attention is not None:  # the mean over the forecasts that have a label
        with open(out.write(ATTENTION_FILE), "w", encoding="utf-8") as fh:
            fh.write("lag,mean_weight\n")
            for idx, wgt in enumerate(attention):
                fh.write(f"-{model_cfg.lookback - idx}day,{repr(float(wgt))}\n")
    return {"n_forecasts": n_forecasts, "test_start": test_start.isoformat()}


def _panel_positions(out: OutDir, fc, calendar, symbols):
    """The panel row of each forecast date and the panel column of each
    forecast symbol; a DataError if the forecasts name one the panel lacks."""
    date_index = {d: i for i, d in enumerate(calendar)}
    symbol_index = {s: i for i, s in enumerate(symbols)}
    unknown = ([d.isoformat() for d in fc.calendar if d not in date_index]
               + [s for s in fc.symbols if s not in symbol_index])
    if unknown:
        raise DataError(f"{out.path / FORECASTS_FILE}: {unknown[0]} is not in "
                        f"{out.path / PANEL_FILE}; the forecasts do not match the panel, "
                        f"rerun predict")
    return ([date_index[d] for d in fc.calendar],
            [symbol_index[s] for s in fc.symbols])


def cmd_backtest(cfg, out: OutDir, args):
    fc = read_forecasts(out.read(FORECASTS_FILE))
    bars = _load_panel(out.read(PANEL_FILE))
    rows, cols = _panel_positions(out, fc, bars.calendar, bars.symbols)
    rets = daily_simple_returns(bars)[np.ix_(rows, cols)]
    sim = cfg["simulator"]
    if args.simulator == "longshort":
        ledger = bt.simulate_longshort(fc.yhat, rets, fc.calendar, fc.symbols,
                                       horizon=sim["horizon"])
    else:
        market = np.nanmean(np.where(np.isfinite(rets), rets, np.nan), axis=1)
        ledger = bt.simulate_markowitz(
            fc.yhat, rets, fc.calendar, fc.symbols,
            risk_aversion=sim["risk_aversion"], cov_window=sim["cov_window"],
            halflife=sim["halflife"], shrinkage=sim["shrinkage"],
            per_name_cap=sim["per_name_cap"], gross_cap=sim["gross_cap"],
            cost_linear=sim["cost_linear"], cost_quadratic=sim["cost_quadratic"],
            market=market if sim["hedge"] else None,
            capital=sim["initial_capital"])
    aligned = fc.aligned()
    metrics = {
        "n_forecasts": float(aligned.sum()),
        "total_pnl": float(ledger.pnl.sum()),
        "paper_pnl_total": float(bt.paper_pnl_metric(fc.yhat, fc.y).sum()),
        "mean_turnover": float(ledger.turnover.mean()),
    }
    if aligned.sum() >= 2:
        metrics["r2_out"] = bt.r_squared(fc.y[aligned], fc.yhat[aligned])
    if len(fc.calendar) >= 2 and ledger.pnl.std() > 0:
        metrics["sharpe"] = bt.sharpe(ledger.pnl)
    bt.write_pnl_csv(out.write("pnl_daily.csv"), ledger)
    bt.write_metrics_csv(out.write("metrics.csv"), metrics)
    return {"simulator": args.simulator}


def cmd_quantiles(cfg, out: OutDir, args):
    fc = read_forecasts(out.read(FORECASTS_FILE))
    reports = bt.quantile_analysis(fc.yhat, fc.y)
    bt.write_quantiles_csv(out.write("quantiles.csv"), reports)
    extra = {}
    for side in ("long", "short"):
        side_reports = bt.quantile_analysis(fc.yhat, fc.y, side=side)
        extra[side] = {qr: r.ppd_bps for qr, r in side_reports.items()}
    return extra


def cmd_interpret(cfg, out: OutDir, args):
    """Reports on the trained parameters and on the forecasts of the test
    window, read from what train and predict wrote; runs no model."""
    model_cfg = _read_model_config(out.read(MODELCFG_FILE))
    icfg = cfg["interpret"]
    with _NpzArrays(out.read(PANEL_FILE)) as z:
        calendar, symbols = z.dates("calendar"), z.strings("symbols")
    fc = read_forecasts(out.read(FORECASTS_FILE))
    rows, cols = _panel_positions(out, fc, calendar, symbols)
    _, (lo, hi) = _sample_windows(cfg, calendar)
    if fc.calendar[0] < calendar[lo]:  # its dates are panel dates, so none is past hi
        raise DataError(f"{out.path / FORECASTS_FILE}: forecasts from {fc.calendar[0]} to "
                        f"{fc.calendar[-1]}, not the test window {calendar[lo]} to "
                        f"{calendar[hi]}; rerun predict")
    labelled = fc.aligned()
    if labelled.any():
        out.read(ATTENTION_FILE)
    checkpoint = out.read(CHECKPOINT_FILE)
    stored = load_checkpoint(checkpoint)

    if model_cfg.use_graph:
        emb = _stored_param(checkpoint, stored, "graph.emb", (len(symbols), model_cfg.embed_dim))
    else:  # a non-graph model has no embeddings of its own: read train-glove's
        glove = _load_glove(out.read(GLOVE_FILE))
        _check_glove_symbols(out, glove, symbols)
        emb = glove.vectors
    pair_i, pair_j, distance, percentile = itp.pairwise_distance_report(emb)
    band = icfg["distance_band"]
    extreme_pairs = {
        name: [[symbols[a], symbols[b]] for a, b in zip(pair_i[sel].tolist(),
                                                         pair_j[sel].tolist())]
        for name, sel in (("closest", percentile <= band),
                          ("farthest", percentile > 100.0 - band))}
    with open(out.write("pair_distances.csv"), "w", encoding="utf-8") as fh:
        fh.write("pair_a,pair_b,distance,percentile\n")
        for a, b, dist, pct in zip(pair_i.tolist(), pair_j.tolist(), distance.tolist(),
                                   percentile.tolist()):
            fh.write(f"{symbols[a]},{symbols[b]},{repr(dist)},{pct:.4f}\n")
    write_embeddings(out.write("final_stock_embeddings.txt"), symbols, emb)

    if model_cfg.use_tech:
        with _NpzArrays(out.read(FACTORS_FILE)) as z:
            names = z.strings("names")
        tech_w = _stored_param(checkpoint, stored, "tech.w", (len(names), model_cfg.tech_dim))
        w = np.maximum(tech_w, 0.0).T  # (m, l)
        k_emb = min(icfg["k_emb"], w.shape[1])
        order, counts = itp.factor_frequency(w, k_emb)
        with open(out.write("factor_importance.csv"), "w", encoding="utf-8") as fh:
            fh.write("rank,factor_index,factor_name,top_k_appearances\n")
            for rank, (j, count) in enumerate(zip(order.tolist(), counts.tolist()), start=1):
                fh.write(f"{rank},{j},{names[j]},{count}\n")

    if labelled.any():
        row_index = None
        if model_cfg.use_news:
            articles = load_articles(out.read(NEWS_FILE), tokenize=False)
            row_index, article_ids, _ = news_cells(articles, symbols, calendar)
        # np.nonzero lists the forecasts in date order, then symbol order, so
        # equal errors rank by date, then by symbol (sorted order)
        d_idx, s_idx = np.nonzero(labelled)
        errors = (fc.yhat[d_idx, s_idx] - fc.y[d_idx, s_idx]) ** 2
        low, high = itp.news_error_buckets(errors, icfg["error_tail"])
        T = model_cfg.lookback
        with open(out.write("news_error_buckets.csv"), "w", encoding="utf-8") as fh:
            fh.write("bucket,date,symbol,sq_error,article_ids\n")
            for name, bucket in (("low_error", low), ("high_error", high)):
                for i in bucket:
                    a, s = rows[d_idx[i]], cols[s_idx[i]]
                    ids = []
                    if row_index is not None:
                        for row in row_index[a - T:a, s]:
                            ids.extend(article_ids[row])
                    fh.write(f"{name},{calendar[a].isoformat()},{symbols[s]},"
                             f"{repr(float(errors[i]))},{';'.join(ids)}\n")

    return {"n_test_samples": int(labelled.sum()), "extreme_pairs": extreme_pairs}


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "cooccur": cmd_cooccur,
    "train-word2vec": cmd_train_word2vec,
    "train-glove": cmd_train_glove,
    "graph": cmd_graph,
    "train": cmd_train,
    "predict": cmd_predict,
    "backtest": cmd_backtest,
    "quantiles": cmd_quantiles,
    "interpret": cmd_interpret,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="alphagraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--bars", default=None, help="bar CSV path")
        p.add_argument("--news", default=None, help="news JSONL path")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE")
        if name == "train":
            p.add_argument("--ablation", default=None,
                           help="News | Tech | Tech+News | Graph+Tech | Graph+News | Full")
        if name == "backtest":
            p.add_argument("--simulator", choices=("longshort", "markowitz"),
                           default="longshort")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    cfg = load_config(args.config, overrides=overrides)
    # the flags name files, so they are set as given, not read as JSON
    for key in ("bars", "news"):
        if getattr(args, key):
            cfg["paths"][key] = getattr(args, key)
    out = OutDir(Path(args.out), cfg)
    out.path.mkdir(parents=True, exist_ok=True)
    try:
        extra = COMMANDS[args.command](cfg, out, args)
    except AlphagraphError:
        # a failed command leaves neither a partial output nor a stale one
        # of its previous run
        manifest = manifest_path(out.path, args.command)
        for path in {*out.outputs, *manifest_outputs(manifest), manifest}:
            if path.is_file():
                path.unlink()
        raise
    manifest = write_manifest(out.path, args.command, cfg, out.inputs, out.outputs, extra)
    print(f"{args.command}: ok ({manifest.name} {sha256_file(manifest)[:12]})")
    return 0


# (error class, label, exit code), the first class that matches applies
EXITS = ((UsageError, "usage", 1), (ConfigError, "config", 1), (DataError, "data", 2),
         (NumericalFault, "numerical", 3), (AlphagraphError, "internal", 3))


def main(argv=None) -> int:
    try:
        return run(argv)
    except AlphagraphError as exc:
        label, code = next((label, code) for cls, label, code in EXITS if isinstance(exc, cls))
        print(f"error: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
