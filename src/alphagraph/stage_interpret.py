"""The interpret stage: the reports on a trained model and its forecasts."""

from __future__ import annotations

import numpy as np

from . import interpret as itp
from .artifacts import (ATTENTION_FILE, CHECKPOINT_FILE, FACTORS_FILE, FORECASTS_FILE,
                        GLOVE_FILE, MODELCFG_FILE, NEWS_FILE, PANEL_FILE, OutDir,
                        _check_glove_symbols, _check_width, _load_glove, _NpzArrays,
                        _panel_positions, _read_model_config, _stored_param)
from .checkpoint import load_checkpoint
from .embfile import write_embeddings
from .errors import DataError
from .forecasts import read_forecasts
from .news import load_articles, news_cells
from .samples import _sample_windows


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
        _check_width(out, FACTORS_FILE, len(names), model_cfg, "n_factors")
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
