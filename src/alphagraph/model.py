"""The end-to-end forecasting model.

Per sample (stock i, anchor day t): each of the T lookback days contributes
the concatenation of the stock's graph-attention representation, its
technical factor embedding ``relu(W f + b)``, and its daily news vector.
The sequence runs through a BiLSTM, a temporal attention layer pools the
per-day outputs, and a linear head emits the forecast of the forward return
enterable at the open of day t. Training minimizes mean squared error with
Adam; the stock embedding matrix is fine-tuned through the attention path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from . import nn
from .autodiff import Tape, Tensor
from .config import ModelConfig
from .embeddings import StockEmbeddingSet, StockGraph, attention_representation
from .errors import ConfigError, DataError, NumericalFault
from .factors import FactorPanel
from .forecasts import ForecastPanel
from .market import BarPanel, log_return
from .news import DailyNewsPanel
from .orderstats import distinct

# samples per forward pass in prediction and validation; it bounds the cell
# rows and (N, T, .) states a forward holds at once. At 256 the training
# batches, not validation, set train's peak RSS on the perfbench news-text
# workload: 43.4 MB, against 43.8 MB at 512 and 46.8 MB at 1,024
EVAL_CHUNK = 256


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

@dataclass
class FeatureStore:
    calendar: tuple
    symbols: tuple
    factors: np.ndarray | None  # (D, S, L)
    news: tuple | None          # (rows, row index) as in DailyNewsPanel

    def news_at(self, days, stocks) -> np.ndarray:
        """News vectors of the cells (days, stocks), index arrays that
        broadcast together; the zero vector for a cell without articles."""
        rows, index = self.news
        return rows[index[days, stocks]]


@dataclass
class Dataset:
    store: FeatureStore
    stock_idx: np.ndarray   # (N,)
    anchor_idx: np.ndarray  # (N,)
    labels: np.ndarray      # (N,)

    @property
    def n(self) -> int:
        return int(self.stock_idx.size)

    def subset(self, keep: np.ndarray) -> "Dataset":
        return Dataset(self.store, self.stock_idx[keep], self.anchor_idx[keep],
                       self.labels[keep])

    def split_by_anchor(self, first_idx: int, last_idx: int) -> "Dataset":
        keep = (self.anchor_idx >= first_idx) & (self.anchor_idx <= last_idx)
        return self.subset(np.flatnonzero(keep))


def build_dataset(bars: BarPanel, factors: FactorPanel | None,
                  news: DailyNewsPanel | None, cfg: ModelConfig,
                  require_labels: bool = True) -> Dataset:
    """Enumerate every usable (stock, anchor day) sample.

    A sample is kept only when every day in its lookback window has a bar
    and (when the technical module is on) a full factor row, and the label
    window fits inside the calendar. Feature days are t-T..t-1; the label is
    the forward return entered at the open of day t, so the newest feature
    date always precedes the label window. With ``require_labels=False``,
    samples whose label window runs off the calendar are kept with a NaN
    label (prediction at the live edge).
    """
    D, S = bars.n_dates, bars.n_symbols
    if cfg.use_tech:
        if factors is None:
            raise ConfigError("technical module enabled but no factor panel given")
        if tuple(factors.calendar) != tuple(bars.calendar) or tuple(factors.symbols) != tuple(bars.symbols):
            raise DataError("factor panel is not aligned with the bar panel")
        factor_valid = factors.mask.all(axis=2)
        fvals = factors.values
    else:
        factor_valid = None
        fvals = None
    if cfg.use_news:
        if news is None:
            raise ConfigError("news module enabled but no news panel given")
        if tuple(news.calendar) != tuple(bars.calendar) or tuple(news.symbols) != tuple(bars.symbols):
            raise DataError("news panel is not aligned with the bar panel")
        nvals = (news.vectors, news.row_index)
    else:
        nvals = None

    T, H = cfg.lookback, cfg.horizon
    usable = bars.mask if factor_valid is None else bars.mask & factor_valid
    keep = np.zeros((D, S), dtype=bool)      # full lookback window a-T..a-1
    if D > T:
        keep[T:] = sliding_window_view(usable, T, axis=0)[:D - T].all(axis=2)
    # anchor a, whose features run through day a-1, is labelled by
    # log(open[a+H] / open[a]); anchors past D-1-H have no label
    labelled = np.zeros((D, S), dtype=bool)
    if D > H:
        p_in, p_out = bars.open[:D - H], bars.open[H:]
        labelled[:D - H] = keep[:D - H] & np.isfinite(p_in) & np.isfinite(p_out)
        bad = labelled[:D - H] & ((p_in <= 0) | (p_out <= 0))
        if bad.any():
            s, a = (int(v[0]) for v in np.nonzero(bad.T))
            log_return(float(p_out[a, s]), float(p_in[a, s]))  # raises DataError
    if require_labels:
        keep = labelled
    stock_idx, anchor_idx = np.nonzero(keep.T)   # stock-major, then anchor
    has = labelled[anchor_idx, stock_idx]
    s, a = stock_idx[has], anchor_idx[has]
    ratio = bars.open[a + H, s] / bars.open[a, s]
    labels = np.full(stock_idx.size, np.nan)
    # math.log, not np.log, whose result can differ in the last bit
    labels[has] = np.fromiter(map(math.log, ratio), dtype=np.float64, count=ratio.size)
    store = FeatureStore(bars.calendar, bars.symbols, fvals, nvals)
    return Dataset(store, stock_idx, anchor_idx, labels)


# ---------------------------------------------------------------------------
# Parameters and forward pass
# ---------------------------------------------------------------------------

def build_params(cfg: ModelConfig, rng: np.random.Generator | None,
                 init_emb: StockEmbeddingSet | None) -> dict:
    """Create the trainable tensors for the enabled modules.

    The checkpoint key set is exactly the union of enabled-module parameters,
    which is what the ablation containment tests inspect. With ``rng`` None
    nothing is drawn and the random initial values are zeros: the layout a
    checkpoint's values are loaded into.
    """
    params: dict[str, Tensor] = {}
    if cfg.use_graph:
        if init_emb is None:
            raise ConfigError("graph module enabled but no initial embeddings given")
        if init_emb.dim != cfg.embed_dim:
            raise ConfigError(f"embedding dim {init_emb.dim} != config {cfg.embed_dim}")
        nn.param(init_emb.vectors.copy(), params, "graph.emb")
        nn.init_score_net(rng, 2 * cfg.embed_dim, cfg.attn_hidden, params, "graph.attn")
    if cfg.use_tech:
        nn.param(nn.glorot_uniform(rng, cfg.n_factors, cfg.tech_dim), params, "tech.w")
        nn.param(np.zeros(cfg.tech_dim), params, "tech.b")
    nn.init_bilstm_params(rng, cfg.input_dim(), cfg.hidden, params, "lstm")
    nn.init_score_net(rng, 2 * cfg.hidden, cfg.temporal_hidden, params, "temporal")
    # the readout starts at zero so initial forecasts sit at the label scale;
    # its own gradient is nonzero, so training immediately moves it
    nn.param(np.zeros(2 * cfg.hidden), params, "head.w")
    nn.param(np.zeros(()), params, "head.b")
    return params


def _graph_representations(params: dict, graph: StockGraph, stocks: np.ndarray) -> Tensor:
    """Attention representations (U, d) of the U distinct stocks of a batch,
    in one attention call over their rows of the neighbor table."""
    emb = params["graph.emb"]
    reps, _ = attention_representation(
        ad.gather_rows(emb, stocks), ad.gather_rows(emb, graph.neighbors[stocks]),
        params["graph.attn.w"], params["graph.attn.b"], params["graph.attn.v"])
    return reps


def temporal_pool(seq: Tensor, params: dict, prefix: str):
    """Softmax attention over the T steps of each (N, T, width) sequence.

    Scores are ``v . tanh(W x_t + b)``, computed for all N*T steps in one
    pass and softmaxed over the T steps of each row. Returns
    (pooled (N, width), weights (N, T)).
    """
    N, T, width = seq.shape
    scores = nn.score_net(ad.reshape(seq, (N * T, width)), params, prefix)
    beta = ad.softmax(ad.reshape(scores, (N, T)))
    return ad.weighted_sum(seq, beta), beta


def _distinct(keys: np.ndarray):
    """The sorted distinct values of an int array, and the position of each
    element of ``keys`` among them (same shape as ``keys``).

    The same result as ``np.unique(keys, return_inverse=True)``.
    """
    uniq = distinct(keys)
    return uniq, np.searchsorted(uniq, keys)


def model_forward(params: dict, cfg: ModelConfig, store: FeatureStore,
                  stock_idx: np.ndarray, anchor_idx: np.ndarray,
                  graph: StockGraph | None) -> Tensor:
    """Forecasts for a batch of samples; (N,) tensor. See ``_forward``."""
    return _forward(params, cfg, store, stock_idx, anchor_idx, graph)[0]


def _forward(params: dict, cfg: ModelConfig, store: FeatureStore, stock_idx: np.ndarray,
             anchor_idx: np.ndarray, graph: StockGraph | None) -> tuple[Tensor, Tensor]:
    """Forecasts (N,) and temporal attention weights (N, T) for a batch of
    samples.

    Each layer runs once per batch. The per-day layers run once per distinct
    (day, stock) cell of the batch's lookback windows, since consecutive
    anchors of a stock share T-1 of their days: the U cells, sorted by
    ``day * S + stock``, each get the graph representation of their stock
    (neighbor attention runs once for the batch's distinct stocks), the
    technical embedding and the news vector, concatenated into (U, in) rows.
    An (N, T) window index holds the cell of each sample's lookback day t;
    the BiLSTM projects the U rows and reads its steps through it, and
    temporal attention pools the (N, T, width) sequence.
    """
    T, S = cfg.lookback, len(store.symbols)
    days = anchor_idx[:, None] - T + np.arange(T)
    cells, windows = _distinct(days * S + stock_idx[:, None])
    cell_day, cell_stock = np.divmod(cells, S)
    parts = []
    if cfg.use_graph:
        stocks, pos = _distinct(cell_stock)
        parts.append(ad.gather_rows(_graph_representations(params, graph, stocks), pos))
    if cfg.use_tech:
        tech_w = ad.relu(params["tech.w"]) if cfg.nonneg_tech else params["tech.w"]
        f = store.factors[cell_day, cell_stock]
        parts.append(ad.relu(ad.affine(f, tech_w, params["tech.b"])))
    if cfg.use_news:
        parts.append(Tensor(store.news_at(cell_day, cell_stock)))
    x = parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)

    vs = nn.bilstm(x, windows, params, "lstm")
    pooled, beta = temporal_pool(vs, params, "temporal")
    return ad.add_bias(ad.matmul(pooled, params["head.w"]), params["head.b"]), beta


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainedModel:
    params: dict
    cfg: ModelConfig
    graph: StockGraph | None
    symbols: tuple
    trace: list = field(default_factory=list)


def _eval_chunks(params, cfg, ds: Dataset, graph, idx):
    """Forecasts of the samples ``idx`` of ``ds``, EVAL_CHUNK samples per
    forward pass. Yields (the chunk's sample indices, its forecasts, its
    temporal attention weights)."""
    for s in range(0, idx.size, EVAL_CHUNK):
        sub = idx[s:s + EVAL_CHUNK]
        out, beta = _forward(params, cfg, ds.store, ds.stock_idx[sub], ds.anchor_idx[sub],
                             graph)
        yield sub, out.values, beta.values


def _forward_loss_eval(params, cfg, ds: Dataset, graph, idx) -> float:
    total = 0.0
    for sub, yhat, _ in _eval_chunks(params, cfg, ds, graph, idx):
        total += float(np.sum((yhat - ds.labels[sub]) ** 2))
    return total / max(idx.size, 1)


def train(dataset: Dataset, cfg: ModelConfig, init_emb: StockEmbeddingSet | None,
          graph: StockGraph | None) -> TrainedModel:
    """Run the training loop: minibatch Adam over shuffled samples with a
    seeded 20% validation split and early stopping on validation MSE.

    Deterministic for a fixed (dataset, config, seed). Returns the model with
    a per-epoch loss trace; on early stop the best-validation parameters are
    restored.
    """
    if dataset.n == 0:
        raise DataError("train: empty dataset")
    if not np.all(np.isfinite(dataset.labels)):
        raise DataError("train: dataset contains samples without labels")
    rng = np.random.default_rng(cfg.seed)
    params = build_params(cfg, rng, init_emb)
    adam = nn.Adam(params, lr=cfg.lr)

    perm = rng.permutation(dataset.n)
    n_val = int(round(cfg.val_fraction * dataset.n))
    val_idx = np.sort(perm[:n_val])
    train_idx = perm[n_val:]

    best_val = np.inf
    best_epoch = -1
    best_values: dict | None = None
    trace = []
    for epoch in range(cfg.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        total, count = 0.0, 0
        for s in range(0, order.size, cfg.batch_size):
            idx = order[s:s + cfg.batch_size]
            adam.zero_grad()
            try:
                with Tape() as tape:
                    yhat = model_forward(params, cfg, dataset.store,
                                         dataset.stock_idx[idx],
                                         dataset.anchor_idx[idx], graph)
                    loss = ad.sq_error(yhat, dataset.labels[idx])
                    tape.backward(loss)
            except NumericalFault as exc:
                raise NumericalFault(
                    f"epoch {epoch}, batch starting at sample {s}: {exc}") from exc
            adam.step()
            total += loss.item() * idx.size
            count += idx.size
        train_mse = total / max(count, 1)
        entry = {"epoch": epoch, "train_mse": train_mse}
        if n_val > 0:
            val_mse = _forward_loss_eval(params, cfg, dataset, graph, val_idx)
            entry["val_mse"] = val_mse
            if val_mse < best_val:
                best_val = val_mse
                best_epoch = epoch
                best_values = {k: t.values.copy() for k, t in params.items()}
            trace.append(entry)
            if epoch - best_epoch > cfg.patience:
                break
        else:
            trace.append(entry)
    if best_values is not None:
        for k, t in params.items():
            t.values = best_values[k]
    return TrainedModel(params, cfg, graph, dataset.store.symbols, trace)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(model: TrainedModel, dataset: Dataset) -> tuple[ForecastPanel, np.ndarray | None]:
    """Pure forward evaluation over a dataset, keyed by (entry day, stock).

    Returns the forecasts and the mean temporal attention weight per lag
    over the samples that have a label (None if none has). The weights are
    summed chunk by chunk, row by row in dataset order after the running
    total, which are the additions of ``weights.mean(axis=0)`` over all of
    them at once: the same bits, without holding an (n, T) array."""
    D, S = len(dataset.store.calendar), len(dataset.store.symbols)
    yhat = np.full((D, S), np.nan)
    y = np.full((D, S), np.nan)
    total, n_labelled = np.zeros(model.cfg.lookback), 0
    for sub, out, beta in _eval_chunks(model.params, model.cfg, dataset, model.graph,
                                       np.arange(dataset.n)):
        yhat[dataset.anchor_idx[sub], dataset.stock_idx[sub]] = out
        y[dataset.anchor_idx[sub], dataset.stock_idx[sub]] = dataset.labels[sub]
        labelled = beta[np.isfinite(dataset.labels[sub])]
        total = np.add.reduce(np.concatenate([total[None], labelled]), axis=0)
        n_labelled += labelled.shape[0]
    panel = ForecastPanel(dataset.store.calendar, dataset.store.symbols, yhat, y)
    return panel, total / n_labelled if n_labelled else None
