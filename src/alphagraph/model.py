"""The end-to-end forecasting model and its baselines.

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
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from . import nn
from .autodiff import Tape, Tensor
from .embeddings import StockEmbeddingSet, StockGraph, attention_representation
from .errors import ConfigError, DataError, NumericalFault, ShapeError
from .factors import FactorPanel
from .market import BarPanel, log_return
from .news import DailyNewsPanel

MAX_TECH_DIM = 1024
# samples per forward pass in prediction and validation; it bounds the cell
# rows and (N, T, .) states a forward holds at once. At 256 the training
# batches, not validation, set train's peak RSS on the perfbench news-text
# workload: 44.5 MB, against 45.6 MB at 512 and 48.3 MB at 1,024
EVAL_CHUNK = 256

ABLATIONS = {
    "news": (False, False, True),
    "tech": (False, True, False),
    "tech+news": (False, True, True),
    "graph+tech": (True, True, False),
    "graph+news": (True, False, True),
    "full": (True, True, True),
}


@dataclass
class ModelConfig:
    lookback: int = 5          # days of history per sample
    embed_dim: int = 32        # stock embedding width
    n_factors: int = 0         # technical factor count (set from the panel)
    tech_dim: int = 200        # technical embedding width
    news_dim: int = 400        # word/news vector width
    hidden: int = 32           # LSTM width per direction
    attn_hidden: int = 16      # neighbor-attention scorer width
    temporal_hidden: int = 16  # temporal-attention scorer width
    use_graph: bool = True
    use_tech: bool = True
    use_news: bool = True
    horizon: int = 5
    epochs: int = 30
    lr: float = 1e-3
    batch_size: int = 256
    val_fraction: float = 0.2
    patience: int = 10
    nonneg_tech: bool = False  # interpretability mode: use relu(W) in the tech layer
    seed: int = 0

    def validate(self) -> None:
        if self.lookback < 1:
            raise ConfigError("lookback must be >= 1")
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        if not (self.use_graph or self.use_tech or self.use_news):
            raise ConfigError("at least one input module must be enabled")
        if self.tech_dim > MAX_TECH_DIM:
            raise ConfigError(f"tech_dim {self.tech_dim} exceeds maximum {MAX_TECH_DIM}")
        for name in ("embed_dim", "tech_dim", "news_dim", "hidden", "attn_hidden",
                     "temporal_hidden", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, stored) -> "ModelConfig":
        """The config whose ``vars`` are ``stored``. A TypeError names an
        unknown field, or a value whose type is not its default's (an int
        may stand for a float)."""
        if not isinstance(stored, dict):
            raise TypeError(f"expected an object of config fields, got {type(stored).__name__}")
        cfg = cls(**stored)
        for f in fields(cls):
            value, kind = getattr(cfg, f.name), type(f.default)
            if type(value) not in ((int, float) if kind is float else (kind,)):
                raise TypeError(f"{f.name} is {value!r}, expected {kind.__name__}")
        return cfg

    def input_dim(self) -> int:
        return (self.embed_dim * self.use_graph + self.tech_dim * self.use_tech
                + self.news_dim * self.use_news)


def ablation_config(name: str, base: ModelConfig) -> ModelConfig:
    """Module flags for the named baseline; everything else matches ``base``."""
    key = name.strip().lower().replace(" ", "")
    if key not in ABLATIONS:
        raise ConfigError(f"unknown ablation {name!r}; choose from {sorted(ABLATIONS)}")
    graph, tech, news = ABLATIONS[key]
    return replace(base, use_graph=graph, use_tech=tech, use_news=news)


def mse_loss(y: np.ndarray, yhat: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ShapeError(f"mse_loss: shapes {y.shape} and {yhat.shape} differ")
    if y.size == 0:
        raise DataError("mse_loss: empty batch")
    d = y - yhat
    return float(np.mean(d * d))


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
    cfg.validate()
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
    # anchor a is labelled by log(open[a+H] / open[a]), as forward_return
    # labels features through day a-1; anchors past D-1-H have no label
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
        if cfg.n_factors < 1:
            raise ConfigError("technical module enabled but n_factors is not set")
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

    The same result as ``np.unique(keys, return_inverse=True)``, from one
    sort and one ``searchsorted``: ``np.unique`` imports ``numpy.ma`` on
    first use, which costs a fresh process about 1.6 MB.
    """
    flat = np.sort(keys, axis=None)
    first = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    uniq = flat[first]
    return uniq, np.searchsorted(uniq, keys)


def model_forward(params: dict, cfg: ModelConfig, store: FeatureStore,
                  stock_idx: np.ndarray, anchor_idx: np.ndarray,
                  graph: StockGraph | None, capture: dict | None = None) -> Tensor:
    """Forecasts for a batch of samples; (N,) tensor.

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

    vs = nn.bilstm(x, windows, cfg.hidden, params, "lstm")
    pooled, beta = temporal_pool(vs, params, "temporal")
    if capture is not None:
        capture["temporal_beta"] = beta.values.copy()
    return ad.add_bias(ad.matmul(pooled, params["head.w"]), params["head.b"])


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


def _eval_chunks(params, cfg, ds: Dataset, graph, idx, capture: bool = False):
    """Forecasts of the samples ``idx`` of ``ds``, EVAL_CHUNK samples per
    forward pass. Yields (the chunk's sample indices, its forecasts, its
    temporal attention weights when ``capture``, else None)."""
    for s in range(0, idx.size, EVAL_CHUNK):
        sub = idx[s:s + EVAL_CHUNK]
        cap = {} if capture else None
        out = model_forward(params, cfg, ds.store, ds.stock_idx[sub], ds.anchor_idx[sub],
                            graph, capture=cap)
        yield sub, out.values, None if cap is None else cap["temporal_beta"]


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
    cfg.validate()
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

@dataclass
class ForecastPanel:
    calendar: tuple
    symbols: tuple
    yhat: np.ndarray  # (D, S), NaN where no forecast
    y: np.ndarray     # (D, S), NaN where unknown

    def mask(self) -> np.ndarray:
        return np.isfinite(self.yhat)

    def aligned(self) -> np.ndarray:
        return np.isfinite(self.yhat) & np.isfinite(self.y)


def predict(model: TrainedModel, dataset: Dataset,
            capture: dict | None = None) -> ForecastPanel:
    """Pure forward evaluation over a dataset, keyed by (entry day, stock)."""
    D, S = len(dataset.store.calendar), len(dataset.store.symbols)
    yhat = np.full((D, S), np.nan)
    y = np.full((D, S), np.nan)
    betas = []
    for sub, out, beta in _eval_chunks(model.params, model.cfg, dataset, model.graph,
                                       np.arange(dataset.n), capture is not None):
        yhat[dataset.anchor_idx[sub], dataset.stock_idx[sub]] = out
        y[dataset.anchor_idx[sub], dataset.stock_idx[sub]] = dataset.labels[sub]
        betas.append(beta)
    if capture is not None:
        capture["temporal_beta"] = np.concatenate(betas, axis=0) if betas else np.zeros((0, model.cfg.lookback))
    return ForecastPanel(dataset.store.calendar, dataset.store.symbols, yhat, y)


# ---------------------------------------------------------------------------
# Ridge baseline
# ---------------------------------------------------------------------------

def ridge_fit(x: np.ndarray, y: np.ndarray, lam: float):
    """Ridge coefficients via the centered normal equations.

    The intercept is fitted on the centered data and left unpenalized.
    Returns (beta, intercept). Raises on a singular system at lam = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if lam < 0:
        raise ConfigError(f"ridge penalty must be >= 0, got {lam}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DataError("ridge_fit: non-finite inputs")
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + lam * np.eye(x.shape[1])
    if lam == 0 and np.linalg.matrix_rank(gram) < x.shape[1]:
        raise NumericalFault("singular system at lambda = 0; use a positive penalty")
    beta = np.linalg.solve(gram, xc.T @ yc)
    return beta, float(y_mean - x_mean @ beta)


def ridge_predict(x: np.ndarray, beta: np.ndarray, intercept: float) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ beta + intercept


def build_ridge_features(dataset: Dataset, cfg: ModelConfig,
                         init_emb: StockEmbeddingSet | None) -> np.ndarray:
    """Flat per-sample features: the per-day (news, factors, embedding)
    triples over the lookback window, concatenated oldest first."""
    if cfg.use_graph and init_emb is None:
        raise ConfigError("graph features requested but no embeddings given")
    blocks = []
    T = cfg.lookback
    st = dataset.store
    for lag in range(T):
        days = dataset.anchor_idx - T + lag
        if cfg.use_news:
            blocks.append(st.news_at(days, dataset.stock_idx))
        if cfg.use_tech:
            blocks.append(st.factors[days, dataset.stock_idx])
        if cfg.use_graph:
            blocks.append(init_emb.vectors[dataset.stock_idx])
    return np.concatenate(blocks, axis=1)


def ridge_scan(x: np.ndarray, y: np.ndarray, lambdas, val_fraction: float = 0.2,
               seed: int = 0):
    """Pick the penalty with the best held-out MSE, then refit on all rows.

    Returns (beta, intercept, best_lambda).
    """
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    perm = rng.permutation(n)
    n_val = max(1, int(round(val_fraction * n)))
    val, tr = perm[:n_val], perm[n_val:]
    best = (np.inf, None)
    for lam in lambdas:
        beta, icpt = ridge_fit(x[tr], y[tr], lam)
        err = mse_loss(y[val], ridge_predict(x[val], beta, icpt))
        if err < best[0]:
            best = (err, lam)
    lam = best[1]
    beta, icpt = ridge_fit(x, y, lam)
    return beta, icpt, lam
