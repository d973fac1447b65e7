"""Stock embeddings from news co-mentions, the kNN digraph, and neighbor attention.

Embeddings are trained by weighted factorization of the co-mention count
matrix: minimize sum over positive-count ordered pairs of
``f(X_ij) * (e_i . e_j + b_i + b_j - log X_ij)^2`` by full-batch gradient
descent with a fixed step, each step one vectorized pass over all pairs.
The squared residual keeps the objective bounded below. Pairs with zero
count are skipped. These embeddings initialize the forecasting model and
are fine-tuned there; the graph built from them stays frozen afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, NumericalFault, ShapeError

if TYPE_CHECKING:
    from .news import CooccurrenceMatrix


@dataclass
class StockEmbeddingSet:
    symbols: tuple
    vectors: np.ndarray  # (n, d)
    biases: np.ndarray   # (n,)
    loss_trace: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


@dataclass
class StockGraph:
    """Directed kNN graph as a fixed-width table: row i of ``neighbors``
    holds the indices of stock i's k neighbors, nearest first, and the same
    row of ``distances`` their Euclidean distances."""

    symbols: tuple
    neighbors: np.ndarray  # (n, k) intp
    distances: np.ndarray  # (n, k) float64

    @property
    def k(self) -> int:
        return int(self.neighbors.shape[1])


def glove_weight(x: float, x_max: float, alpha: float) -> float:
    """Co-occurrence weighting: (x / x_max)^alpha below x_max, else 1."""
    if x >= x_max:
        return 1.0
    return (x / x_max) ** alpha


def glove_loss_and_grads(emb, bias, rows, cols, logx, wgt):
    """The factorization objective and its gradient, over all pairs at once."""
    resid = np.einsum("ij,ij->i", emb[rows], emb[cols]) + bias[rows] + bias[cols] - logx
    loss = float(np.sum(wgt * resid * resid))
    coef = 2.0 * wgt * resid
    # every pair's terms, by row then by column: each stock's sum adds them
    # in this order, as np.add.at over rows and then over cols would. One
    # embedding column is summed at a time, so neither the (2 pairs, dim)
    # terms nor a flat index into them is ever held
    ends, partners = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    coef = np.concatenate([coef, coef])
    g_emb = np.empty_like(emb)
    for m in range(emb.shape[1]):
        g_emb[:, m] = np.bincount(ends, weights=coef * emb[partners, m], minlength=emb.shape[0])
    g_bias = np.bincount(ends, weights=coef, minlength=bias.size)
    return loss, g_emb, g_bias


def train_glove(x: CooccurrenceMatrix, dim: int = 32, x_max: float = 100.0,
                alpha: float = 0.75, epochs: int = 200, lr: float = 0.05,
                seed: int = 0) -> StockEmbeddingSet:
    """Fit stock embeddings to the co-mention matrix.

    Deterministic given the seed. The trace holds the loss before each step
    and the final loss; with a sufficiently small step it is non-increasing
    (full-batch descent on a smooth objective). Raises ``NumericalFault``,
    naming the epoch, once the loss or the parameters stop being finite.
    """
    rows, cols, vals = x.to_coo()
    if rows.size == 0:
        raise DataError("no co-occurrence signal: all counts are zero")
    logx = np.log(vals)
    wgt = np.array([glove_weight(v, x_max, alpha) for v in vals])
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    emb = rng.uniform(-scale, scale, size=(x.n, dim))
    bias = np.zeros(x.n)
    trace = []
    for epoch in range(epochs + 1):
        # a diverging run overflows; it ends in the NumericalFault below
        with np.errstate(over="ignore", invalid="ignore"):
            loss, g_emb, g_bias = glove_loss_and_grads(emb, bias, rows, cols, logx, wgt)
        # a stock without pairs never moves, so a non-finite parameter
        # always shows up in the loss
        if not np.isfinite(loss):
            raise NumericalFault(f"train_glove: loss is {loss} at epoch {epoch}; "
                                 f"lower glove.lr (now {lr})")
        trace.append(loss)
        if epoch < epochs:
            emb -= lr * g_emb
            bias -= lr * g_bias
    return StockEmbeddingSet(x.symbols, emb, bias, trace)


# ---------------------------------------------------------------------------
# kNN digraph
# ---------------------------------------------------------------------------

def build_knn_graph(emb: StockEmbeddingSet, k: int) -> StockGraph:
    """Exact Euclidean k-nearest-neighbor digraph.

    Each node points at its min(k, n-1) nearest distinct stocks; each row
    of the table is ordered by ascending distance with ties broken by
    ascending stock index, so identical embeddings always produce identical
    graphs.
    The relation is directed: j in S(i) does not imply i in S(j).
    """
    if emb.n < 2:
        raise DataError(f"build_knn_graph: need at least 2 stocks, got {emb.n}")
    e = emb.vectors
    sq = np.sum(e * e, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (e @ e.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    kk = min(k, emb.n - 1)
    neighbors = np.argsort(d2, axis=-1, kind="stable")[:, :kk]
    distances = np.sqrt(np.take_along_axis(d2, neighbors, axis=1))
    return StockGraph(emb.symbols, neighbors, distances)


# ---------------------------------------------------------------------------
# Neighbor attention
# ---------------------------------------------------------------------------

def attention_representation(e_i, neighbor_rows, w, b, v):
    """Differentiable attention over U stocks' neighbors, all stocks at once.

    ``e_i`` holds the stocks' own embeddings (U, d) and ``neighbor_rows``
    the embeddings of each stock's K neighbors (U, K, d), K >= 1.
    Parameters may be Tensors or arrays. Scores are
    ``v . tanh(W [e_i; e_j] + b)`` per (stock, neighbor) pair, all U*K
    pairs in one pass, softmaxed over each stock's neighbors into weights;
    the representation is the weight-averaged neighbor embedding. Returns
    (representation (U, d), weights (U, K)).
    """
    from . import autodiff as ad   # only the model's stages run it
    if neighbor_rows.ndim != 3 or neighbor_rows.shape[1] == 0:
        raise ShapeError(f"attention_representation: expected (U, K, d) neighbor rows "
                         f"with K >= 1, got {neighbor_rows.shape}")
    u, k, d = neighbor_rows.shape
    tiled = ad.gather_rows(e_i, np.repeat(np.arange(u), k))
    pairs = ad.concat([tiled, ad.reshape(neighbor_rows, (u * k, d))], axis=1)
    scores = ad.matmul(ad.tanh(ad.affine(pairs, w, b)), v)
    weights = ad.softmax(ad.reshape(scores, (u, k)))
    return ad.weighted_sum(neighbor_rows, weights), weights


__all__ = [
    "StockEmbeddingSet", "StockGraph", "glove_weight", "train_glove",
    "glove_loss_and_grads", "build_knn_graph", "attention_representation",
]
