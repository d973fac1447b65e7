"""Post-hoc interpretation of a trained model.

All operations are read-only over trained artifacts. Ties in every ranking
are broken by ascending index so reports are deterministic: each ranking is
a stable sort of values that arrive in index order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def pairwise_distance_report(vectors: np.ndarray):
    """All n(n-1)/2 Euclidean pair distances, ascending.

    Returns the arrays ``(i, j, distance, percentile)``, one entry per pair
    i < j, ranked by ascending distance with ties ordered by (i, j). The
    percentile is each pair's rank within the list, in (0, 100].
    """
    n = vectors.shape[0]
    if n < 2:
        raise DataError("pairwise_distance_report: need at least 2 embeddings")
    i, j = np.triu_indices(n, k=1)
    distance = np.empty(i.size)
    start = 0
    for row in range(n - 1):  # one row at a time: no (pairs, dim) difference array
        diff = vectors[row + 1:] - vectors[row]
        distance[start:start + n - 1 - row] = np.sqrt(np.sum(diff * diff, axis=1))
        start += n - 1 - row
    order = np.argsort(distance, kind="stable")
    return i[order], j[order], distance[order], 100.0 * np.arange(1, i.size + 1) / i.size


def factor_frequency(w_nonneg: np.ndarray, k_emb: int = 50):
    """How often each factor makes a coordinate's top-k list, descending.

    ``w_nonneg`` is the (m, l) non-negative technical layer (the relu of the
    trained weights when the model was not trained in non-negative mode).
    A coordinate's top-k list holds its k largest weights. Returns the
    arrays ``(factor index, count)`` by descending count; ties in either
    ranking go to the lower factor index. The head is the "most frequent
    factors" summary.
    """
    top = np.argsort(-w_nonneg, axis=1, kind="stable")[:, :k_emb]
    counts = np.bincount(top.ravel(), minlength=w_nonneg.shape[1])
    order = np.argsort(-counts, kind="stable")
    return order, counts[order]


def news_error_buckets(sq_errors, tail: float = 0.05):
    """Samples in the smallest and largest ``tail`` fraction of squared errors.

    Returns the positions ``(low, high)`` of each bucket's samples in rank
    order: ascending error, equal errors by position. Both buckets have
    ceil(tail * N) members, at least one: below 20 samples a 5% tail is the
    single extreme sample per side.
    """
    order = np.argsort(sq_errors, kind="stable")
    n_tail = max(1, math.ceil(tail * order.size))
    return order[:n_tail], order[-n_tail:]
