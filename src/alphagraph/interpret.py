"""Post-hoc interpretation of a trained model.

All operations are read-only over trained artifacts. Ties in every ranking
are broken by ascending index so reports are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class PairDistance:
    i: int
    j: int
    distance: float
    percentile: float  # of the ascending-sorted pair list, in (0, 100]


def pairwise_distance_report(vectors: np.ndarray) -> list[PairDistance]:
    """All n(n-1)/2 Euclidean pair distances, ascending.

    Ties are ordered by (i, j). Each entry carries its percentile rank within
    the ascending list.
    """
    n = vectors.shape[0]
    if n < 2:
        raise DataError("pairwise_distance_report: need at least 2 embeddings")
    pairs = []
    for i in range(n):
        diff = vectors[i + 1:] - vectors[i]
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        pairs.extend((float(d), i, i + 1 + k) for k, d in enumerate(dist))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    total = len(pairs)
    return [PairDistance(i, j, d, 100.0 * (rank + 1) / total)
            for rank, (d, i, j) in enumerate(pairs)]


def extreme_distance_pairs(report: list[PairDistance], band: float = 1.0):
    """Pairs from the closest and farthest ``band`` percent of the report."""
    low = [p for p in report if p.percentile <= band]
    high = [p for p in report if p.percentile > 100.0 - band]
    return low, high


def factor_importance(w_nonneg: np.ndarray, coordinate: int, k_emb: int = 50) -> list[int]:
    """Indices of the k largest weights feeding one embedding coordinate.

    ``w_nonneg`` is the (m, l) non-negative technical layer (the relu of the
    trained weights when the model was not trained in non-negative mode).
    Sorted by descending weight, ties by ascending factor index.
    """
    m, l = w_nonneg.shape
    if not 1 <= k_emb <= l:
        raise ConfigError(f"k_emb must be in [1, {l}], got {k_emb}")
    if not 0 <= coordinate < m:
        raise ConfigError(f"coordinate must be in [0, {m}), got {coordinate}")
    row = w_nonneg[coordinate]
    order = np.lexsort((np.arange(l), -row))
    return [int(i) for i in order[:k_emb]]


def factor_frequency(w_nonneg: np.ndarray, k_emb: int = 50) -> list[tuple[int, int]]:
    """How often each factor makes a coordinate's top-k list, descending.

    Ties by ascending factor index. The head of this list is the "most
    frequent factors" summary.
    """
    counts = np.zeros(w_nonneg.shape[1], dtype=np.int64)
    for i in range(w_nonneg.shape[0]):
        for j in factor_importance(w_nonneg, i, k_emb):
            counts[j] += 1
    order = np.lexsort((np.arange(counts.size), -counts))
    return [(int(j), int(counts[j])) for j in order]


def aggregate_temporal_attention(beta: np.ndarray) -> np.ndarray:
    """Mean attention weight per lag over a sample set; sums to 1."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 2 or beta.shape[0] == 0:
        raise DataError("aggregate_temporal_attention: need (n_samples, T) weights")
    return beta.mean(axis=0)


@dataclass
class ErrorBuckets:
    low: list   # sample keys with the smallest errors
    high: list  # sample keys with the largest errors
    degenerate: bool


def news_error_buckets(sample_keys, sq_errors, tail: float = 0.05) -> ErrorBuckets:
    """Samples in the smallest and largest ``tail`` fraction of squared errors.

    Both buckets have ceil(tail * N) members; ties are resolved by sample key
    for determinism. Fewer than 20 samples makes a 5% tail degenerate, which
    is flagged but still returns the single extreme sample per side.
    """
    keys = list(sample_keys)
    errs = np.asarray(sq_errors, dtype=np.float64)
    if len(keys) != errs.size or errs.size == 0:
        raise DataError("news_error_buckets: keys and errors must align and be non-empty")
    order = sorted(range(errs.size), key=lambda i: (errs[i], keys[i]))
    n_tail = max(1, math.ceil(tail * errs.size))
    degenerate = errs.size < 20
    low = [keys[i] for i in order[:n_tail]]
    high = [keys[i] for i in order[-n_tail:]]
    return ErrorBuckets(low, high, degenerate)

