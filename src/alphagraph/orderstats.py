"""Distinct values, medians and quantiles from one sort or partition, and
the rows of a mask grouped by their count of True entries.

``distinct``, ``median`` and ``quantiles`` give the bits of the numpy
function each stands for, through the same sort or partition and the same
arithmetic. ``np.unique``, ``np.median`` and ``np.quantile`` (which calls
``np.unique``) import ``numpy.ma`` on first use, about 1.3 MB of a fresh
process's memory; the stages that only need these statistics leave it
unimported.
"""

from __future__ import annotations

import math

import numpy as np


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an array: ``np.unique(values)``."""
    flat = np.sort(values, axis=None)
    first = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    return flat[first]


def count_groups(mask: np.ndarray):
    """(rows, n) for each count n >= 1 of True entries in a row of a 2-D
    mask, in ascending n, where ``rows`` are the rows with that count.

    ``values[rows][mask[rows]].reshape(rows.size, n)`` then holds each row's
    selected values, compacted in index order, as one C-ordered block: a
    reduction along its rows sees the same 1-D values, and so the same
    pairwise sums, as the per-row code.
    """
    counts = mask.sum(axis=1)
    for n in distinct(counts[counts > 0]):
        yield np.flatnonzero(counts == n), int(n)


def median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D float array: the mean of its middle one or
    two values after numpy's partition, NaN when it holds a NaN or nothing
    (without numpy's warning for nothing)."""
    n = values.size
    if n == 0:
        return math.nan
    kth = [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [(n - 1) // 2, -1]
    part = np.partition(values, kth)
    if np.isnan(part[-1]):
        return part[-1]
    return part[(n - 1) // 2:n // 2 + 1].mean()


def quantiles(values: np.ndarray, levels) -> np.ndarray:
    """``np.quantile(values, levels, axis=1)`` of a 2-D array without NaN,
    linear method: (len(levels), rows). Level q lies at (n - 1) q in each
    sorted row and is interpolated between its two neighbours as numpy's
    ``_lerp`` does, from the top down when the weight is 0.5 or more."""
    n = values.shape[1]
    virtual = (n - 1) * np.asarray(levels, dtype=np.float64)
    below = np.floor(virtual)
    above = below + 1
    past_end = virtual >= n - 1   # both neighbours are the last value
    below[past_end] = above[past_end] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    # the positions numpy partitions at, so equal values land where its do
    kth = sorted({0, -1, *below.tolist(), *above.tolist()})
    part = np.partition(values, kth, axis=1)
    lo, hi = part[:, below].T, part[:, above].T
    gamma = (virtual - below)[:, None]
    diff = hi - lo
    out = lo + diff * gamma
    np.subtract(hi, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out
