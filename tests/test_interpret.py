"""Interpretation reports: distances, factor importance, error buckets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from alphagraph.embeddings import StockEmbeddingSet, build_knn_graph
from alphagraph.embfile import read_embeddings, write_embeddings
from alphagraph.interpret import (factor_frequency, news_error_buckets,
                                  pairwise_distance_report)

from helpers import (ref_error_buckets, ref_factor_frequency, ref_knn_table,
                     ref_pairwise_distances)


# ---------------------------------------------------------------------------
# pairwise distances
# ---------------------------------------------------------------------------

def test_identical_embeddings_rank_first():
    vecs = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    i, j, distance, _ = pairwise_distance_report(vecs)
    assert distance[0] == 0.0
    assert (i[0], j[0]) == (0, 1)


def test_three_points_on_a_line():
    vecs = np.array([[0.0], [1.0], [5.0]])
    i, j, distance, _ = pairwise_distance_report(vecs)
    got = list(zip(zip(i.tolist(), j.tolist()), distance.tolist()))
    assert got == [((0, 1), 1.0), ((1, 2), 4.0), ((0, 2), 5.0)]


def test_report_length_combinatorial():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        report = pairwise_distance_report(rng.normal(size=(n, 3)))
        assert all(len(a) == n * (n - 1) // 2 for a in report)
        assert report[3][-1] == pytest.approx(100.0)


def test_distances_form_a_metric_on_sampled_triples():
    rng = np.random.default_rng(1)
    vecs = rng.normal(size=(8, 4))
    d = {}
    for i, j, dist in zip(*pairwise_distance_report(vecs)[:3]):
        d[(i, j)] = dist
        d[(j, i)] = dist
    for a in range(8):
        for b in range(8):
            for c in range(8):
                if len({a, b, c}) == 3:
                    assert d[(a, c)] <= d[(a, b)] + d[(b, c)] + 1e-12


def test_extreme_band_sampling():
    """The bands interpret reports: percentile <= band, and > 100 - band."""
    rng = np.random.default_rng(2)
    vecs = rng.normal(size=(20, 3))
    _, _, distance, percentile = pairwise_distance_report(vecs)
    low, high = percentile <= 1.0, percentile > 99.0
    assert low.sum() == max(1, int(np.floor(0.01 * distance.size)))
    assert distance[low].max() <= distance[high].min()


# ---------------------------------------------------------------------------
# factor importance
# ---------------------------------------------------------------------------

def test_factor_importance_hand_row():
    w = np.array([[0.1, 0.9, 0.5]])
    order, counts = factor_frequency(w, 2)
    assert order.tolist() == [1, 2, 0] and counts.tolist() == [1, 1, 0]


def test_factor_importance_zero_row_tie_rule():
    w = np.zeros((2, 5))
    order, counts = factor_frequency(w, 3)
    assert order.tolist() == [0, 1, 2, 3, 4] and counts.tolist() == [2, 2, 2, 0, 0]


def test_factor_importance_full_permutation():
    """With k equal to the factor count, every factor is in every list."""
    rng = np.random.default_rng(3)
    w = np.abs(rng.normal(size=(2, 6)))
    order, counts = factor_frequency(w, 6)
    assert order.tolist() == list(range(6)) and counts.tolist() == [2] * 6


def test_factor_importance_padding_insensitivity():
    rng = np.random.default_rng(4)
    w = np.abs(rng.normal(size=(3, 5)))
    padded = np.concatenate([w, np.zeros((3, 4))], axis=1)
    order, counts = factor_frequency(w, 3)
    padded_order, padded_counts = factor_frequency(padded, 3)
    assert padded_order.tolist() == order.tolist() + [5, 6, 7, 8]
    assert padded_counts.tolist() == counts.tolist() + [0] * 4


def test_factor_frequency_top_is_planted():
    rng = np.random.default_rng(5)
    w = np.abs(rng.normal(scale=0.1, size=(10, 8)))
    w[:, 3] += 5.0  # factor 3 dominates every coordinate
    order, counts = factor_frequency(w, k_emb=2)
    assert order[0] == 3
    assert counts[0] == 10


# ---------------------------------------------------------------------------
# error buckets
# ---------------------------------------------------------------------------

def test_error_buckets_uniform_sizes_deterministic():
    errs = np.ones(100)
    a = news_error_buckets(errs, 0.05)
    b = news_error_buckets(errs, 0.05)
    assert len(a[0]) == len(a[1]) == 5  # ceil(0.05 * 100)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    # every error ties: position ranks
    assert a[0].tolist() == [0, 1, 2, 3, 4]
    assert a[1].tolist() == [95, 96, 97, 98, 99]


def test_error_buckets_outlier_lands_high():
    errs = np.full(40, 0.1)
    errs[17] = 9.9
    _, high = news_error_buckets(errs, 0.05)
    assert 17 in high


def test_error_buckets_match_sort_oracle():
    rng = np.random.default_rng(8)
    errs = rng.random(63)
    low, high = news_error_buckets(errs, 0.05)
    order = np.argsort(errs, kind="stable")
    n_tail = int(np.ceil(0.05 * 63))
    assert low.tolist() == order[:n_tail].tolist()
    assert high.tolist() == order[-n_tail:].tolist()


def test_error_buckets_degenerate_below_twenty():
    """Below 20 samples a 5% tail is degenerate: each bucket holds the one
    extreme sample."""
    low, high = news_error_buckets(np.arange(5.0), 0.05)
    assert low.tolist() == [0] and high.tolist() == [4]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0, 4.0]), st.integers(0, 4),
                          st.integers(0, 4)), min_size=1, max_size=80),
       st.sampled_from([0.05, 0.2, 0.5]))
def test_error_buckets_rank_as_sorted_keys(samples, tail):
    """Many tied errors, passed in (anchor, symbol rank) order as the CLI
    passes them: the buckets are the ends of a Python sort on
    (error, (anchor, symbol rank))."""
    samples = sorted(samples, key=lambda x: x[1:])
    err = [e for e, _, _ in samples]
    key = [(a, s) for _, a, s in samples]
    order = sorted(range(len(err)), key=lambda i: (err[i], key[i]))
    n_tail = max(1, math.ceil(tail * len(err)))
    low, high = news_error_buckets(np.array(err), tail)
    assert low.tolist() == order[:n_tail]
    assert high.tolist() == order[-n_tail:]


# ---------------------------------------------------------------------------
# every ranking against its tie-keyed reference
# ---------------------------------------------------------------------------

_small_ints = st.integers(-2, 2).map(float)


@st.composite
def _rows_with_duplicates(draw, n, dim):
    """An (n, dim) matrix of small integers with some rows copied from others."""
    rows = draw(hnp.arrays(np.float64, (n, dim), elements=_small_ints))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=n)):
        rows[dst] = rows[src]
    return rows


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rankings_equal_the_tie_keyed_references(data):
    """Integer values and copied rows make many ties; every ranking, and
    every value it carries, is the reference's, bit for bit."""
    n, dim = data.draw(st.integers(2, 39)), data.draw(st.integers(1, 8))
    vecs = data.draw(_rows_with_duplicates(n, dim))

    i, j, distance, percentile = pairwise_distance_report(vecs)
    ref = ref_pairwise_distances(vecs)
    assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a, b, _, _ in ref]
    assert distance.tolist() == [d for _, _, d, _ in ref]
    assert percentile.tolist() == [p for _, _, _, p in ref]

    k = data.draw(st.integers(1, n))
    graph = build_knn_graph(StockEmbeddingSet(tuple(range(n)), vecs, np.zeros(n)), k)
    ref_neighbors, ref_distances = ref_knn_table(vecs, k)
    assert np.array_equal(graph.neighbors, ref_neighbors)
    assert graph.distances.tobytes() == ref_distances.tobytes()

    m, factors = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 12))
    w = data.draw(hnp.arrays(np.float64, (m, factors), elements=st.integers(0, 3).map(float)))
    k_emb = data.draw(st.integers(1, factors))
    order, counts = factor_frequency(w, k_emb)
    assert list(zip(order.tolist(), counts.tolist())) == ref_factor_frequency(w, k_emb)

    labelled = data.draw(hnp.arrays(bool, (data.draw(st.integers(1, 6)), 5)))
    labelled.flat[data.draw(st.integers(0, labelled.size - 1))] = True
    d_idx, s_idx = np.nonzero(labelled)
    errors = data.draw(hnp.arrays(np.float64, d_idx.size,
                                  elements=st.sampled_from([0.0, 0.25, 1.0, 4.0])))
    tail = data.draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    low, high = news_error_buckets(errors, tail)
    ref_low, ref_high = ref_error_buckets(errors, (d_idx, s_idx), tail)
    assert low.tolist() == ref_low.tolist() and high.tolist() == ref_high.tolist()


# ---------------------------------------------------------------------------
# embedding export
# ---------------------------------------------------------------------------

def test_export_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    labels = [f"S{i}" for i in range(7)]
    vecs = rng.normal(size=(7, 4))
    path = tmp_path / "emb.txt"
    write_embeddings(path, labels, vecs)
    first = path.read_text()
    assert first.splitlines()[0] == "7 4"
    got_labels, got = read_embeddings(path)
    assert got_labels == labels
    assert np.array_equal(got, vecs)
    write_embeddings(path, got_labels, got)
    assert path.read_text() == first  # bitwise-stable decimal text
