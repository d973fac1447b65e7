"""Interpretation reports: distances, factor importance, error buckets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphagraph.embfile import read_embeddings, write_embeddings
from alphagraph.errors import ConfigError, DataError
from alphagraph.interpret import (extreme_distance_pairs, factor_frequency,
                                  factor_importance, news_error_buckets,
                                  pairwise_distance_report)


# ---------------------------------------------------------------------------
# pairwise distances
# ---------------------------------------------------------------------------

def test_identical_embeddings_rank_first():
    vecs = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    report = pairwise_distance_report(vecs)
    assert report[0].distance == 0.0
    assert (report[0].i, report[0].j) == (0, 1)


def test_three_points_on_a_line():
    vecs = np.array([[0.0], [1.0], [5.0]])
    report = pairwise_distance_report(vecs)
    got = [((p.i, p.j), p.distance) for p in report]
    assert got == [((0, 1), 1.0), ((1, 2), 4.0), ((0, 2), 5.0)]


def test_report_length_combinatorial():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        report = pairwise_distance_report(rng.normal(size=(n, 3)))
        assert len(report) == n * (n - 1) // 2
        assert report[-1].percentile == pytest.approx(100.0)


def test_distances_form_a_metric_on_sampled_triples():
    rng = np.random.default_rng(1)
    vecs = rng.normal(size=(8, 4))
    report = pairwise_distance_report(vecs)
    d = {}
    for p in report:
        d[(p.i, p.j)] = p.distance
        d[(p.j, p.i)] = p.distance
    for a in range(8):
        for b in range(8):
            for c in range(8):
                if len({a, b, c}) == 3:
                    assert d[(a, c)] <= d[(a, b)] + d[(b, c)] + 1e-12


def test_extreme_band_sampling():
    rng = np.random.default_rng(2)
    vecs = rng.normal(size=(20, 3))
    report = pairwise_distance_report(vecs)
    low, high = extreme_distance_pairs(report, band=1.0)
    n_pairs = len(report)
    assert len(low) == max(1, int(np.floor(0.01 * n_pairs)))
    assert all(p.percentile <= 1.0 for p in low)
    assert all(p.percentile > 99.0 for p in high)
    assert max(p.distance for p in low) <= min(p.distance for p in high)


# ---------------------------------------------------------------------------
# factor importance
# ---------------------------------------------------------------------------

def test_factor_importance_hand_row():
    w = np.array([[0.1, 0.9, 0.5]])
    assert factor_importance(w, 0, 2) == [1, 2]


def test_factor_importance_zero_row_tie_rule():
    w = np.zeros((2, 5))
    assert factor_importance(w, 0, 3) == [0, 1, 2]


def test_factor_importance_full_permutation():
    rng = np.random.default_rng(3)
    w = np.abs(rng.normal(size=(2, 6)))
    got = factor_importance(w, 1, 6)
    assert sorted(got) == list(range(6))
    values = w[1, got]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_factor_importance_range_errors():
    """A coordinate outside the layer is refused; interpret.k_emb's range is
    checked when the config loads."""
    w = np.zeros((2, 4))
    with pytest.raises(ConfigError):
        factor_importance(w, 3, 2)


def test_factor_importance_padding_insensitivity():
    rng = np.random.default_rng(4)
    w = np.abs(rng.normal(size=(3, 5)))
    padded = np.concatenate([w, np.zeros((3, 4))], axis=1)
    for i in range(3):
        assert factor_importance(w, i, 3) == factor_importance(padded, i, 3)


def test_factor_frequency_top_is_planted():
    rng = np.random.default_rng(5)
    w = np.abs(rng.normal(scale=0.1, size=(10, 8)))
    w[:, 3] += 5.0  # factor 3 dominates every coordinate
    freq = factor_frequency(w, k_emb=2)
    assert freq[0][0] == 3
    assert freq[0][1] == 10


# ---------------------------------------------------------------------------
# error buckets
# ---------------------------------------------------------------------------

def test_error_buckets_uniform_sizes_deterministic():
    errs = np.ones(100)
    a = news_error_buckets(errs, (np.arange(100)[::-1],))
    b = news_error_buckets(errs, (np.arange(100)[::-1],))
    assert len(a.low) == len(a.high) == 5  # ceil(0.05 * 100)
    assert np.array_equal(a.low, b.low) and np.array_equal(a.high, b.high)
    # every error ties: the tie key ranks, and it counts down
    assert a.low.tolist() == [99, 98, 97, 96, 95]
    assert not a.degenerate


def test_error_buckets_outlier_lands_high():
    errs = np.full(40, 0.1)
    errs[17] = 9.9
    buckets = news_error_buckets(errs, (np.arange(40),))
    assert 17 in buckets.high


def test_error_buckets_match_sort_oracle():
    rng = np.random.default_rng(8)
    errs = rng.random(63)
    buckets = news_error_buckets(errs, (np.arange(63),))
    order = np.argsort(errs, kind="stable")
    n_tail = int(np.ceil(0.05 * 63))
    assert buckets.low.tolist() == order[:n_tail].tolist()
    assert buckets.high.tolist() == order[-n_tail:].tolist()


def test_error_buckets_degenerate_below_twenty():
    buckets = news_error_buckets(np.arange(5.0), (np.arange(5),))
    assert buckets.degenerate
    assert buckets.low.tolist() == [0] and buckets.high.tolist() == [4]


@pytest.mark.parametrize("keys", [(np.arange(3),), (np.arange(4), np.arange(5))])
def test_error_buckets_reject_misaligned_tie_keys(keys):
    with pytest.raises(DataError):
        news_error_buckets(np.ones(4), keys)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0, 4.0]), st.integers(0, 4),
                          st.integers(0, 4)), min_size=1, max_size=80),
       st.sampled_from([0.05, 0.2, 0.5]))
def test_error_buckets_rank_as_sorted_keys(samples, tail):
    """Many tied errors: the buckets are the ends of a Python sort on
    (error, (anchor, symbol rank)), as the CLI ranked its samples."""
    err = [e for e, _, _ in samples]
    key = [(a, s) for _, a, s in samples]
    anchors, ranks = (np.array(col) for col in zip(*key))
    order = sorted(range(len(err)), key=lambda i: (err[i], key[i]))
    n_tail = max(1, math.ceil(tail * len(err)))
    buckets = news_error_buckets(np.array(err), (anchors, ranks), tail)
    assert buckets.low.tolist() == order[:n_tail]
    assert buckets.high.tolist() == order[-n_tail:]


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
