"""Interpretation reports: distances, factor importance, attention, errors."""

import numpy as np
import pytest

from alphagraph.embfile import read_embeddings, write_embeddings
from alphagraph.errors import ConfigError, DataError
from alphagraph.interpret import (aggregate_temporal_attention, extreme_distance_pairs,
                                  factor_frequency, factor_importance,
                                  news_error_buckets, pairwise_distance_report)


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
    w = np.zeros((2, 4))
    with pytest.raises(ConfigError):
        factor_importance(w, 0, 5)
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
# temporal attention aggregation
# ---------------------------------------------------------------------------

def test_aggregate_temporal_attention_sums_to_one():
    rng = np.random.default_rng(6)
    raw = rng.random((50, 5))
    beta = raw / raw.sum(axis=1, keepdims=True)
    mean = aggregate_temporal_attention(beta)
    assert mean.shape == (5,)
    assert mean.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(mean >= 0)


def test_aggregate_temporal_attention_uniform_for_identical_inputs():
    from alphagraph.autodiff import Tensor
    from alphagraph.model import temporal_pool
    rng = np.random.default_rng(7)
    params = {"t.w": Tensor(rng.normal(size=(6, 3))), "t.b": Tensor(np.zeros(3)),
              "t.v": Tensor(rng.normal(size=3))}
    rows = rng.normal(size=(10, 6))  # ten samples, each the same vector on all five days
    _, beta = temporal_pool(Tensor(np.stack([rows] * 5, axis=1)), params, "t")
    mean = aggregate_temporal_attention(beta.values)
    assert np.allclose(mean, 0.2, atol=1e-12)


def test_aggregate_rejects_empty():
    with pytest.raises(DataError):
        aggregate_temporal_attention(np.zeros((0, 5)))


# ---------------------------------------------------------------------------
# error buckets
# ---------------------------------------------------------------------------

def test_error_buckets_uniform_sizes_deterministic():
    keys = [f"k{i:03d}" for i in range(100)]
    errs = np.ones(100)
    a = news_error_buckets(keys, errs)
    b = news_error_buckets(keys, errs)
    assert len(a.low) == len(a.high) == 5  # ceil(0.05 * 100)
    assert a.low == b.low and a.high == b.high
    assert not a.degenerate


def test_error_buckets_outlier_lands_high():
    keys = list(range(40))
    errs = np.full(40, 0.1)
    errs[17] = 9.9
    buckets = news_error_buckets(keys, errs)
    assert 17 in buckets.high


def test_error_buckets_match_sort_oracle():
    rng = np.random.default_rng(8)
    errs = rng.random(63)
    keys = [f"s{i}" for i in range(63)]
    buckets = news_error_buckets(keys, errs)
    order = np.argsort(errs, kind="stable")
    n_tail = int(np.ceil(0.05 * 63))
    assert set(buckets.low) == {keys[i] for i in order[:n_tail]}
    assert set(buckets.high) == {keys[i] for i in order[-n_tail:]}


def test_error_buckets_degenerate_below_twenty():
    buckets = news_error_buckets(list(range(5)), np.arange(5.0))
    assert buckets.degenerate
    assert buckets.low == [0] and buckets.high == [4]


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
