"""CBOW training: determinism, topic structure, loss descent, kernels."""

import numpy as np
import pytest

from alphagraph.errors import ConfigError, DataError
from alphagraph.news import build_vocabulary
from alphagraph.word2vec import build_negative_table, encode_corpus, train_cbow


def topic_corpus(seed=0, sentences=120, length=8):
    """Two disjoint topic vocabularies, never mixed inside a sentence."""
    rng = np.random.default_rng(seed)
    topics = [[f"a{i}" for i in range(8)], [f"b{i}" for i in range(8)]]
    corpus = []
    for k in range(sentences):
        words = topics[k % 2]
        corpus.append(list(rng.choice(words, size=length)))
    return corpus


def test_same_seed_bitwise_identical_different_seed_differs():
    corpus = topic_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    a = train_cbow(corpus, vocab, dim=12, epochs=2, seed=5)
    b = train_cbow(corpus, vocab, dim=12, epochs=2, seed=5)
    c = train_cbow(corpus, vocab, dim=12, epochs=2, seed=6)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


def test_topic_separation_cosine():
    corpus = topic_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    emb = train_cbow(corpus, vocab, dim=16, epochs=12, seed=0)

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    a_rows = [emb.vocabulary[f"a{i}"] for i in range(8)]
    b_rows = [emb.vocabulary[f"b{i}"] for i in range(8)]
    within, across = [], []
    for i in a_rows:
        for j in a_rows:
            if i < j:
                within.append(cos(emb.vectors[i], emb.vectors[j]))
    for i in b_rows:
        for j in b_rows:
            if i < j:
                within.append(cos(emb.vectors[i], emb.vectors[j]))
    for i in a_rows:
        for j in b_rows:
            across.append(cos(emb.vectors[i], emb.vectors[j]))
    assert np.mean(within) > np.mean(across)


def test_final_epoch_loss_below_first():
    corpus = topic_corpus(seed=3)
    vocab = build_vocabulary(corpus, min_count=1)
    emb = train_cbow(corpus, vocab, dim=16, epochs=6, seed=1)
    assert emb.epoch_losses[-1] < emb.epoch_losses[0]


def test_vocabulary_smaller_than_negatives_rejected():
    corpus = [["x", "y"] * 10]
    vocab = build_vocabulary(corpus, min_count=1)
    with pytest.raises(ConfigError):
        train_cbow(corpus, vocab, dim=4, negatives=5, seed=0)


def test_empty_vocabulary_rejected():
    with pytest.raises(DataError):
        train_cbow([["only", "rare"]], {}, dim=4, seed=0)


def test_negative_table_deterministic_and_distributed():
    freqs = np.array([100, 10, 1], dtype=np.int64)
    t1 = build_negative_table(freqs, size=10_000)
    t2 = build_negative_table(freqs, size=10_000)
    assert np.array_equal(t1, t2)
    counts = np.bincount(t1, minlength=3)
    assert counts[0] > counts[1] > counts[2] > 0


def test_encode_corpus_drops_oov():
    vocab = {"a": 0, "b": 1}
    tokens, starts = encode_corpus([["a", "zz", "b"], ["b"]], vocab)
    assert tokens.tolist() == [0, 1, 1]
    assert starts.tolist() == [0, 2, 3]
