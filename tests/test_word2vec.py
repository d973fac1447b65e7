"""CBOW training: determinism, topic structure, loss descent, kernels.

``ref_cbow_epoch`` is the per-dimension scalar kernel that the row-at-a-time
``cbow_epoch`` replaced, kept here so the two can be compared bit for bit.
"""

import numpy as np
import pytest

from alphagraph import word2vec
from alphagraph.errors import ConfigError, DataError
from alphagraph.news import build_vocabulary
from alphagraph.word2vec import (MINSTD_A, MINSTD_M, build_negative_table, encode_corpus,
                                 train_cbow)


def ref_cbow_epoch(tokens, starts, w_in, w_out, window, negatives, lr, table, rng_state):
    dim = w_in.shape[1]
    tsize = table.shape[0]
    state = rng_state
    loss_sum = 0.0
    n_terms = 0
    grad_h = np.empty(dim)
    for s in range(starts.shape[0] - 1):
        lo = starts[s]
        hi = starts[s + 1]
        for pos in range(lo, hi):
            center = tokens[pos]
            c0 = pos - window
            if c0 < lo:
                c0 = lo
            c1 = pos + window + 1
            if c1 > hi:
                c1 = hi
            n_ctx = (c1 - c0) - 1
            if n_ctx <= 0:
                continue
            h = np.zeros(dim)
            for q in range(c0, c1):
                if q != pos:
                    h += w_in[tokens[q]]
            h /= n_ctx
            for d in range(dim):
                grad_h[d] = 0.0
            for k in range(negatives + 1):
                if k == 0:
                    target = center
                    label = 1.0
                else:
                    state = (state * MINSTD_A) % MINSTD_M
                    target = table[state % tsize]
                    if target == center:
                        continue
                    label = 0.0
                dot = 0.0
                for d in range(dim):
                    dot += h[d] * w_out[target, d]
                if dot >= 0.0:
                    p = 1.0 / (1.0 + np.exp(-dot))
                else:
                    e = np.exp(dot)
                    p = e / (1.0 + e)
                if label > 0.5:
                    loss_sum += -np.log(p + 1e-12)
                else:
                    loss_sum += -np.log(1.0 - p + 1e-12)
                n_terms += 1
                g = (p - label) * lr
                for d in range(dim):
                    grad_h[d] += g * w_out[target, d]
                    w_out[target, d] -= g * h[d]
            inv = 1.0 / n_ctx
            for q in range(c0, c1):
                if q != pos:
                    row = tokens[q]
                    for d in range(dim):
                        w_in[row, d] -= grad_h[d] * inv
    return loss_sum, n_terms, state


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


def ragged_corpus(seed, n_words, sentences=40, max_len=9):
    """Sentences of 1 to ``max_len`` tokens drawn from ``n_words`` words."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_len + 1, size=sentences)
    return [[f"w{i}" for i in rng.integers(0, n_words, size=n)] for n in lengths]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("dim", [1, 8, 17])
@pytest.mark.parametrize("window,negatives,n_words", [
    (2, 5, 30),   # windows clipped at both sentence ends
    (12, 5, 30),  # a window wider than every sentence
    (3, 5, 6),    # negatives + 1 words: negatives often hit the center
])
def test_cbow_kernel_matches_scalar_reference(monkeypatch, seed, dim, window, negatives,
                                              n_words):
    corpus = ragged_corpus(seed, n_words) + [["w0"], ["w1"]]  # one-token sentences
    vocab = build_vocabulary(corpus, min_count=1)
    assert len(vocab) == n_words
    kwargs = dict(dim=dim, window=window, negatives=negatives, epochs=2, lr=0.5, seed=seed)
    got = train_cbow(corpus, vocab, **kwargs)
    monkeypatch.setattr(word2vec, "cbow_epoch", ref_cbow_epoch)
    want = train_cbow(corpus, vocab, **kwargs)
    assert np.array_equal(got.vectors, want.vectors)
    assert got.epoch_losses == want.epoch_losses
