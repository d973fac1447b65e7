"""CBOW training: determinism, topic structure, loss descent, the minibatch
kernel against its loop form, and the negative stream.

``ref_cbow_epoch`` drives ``helpers.ref_cbow_minibatch``, the loop form of
one minibatch update, over a corpus as ``cbow_epoch`` does.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alphagraph import word2vec
from alphagraph.errors import ConfigError, DataError, NumericalFault
from alphagraph.news import build_vocabulary
from alphagraph.word2vec import (MINIBATCH, MINSTD_A, MINSTD_M, build_negative_table,
                                 encode_corpus, minibatches, seed_to_state, train_cbow)

from helpers import ref_cbow_minibatch


def ref_cbow_epoch(tokens, starts, w_in, w_out, window, negatives, lr, table, rng_state):
    """``cbow_epoch`` in loop form: trainable centers in corpus order, in runs
    of MINIBATCH, each run's negatives drawn one at a time from the scalar
    Park-Miller recurrence, and each run trained by ``ref_cbow_minibatch``."""
    tokens = tokens.tolist()
    centers = []
    for s in range(len(starts) - 1):
        lo, hi = int(starts[s]), int(starts[s + 1])
        for pos in range(lo, hi):
            context = [tokens[q] for q in range(max(pos - window, lo),
                                                min(pos + window + 1, hi)) if q != pos]
            if context:
                centers.append((tokens[pos], context))
    state = rng_state
    loss_sum = 0.0
    n_terms = 0
    for i in range(0, len(centers), MINIBATCH):
        run = centers[i:i + MINIBATCH]
        negs = []
        for center, _ in run:
            negs.append([])
            for _ in range(negatives):
                state = state * MINSTD_A % MINSTD_M
                target = int(table[state % table.shape[0]])
                if target != center:
                    negs[-1].append(target)
        loss, terms = ref_cbow_minibatch(w_in, w_out, [c for c, _ in run],
                                         [ctx for _, ctx in run], negs, lr)
        loss_sum += loss
        n_terms += terms
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
    kwargs = dict(dim=12, window=5, negatives=5, epochs=2, lr=0.025)
    a = train_cbow(corpus, vocab, **kwargs, seed=5)
    b = train_cbow(corpus, vocab, **kwargs, seed=5)
    c = train_cbow(corpus, vocab, **kwargs, seed=6)
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


def test_topic_separation_cosine():
    corpus = topic_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    emb = train_cbow(corpus, vocab, dim=16, window=5, negatives=5, epochs=12, lr=0.025,
                     seed=0)

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
    emb = train_cbow(corpus, vocab, dim=16, window=5, negatives=5, epochs=6, lr=0.025,
                     seed=1)
    assert emb.epoch_losses[-1] < emb.epoch_losses[0]


def test_vocabulary_smaller_than_negatives_rejected():
    corpus = [["x", "y"] * 10]
    vocab = build_vocabulary(corpus, min_count=1)
    with pytest.raises(ConfigError):
        train_cbow(corpus, vocab, dim=4, window=5, negatives=5, epochs=5, lr=0.025, seed=0)


def test_empty_vocabulary_rejected():
    with pytest.raises(DataError):
        train_cbow([["only", "rare"]], {}, dim=4, window=5, negatives=5, epochs=5, lr=0.025,
                   seed=0)


def test_diverging_training_raises_numerical_fault():
    """At lr 1e6 the vectors overflow within a few epochs: train_cbow stops
    there, naming the epoch and the setting to lower, instead of returning
    non-finite vectors."""
    corpus = [["a", "b", "c", "d"], ["b", "c"], ["e"], ["f", "a", "b", "d", "e"], ["c", "f"]] * 3
    vocab = build_vocabulary(corpus, min_count=1)
    with pytest.raises(NumericalFault) as exc:
        train_cbow(corpus, vocab, dim=2, window=2, negatives=2, epochs=20, lr=1e6, seed=0)
    assert "epoch" in str(exc.value) and "word2vec.lr" in str(exc.value)


def test_negative_table_deterministic_and_distributed():
    freqs = np.array([100, 10, 1], dtype=np.int64)
    t1 = build_negative_table(freqs)
    t2 = build_negative_table(freqs)
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


def relative_error(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("dim", [1, 8, 17])
@pytest.mark.parametrize("window,negatives,n_words", [
    (2, 5, 30),   # windows clipped at both sentence ends
    (12, 5, 30),  # a window wider than every sentence
    (3, 5, 6),    # negatives + 1 words: repeated context words, negatives that hit the center
])
def test_cbow_kernel_matches_scalar_reference(monkeypatch, seed, dim, window, negatives,
                                              n_words):
    corpus = ragged_corpus(seed, n_words) + [["w0"], ["w1"]]  # one-token sentences
    if sum(len(s) for s in corpus if len(s) > 1) % MINIBATCH == 0:
        corpus.append(["w0", "w1"])  # a short last minibatch
    vocab = build_vocabulary(corpus, min_count=1)
    assert len(vocab) == n_words
    # at lr 0.5 the second epoch diverges (losses near 11), and a diverging
    # run magnifies the rounding of another summation order past any bound
    kwargs = dict(dim=dim, window=window, negatives=negatives, epochs=2, lr=0.1, seed=seed)
    got = train_cbow(corpus, vocab, **kwargs)
    monkeypatch.setattr(word2vec, "cbow_epoch", ref_cbow_epoch)
    want = train_cbow(corpus, vocab, **kwargs)
    assert relative_error(got.vectors, want.vectors) <= 1e-12
    assert relative_error(got.epoch_losses, want.epoch_losses) <= 1e-12


def test_reference_minibatch_sums_the_rows_that_several_centers_touch():
    """Two centers of one minibatch with the same context words and targets
    change every row by twice what one of them does: both read the weights
    before the minibatch, and their updates add."""
    rng = np.random.default_rng(3)
    w_in, w_out = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    twice_in, twice_out = w_in.copy(), w_out.copy()
    ref_cbow_minibatch(twice_in, twice_out, [0, 0], [[1, 2], [1, 2]], [[1], [1]], 0.3)
    once_in, once_out = w_in.copy(), w_out.copy()
    ref_cbow_minibatch(once_in, once_out, [0], [[1, 2]], [[1]], 0.3)
    assert np.allclose(twice_in - w_in, 2 * (once_in - w_in), rtol=1e-14, atol=0)
    assert np.allclose(twice_out - w_out, 2 * (once_out - w_out), rtol=1e-14, atol=0)


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=12),
       n_words=st.integers(1, 6), negatives=st.integers(1, 4), window=st.integers(1, 3),
       epochs=st.integers(1, 3), seed=st.integers(0, 2**40))
@example(lengths=[3, 1, 2, 4], n_words=1, negatives=2, window=2, epochs=2,
         seed=7)  # one word: every negative equals its center; 9 centers
def test_minibatch_negatives_follow_the_scalar_stream(lengths, n_words, negatives, window,
                                                      epochs, seed):
    """The jump-ahead draws of each minibatch are the scalar recurrence's,
    center by center and epoch after epoch; a negative equal to its center
    uses up its draw and is flagged, and only the last minibatch is short."""
    rng = np.random.default_rng(seed % 2**32)
    tokens = rng.integers(0, n_words, size=sum(lengths))
    starts = np.concatenate([[0], np.cumsum(lengths)])
    table = rng.integers(0, n_words, size=int(rng.integers(1, 50)))
    centers = [int(tokens[p]) for s, n in enumerate(lengths) if n > 1
               for p in range(starts[s], starts[s + 1])]
    state = want = seed_to_state(seed)
    for _ in range(epochs):
        runs = list(minibatches(tokens, starts, window, negatives, table, state, n_words))
        assert [len(r[2]) for r in runs] == [len(centers[i:i + MINIBATCH])
                                            for i in range(0, len(centers), MINIBATCH)]
        targets = np.concatenate([r[2] for r in runs]) if runs else np.empty((0, 1 + negatives))
        keep = np.concatenate([r[3] for r in runs]) if runs else np.empty((0, 1 + negatives))
        for row, center in enumerate(centers):
            assert targets[row, 0] == center and keep[row, 0]
            for k in range(1, negatives + 1):
                want = want * MINSTD_A % MINSTD_M
                assert targets[row, k] == table[want % table.size]
                assert keep[row, k] == (targets[row, k] != center)
        state = runs[-1][4] if runs else state
        assert state == want
