"""CBOW word embeddings with negative sampling.

Training is minibatch SGD (Mikolov et al. 2013, in the HogBatch form of Ji
et al. 2016), single threaded. Each minibatch takes the next
:data:`MINIBATCH` (8) trainable center words in corpus order, each with its
fixed, sentence-clipped context window. Every dot, loss and gradient of the
minibatch is taken from the weights as they stood before it, and the summed
updates are written once into the rows of ``w_in`` and ``w_out`` that it
touched.

Each center draws its negatives from one Park-Miller stream, in the same
order as the sequential trainer of earlier releases: the minibatch's draws
come at once by jump-ahead, and a negative equal to its center uses up its
draw and is skipped. Keeping that stream, rather than ``np.random``, keeps
the first-epoch loss drop of the perfbench news-text corpus within 3.8% of
the sequential trainer's on all 21 stored seeds, inside perfbench's 5%
check. Output is bitwise deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

NEG_TABLE_SIZE = 100_000
UNIGRAM_POWER = 0.75

# Park-Miller multiplicative congruential generator for the negative samples:
# each center gets the draws it got from the sequential trainer.
MINSTD_M = 2147483647
MINSTD_A = 48271

# Center words per minibatch. With the Park-Miller negatives, batch 8 keeps
# the first-epoch loss drop of the perfbench news-text corpus 3.2-3.8% below
# the sequential trainer's on all 21 stored seeds; batch 16 reaches 5.1%.
MINIBATCH = 8


def seed_to_state(seed):
    """Map an arbitrary integer seed onto a valid Park-Miller state."""
    return (int(seed) % (MINSTD_M - 1)) + 1


@dataclass
class WordEmbeddingSet:
    vocabulary: dict  # token -> row index
    vectors: np.ndarray  # (|V|, d_w)
    epoch_losses: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def _powers(count):
    """``MINSTD_A**k % MINSTD_M`` for k = 1..count: ``state * powers[k - 1] %
    MINSTD_M`` is the k-th draw after ``state``. Both factors are below 2**31,
    so the product fits in int64."""
    out = np.empty(count, dtype=np.int64)
    p = 1
    for k in range(count):
        p = p * MINSTD_A % MINSTD_M
        out[k] = p
    return out


def minibatches(tokens, starts, window, negatives, table, rng_state, pad):
    """The index plan of one epoch, one minibatch at a time.

    Yields ``(contexts, n_ctx, targets, keep, state)`` for each run of
    :data:`MINIBATCH` consecutive trainable centers (the last run may be
    shorter); a center is trainable when its sentence has another token.
    ``contexts`` (b, 2 * window) holds the ids of each center's clipped
    window, padded with ``pad``; ``n_ctx`` (b, 1) counts the real ones.
    ``targets`` (b, 1 + negatives) holds the center, then its negatives:
    the next ``negatives`` Park-Miller draws in center order, mapped through
    ``table``. ``keep`` (b, 1 + negatives) is False where a negative equals
    its center: that negative uses up its draw but is not trained.
    ``state`` is the generator state after the minibatch's draws.
    """
    lengths = np.diff(starts)
    # each sentence framed by ``window`` pad ids, so that a fixed window of
    # offsets around a center never reaches another sentence
    at = np.repeat(np.arange(1, lengths.size + 1) * window, lengths)
    at += np.arange(tokens.size)
    framed = np.full(tokens.size + window * (lengths.size + 1), pad, dtype=np.int64)
    framed[at] = tokens
    at = at[np.repeat(lengths > 1, lengths)]
    offsets = np.r_[-window:0, 1:window + 1]
    powers = _powers(MINIBATCH * negatives)
    tsize = table.shape[0]
    state = rng_state
    for i in range(0, at.size, MINIBATCH):
        where = at[i:i + MINIBATCH, None]
        center = framed[where]
        contexts = framed[where + offsets]
        b = center.shape[0]
        draws = state * powers[:b * negatives] % MINSTD_M
        state = int(draws[-1])
        targets = np.concatenate(
            (center, table[draws % tsize].reshape(b, negatives)), axis=1)
        keep = targets != center
        keep[:, 0] = True
        yield contexts, (contexts != pad).sum(axis=1, keepdims=True), targets, keep, state


def _assign(w, ids, before, weight, grad):
    """Write ``before - update`` to the rows ``ids`` (b, m) of ``w``.

    ``before`` holds those rows as they stood before the minibatch. Slot
    (r, j) adds ``weight[r * m + j, r] * grad[r]`` to the update of its
    word, and each slot's update sums those of every slot that holds the
    same word, so a repeated word gets one summed update, written once per
    slot.
    """
    flat = ids.ravel()
    update = np.matmul(flat[:, None] == flat, weight) @ grad
    w[flat] = before.reshape(flat.size, -1) - update


def cbow_epoch(tokens, starts, w_in, w_out, window, negatives, lr, table, rng_state):
    """One pass over the corpus; returns (loss_sum, n_terms, new_rng_state).

    ``tokens`` is the flattened token-id array, ``starts`` the sentence
    offsets (len = n_sentences + 1). ``w_in`` has one row more than the
    vocabulary, a zero row that pads the contexts; ``w_out`` has the
    vocabulary's rows. Both are updated in place, once per minibatch: every
    dot, loss and gradient is taken from the weights as they stood before
    the minibatch, and the summed updates are added to the rows it touched.
    """
    pad = w_in.shape[0] - 1
    # row r * m + j of an owner matrix is column r's one-hot: slot j of center r
    own_ctx = np.repeat(np.eye(MINIBATCH), 2 * window, axis=0)
    own_target = np.repeat(np.eye(MINIBATCH), negatives + 1, axis=0)
    label = np.zeros(negatives + 1)
    label[0] = 1.0
    positive = label > 0.5
    loss_sum = 0.0
    n_terms = 0
    state = rng_state
    for contexts, n_ctx, targets, keep, state in minibatches(
            tokens, starts, window, negatives, table, rng_state, pad):
        x = w_in[contexts]
        h = x.sum(axis=1) / n_ctx  # the pad row is zero
        rows = w_out[targets]
        dot = np.matmul(rows, h[:, :, None])[:, :, 0]
        # the logistic function, without overflow, as exp(-|dot|)
        e = np.exp(-np.abs(dot))
        p = np.where(dot >= 0.0, 1.0, e) / (1.0 + e)
        loss_sum -= float((np.log(np.where(positive, p, 1.0 - p) + 1e-12) * keep).sum())
        n_terms += int(np.count_nonzero(keep))
        g = (p - label) * lr * keep
        grad_h = np.matmul(g[:, None, :], rows)[:, 0, :]
        b = targets.shape[0]
        _assign(w_out, targets, rows, own_target[:g.size, :b] * g.reshape(-1, 1), h)
        _assign(w_in, contexts, x, own_ctx[:contexts.size, :b] / n_ctx.T, grad_h)
        w_in[pad] = 0.0
    return loss_sum, n_terms, state


def build_negative_table(freqs: np.ndarray, size: int = NEG_TABLE_SIZE) -> np.ndarray:
    """Unigram^0.75 sampling table (word2vec convention)."""
    powed = np.power(freqs.astype(np.float64), UNIGRAM_POWER)
    cum = np.cumsum(powed / powed.sum())
    table = np.searchsorted(cum, (np.arange(size) + 0.5) / size)
    return table.astype(np.int64)


def encode_corpus(token_lists, vocabulary):
    """Map sentences to id arrays, dropping out-of-vocabulary tokens."""
    flat: list[int] = []
    starts = [0]
    for toks in token_lists:
        flat.extend(vocabulary[t] for t in toks if t in vocabulary)
        starts.append(len(flat))
    return np.asarray(flat, dtype=np.int64), np.asarray(starts, dtype=np.int64)


def train_cbow(token_lists, vocabulary, dim: int = 400, window: int = 5,
               negatives: int = 5, epochs: int = 5, lr: float = 0.025,
               seed: int = 0) -> WordEmbeddingSet:
    """Train CBOW embeddings over preprocessed sentences.

    Minibatch SGD over runs of :data:`MINIBATCH` consecutive trainable
    centers, each minibatch's gradients taken from the weights before it
    (see the module docstring). The context window is fixed (no random
    shrinking), and the negatives follow one Park-Miller stream seeded by
    ``seed``, so a given seed always gives the same embeddings and losses.
    Per-epoch averaged negative-sampling losses are recorded on the result
    for inspection.
    """
    if not vocabulary:
        raise DataError("train_cbow: empty vocabulary")
    if len(vocabulary) < negatives + 1:
        raise ConfigError(
            f"vocabulary size {len(vocabulary)} is too small for {negatives} negatives")
    tokens, starts = encode_corpus(token_lists, vocabulary)
    if tokens.size == 0:
        raise DataError("train_cbow: corpus has no in-vocabulary tokens")
    n_vocab = len(vocabulary)
    freqs = np.bincount(tokens, minlength=n_vocab)
    table = build_negative_table(freqs)

    rng = np.random.default_rng(seed)
    w_in = np.zeros((n_vocab + 1, dim))
    w_in[:n_vocab] = (rng.random((n_vocab, dim)) - 0.5) / dim
    w_out = np.zeros((n_vocab, dim))
    state = seed_to_state(seed)
    losses = []
    for _ in range(epochs):
        loss_sum, n_terms, state = cbow_epoch(
            tokens, starts, w_in, w_out, int(window), int(negatives),
            float(lr), table, state)
        losses.append(loss_sum / max(n_terms, 1))
    return WordEmbeddingSet(dict(vocabulary), w_in[:n_vocab], losses)
