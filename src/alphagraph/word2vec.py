"""CBOW word embeddings with negative sampling.

Training is plain sequential SGD, one center word at a time, single
threaded and fully determined by the seed: negative samples come from a
Park-Miller stream inside the epoch kernel, so a given seed always draws
the same negatives and produces the same embeddings. Each step of the
kernel (context mean, dot product, gradient and weight updates) is one
numpy operation on a whole embedding row; the dot product is a running sum
in dimension order, so the embeddings and losses are bit-identical to
those of the per-dimension scalar loop of earlier releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

NEG_TABLE_SIZE = 100_000
UNIGRAM_POWER = 0.75

# Park-Miller multiplicative congruential generator for the negative samples.
# Kept, rather than np.random, so that the negatives, and therefore every
# stored loss and embedding, stay bit-identical to earlier releases.
MINSTD_M = 2147483647
MINSTD_A = 48271


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


def cbow_epoch(tokens, starts, w_in, w_out, window, negatives, lr, table, rng_state):
    """One pass over the corpus; returns (loss_sum, n_terms, new_rng_state).

    ``tokens`` is the flattened token-id array, ``starts`` the sentence
    offsets (len = n_sentences + 1). Updates w_in / w_out in place.
    """
    dim = w_in.shape[1]
    tsize = table.shape[0]
    # Python ints index lists faster than numpy scalars index arrays
    tokens = tokens.tolist()
    table = table.tolist()
    state = rng_state
    loss_sum = 0.0
    n_terms = 0
    for s in range(starts.shape[0] - 1):
        lo = starts[s]
        hi = starts[s + 1]
        for pos in range(lo, hi):
            center = tokens[pos]
            context = [tokens[q] for q in range(max(pos - window, lo),
                                                min(pos + window + 1, hi)) if q != pos]
            if not context:
                continue
            n_ctx = len(context)
            # context mean
            h = np.zeros(dim)
            for word in context:
                h += w_in[word]
            h /= n_ctx
            grad_h = np.zeros(dim)
            # positive target then `negatives` sampled targets
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
                row = w_out[target]
                # summed left to right, as the scalar kernel did: np.dot, np.sum
                # and (from Python 3.12) sum() add in another order and move
                # the last bits
                dot = (h * row).cumsum()[-1]
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
                # grad_h reads w_out[target] before its update
                grad_h += g * row
                row -= g * h
            step = grad_h * (1.0 / n_ctx)
            for word in context:
                w_in[word] -= step
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

    The context window is fixed (no random shrinking) to keep the update
    sequence reproducible. Per-epoch averaged negative-sampling losses are
    recorded on the result for inspection.
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
    w_in = (rng.random((n_vocab, dim)) - 0.5) / dim
    w_out = np.zeros((n_vocab, dim))
    state = seed_to_state(seed)
    losses = []
    for _ in range(epochs):
        loss_sum, n_terms, state = cbow_epoch(
            tokens, starts, w_in, w_out, int(window), int(negatives),
            float(lr), table, state)
        losses.append(loss_sum / max(n_terms, 1))
    return WordEmbeddingSet(dict(vocabulary), w_in, losses)
