"""Stock embedding factorization, kNN digraph, and neighbor attention."""

import numpy as np
import pytest

from alphagraph import autodiff as ad
from alphagraph import nn
from alphagraph.autodiff import Tensor
from alphagraph.artifacts import _save_graph
from alphagraph.embeddings import (StockEmbeddingSet, attention_representation,
                                   build_knn_graph, glove_loss_and_grads, glove_weight,
                                   train_glove)
from alphagraph.errors import DataError, NumericalFault, ShapeError
from alphagraph.news import CooccurrenceMatrix

from helpers import gradient_check, mean


def planted_two_clusters(n_per=2, within=100, cross=1):
    n = 2 * n_per
    counts = {}
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < n_per) == (j < n_per)
            counts[(i, j)] = within if same else cross
    return CooccurrenceMatrix(tuple(f"S{i}" for i in range(n)), counts)


def random_cooccurrence(n, seed=0, max_count=50):
    rng = np.random.default_rng(seed)
    counts = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = int(rng.integers(0, max_count))
            if c > 0:
                counts[(i, j)] = c
    return CooccurrenceMatrix(tuple(f"S{i}" for i in range(n)), counts)


# ---------------------------------------------------------------------------
# weighting function
# ---------------------------------------------------------------------------

def test_glove_weight_saturates_at_xmax():
    assert glove_weight(100.0, 100.0, 0.75) == 1.0
    assert glove_weight(250.0, 100.0, 0.75) == 1.0


def test_glove_weight_zero_count():
    assert glove_weight(0.0, 100.0, 0.75) == 0.0


def test_glove_weight_direct_evaluation():
    assert glove_weight(100.0 / 16.0, 100.0, 0.75) == pytest.approx(0.125, abs=1e-12)


def test_glove_weight_monotone():
    xs = np.linspace(0, 150, 40)
    ws = [glove_weight(x, 100.0, 0.75) for x in xs]
    assert all(b >= a for a, b in zip(ws, ws[1:]))


# ---------------------------------------------------------------------------
# factorization training
# ---------------------------------------------------------------------------

def test_two_stock_single_constraint_exact_fit():
    x = CooccurrenceMatrix(("A", "B"), {(0, 1): 1})
    emb = train_glove(x, dim=4, x_max=1.0, epochs=400, lr=0.05, seed=0)
    fit = emb.vectors[0] @ emb.vectors[1] + emb.biases[0] + emb.biases[1]
    assert fit == pytest.approx(np.log(1.0), abs=1e-6)
    assert emb.loss_trace[-1] <= 1e-10


def test_planted_two_cluster_monotone_descent_and_separation():
    x = planted_two_clusters()
    emb = train_glove(x, dim=8, epochs=200, lr=0.05, seed=0)
    trace = emb.loss_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    n = x.n
    within, cross = [], []
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(emb.vectors[i] - emb.vectors[j])
            same = (i < n // 2) == (j < n // 2)
            (within if same else cross).append(d)
    assert max(within) < min(cross)


def test_gradient_matches_finite_differences_random_4_stock():
    x = random_cooccurrence(4, seed=1)
    rows, cols, vals = x.to_coo()
    logx = np.log(vals)
    wgt = np.array([glove_weight(v, 100.0, 0.75) for v in vals])
    rng = np.random.default_rng(2)
    emb = rng.normal(scale=0.5, size=(4, 3))
    bias = rng.normal(scale=0.1, size=4)
    _, g_emb, g_bias = glove_loss_and_grads(emb, bias, rows, cols, logx, wgt)

    h = 1e-6
    worst = 0.0
    for arr, grad in ((emb, g_emb), (bias, g_bias)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            fp = glove_loss_and_grads(emb, bias, rows, cols, logx, wgt)[0]
            flat[k] = orig - h
            fm = glove_loss_and_grads(emb, bias, rows, cols, logx, wgt)[0]
            flat[k] = orig
            numeric = (fp - fm) / (2 * h)
            worst = max(worst, abs(numeric - gflat[k]) / max(abs(numeric), abs(gflat[k]), 1e-8))
    assert worst <= 1e-6


def loop_loss_and_grads(emb, bias, rows, cols, logx, wgt):
    """Pair-by-pair reference for glove_loss_and_grads."""
    g_emb, g_bias, loss = np.zeros_like(emb), np.zeros_like(bias), 0.0
    for i, j, lx, w in zip(rows, cols, logx, wgt):
        resid = float(emb[i] @ emb[j]) + bias[i] + bias[j] - lx
        loss += w * resid * resid
        coef = 2.0 * w * resid
        g_emb[i] += coef * emb[j]
        g_emb[j] += coef * emb[i]
        g_bias[i] += coef
        g_bias[j] += coef
    return loss, g_emb, g_bias


def test_epoch_kernel_matches_vectorized_reference():
    """One epoch is the seeded init minus lr times the vectorized gradient,
    which matches the pair-by-pair loop up to summation order."""
    x = random_cooccurrence(6, seed=3)
    rows, cols, vals = x.to_coo()
    logx = np.log(vals)
    wgt = np.array([glove_weight(v, 100.0, 0.75) for v in vals])
    dim, lr = 5, 0.01
    scale = 1.0 / np.sqrt(dim)
    emb = np.random.default_rng(4).uniform(-scale, scale, size=(6, dim))
    bias = np.zeros(6)
    ref_loss, g_emb, g_bias = glove_loss_and_grads(emb, bias, rows, cols, logx, wgt)
    loop_loss, loop_emb, loop_bias = loop_loss_and_grads(emb, bias, rows, cols, logx, wgt)
    assert ref_loss == pytest.approx(loop_loss, rel=1e-12)
    assert np.allclose(g_emb, loop_emb, rtol=0, atol=1e-12)
    assert np.allclose(g_bias, loop_bias, rtol=0, atol=1e-12)
    out = train_glove(x, dim=dim, x_max=100.0, alpha=0.75, epochs=1, lr=lr, seed=4)
    assert out.loss_trace[0] == ref_loss
    assert np.array_equal(out.vectors, emb - lr * g_emb)
    assert np.array_equal(out.biases, bias - lr * g_bias)
    after, _, _ = glove_loss_and_grads(out.vectors, out.biases, rows, cols, logx, wgt)
    assert out.loss_trace[1:] == [after]


@pytest.mark.parametrize("seed", range(5))
def test_gradient_scatter_equals_add_at(seed):
    """The per-stock sums are bit for bit those of np.add.at over the rows,
    then over the cols, of every pair."""
    x = random_cooccurrence(9, seed=seed)
    rows, cols, vals = x.to_coo()
    rng = np.random.default_rng(seed)
    emb, bias = rng.normal(size=(9, 4)), rng.normal(size=9)
    logx, wgt = np.log(vals), rng.uniform(0.1, 1.0, size=vals.size)
    _, g_emb, g_bias = glove_loss_and_grads(emb, bias, rows, cols, logx, wgt)
    coef = 2.0 * wgt * (np.einsum("ij,ij->i", emb[rows], emb[cols]) + bias[rows]
                        + bias[cols] - logx)
    ref_emb, ref_bias = np.zeros_like(emb), np.zeros_like(bias)
    np.add.at(ref_emb, rows, coef[:, None] * emb[cols])
    np.add.at(ref_emb, cols, coef[:, None] * emb[rows])
    np.add.at(ref_bias, rows, coef)
    np.add.at(ref_bias, cols, coef)
    assert np.array_equal(g_emb, ref_emb)
    assert np.array_equal(g_bias, ref_bias)


def test_divergent_step_raises_numerical_fault():
    x = planted_two_clusters()
    with pytest.raises(NumericalFault) as exc:
        train_glove(x, dim=4, epochs=200, lr=5.0, seed=0)
    assert "epoch" in str(exc.value)
    ok = train_glove(x, dim=4, epochs=200, lr=0.05, seed=0)
    assert np.all(np.isfinite(ok.vectors))


def test_all_zero_cooccurrence_rejected():
    x = CooccurrenceMatrix(("A", "B"), {})
    with pytest.raises(DataError) as exc:
        train_glove(x, dim=2, seed=0)
    assert "no co-occurrence signal" in str(exc.value)


def test_training_deterministic_per_seed():
    x = planted_two_clusters()
    a = train_glove(x, dim=4, epochs=50, lr=0.05, seed=9)
    b = train_glove(x, dim=4, epochs=50, lr=0.05, seed=9)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.loss_trace == b.loss_trace


# ---------------------------------------------------------------------------
# kNN digraph
# ---------------------------------------------------------------------------

def emb_from(vectors):
    v = np.asarray(vectors, dtype=float)
    return StockEmbeddingSet(tuple(f"S{i}" for i in range(len(v))), v, np.zeros(len(v)))


def test_knn_complete_digraph_when_k_exceeds():
    emb = emb_from(np.random.default_rng(0).normal(size=(4, 3)))
    g = build_knn_graph(emb, 3)
    for i in range(4):
        assert sorted(g.neighbors[i].tolist()) == sorted(set(range(4)) - {i})


def test_knn_one_dimensional_asymmetry():
    emb = emb_from([[0.0], [1.0], [10.0]])
    g = build_knn_graph(emb, 1)
    assert g.neighbors.tolist() == [[1], [0], [1]]  # C -> B without B -> C


def test_knn_matches_bruteforce_search():
    rng = np.random.default_rng(7)
    emb = emb_from(rng.normal(size=(50, 8)))
    k = 5
    g = build_knn_graph(emb, k)
    assert g.k == k and g.neighbors.shape == g.distances.shape == (50, k)
    assert g.neighbors.dtype == np.intp and g.distances.dtype == np.float64
    for i in range(50):
        dists = [(np.linalg.norm(emb.vectors[i] - emb.vectors[j]), j)
                 for j in range(50) if j != i]
        dists.sort()
        assert g.neighbors[i].tolist() == [j for _, j in dists[:k]]
        assert np.allclose(g.distances[i], [d for d, _ in dists[:k]], rtol=0, atol=1e-12)


def test_knn_tie_break_by_index():
    emb = emb_from([[0.0], [1.0], [-1.0], [2.0]])
    g = build_knn_graph(emb, 2)
    # distances from S0: S1=1, S2=1, S3=2; tie between 1 and 2 broken by index
    assert g.neighbors[0].tolist() == [1, 2]


def test_knn_determinism_and_export(tmp_path):
    rng = np.random.default_rng(8)
    emb = emb_from(rng.normal(size=(10, 4)))
    g1 = build_knn_graph(emb, 3)
    g2 = build_knn_graph(emb, 3)
    assert np.array_equal(g1.neighbors, g2.neighbors)
    assert np.array_equal(g1.distances, g2.distances)
    path = tmp_path / "graph.csv"
    _save_graph(path, g1)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "source,target,rank,distance"
    assert len(lines) == 1 + 10 * 3


def test_knn_rejects_tiny_universe():
    with pytest.raises(DataError):
        build_knn_graph(emb_from([[1.0]]), 1)


# ---------------------------------------------------------------------------
# neighbor attention
# ---------------------------------------------------------------------------

def attention_params(rng, dim, hidden):
    """Neighbor-attention scorer parameters as the model initializes them."""
    params = {}
    nn.init_score_net(rng, 2 * dim, hidden, params, "graph.attn")
    return {k.rsplit(".", 1)[1]: t.values for k, t in params.items()}


def attend(emb, i, nbrs, params):
    rep, weights = attention_representation(
        Tensor(emb.vectors[[i]]), Tensor(emb.vectors[np.array([nbrs], dtype=np.intp)]),
        params["w"], params["b"], params["v"])
    return rep.values[0], weights.values[0]


def test_attention_single_neighbor_is_identity():
    rng = np.random.default_rng(0)
    emb = emb_from(rng.normal(size=(3, 4)))
    params = attention_params(rng, 4, 3)
    c, w = attend(emb, 0, [1], params)
    assert np.allclose(w, [1.0])
    assert np.allclose(c, emb.vectors[1], atol=1e-12)


def test_attention_identical_neighbors_split_evenly():
    rng = np.random.default_rng(1)
    base = rng.normal(size=4)
    emb = emb_from([rng.normal(size=4), base, base.copy()])
    params = attention_params(rng, 4, 3)
    c, w = attend(emb, 0, [1, 2], params)
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)
    assert np.allclose(c, base, atol=1e-12)


def bruteforce_scores(emb, i, nbrs, params):
    return np.asarray([params["v"] @ np.tanh(np.concatenate([emb.vectors[i], emb.vectors[j]])
                                             @ params["w"] + params["b"]) for j in nbrs])


def test_attention_matches_bruteforce_softmax():
    rng = np.random.default_rng(2)
    emb = emb_from(rng.normal(size=(6, 3)))
    params = attention_params(rng, 3, 4)
    nbrs = [2, 4, 5]
    c, w = attend(emb, 0, nbrs, params)
    scores = bruteforce_scores(emb, 0, nbrs, params)
    expected_w = np.exp(scores - scores.max())
    expected_w /= expected_w.sum()
    assert np.allclose(w, expected_w, atol=1e-12)
    assert np.allclose(c, expected_w @ emb.vectors[nbrs], atol=1e-12)


def test_attention_weights_sum_to_one_and_convex_hull():
    rng = np.random.default_rng(3)
    emb = emb_from(rng.normal(size=(8, 5)))
    params = attention_params(rng, 5, 4)
    nbrs = [1, 3, 5, 7]
    c, w = attend(emb, 0, nbrs, params)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.all(w > 0)
    rows = emb.vectors[nbrs]
    assert np.all(c >= rows.min(axis=0) - 1e-12)
    assert np.all(c <= rows.max(axis=0) + 1e-12)


def test_attention_score_shift_invariance():
    rng = np.random.default_rng(4)
    emb = emb_from(rng.normal(size=(5, 3)))
    params = attention_params(rng, 3, 4)
    nbrs = [1, 2, 3]
    _, w = attend(emb, 0, nbrs, params)
    # the softmax of every score shifted by one constant gives the same weights
    shifted = bruteforce_scores(emb, 0, nbrs, params) + 123.456
    e = np.exp(shifted - shifted.max())
    assert np.allclose(w, e / e.sum(), atol=1e-12)


def test_attention_gradients_match_fd():
    rng = np.random.default_rng(5)
    e = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(scale=0.5, size=(6, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    v = Tensor(rng.normal(scale=0.5, size=4), requires_grad=True)
    nbrs = [1, 3, 4]

    def build():
        rep, weights = attention_representation(
            ad.gather_rows(e, [0]), ad.gather_rows(e, [nbrs]), w, b, v)
        return mean(rep)

    err = gradient_check(build, [e, w, b, v], h=1e-5)
    assert err <= 1e-6


def test_attention_empty_neighbor_set_rejected():
    rng = np.random.default_rng(6)
    emb = emb_from(rng.normal(size=(2, 3)))
    params = attention_params(rng, 3, 2)
    with pytest.raises(ShapeError):
        attend(emb, 0, [], params)
