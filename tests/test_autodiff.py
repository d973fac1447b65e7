"""Gradient and contract tests for the reverse-mode engine."""

import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphagraph import autodiff as ad
from alphagraph import nn
from alphagraph.autodiff import Tape, Tensor
from alphagraph.embeddings import attention_representation
from alphagraph.errors import NumericalFault, ShapeError

from helpers import (add, gate_cols, gradient_check, mean, mul, mul_rows, scale, sigmoid,
                     stack_rows, take_row)


def t(values, grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# Forward-value examples
# ---------------------------------------------------------------------------

def test_relu_definition():
    out = ad.relu(t([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.values, [0.0, 0.0, 2.0])


def test_softmax_uniform_on_zero_vector():
    out = ad.softmax(t(np.zeros((1, 4))))
    assert np.allclose(out.values, 0.25, atol=1e-15)


def test_softmax_sums_to_one_and_shift_invariant():
    x = np.array([[0.3, -1.2, 2.5, 0.0]])
    a = ad.softmax(t(x)).values
    b = ad.softmax(t(x + 17.3)).values
    assert abs(a.sum() - 1.0) <= 1e-12
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
       st.floats(-50, 50))
def test_softmax_shift_invariance_property(xs, shift):
    x = np.asarray([xs])
    a = ad.softmax(t(x)).values
    b = ad.softmax(t(x + shift)).values
    assert abs(a.sum() - 1.0) <= 1e-12
    assert np.allclose(a, b, atol=1e-12)


def _sigmoid_exp_form(v):
    """The split exp form sigmoid was evaluated with before the tanh form."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_tanh_form_matches_exp_form():
    x = np.linspace(-50.0, 50.0, 200_001)
    assert np.max(np.abs(sigmoid(t(x)).values - _sigmoid_exp_form(x))) <= 4.5e-16


def test_sigmoid_saturates_exactly_without_warning():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = sigmoid(t([-1000.0, 1000.0])).values
    assert out[0] == 0.0 and out[1] == 1.0


def test_sigmoid_extreme_inputs_no_overflow():
    out = sigmoid(t([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(out.values))
    assert out.values[0] == pytest.approx(0.0, abs=1e-12)
    assert out.values[2] == pytest.approx(1.0, abs=1e-12)


def test_softmax_large_inputs_guarded_by_max_subtraction():
    out = ad.softmax(t([[800.0, 799.0, -800.0]]))
    assert np.all(np.isfinite(out.values))
    assert out.values.sum() == pytest.approx(1.0, abs=1e-12)


def test_mean_and_sq_error_values():
    assert float(mean(t([1.0, 2.0, 3.0])).values) == pytest.approx(2.0)
    assert float(ad.sq_error(t([1.0, 1.0]), np.zeros(2)).values) == pytest.approx(1.0)


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError) as exc:
        add(t(np.zeros(3)), t(np.zeros(4)))
    assert "(3,)" in str(exc.value) and "(4,)" in str(exc.value)


def test_non_finite_forward_raises_fault():
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalFault):
            mul(t([1e308]), t([1e308]))


# ---------------------------------------------------------------------------
# Per-primitive finite-difference checks
# ---------------------------------------------------------------------------

def _fd_case(build, params, seed, tol=1e-6):
    err = gradient_check(build, params, h=1e-5, seed=seed)
    assert err <= tol, f"max relative error {err}"


@pytest.mark.parametrize("seed", range(3))
def test_affine_backward_matches_fd(seed):
    rng = np.random.default_rng(seed)
    x, w, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 5))), t(rng.normal(size=5))
    _fd_case(lambda: mean(ad.affine(x, w, b)), [x, w, b], seed, tol=1e-7)


@pytest.mark.parametrize("op", [ad.relu, ad.tanh, sigmoid])
def test_elementwise_backward_matches_fd(op):
    rng = np.random.default_rng(1)
    # keep relu inputs away from the kink
    x = t(rng.normal(size=7) + np.sign(rng.normal(size=7)) * 0.2)
    _fd_case(lambda: mean(op(x)), [x], 0)


def test_softmax_backward_matches_fd():
    rng = np.random.default_rng(2)
    x = t(rng.normal(size=(1, 6)))
    w = rng.normal(size=6)
    _fd_case(lambda: mean(ad.matmul(ad.softmax(x), Tensor(w))), [x], 0)


@pytest.mark.parametrize("shapes", [((3, 4), (4, 5)), ((3, 4), (4,)), ((1, 4), (4, 5)),
                                    ((1, 4), (4,))])
def test_matmul_backward_matches_fd(shapes):
    rng = np.random.default_rng(3)
    a, b = t(rng.normal(size=shapes[0])), t(rng.normal(size=shapes[1]))
    _fd_case(lambda: mean(ad.matmul(a, b)), [a, b], 0)


@pytest.mark.parametrize("op, args", [
    ("softmax", [(4,)]), ("softmax", [(2, 3, 4)]), ("matmul", [(4,), (4, 5)]),
    ("matmul", [(4,), (4,)]), ("affine", [(4,), (4, 5), (5,)]),
    ("add_bias", [(3, 5), (5,)]), ("add_bias", [(3,), (3,)])])
def test_layer_primitives_take_only_the_ranks_the_model_uses(op, args):
    with pytest.raises(ShapeError):
        getattr(ad, op)(*(t(np.ones(shape)) for shape in args))


@pytest.mark.parametrize("zx, windows, u", [
    ((3, 2, 8), [[0, 1]], (2, 8)), ((3, 8), np.zeros((3, 0)), (2, 8)),
    ((3, 8), [0, 1, 2], (2, 8)), ((3, 7), [[0, 1]], (2, 8)), ((3, 8), [[0, 1]], (2, 7)),
    ((3, 8), [[0, 1]], (8,)), ((3, 12), [[0, 1]], (2, 8)), ((3, 8), [[0, 3]], (2, 8)),
    ((3, 8), [[-1, 0]], (2, 8))],
    ids=["3-D rows", "T=0", "1-D windows", "rows not 4H", "u not (H, 4H)", "1-D u",
         "rows wider than 4H", "cell past the rows", "negative cell"])
def test_lstm_rejects_bad_shapes_and_cells(zx, windows, u):
    with pytest.raises(ShapeError):
        ad.lstm(t(np.ones(zx)), np.asarray(windows), t(np.ones(u)))


def test_structural_primitives_backward_matches_fd():
    rng = np.random.default_rng(4)
    m = t(rng.normal(size=(5, 3)))
    s = t(rng.normal(size=4))
    v1, v2 = t(rng.normal(size=3)), t(rng.normal(size=3))
    idx = np.array([0, 2, 2, 4])

    def build():
        g = ad.gather_rows(m, idx)             # (4, 3)
        g = mul_rows(g, s)                     # rows scaled
        c = ad.concat([take_row(m, 1), v1, v2], axis=0)
        st_ = stack_rows([v1, v2])
        return add(mean(g), add(mean(c), mean(st_)))

    _fd_case(build, [m, s, v1, v2], 0)


def test_reshape_backward_matches_fd():
    rng = np.random.default_rng(7)
    m = t(rng.normal(size=(2, 3, 4)))
    probe = Tensor(rng.normal(size=(6, 4)))
    _fd_case(lambda: mean(ad.tanh(mul(ad.reshape(m, (6, 4)), probe))), [m], 0)
    with pytest.raises(ShapeError):
        ad.reshape(m, (5, 5))


def test_gather_rows_with_2d_index_backward_matches_fd():
    rng = np.random.default_rng(8)
    m = t(rng.normal(size=(5, 3)))
    idx = np.array([[0, 2], [2, 4], [1, 1]])
    assert ad.gather_rows(m, idx).shape == (3, 2, 3)
    _fd_case(lambda: mean(ad.tanh(ad.gather_rows(m, idx))), [m], 0)


def test_gathers_with_repeated_rows_accumulate_matches_fd():
    """Two gathers of one matrix, each reading some rows several times: the
    second scatter adds into the gradient the first left."""
    rng = np.random.default_rng(14)
    m = t(rng.normal(size=(4, 3)))
    probe = Tensor(rng.normal(size=(2, 3, 3)))

    def build():
        a = ad.gather_rows(m, np.array([[3, 0, 3], [0, 0, 1]]))
        b = ad.gather_rows(m, np.array([[1, 1, 3], [3, 2, 1]]))
        return mean(ad.tanh(add(mul(a, probe), b)))

    _fd_case(build, [m], 0)


@pytest.mark.parametrize("seed", range(5))
def test_scatter_rows_equals_add_at_into_zeros(seed):
    rng = np.random.default_rng(seed)
    n, width, k = 6, 4, 40
    index = rng.integers(0, n - 1, size=k)  # repeats, and one row never hit
    rows = rng.normal(size=(k, width)) * 10.0 ** rng.integers(-8, 8, size=(k, 1))
    expected = np.zeros((n, width))
    np.add.at(expected, index, rows)
    assert np.array_equal(ad.scatter_rows(index, rows, n), expected)
    # an index of any shape with its rows in the same order
    assert np.array_equal(ad.scatter_rows(index.reshape(5, 8), rows.reshape(5, 8, width), n),
                          expected)


def test_weighted_sum_matches_loop_and_fd():
    rng = np.random.default_rng(9)
    seq, w = t(rng.normal(size=(3, 4, 5))), t(rng.normal(size=(3, 4)))
    expected = sum(seq.values[:, k] * w.values[:, k, None] for k in range(4))
    assert np.array_equal(ad.weighted_sum(seq, w).values, expected)
    _fd_case(lambda: mean(ad.tanh(ad.weighted_sum(seq, w))), [seq, w], 0)
    with pytest.raises(ShapeError):
        ad.weighted_sum(seq, t(np.ones((3, 5))))


def _lstm_step_by_gates(z, c_prev):
    """One LSTM step spelled out with one primitive per gate."""
    H = z.shape[-1] // 4
    i, f, g, o = (z.values[..., k * H:(k + 1) * H] for k in range(4))
    c = add(mul(sigmoid(t(f)), c_prev), mul(sigmoid(t(i)), ad.tanh(t(g))))
    return mul(sigmoid(t(o)), ad.tanh(c)), c


def _sequence_rows(zx):
    """(N, T, 4H) pre-activations as N*T cell rows and their (N, T) windows."""
    N, T, width = zx.shape
    return zx.reshape(N * T, width), np.arange(N * T).reshape(N, T)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_equals_per_gate_steps(reverse):
    rng = np.random.default_rng(10)
    N, T, H, U = 3, 4, 2, 5
    zx, u = rng.normal(size=(U, 4 * H)), rng.normal(size=(H, 4 * H))
    windows = rng.integers(0, U, size=(N, T))
    out = ad.lstm(t(zx), windows, t(u), reverse).values
    h, c = None, t(np.zeros((N, H)))  # zero initial state
    for step in range(T - 1, -1, -1) if reverse else range(T):
        z = zx[windows[:, step]] if h is None else zx[windows[:, step]] + h.values @ u
        h, c = _lstm_step_by_gates(t(z), c)
        assert np.array_equal(out[:, step], h.values)


@pytest.mark.parametrize("gate,step", [("i", 0), ("g", 0), ("o", 0), ("i", 2), ("f", 2),
                                       ("g", 2), ("o", 2)])
def test_lstm_non_finite_state_raises_fault(gate, step):
    """A NaN in a gate that a step uses makes c or h non-finite (an o gate
    alone leaves c finite); the first step has no forget gate to use."""
    zx = np.random.default_rng(12).normal(size=(2, 3, 8))
    zx[1, step, gate_cols(gate, 2)] = np.nan
    with pytest.raises(NumericalFault):
        ad.lstm(t(_sequence_rows(zx)[0]), _sequence_rows(zx)[1], t(np.zeros((2, 8))))


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_backward_matches_fd(reverse):
    rng = np.random.default_rng(11)
    zx, u = t(rng.normal(size=(6, 8))), t(rng.normal(scale=0.5, size=(2, 8)))
    windows = np.arange(6).reshape(2, 3)
    probe = Tensor(rng.normal(size=(2, 3, 2)))
    _fd_case(lambda: mean(mul(ad.lstm(zx, windows, u, reverse), probe)), [zx, u], 0)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_backward_with_repeated_cells_matches_fd(reverse):
    """Overlapping windows, as consecutive anchors of one stock give, and a
    cell read twice by one sequence: every read adds into the cell's row."""
    rng = np.random.default_rng(15)
    zx, u = t(rng.normal(size=(5, 8))), t(rng.normal(scale=0.5, size=(2, 8)))
    windows = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [4, 0, 4]])
    probe = Tensor(rng.normal(size=(4, 3, 2)))
    _fd_case(lambda: mean(mul(ad.lstm(zx, windows, u, reverse), probe)), [zx, u], 0)


def test_batched_attention_matches_per_stock_and_fd():
    rng = np.random.default_rng(13)
    e = t(rng.normal(size=(6, 3)))
    aw, ab, av = t(rng.normal(scale=0.5, size=(6, 4))), t(np.zeros(4)), t(rng.normal(size=4))
    idx = np.array([[1, 3, 4], [2, 5, 0], [0, 4, 1]])

    def batched():
        return attention_representation(ad.gather_rows(e, [0, 1, 2]), ad.gather_rows(e, idx),
                                        aw, ab, av)

    rep, weights = batched()
    for u, nbrs in enumerate(idx):
        r, w = attention_representation(ad.gather_rows(e, [u]), ad.gather_rows(e, [nbrs]),
                                        aw, ab, av)
        assert np.allclose(rep.values[u], r.values[0], rtol=0, atol=1e-15)
        assert np.allclose(weights.values[u], w.values[0], rtol=0, atol=1e-15)
    _fd_case(lambda: mean(ad.tanh(batched()[0])), [e, aw, ab, av], 0)


def test_sq_error_backward_matches_fd():
    rng = np.random.default_rng(6)
    pred = t(rng.normal(size=8))
    target = rng.normal(size=8)
    _fd_case(lambda: ad.sq_error(pred, target), [pred], 0)


# ---------------------------------------------------------------------------
# Tape semantics
# ---------------------------------------------------------------------------

def test_gradient_accumulation_is_additive():
    x = t([2.0])
    with Tape() as tape:
        loss = add(mul(x, x), scale(x, 3.0))  # x^2 + 3x
        loss = mean(loss)
        tape.backward(loss)
    assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)


def test_backward_of_sum_equals_sum_of_backwards():
    rng = np.random.default_rng(7)
    w = t(rng.normal(size=(3, 3)))
    x1, x2 = rng.normal(size=3), rng.normal(size=3)

    def loss_for(x):
        return mean(ad.tanh(ad.matmul(w, Tensor(x))))

    w.zero_grad()
    with Tape() as tape:
        total = add(loss_for(x1), loss_for(x2))
        tape.backward(total)
    g_sum = w.grad.copy()

    separate = np.zeros_like(g_sum)
    for x in (x1, x2):
        w.zero_grad()
        with Tape() as tape:
            tape.backward(loss_for(x))
        separate += w.grad
    assert np.allclose(g_sum, separate, atol=1e-12)


def test_no_tape_means_no_recording():
    x = t([1.0, 2.0])
    out = ad.tanh(x)
    assert out.requires_grad is False
    assert out.grad is None


def test_backward_requires_scalar_loss():
    x = t([1.0, 2.0])
    with Tape() as tape:
        y = ad.tanh(x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def _backward_keeping_every_record(tape, loss):
    """``Tape.backward`` without dropping anything: every record, and so
    every intermediate output and its gradient, stays on the tape."""
    loss.ensure_grad()
    loss.grad += 1.0
    for out, backward_fn in reversed(tape._records):
        if out.grad is not None:
            backward_fn(out.grad)


def test_backward_drops_each_record_once_run():
    """An intermediate output is freed by the time backward returns, len(tape)
    still counts the forward's records, and the gradients are those of a
    backward that keeps every record, bit for bit."""
    x, labels = np.random.default_rng(11).normal(size=(3, 2, 3)), np.array([0.5, -1.0, 2.0])

    def run(backward):
        params = _lstm_params(np.random.default_rng(5), 3, 4)
        params["head"] = t(np.random.default_rng(6).normal(size=8))
        with Tape() as tape:
            h = _lstm_seq(Tensor(x), params)  # (3, 2, 4)
            loss = ad.sq_error(ad.matmul(ad.reshape(h, (3, 8)), params["head"]), labels)
            h, n_records = weakref.ref(h.values), len(tape)  # a Tensor takes no weakref
            backward(tape, loss)
        return h() is None, n_records, len(tape), {k: p.grad for k, p in params.items()}

    freed, n_records, after, grads = run(Tape.backward)
    assert freed
    assert after == n_records == 5  # affine, lstm, reshape, matmul, sq_error
    kept_freed, _, _, kept = run(_backward_keeping_every_record)
    assert not kept_freed
    assert grads.keys() == kept.keys()
    for name, g in grads.items():
        assert g.tobytes() == kept[name].tobytes(), name


# ---------------------------------------------------------------------------
# gradient_check contract
# ---------------------------------------------------------------------------

def test_gradient_check_linear_function_near_exact():
    rng = np.random.default_rng(8)
    w = t(rng.normal(size=(1, 6)))
    c = rng.normal(size=6)
    # central differences are exact on linear functions for any h; a larger
    # step keeps float cancellation below the 1e-10 bar
    err = gradient_check(lambda: mean(ad.matmul(w, Tensor(c))), [w], h=1e-3)
    assert err <= 1e-10


def test_gradient_check_square_at_one():
    x = t([1.0])
    err = gradient_check(lambda: mean(mul(x, x)), [x], h=1e-5)
    # numeric derivative of x^2 at 1 is exact to O(h^2); analytic is 2.0
    assert err <= 1e-9


# ---------------------------------------------------------------------------
# LSTM / BiLSTM
# ---------------------------------------------------------------------------

def _lstm_params(rng, in_dim, hidden, prefix="cell"):
    params = {}
    nn.init_lstm_params(rng, in_dim, hidden, params, prefix)
    return params


def _lstm_seq(x, params, reverse=False, prefix="cell"):
    """One LSTM direction over (N, T, in_dim) inputs on the fused
    ``{prefix}.{w,u,b}`` parameters, from the zero state."""
    N, T, in_dim = x.shape
    zx = ad.affine(ad.reshape(x, (N * T, in_dim)), params[f"{prefix}.w"],
                   params[f"{prefix}.b"])
    return ad.lstm(zx, np.arange(N * T).reshape(N, T), params[f"{prefix}.u"], reverse)


def test_lstm_zero_weights_give_zero_output():
    params = _lstm_params(np.random.default_rng(0), 3, 4)
    for p in params.values():
        p.values[:] = 0.0
    h = _lstm_seq(Tensor(np.random.default_rng(1).normal(size=(2, 3, 3))), params)
    assert np.array_equal(h.values, np.zeros((2, 3, 4)))


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_saturated_gates_copy_cell_state(reverse):
    """Open output gates, then forget ~ 1 and input ~ 0 on the second step:
    its cell state, and so its hidden state, is the first step's."""
    rng = np.random.default_rng(1)
    u = _lstm_params(rng, 3, 4)["cell.u"]
    zx = rng.normal(size=(2, 2, 16))
    first, second = (1, 0) if reverse else (0, 1)
    zx[:, :, gate_cols("o", 4)] = 20.0
    zx[:, second, gate_cols("f", 4)] = 20.0
    zx[:, second, gate_cols("i", 4)] = -20.0
    h = ad.lstm(Tensor(_sequence_rows(zx)[0]), _sequence_rows(zx)[1], u, reverse).values
    assert np.max(np.abs(h[:, first])) > 0.1
    assert np.allclose(h[:, second], h[:, first], atol=1e-6)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_backward_matches_fd(seed, reverse):
    rng = np.random.default_rng(seed)
    params = _lstm_params(rng, 3, 4)
    x = t(rng.normal(size=(2, 3, 3)))
    probe = Tensor(rng.normal(size=(2, 3, 4)))

    def build():
        return mean(mul(_lstm_seq(x, params, reverse), probe))

    _fd_case(build, list(params.values()) + [x], seed, tol=1e-5)


def test_init_lstm_params_concatenates_per_gate_draws():
    """Gate by gate, a Glorot (in, H) then (H, H) draw, fused in i, f, g, o
    order; the bias is 1 on the forget block and 0 elsewhere."""
    in_dim, hidden = 3, 4
    rng = np.random.default_rng(5)
    params = _lstm_params(rng, in_dim, hidden)
    ref = np.random.default_rng(5)
    draws = [(nn.glorot_uniform(ref, in_dim, hidden), nn.glorot_uniform(ref, hidden, hidden))
             for _ in range(4)]
    assert sorted(params) == ["cell.b", "cell.u", "cell.w"]
    assert params["cell.w"].shape == (in_dim, 4 * hidden)
    assert params["cell.u"].shape == (hidden, 4 * hidden)
    for gate, (w, u) in zip("ifgo", draws):
        cols = gate_cols(gate, hidden)
        assert np.array_equal(params["cell.w"].values[:, cols], w)
        assert np.array_equal(params["cell.u"].values[:, cols], u)
    expected_b = np.zeros(4 * hidden)
    expected_b[gate_cols("f", hidden)] = 1.0
    assert np.array_equal(params["cell.b"].values, expected_b)
    # later parameters draw from the same point of the stream as before
    assert rng.bit_generator.state == ref.bit_generator.state


def test_bilstm_output_shape_and_t1():
    rng = np.random.default_rng(2)
    params = {}
    nn.init_bilstm_params(rng, 3, 4, params, "b")
    out = nn.bilstm(Tensor(rng.normal(size=(1, 3))), [[0]], params, "b")
    assert out.shape == (1, 1, 8)
    assert np.all(np.isfinite(out.values))


@pytest.mark.parametrize("shape,windows", [((2, 3), np.zeros((1, 0))), ((1, 2, 3), [[0, 1]]),
                                           ((2, 3), [0, 1]), ((2, 3), [[0, 2]])],
                         ids=["empty", "3-D", "1-D windows", "cell past the rows"])
def test_bilstm_bad_input_rejected(shape, windows):
    params = {}
    nn.init_bilstm_params(np.random.default_rng(0), 3, 4, params, "b")
    with pytest.raises(ShapeError):
        nn.bilstm(Tensor(np.zeros(shape)), np.asarray(windows), params, "b")


def test_bilstm_palindrome_with_mirrored_parameters():
    rng = np.random.default_rng(3)
    params = {}
    nn.init_bilstm_params(rng, 3, 4, params, "b")
    # mirror: backward direction shares the forward parameters
    for piece in ("w", "u", "b"):
        params[f"b.bwd.{piece}"].values = params[f"b.fwd.{piece}"].values.copy()
    cells = rng.normal(size=(3, 3))
    windows = np.array([[0, 1, 2, 1, 0]])  # palindrome of length 5
    T = windows.shape[1]
    out = nn.bilstm(Tensor(cells), windows, params, "b").values[0]
    for i in range(T):
        fwd_at_i = out[i, :4]
        bwd_at_mirror = out[T - 1 - i, 4:]
        assert np.allclose(fwd_at_i, bwd_at_mirror, atol=1e-12)


@pytest.mark.parametrize("seed", range(2))
def test_bilstm_backward_matches_fd(seed):
    rng = np.random.default_rng(seed + 10)
    params = {}
    nn.init_bilstm_params(rng, 2, 3, params, "b")
    seq = t(rng.normal(size=(3, 2)))
    windows = np.array([[0, 1, 2], [1, 2, 0], [2, 2, 1]])

    def build():
        return mean(nn.bilstm(seq, windows, params, "b"))

    _fd_case(build, list(params.values()) + [seq], seed, tol=1e-5)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_parameters_unchanged():
    p = {"w": t(np.array([1.0, -2.0]))}
    opt = nn.Adam(p, lr=0.1)
    p["w"].grad = np.zeros(2)
    before = p["w"].values.copy()
    for _ in range(5):
        opt.step()
    assert np.array_equal(p["w"].values, before)


def test_adam_first_step_magnitude_close_to_lr():
    p = {"w": t(np.array([0.0, 0.0]))}
    opt = nn.Adam(p, lr=1e-3)
    p["w"].grad = np.array([0.5, -2.0])
    opt.step()
    # bias-corrected ratio is 1 at t=1, so |update| ~ lr per coordinate
    assert np.allclose(np.abs(p["w"].values), 1e-3, rtol=1e-6)
    assert np.sign(p["w"].values[0]) == -1.0 and np.sign(p["w"].values[1]) == 1.0


def test_adam_two_runs_bitwise_identical():
    def run():
        rng = np.random.default_rng(0)
        p = {"w": t(rng.normal(size=4))}
        opt = nn.Adam(p, lr=1e-2)
        for k in range(20):
            p["w"].grad = np.sin(np.arange(4) + k)
            opt.step()
        return p["w"].values.copy()

    assert np.array_equal(run(), run())
