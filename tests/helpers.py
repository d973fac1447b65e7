"""Test-side helpers shared by several test modules.

* ``take_row``, ``mul_rows``, ``stack_rows`` and ``gate_block``: autodiff
  primitives that only the gradient checks and the model parity references
  use; they record on the tape like the package's own primitives.
* ``gate_cols``: the columns of one gate in a fused LSTM parameter.
* ``market_bars``: a synthetic market's bars as :class:`Bar` objects.
"""

from alphagraph.autodiff import Tensor, _as_tensor, _emit, stack
from alphagraph.errors import ShapeError
from alphagraph.market import Bar, BarPanel


def stack_rows(tensors) -> Tensor:
    """Stack K same-length 1-D tensors into a (K, M) matrix."""
    if not tensors or any(_as_tensor(t).ndim != 1 for t in tensors):
        raise ShapeError("stack_rows: expects a non-empty list of 1-D tensors")
    return stack(tensors, axis=0)


def take_row(m, i: int) -> Tensor:
    m = _as_tensor(m)
    if m.ndim != 2:
        raise ShapeError(f"take_row: expected 2-D input, got {m.shape}")

    def backward(g):
        if m.requires_grad:
            m.ensure_grad()
            m.grad[i] += g

    return _emit(m.values[i].copy(), "take_row", (m,), backward)


def mul_rows(m, s) -> Tensor:
    """Scale each row of (N, M) tensor ``m`` by the matching entry of (N,) ``s``."""
    m, s = _as_tensor(m), _as_tensor(s)
    if m.ndim != 2 or s.ndim != 1 or m.shape[0] != s.shape[0]:
        raise ShapeError(f"mul_rows: shapes {m.shape} and {s.shape} incompatible")
    mv, sv = m.values, s.values

    def backward(g):
        if m.requires_grad:
            m.accumulate(g * sv[:, None])
        if s.requires_grad:
            s.accumulate((g * mv).sum(axis=1))

    return _emit(mv * sv[:, None], "mul_rows", (m, s), backward)


def gate_cols(gate: str, hidden: int) -> slice:
    """Columns of gate ``gate`` (one of "ifgo") in a fused LSTM parameter,
    whose last axis holds the i, f, g, o blocks of width ``hidden``."""
    k = "ifgo".index(gate)
    return slice(k * hidden, (k + 1) * hidden)


def gate_block(m, gate: str) -> Tensor:
    """The ``gate_cols`` block of a fused LSTM parameter ``m`` as a tensor."""
    m = _as_tensor(m)
    cols = gate_cols(gate, m.shape[-1] // 4)

    def backward(g):
        if m.requires_grad:
            m.ensure_grad()
            m.grad[..., cols] += g

    return _emit(m.values[..., cols].copy(), "gate_block", (m,), backward)


def market_bars(market) -> list:
    """The bars of a :class:`SyntheticMarket`, date after date, each date's
    stocks in generation order."""
    cols = [market.arrays[f].tolist() for f in BarPanel.FIELDS]
    return [Bar(sym, date, *(col[t][i] for col in cols))
            for t, date in enumerate(market.calendar)
            for i, sym in enumerate(market.symbols)]
