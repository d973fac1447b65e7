"""Order statistics without numpy.ma: the bits of np.unique, np.median and
np.quantile."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from alphagraph.backtest import QUANTILE_FRACTIONS
from alphagraph.orderstats import distinct, median, quantiles


def _same(got, want) -> bool:
    """Equal bits, or NaN where numpy gives NaN (of any sign or payload)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


# few distinct values, signed zeros and infinities, so that ties are common
_values = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, np.inf, -np.inf])
           | st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(-5, 5)))
def test_distinct_is_np_unique(keys):
    want = np.unique(keys)
    got = distinct(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40),
                  elements=_values | st.just(np.nan)))
def test_median_is_np_median(values):
    with warnings.catch_warnings(), np.errstate(over="ignore"):  # the mean of two huge values
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's for an empty array
        got, want = median(values), np.median(values)
    assert _same(got, want)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 30)),
                  elements=_values),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4) | st.just(
           [1.0 - f for f in QUANTILE_FRACTIONS.values()]))
def test_quantiles_are_np_quantile(values, levels):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, as in numpy
        got, want = quantiles(values, levels), np.quantile(values, levels, axis=1)
    assert _same(got, want)
