"""The windowed-variation paths agree bit for bit with a dense reference.

`total_variation_window`, the dyadic `RegressionModel.variation_window` and
the one-pass `variation_check` all read the same jump walk.  The reference
here shares none of it: it visits every adjacent cell pair of the window,
mapped or not, and takes the fsum.  Functions reach beyond 320 cells, carry
a nonzero default, and hold cells beyond 2^62, outside every window or, at
k >= 60, inside them; at those depths the sparse `total_variation_window`
is the reference.  Comparisons are `==`, never approx.
"""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stableseq.estimator import variation_check
from stableseq.partitions import (
    PiecewiseDyadicFn,
    VariationBudget,
    adjacent_jumps,
    total_variation_window,
)
from stableseq.regression import RegressionModel

# repeated values make zero jumps; the wide floats make fsum rounding matter
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.1, 1 / 3, 2.5e-8, 1e6]),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
)


FAR = st.one_of(st.integers(2**62, 2**70), st.integers(-(2**70), -(2**62)))


@st.composite
def step_functions(draw):
    k = draw(st.integers(1, 4))
    reach = 4 << k  # cells out to |x| = 4, beyond the largest window tested
    cells = draw(st.dictionaries(st.integers(-reach, reach), VALUES, max_size=24))
    far = draw(st.dictionaries(FAR, VALUES, max_size=2))  # beyond every window
    return PiecewiseDyadicFn(k, {**cells, **far}, draw(VALUES))


@st.composite
def wide_step_functions(draw):
    # 321 to 400 cells at k = 7, a run with holes starting anywhere in |x| < 4
    values = draw(st.lists(VALUES, min_size=321, max_size=400))
    holes = draw(st.sets(st.integers(0, 399), max_size=8))
    start = draw(st.integers(-4 << 7, (4 << 7) - 400))
    cells = {start + i: v for i, v in enumerate(values) if i not in holes}
    return PiecewiseDyadicFn(7, cells, draw(VALUES))


@st.composite
def deep_step_functions(draw):
    # k >= 60: windows 1..3 reach cell indices beyond 2^62
    k = draw(st.integers(60, 66))
    near = st.integers(-3 << k, 3 << k) | st.sampled_from([0, 1, (1 << k) - 1, 1 << k])
    cells = draw(st.dictionaries(near, VALUES, max_size=24))
    return PiecewiseDyadicFn(k, cells, draw(VALUES))


def dense_variation(fn: PiecewiseDyadicFn, i: int) -> float:
    if fn.k >= 60:  # too many cells to visit; the sparse walk stands in
        return total_variation_window(fn, i)
    span = i << fn.k
    return math.fsum(
        abs(fn.value_at_cell(j + 1) - fn.value_at_cell(j)) for j in range(-span + 1, span)
    )


@given(step_functions(), st.integers(1, 4))
def test_window_variation_equals_dense_reference(fn, i):
    ref = dense_variation(fn, i)
    assert total_variation_window(fn, i) == ref
    assert RegressionModel.from_dyadic(fn).variation_window(i) == ref


@given(wide_step_functions(), st.integers(1, 4))
def test_wide_window_variation_equals_dense_reference(fn, i):
    assert total_variation_window(fn, i) == dense_variation(fn, i)


@given(
    st.one_of(step_functions(), wide_step_functions(), deep_step_functions()),
    st.lists(st.sampled_from(["tie", "above", "below"]), min_size=7),
)
def test_variation_check_equals_per_window_rule(fn, modes):
    # a table budget placed at, just above or below each window's variation,
    # so ties (which must fail) come up often; its last entry covers deeper
    # windows, which at k >= 60 hold no jump beyond window 4
    table = []
    for i in range(1, min(fn.k, 7) + 1):
        quarter = dense_variation(fn, i) / 4.0
        a = {
            "tie": quarter,
            "above": math.nextafter(quarter, math.inf),
            "below": quarter / 2.0,
        }[modes[i - 1]]
        table.append(max([a, 5e-324, *table[-1:]]))
    budget = VariationBudget.from_table(table)
    expect = all(
        dense_variation(fn, i) < 4.0 * budget.alpha(i) for i in range(1, fn.k + 1)
    )
    assert variation_check(fn, budget) == expect


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_jump_fails(value):
    fn = PiecewiseDyadicFn(2, {1: 0.5, 2: value}, 0.0)
    assert not variation_check(fn, VariationBudget.const(math.inf))
    # beyond every window up to k, it does not count
    assert variation_check(PiecewiseDyadicFn(2, {40: value}, 0.0), VariationBudget.const(1.0))


def test_window_sum_beyond_the_double_range_raises_as_fsum_does():
    fn = PiecewiseDyadicFn(2, {1: 1.5e308, 2: 0.0, 3: 1.5e308}, 0.0)  # finite jumps
    with pytest.raises(OverflowError):
        math.fsum(d for _, d in adjacent_jumps(fn))
    with pytest.raises(OverflowError):
        variation_check(fn, VariationBudget.const(math.inf))
