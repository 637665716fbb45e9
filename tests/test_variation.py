"""The windowed-variation paths agree bit for bit with two references.

`adjacent_jumps` is the one jump enumerator: `total_variation_window`, the
dyadic `RegressionModel.variation_window`, the estimator's window walk
`_windows` (which `variation_check` reads) and the dyadic `_is_monotone`
all read it.  Two references here share none of it.  `dense_variation`
visits every adjacent cell pair of the window, mapped or not, and takes
the fsum.
`walk_adjacent_jumps` and `walk_variation_check` are the earlier dict walks
over the mapped cells, kept here as copies.  Functions reach beyond 320
cells, carry a nonzero default, hold -0.0, sit at k = 0, and hold cells
beyond 2^62, outside every window or, at k >= 60, inside them; at those
depths the walk stands in for the dense reference.  Comparisons are `==`
on floats and integers, never approx.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stableseq.estimator import _windows, variation_check
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


@st.composite
def one_cell_functions(draw):
    cells = draw(st.dictionaries(st.just(0), VALUES, max_size=1))
    return PiecewiseDyadicFn(0, cells, draw(VALUES))


ANY_FUNCTION = st.one_of(
    step_functions(), wide_step_functions(), deep_step_functions(), one_cell_functions()
)


# -- the earlier dict walks, copied as references -----------------------------

def walk_adjacent_jumps(f: PiecewiseDyadicFn):
    """Yield (b, |f(A_b) - f(A_{b+1})|) for every nonzero jump, ascending in b."""
    values, default = dict(f.values), f.default
    for j in sorted(values):
        v = values[j]
        left = values.get(j - 1, default)
        if left != v:
            yield j - 1, abs(v - left)
        if (j + 1) not in values and v != default:
            yield j, abs(v - default)


def walk_smallest_window(b: int, k: int) -> int:
    return -((-1 - abs(b)) >> k)


def walk_variation_check(fn: PiecewiseDyadicFn, budget: VariationBudget) -> bool:
    k = fn.k
    buckets: list[list[float]] = [[] for _ in range(k + 1)]
    for b, d in walk_adjacent_jumps(fn):
        i = walk_smallest_window(b, k)
        if i <= k:
            buckets[i].append(d)
    terms: list[float] = []
    for i in range(1, k + 1):
        terms += buckets[i]
        if not math.fsum(terms) < 4.0 * budget.alpha(i):
            return False
    return True


def walk_is_monotone(fn: PiecewiseDyadicFn) -> bool:
    values = dict(fn.values)
    vals: list[float] = [fn.default]
    prev = None
    for j in sorted(values):
        if prev is not None and j > prev + 1:
            vals.append(fn.default)
        vals.append(values[j])
        prev = j
    vals.append(fn.default)
    dv = np.diff(vals)
    return bool(np.all(dv >= 0) or np.all(dv <= 0))


def walk_variation(fn: PiecewiseDyadicFn, i: int) -> float:
    span = i << fn.k
    return math.fsum(d for b, d in walk_adjacent_jumps(fn) if -span < b < span)


def dense_variation(fn: PiecewiseDyadicFn, i: int) -> float:
    if fn.k >= 60:  # too many cells to visit; the walk stands in
        return walk_variation(fn, i)
    span = i << fn.k
    value = dict(fn.values).get
    return math.fsum(
        abs(value(j + 1, fn.default) - value(j, fn.default)) for j in range(-span + 1, span)
    )


@given(ANY_FUNCTION, st.integers(1, 4))
def test_enumerator_and_its_readers_equal_the_walk(fn, i):
    b, d = adjacent_jumps(fn)
    assert list(zip(b.tolist(), np.abs(d).tolist())) == list(walk_adjacent_jumps(fn))
    # signed: the value right of the boundary minus the one left of it
    value = dict(fn.values).get
    assert d.tolist() == [value(j + 1, fn.default) - value(j, fn.default) for j in b.tolist()]
    model = RegressionModel.from_dyadic(fn)
    assert model._is_monotone() == walk_is_monotone(fn)
    ref = walk_variation(fn, i) if fn.k else 0.0
    assert total_variation_window(fn, i) == ref
    assert model.variation_window(i) == ref
    # each window the walk yields sums to its variation; each one it skips
    # adds no jump to the window before it
    windows = dict(_windows(fn))
    added = {walk_smallest_window(b, fn.k) for b, _ in walk_adjacent_jumps(fn)}
    for w in range(1, fn.k + 1):
        if w in windows:
            assert math.fsum(windows[w]) == walk_variation(fn, w)
        else:
            assert w > 1 and w not in added


@given(step_functions(), st.integers(1, 4))
def test_window_variation_equals_dense_reference(fn, i):
    ref = dense_variation(fn, i)
    assert total_variation_window(fn, i) == ref
    assert RegressionModel.from_dyadic(fn).variation_window(i) == ref


@given(wide_step_functions(), st.integers(1, 4))
def test_wide_window_variation_equals_dense_reference(fn, i):
    assert total_variation_window(fn, i) == dense_variation(fn, i)


@given(ANY_FUNCTION, st.lists(st.sampled_from(["tie", "above", "below"]), min_size=7))
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
    budget = VariationBudget.from_table(table or [1.0])
    expect = all(
        dense_variation(fn, i) < 4.0 * budget.alpha(i) for i in range(1, fn.k + 1)
    )
    assert variation_check(fn, budget) == expect == walk_variation_check(fn, budget)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_jump_fails(value):
    fn = PiecewiseDyadicFn(2, {1: 0.5, 2: value}, 0.0)
    assert not variation_check(fn, VariationBudget.const(math.inf))
    # beyond every window up to k, it does not count
    assert variation_check(PiecewiseDyadicFn(2, {40: value}, 0.0), VariationBudget.const(1.0))


def test_window_sum_beyond_the_double_range_raises_as_fsum_does():
    fn = PiecewiseDyadicFn(2, {1: 1.5e308, 2: 0.0, 3: 1.5e308}, 0.0)  # finite jumps
    with pytest.raises(OverflowError):
        math.fsum(np.abs(adjacent_jumps(fn)[1]).tolist())
    with pytest.raises(OverflowError):
        variation_check(fn, VariationBudget.const(math.inf))
