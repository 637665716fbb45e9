"""The windowed-variation paths agree bit for bit with a dense reference.

`total_variation_window`, the dyadic `RegressionModel.variation_window` and
the one-pass `variation_check` all read the same jump walk.  The reference
here shares none of it: it visits every adjacent cell pair of the window,
mapped or not, and takes the fsum.  Comparisons are `==`, never approx.
"""
import math

from hypothesis import given
from hypothesis import strategies as st

from stableseq.estimator import variation_check
from stableseq.partitions import PiecewiseDyadicFn, VariationBudget, total_variation_window
from stableseq.regression import RegressionModel

# repeated values make zero jumps; the wide floats make fsum rounding matter
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.1, 1 / 3, 2.5e-8, 1e6]),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
)


@st.composite
def step_functions(draw):
    k = draw(st.integers(1, 4))
    reach = 4 << k  # cells out to |x| = 4, beyond the largest window tested
    cells = draw(st.dictionaries(st.integers(-reach, reach), VALUES, max_size=24))
    return PiecewiseDyadicFn(k, cells, draw(VALUES))


def dense_variation(fn: PiecewiseDyadicFn, i: int) -> float:
    span = i << fn.k
    return math.fsum(
        abs(fn.value_at_cell(j + 1) - fn.value_at_cell(j)) for j in range(-span + 1, span)
    )


@given(step_functions(), st.integers(1, 4))
def test_window_variation_equals_dense_reference(fn, i):
    ref = dense_variation(fn, i)
    assert total_variation_window(fn, i) == ref
    assert RegressionModel.from_dyadic(fn).variation_window(i) == ref


@given(step_functions(), st.lists(st.sampled_from(["tie", "above", "below"]), min_size=4))
def test_variation_check_equals_per_window_rule(fn, modes):
    # a table budget placed at, just above or below each window's variation,
    # so ties (which must fail) come up often
    table = []
    for i in range(1, fn.k + 1):
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
