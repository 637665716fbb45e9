"""The one interval-class scan against the four scanners it replaced, compared with ==.

The reference functions below are the earlier implementations, kept here
verbatim as oracles: the stability diagnostic's plain and y-weighted scans
(`measures.sup_interval_discrepancy` and `sup_weighted_discrepancy` with
their shared extrema rule) and the adversary's sorted-array scans
(`uniform_prefix_discrepancy` and `weighted_prefix_discrepancy`).  Every
path that now runs `measures._interval_sup` must return the same float as
its reference.
The one departure from the replaced code: the references scan nu_k
(`RademacherFn`) at its whole grid j / 2^k, which the library no
longer asks for (`conftest.grid_breakpoints`).
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_breakpoints, random_mixture_model
from stableseq.adversary import (
    RademacherFn,
    uniform_prefix_discrepancy,
    weighted_prefix_discrepancy,
)
from stableseq.measures import (
    DistributionModel,
    SampleSequence,
    sup_interval_discrepancy,
    sup_weighted_discrepancy,
)
from stableseq.regression import RegressionModel, SignedMeasureModel


# -- reference forms ----------------------------------------------------------------

def ref_scan_extrema(right_vals, left_vals):
    hi = max(float(right_vals.max()), float(left_vals.max()), 0.0)
    lo = min(float(right_vals.min()), float(left_vals.min()), 0.0)
    return hi - lo


def ref_sup_interval(seq, model):
    n = len(seq)
    cand = np.concatenate([seq.x_sorted, model.breakpoints()])
    d_right = seq.count_le(cand) / n - model.cdf(cand)
    d_left = seq.count_lt(cand) / n - model.cdf_left(cand)
    return ref_scan_extrema(d_right, d_left)


def ref_sup_weighted(seq, target):
    n = len(seq)
    bks = grid_breakpoints(target)
    tail_anchor = max(
        float(seq.x_sorted[-1]),
        float(bks.max()) if len(bks) else -math.inf,
    ) + 1.0
    cand = np.concatenate([seq.x_sorted, bks, [tail_anchor]])
    g_hat_right = seq.y_cumsum_sorted[seq.count_le(cand)] / n
    g_hat_left = seq.y_cumsum_sorted[seq.count_lt(cand)] / n
    d_right = g_hat_right - np.asarray(target.cumulative(cand), dtype=float)
    d_left = g_hat_left - np.asarray(target.cumulative_left(cand), dtype=float)
    return ref_scan_extrema(d_right, d_left)


def ref_uniform_sorted(xs):
    m = len(xs)
    f = np.clip(xs, 0.0, 1.0)
    rr = np.arange(1, m + 1, dtype=float) / m
    ll = np.arange(0, m, dtype=float) / m
    c1 = np.searchsorted(xs, 1.0, side="right") / m - 1.0
    hi = max(float((rr - f).max()), float((ll - f).max()), float(c1), 0.0)
    lo = min(float((rr - f).min()), float((ll - f).min()), float(c1), 0.0)
    return hi - lo


def ref_weighted_sorted(xs, ys, t_xs, target, distinct):
    m = len(xs)
    cum = np.concatenate([[0.0], np.cumsum(ys)])
    bks = grid_breakpoints(target)
    tail = max(float(xs[-1]), float(bks.max())) + 1.0
    extra = np.concatenate([bks, [tail]])
    t_extra = np.asarray(target.cumulative(extra), dtype=float)
    if distinct:
        right, left = cum[1:], cum[:-1]
    else:
        right = cum[np.searchsorted(xs, xs, side="right")]
        left = cum[np.searchsorted(xs, xs, side="left")]
    gr = right / m - t_xs
    gl = left / m - t_xs
    gr_e = cum[np.searchsorted(xs, extra, side="right")] / m - t_extra
    gl_e = cum[np.searchsorted(xs, extra, side="left")] / m - t_extra
    hi = max(
        float(np.maximum(gr.max(), gr_e.max())),
        float(np.maximum(gl.max(), gl_e.max())),
        0.0,
    )
    lo = min(
        float(np.minimum(gr.min(), gr_e.min())),
        float(np.minimum(gl.min(), gl_e.min())),
        0.0,
    )
    return hi - lo


# -- instances ------------------------------------------------------------------------

# masses that sum to 1 only in exact arithmetic: the model's CDF tops out
# at 0.9999999999999999, so the tail anchor sees a rounding-sized deviation
OFF_BY_ROUNDING = DistributionModel.atomic([(0.1, 0.7), (0.2, 0.2), (0.7, 0.1)])


def points(rng, model, n, tied):
    """n points; tied ones are drawn from a small pool that holds the
    model's breakpoints (so samples sit on atoms), untied ones are spread."""
    if tied:
        pool = np.concatenate([model.breakpoints(), rng.uniform(-3.0, 3.0, size=4)])
        return rng.choice(pool, size=n)
    return rng.uniform(-3.0, 3.0, size=n)


def signed_target(rng, model):
    regressor = RegressionModel.piecewise_linear(
        [-2.0, 0.0, 2.0], rng.uniform(-1.0, 1.0, size=3).tolist()
    )
    return SignedMeasureModel(model, regressor)


_case = given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    tied=st.booleans(),
)


# -- the stability diagnostic's scans -----------------------------------------------------

@settings(max_examples=200, deadline=None)
@_case
@example(seed=0, n=1, tied=False)
@example(seed=1, n=1, tied=True)
def test_sup_interval_equals_reference(seed, n, tied):
    rng = np.random.default_rng(seed)
    model = random_mixture_model(rng)
    x = points(rng, model, n, tied)
    seq = SampleSequence(x, np.zeros(n))
    assert sup_interval_discrepancy(seq, model) == ref_sup_interval(seq, model)


@settings(max_examples=200, deadline=None)
@_case
@example(seed=0, n=1, tied=False)
@example(seed=1, n=1, tied=True)
def test_sup_weighted_equals_reference(seed, n, tied):
    rng = np.random.default_rng(seed)
    model = random_mixture_model(rng)
    x = points(rng, model, n, tied)
    y = rng.integers(-2, 3, size=n).astype(float)
    seq = SampleSequence(x, y)
    for target in (signed_target(rng, model), RademacherFn(int(rng.integers(0, 5)))):
        assert sup_weighted_discrepancy(seq, target) == ref_sup_weighted(seq, target)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 30])
def test_total_mass_off_one_by_rounding(n, tied):
    assert OFF_BY_ROUNDING.cdf(5.0) != 1.0
    rng = np.random.default_rng(n)
    seq = SampleSequence(points(rng, OFF_BY_ROUNDING, n, tied), rng.uniform(-1, 1, size=n))
    assert sup_interval_discrepancy(seq, OFF_BY_ROUNDING) == ref_sup_interval(seq, OFF_BY_ROUNDING)
    target = signed_target(rng, OFF_BY_ROUNDING)
    assert sup_weighted_discrepancy(seq, target) == ref_sup_weighted(seq, target)


# -- the adversary's scans ------------------------------------------------------------------

def continuous_targets(rng):
    """Targets without atoms, as the adversary's weighted scan requires."""
    base = DistributionModel(segments=((-1.0, 0.5, 0.4), (0.5, 1.5, 0.4)))
    return [RademacherFn(int(rng.integers(0, 5))), signed_target(rng, base)]


@settings(max_examples=100, deadline=None)
@_case
@example(seed=0, n=1, tied=False)
@example(seed=1, n=1, tied=True)
def test_prefix_scans_equal_reference(seed, n, tied):
    rng = np.random.default_rng(seed)
    if tied:  # a grid on and around [0, 1], with values outside it
        x = rng.integers(-2, 19, size=n) / 16.0
    else:
        x = rng.uniform(-0.2, 1.2, size=n)
    y = rng.integers(-2, 3, size=n).astype(float)
    block = SampleSequence(x, y)
    distinct = bool(np.all(block.x_sorted[1:] > block.x_sorted[:-1]))
    for target in continuous_targets(rng):
        t_sorted = np.asarray(target.cumulative(block.x_sorted), dtype=float)
        for m in range(1, n + 1):
            sel = np.flatnonzero(block.sorted_index < m)
            xs = block.x_sorted[sel]
            assert uniform_prefix_discrepancy(block.prefix(m)) == ref_uniform_sorted(xs)
            ys = y[block.sorted_index][sel]
            want_w = ref_weighted_sorted(xs, ys, t_sorted[sel], target, False)
            assert weighted_prefix_discrepancy(block.prefix(m), target) == want_w
            assert want_w == ref_weighted_sorted(xs, ys, t_sorted[sel], target, distinct)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    k=st.integers(0, 14),
    binary=st.booleans(),
)
@example(seed=0, n=1, k=14, binary=True)
def test_grid_free_scans_equal_grid_scans(seed, n, k, binary):
    # nu_k gives the scans its support ends only; the references scan all
    # of its 2^k + 1 grid points, and every float must agree
    rng = np.random.default_rng(seed)
    r = int(rng.integers(0, k + 3))  # dyadic ties coarser than, at and finer than nu_k's grid
    x = rng.integers(-(1 << r) // 4 - 1, (1 << r) + (1 << r) // 4 + 2, size=n) / (1 << r)
    spread = rng.random(n) < 0.3
    x[spread] = rng.uniform(-0.2, 1.2, size=int(spread.sum()))
    y = (rng.integers(0, 2, size=n) if binary else rng.integers(-2, 3, size=n)).astype(float)
    target = RademacherFn(k)
    seq = SampleSequence(x, y)
    assert sup_weighted_discrepancy(seq, target) == ref_sup_weighted(seq, target)
    ys = y[seq.sorted_index]
    t_sorted = target.cumulative(seq.x_sorted)
    for m in range(1, n + 1):
        sel = np.flatnonzero(seq.sorted_index < m)
        want = ref_weighted_sorted(seq.x_sorted[sel], ys[sel], t_sorted[sel], target, False)
        assert weighted_prefix_discrepancy(seq.prefix(m), target) == want


@pytest.mark.parametrize("at", [0, 2, 4])
def test_nan_point_matches_reference(at):
    # NaN sorts last and breaks strict increase: the searched path runs,
    # and NaN reaches the result exactly where the replaced scans let it
    x = np.array([0.25, 0.5, 0.75, 0.125, 0.625])
    x[at] = math.nan
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    seq = SampleSequence(x, y)
    target = RademacherFn(2)
    xs = np.sort(x)
    ys = y[seq.sorted_index]
    got_want = [
        (sup_interval_discrepancy(seq, OFF_BY_ROUNDING), ref_sup_interval(seq, OFF_BY_ROUNDING)),
        (sup_weighted_discrepancy(seq, target), ref_sup_weighted(seq, target)),
        (uniform_prefix_discrepancy(seq), ref_uniform_sorted(xs)),
        (
            weighted_prefix_discrepancy(seq, target),
            ref_weighted_sorted(xs, ys, target.cumulative(xs), target, False),
        ),
    ]
    assert [repr(g) for g, _ in got_want] == [repr(w) for _, w in got_want]
    assert any(math.isnan(w) for _, w in got_want)


def test_empty_input_rejected():
    empty = SampleSequence(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        uniform_prefix_discrepancy(empty)
    with pytest.raises(ValueError):
        weighted_prefix_discrepancy(empty, RademacherFn(1))
    with pytest.raises(ValueError):
        sup_interval_discrepancy(empty, OFF_BY_ROUNDING)
    with pytest.raises(ValueError):
        sup_weighted_discrepancy(empty, RademacherFn(1))
