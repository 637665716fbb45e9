"""The adversary's block layer against the forms it replaced, compared with ==.

The reference functions below are the earlier implementations, kept here
verbatim as oracles: the bit-matrix van der Corput, the per-prefix
discrepancies that sort every prefix, the threshold search built on them,
and collision filtering by np.unique plus np.isin against the concatenated
earlier blocks.  The rewritten paths must agree with them bit for bit.
The library drops a block's collisions with an earlier block by merging
the two sorted runs, so the planted cases put shared values at the ends
of the merged run, meet 0.0 with -0.0, and repeat within a block a value
that only the block two back holds.
The weighted reference scans nu_k at its whole grid j / 2^k, as the
replaced code did (`conftest.grid_breakpoints`); the library's scan no
longer asks for it.  The threshold scans' evaluations on blocks 1-5 are
pinned by digest, since a scan can change a value without changing l_k.
The two-sided scans are checked against a scan of every length, on
synthetic walks and on small blocks, with covers derived on their own in
Fractions.
"""
import gc
import hashlib
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_breakpoints
from stableseq.adversary import (
    AdversaryConfig,
    BlockStreams,
    HorizonExhausted,
    RademacherFn,
    certified_prefix_scan,
    compute_block_thresholds,
    rademacher_eval,
    uniform_prefix_discrepancy,
    weighted_prefix_discrepancy,
)
from stableseq.generators import van_der_corput
from stableseq.measures import DistributionModel, SampleSequence
from stableseq.regression import RegressionModel, SignedMeasureModel


# -- reference forms ----------------------------------------------------------------

def ref_van_der_corput(n, start=1):
    if n <= 0:
        return np.zeros(0, dtype=float)
    ii = np.arange(start, start + n, dtype=np.uint64)
    nbits = int(start + n - 1).bit_length()
    shifts = np.arange(nbits, dtype=np.uint64)
    bits = ((ii[:, None] >> shifts[None, :]) & 1).astype(float)
    weights = np.ldexp(1.0, -(np.arange(nbits) + 1))
    return bits @ weights


def ref_uniform(x):
    xs = np.sort(np.asarray(x, dtype=float))
    m = len(xs)
    f = np.clip(xs, 0.0, 1.0)
    rr = np.arange(1, m + 1, dtype=float) / m
    ll = np.arange(0, m, dtype=float) / m
    c1 = np.searchsorted(xs, 1.0, side="right") / m - 1.0
    hi = max(float((rr - f).max()), float((ll - f).max()), float(c1), 0.0)
    lo = min(float((rr - f).min()), float((ll - f).min()), float(c1), 0.0)
    return hi - lo


def ref_weighted(x, y, target):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(x)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cum = np.concatenate([[0.0], np.cumsum(y[order])])
    bks = grid_breakpoints(target)
    tail = max(float(xs[-1]), float(bks.max())) + 1.0
    cands = np.concatenate([xs, bks, [tail]])
    t_cum = np.asarray(target.cumulative(cands), dtype=float)
    gr = cum[np.searchsorted(xs, cands, side="right")] / m - t_cum
    gl = cum[np.searchsorted(xs, cands, side="left")] / m - t_cum
    hi = max(float(gr.max()), float(gl.max()), 0.0)
    lo = min(float(gr.min()), float(gl.min()), 0.0)
    return hi - lo


def ref_block_thresholds(k, block, horizon):
    theta = 1.0 / (k + 1)
    x, y, target = block.x, block.y, RademacherFn(k)
    lv_plain, _, ev_plain = certified_prefix_scan(
        lambda m: ref_uniform(x[:m]), 1, horizon, theta, both_ends=True
    )
    lv_wt, _, ev_wt = certified_prefix_scan(
        lambda m: ref_weighted(x[:m], y[:m], target), 1, horizon, theta, both_ends=True
    )
    if lv_plain >= horizon or lv_wt >= horizon:
        raise HorizonExhausted("reference")
    return (lv_plain + 1, lv_wt + 1), ev_plain + ev_wt


def ref_materialize(raws, horizon):
    """Emitted xs per block from the raw streams, np.unique + np.isin form."""
    streams = []
    for raw in raws:
        _, first_idx = np.unique(raw, return_index=True)
        mask = np.zeros(len(raw), dtype=bool)
        mask[first_idx] = True
        if streams:
            mask &= ~np.isin(raw, np.concatenate(streams))
        xs = raw[mask][:horizon]
        assert len(xs) == horizon
        streams.append(xs)
    return streams


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# -- van der Corput ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 5, 1000])
@pytest.mark.parametrize("start", [1, 3, 1000])
def test_van_der_corput_matches_bit_matrix_form(n, start):
    assert np.array_equal(bits(van_der_corput(n, start)), bits(ref_van_der_corput(n, start)))


def test_van_der_corput_matches_bit_matrix_form_at_block_size():
    # the radical inverse of i does not depend on how many digits the call
    # uses, so the reference runs in slices and stays small in memory
    n = (1 << 20) + 64
    got = bits(van_der_corput(n))
    step = 1 << 17
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        assert np.array_equal(got[lo:hi], bits(ref_van_der_corput(hi - lo, lo + 1)))


def test_van_der_corput_wide_indices():
    # indices past 2^32 take the 64-bit path
    start = (1 << 40) + 12345
    assert np.array_equal(bits(van_der_corput(1000, start)), bits(ref_van_der_corput(1000, start)))
    # digit counts at and either side of each byte of the table reversal,
    # the last index with exactly nbits digits
    for nbits in (1, 7, 8, 9, 16, 17, 24, 32, 33):
        top = 1 << nbits
        for n in {1, min(top // 2, 300)}:
            got, want = van_der_corput(n, top - n), ref_van_der_corput(n, top - n)
            assert np.array_equal(bits(got), bits(want)), (nbits, n)
    start = (1 << 63) - 1000  # the last bits of a 64-bit word round to float64
    assert np.array_equal(bits(van_der_corput(999, start)), bits(ref_van_der_corput(999, start)))
    assert van_der_corput(0).shape == (0,) and van_der_corput(0, 1 << 40).shape == (0,)


# -- sort-once prefix scans ---------------------------------------------------------------

# coarse grids force ties; values outside [0, 1] exercise the clipping
_xs = st.lists(
    st.integers(-2, 18).map(lambda i: i / 16.0), min_size=1, max_size=40
)


@settings(max_examples=150, deadline=None)
@given(_xs, st.integers(0, 4), st.data())
def test_scan_values_equal_per_prefix_functions(xs, k, data):
    x = np.array(xs, dtype=float)
    y = np.array(
        data.draw(st.lists(st.integers(-2, 2), min_size=len(xs), max_size=len(xs))),
        dtype=float,
    )
    target = RademacherFn(k)
    seq = SampleSequence(x, y)
    for m in range(1, len(x) + 1):
        assert uniform_prefix_discrepancy(seq.prefix(m)) == ref_uniform(x[:m])
        assert weighted_prefix_discrepancy(seq.prefix(m), target) == ref_weighted(x[:m], y[:m], target)


def test_scan_values_equal_on_a_real_block():
    blk = BlockStreams(AdversaryConfig(n_blocks=2, horizon=1 << 12)).block(2)
    target = RademacherFn(2)
    for m in [1, 2, 3, 17, 100, 1000, 4095, 4096]:
        assert uniform_prefix_discrepancy(blk.prefix(m)) == ref_uniform(blk.x[:m])
        assert weighted_prefix_discrepancy(blk.prefix(m), target) == ref_weighted(
            blk.x[:m], blk.y[:m], target
        )


def _tied_block(seed, n, k):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 64, size=n) / 64.0  # about five copies of each value
    x[:8] = 0.5  # and a pile at the start, so the early prefixes violate
    return SampleSequence(x, rademacher_eval(k, x))


def _record_scans(monkeypatch):
    """The list every later certified_prefix_scan appends its evaluations to."""
    import stableseq.adversary as adv

    seen = []
    real_scan = adv.certified_prefix_scan

    def recording_scan(*args, **kwargs):
        out = real_scan(*args, **kwargs)
        seen.extend(out[2])
        return out

    monkeypatch.setattr(adv, "certified_prefix_scan", recording_scan)
    return seen


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_thresholds_on_tied_input_equal_reference(seed, k, monkeypatch):
    blk = _tied_block(seed, 300, k)
    seen = _record_scans(monkeypatch)
    want, want_evals = ref_block_thresholds(k, blk, 300)
    assert compute_block_thresholds(k, blk, 300) == want
    assert seen == want_evals  # same evaluation points, same values
    assert len(want_evals) > 10


# (source, horizon) -> (l_k, l~_k) for blocks 1-5, and the sha256 of every
# evaluation "m repr(d)" of both two-sided scans of each block, in the order
# each scan made them
_SCAN_PINS = {
    ("vdc_shift", 1 << 14): (
        [(4, 1), (7, 4), (7, 12), (11, 24), (15, 49)],
        "7999017edd29d7e93205a469d47b21d54a19699411639c601c172365c8de0f74",
    ),
    ("iid", 1 << 12): (
        [(4, 4), (10, 6), (32, 13), (39, 25), (69, 24)],
        "985dff5369272f56a8586d431a257c99e9c4af09d838bb316fcd0894da917ec7",
    ),
}


@pytest.mark.parametrize("source, horizon", list(_SCAN_PINS))
def test_block_threshold_scans_are_pinned(source, horizon, monkeypatch):
    seen = _record_scans(monkeypatch)
    streams = BlockStreams(AdversaryConfig(n_blocks=5, horizon=horizon, block_source=source))
    got = [compute_block_thresholds(k, streams.block(k), horizon) for k in range(1, 6)]
    digest = hashlib.sha256("".join(f"{m} {d!r}\n" for m, d in seen).encode()).hexdigest()
    assert (got, digest) == _SCAN_PINS[source, horizon]
    # both prefix views are walked: sorted on their own, and masked from the block
    assert min(m for m, _ in seen) * 16 < horizon <= max(m for m, _ in seen) * 16


# -- two-sided scans against every length ---------------------------------------------------

def _two_sided_scan_equals_dense(ds, lo, hi, theta):
    """Scan ds[lo..hi] from both ends and check it against every length: the
    same last violation, max_observed over the evaluated lengths, and every
    length above the last violation evaluated or covered by an evaluation
    d <= theta.  The covers are derived here on their own, with Fractions:
    from |U_{j+1} - U_j| <= 1, U = m * d, length j is covered by (m, d)
    when (m d + |j - m|) / j <= theta.  Returns the last violation and the
    evaluations."""
    last, max_obs, evals = certified_prefix_scan(ds.__getitem__, lo, hi, theta, both_ends=True)
    assert last == max((m for m in range(lo, hi + 1) if ds[m] > theta), default=0)
    assert max_obs == max(d for _, d in evals)
    t = Fraction(theta)
    open_ = np.zeros(hi + 1, dtype=bool)
    open_[max(last + 1, lo):] = True
    for m, d in evals:
        open_[m] = False
        d = Fraction(d)
        if d <= t:
            # (m d + j - m)/j <= t above m, (m d + m - j)/j <= t below it
            open_[math.ceil(m * (1 + d) / (1 + t)):math.floor(m * (1 - d) / (1 - t)) + 1] = False
    assert not open_.any(), np.flatnonzero(open_)[:10]
    return last, evals


_GRID = 1 << 30


def _walk(segments):
    """[0.0, d_1, d_2, ...]: d_m = U_m / m with U_0 = 0 and each step
    U_m - U_{m-1} the segment's step (clipped so U >= 0), with d_m rounded
    onto the grid 2^-30 toward U_{m-1} / m, so that |U_m - U_{m-1}| <= 1
    holds exactly for the doubles themselves."""
    ds, u = [0.0], Fraction(0)
    for length, step in segments:
        for _ in range(length):
            m = len(ds)
            scaled = max(u + step, Fraction(0)) * _GRID / m
            if step < 0:
                q = -(-scaled.numerator // scaled.denominator)
            else:
                q = scaled.numerator // scaled.denominator
            u = m * Fraction(q, _GRID)
            ds.append(q / _GRID)
    return ds


_STEPS = [Fraction(s) for s in ("-1", "-1/2", "0", "1/3", "1/2", "1")]
_THETAS = st.one_of(st.integers(1, 9).map(lambda k: 1.0 / (k + 1)), st.floats(0.05, 0.95))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 300), st.sampled_from(_STEPS)), min_size=1, max_size=6),
    _THETAS,
    st.data(),
)
def test_two_sided_scan_on_walks_equals_dense_scan(segments, theta, data):
    ds = _walk(segments)
    hi = len(ds) - 1
    lo = data.draw(st.integers(1, hi))
    _two_sided_scan_equals_dense(ds, lo, hi, theta)


def test_two_sided_scan_finds_a_violation_inside_a_gap():
    # U rests at 0, climbs by 1 a step to 79 at m = 225 and rests there, so
    # the last violation of 1/3 is 236 (79/237 = 1/3).  The scan passes it by
    # going up, and finds it in the gap the backward cover of 255 leaves.
    ds = _walk([(146, Fraction(0)), (79, Fraction(1)), (170, Fraction(0))])
    _, evals = _two_sided_scan_equals_dense(ds, 1, len(ds) - 1, 1 / 3)
    ms = [m for m, _ in evals]
    drop = next(i for i in range(1, len(ms)) if ms[i] < ms[i - 1])
    assert ms[drop - 1] > 236 > ms[drop] and 236 in ms[drop:]
    assert len(evals) < 60


def test_two_sided_scan_drops_a_gap_below_a_later_violation():
    # the same walk climbs again, to 179 at m = 495: the last violation is
    # 536 (179/537 = 1/3), and the gap holding 236 is never scanned
    ds = _walk([(146, Fraction(0)), (79, Fraction(1)), (170, Fraction(0)),
                (100, Fraction(1)), (300, Fraction(0))])
    last, evals = _two_sided_scan_equals_dense(ds, 1, len(ds) - 1, 1 / 3)
    ms = [m for m, _ in evals]
    assert last == 536 and ms == sorted(ms) and not any(220 <= m <= 250 for m in ms)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["vdc_shift", "iid"]), st.integers(1, 5), st.integers(6, 10), st.integers(0, 3))
def test_block_thresholds_equal_dense_scans(source, k, log_horizon, seed):
    horizon = 1 << log_horizon
    cfg = AdversaryConfig(n_blocks=5, horizon=horizon, block_source=source, seed=seed)
    _block_thresholds_equal_dense_scans(k, BlockStreams(cfg).block(k), horizon)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(20, 400))
def test_block_thresholds_on_tied_input_equal_dense_scans(seed, k, n):
    _block_thresholds_equal_dense_scans(k, _tied_block(seed, n, k), n)


def _block_thresholds_equal_dense_scans(k, blk, horizon):
    """Both scans of compute_block_thresholds against every prefix length."""
    theta, target = 1.0 / (k + 1), RademacherFn(k)
    plain, wt = [0.0], [0.0]
    for m in range(1, horizon + 1):
        p = blk.prefix(m)
        plain.append(uniform_prefix_discrepancy(p))
        wt.append(weighted_prefix_discrepancy(p, target))
    (last_plain, _), (last_wt, _) = (
        _two_sided_scan_equals_dense(ds, 1, horizon, theta) for ds in (plain, wt)
    )
    if max(last_plain, last_wt) >= horizon:
        with pytest.raises(HorizonExhausted):
            compute_block_thresholds(k, blk, horizon)
    else:
        assert compute_block_thresholds(k, blk, horizon) == (last_plain + 1, last_wt + 1)


# -- masked prefix views and the one-buffer scan ----------------------------------------

def test_masked_prefix_view_gathers_its_index_on_first_read():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 40, size=400) / 40.0  # ties
    seq = SampleSequence(x, rng.normal(size=400))
    for m in (25, 26, 100, 399, 400):
        view = seq.prefix(m)
        assert "sorted_index" not in vars(view)
        assert np.array_equal(view.x_sorted, np.sort(x[:m], kind="stable"))
        direct = SampleSequence(x[:m], seq.y[:m])
        assert bits(view.y_cumsum_sorted).tobytes() == bits(direct.y_cumsum_sorted).tobytes()
        assert np.array_equal(view.sorted_index, np.argsort(x[:m], kind="stable"))
        assert "_masked_index" not in vars(view)  # the parent's index is let go
        for j in (m // 2, m - 1):  # a prefix of a prefix is the direct prefix
            a, b = view.prefix(j), seq.prefix(j)
            for name in ("sorted_index", "x_sorted", "y_cumsum_sorted"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (m, j, name)


def ref_interval_sup(xs, cum, right_at_xs, left_at_xs, target):
    """`_interval_sup` with one array for the right deviations and one for the left."""
    n = len(xs)
    bks = np.asarray(target.breakpoints(), dtype=float)
    tail = max(float(xs[-1]), float(bks.max()) if len(bks) else -math.inf) + 1.0
    extra = np.append(bks, tail)
    if np.all(xs[1:] > xs[:-1]):
        right, left = cum[1:], cum[:-1]
    else:
        right = cum[np.searchsorted(xs, xs, side="right")]
        left = cum[np.searchsorted(xs, xs, side="left")]
    d_right = right / n - right_at_xs
    d_left = left / n - left_at_xs
    e_right = cum[np.searchsorted(xs, extra, side="right")] / n - target.cumulative(extra)
    e_left = cum[np.searchsorted(xs, extra, side="left")] / n - target.cumulative_left(extra)
    hi = max(float(np.maximum(d_right.max(), e_right.max())),
             float(np.maximum(d_left.max(), e_left.max())), 0.0)
    lo = min(float(np.minimum(d_right.min(), e_right.min())),
             float(np.minimum(d_left.min(), e_left.min())), 0.0)
    return hi - lo


# targets with atoms on the grid of `_xs`, so points sit on them: mu with
# atoms and a segment, nu of it (the atom values signed), and atoms alone
_ATOMIC = DistributionModel(atoms=((0.0, 0.25), (0.5, 0.25)), segments=((0.25, 1.25, 0.5),))
_ATOM_TARGETS = [
    _ATOMIC,
    SignedMeasureModel(_ATOMIC, RegressionModel.piecewise_linear([0.0, 1.0], [1.0, -1.0])),
    DistributionModel.atomic([(0.125, 0.5), (0.5, 0.5)]),
]


@settings(max_examples=200, deadline=None)
@given(_xs, st.integers(0, 4 + len(_ATOM_TARGETS)), st.booleans(), st.data())
def test_interval_sup_equals_two_buffer_form(xs, k, with_nan, data):
    from stableseq.measures import _interval_sup

    target = RademacherFn(k) if k <= 4 else _ATOM_TARGETS[k - 5]
    x = np.sort(np.array(xs, dtype=float))
    y = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=len(x), max_size=len(x))),
                 dtype=float)
    if with_nan:
        y[data.draw(st.integers(0, len(y) - 1))] = math.nan
    cum = np.concatenate([[0.0], np.cumsum(y)])
    right = np.asarray(target.cumulative(x), dtype=float)
    left = np.asarray(target.cumulative_left(x), dtype=float)
    got = _interval_sup(x, cum, right, target)
    want = ref_interval_sup(x, cum, right, left, target)
    assert got == want or (math.isnan(got) and math.isnan(want))


# -- collision filtering ------------------------------------------------------------------

class PlantedStreams(BlockStreams):
    """Raw streams with planted in-stream and cross-block duplicates."""

    def __init__(self, config, raws):
        super().__init__(config)
        self.raws = raws

    def _raw(self, k, count):
        return self.raws[k - 1][:count]


def test_collision_filtering_equals_unique_isin_reference():
    horizon = 200
    count = horizon + 64
    rng = np.random.default_rng(11)
    grid = rng.integers(0, 1 << 12, size=(3, count)) / float(1 << 12)  # in-stream repeats
    raws = [grid[0].copy(), grid[1].copy(), grid[2].copy()]
    raws[1][:30] = raws[0][10:40]  # block 2 repeats emitted block-1 values
    raws[2][5:25] = raws[1][100:120]
    raws[2][50:60] = raws[0][:10]
    raws[0][7] = raws[0][3]  # an early exact repeat, and a signed zero pair
    raws[0][20], raws[0][21] = 0.0, -0.0
    want = ref_materialize(raws, horizon)
    streams = PlantedStreams(AdversaryConfig(n_blocks=2, horizon=horizon), raws)
    for k in (1, 2, 3):
        xs = streams.xs(k)
        assert np.array_equal(bits(xs), bits(want[k - 1]))
        blk = streams.block(k)
        plain = SampleSequence(xs, rademacher_eval(k, xs))
        assert np.array_equal(blk.sorted_index, plain.sorted_index)
        assert np.array_equal(bits(blk.x_sorted), bits(plain.x_sorted))
        assert np.array_equal(bits(blk.y_cumsum_sorted), bits(plain.y_cumsum_sorted))


def _edge_case_raws(source, case, horizon):
    """Five raw streams of `source` with one kind of cross-block collision planted."""
    count = horizon + 64
    base = BlockStreams(AdversaryConfig(n_blocks=5, horizon=horizon, block_source=source))
    raws = [base._raw(k, count) for k in range(1, 6)]
    if case == "run-ends":
        # block 1's smallest and largest kept values, repeated by blocks 3
        # and 5, sit at both ends of every merged run they enter
        lo, hi = 2.0**-1000, np.nextafter(1.0, 0.0)
        raws[0][[0, 1]] = lo, hi
        raws[2][[4, count - 1]] = hi, lo
        raws[4][[9, 10]] = lo, hi
    elif case == "signed-zero":
        raws[0][2] = 0.0  # kept by block 1
        raws[2][6] = -0.0  # equal to it, so dropped from block 3
        raws[4][[3, 30]] = -0.0, 0.0
    else:  # "skip-a-block": repeated in block k, kept by k - 2, absent from k - 1
        for k in (4, 5):
            earlier = ref_materialize(raws[:k - 1], horizon)
            v = earlier[k - 3][17]
            assert not np.isin(v, earlier[k - 2])
            raws[k - 1][[8, 30]] = v
    return raws


def _assert_blocks_equal(streams, want):
    """Each block of `streams` against `want`'s xs and the argsort of a plain sequence."""
    for k, xs in enumerate(want, start=1):
        blk = streams.block(k)
        plain = SampleSequence(xs, rademacher_eval(k, xs))
        assert np.array_equal(bits(blk.x), bits(plain.x))
        assert np.array_equal(bits(blk.y), bits(plain.y))
        assert np.array_equal(blk.sorted_index, plain.sorted_index)
        assert np.array_equal(bits(blk.x_sorted), bits(plain.x_sorted))


@pytest.mark.parametrize("source, shift", [("vdc_shift", math.sqrt(2.0)),
                                           ("vdc_shift", -math.pi), ("iid", math.sqrt(2.0))])
def test_blocks_equal_unique_isin_reference(source, shift):
    horizon = 3000
    streams = BlockStreams(AdversaryConfig(n_blocks=5, horizon=horizon, block_source=source,
                                           shift=shift))
    want = ref_materialize([streams._raw(k, horizon + 64) for k in range(1, 6)], horizon)
    _assert_blocks_equal(streams, want)


@pytest.mark.parametrize("source", ["vdc_shift", "iid"])
@pytest.mark.parametrize("case", ["run-ends", "signed-zero", "skip-a-block"])
def test_collision_filtering_edge_cases(source, case):
    horizon = 256
    raws = _edge_case_raws(source, case, horizon)
    want = ref_materialize(raws, horizon)
    _assert_blocks_equal(PlantedStreams(AdversaryConfig(n_blocks=5, horizon=horizon), raws), want)
    # the planted values reach the filter: block 1 keeps them, block 3 drops them
    planted = {"run-ends": raws[0][:2], "signed-zero": raws[0][2:3]}.get(case)
    if planted is not None:
        assert np.isin(planted, want[0]).all() and not np.isin(planted, want[2]).any()


def test_collision_filtering_slack_check_kept():
    raw = np.full(300, 0.25)  # one distinct value cannot fill a block
    streams = PlantedStreams(AdversaryConfig(n_blocks=2, horizon=100), [raw, raw])
    with pytest.raises(RuntimeError, match="slack"):
        streams.xs(1)


# -- memory guards ----------------------------------------------------------------------

def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_van_der_corput_peak_memory():
    # the bit-matrix form peaked at about 344 MB here
    assert _peak_bytes(lambda: van_der_corput((1 << 20) + 64)) < 64 * 2**20


def test_block_materialization_peak_memory():
    # two blocks at 2^16 hold 4 MB (x, labels, sorted order, sorted
    # values); the bit-matrix and np.isin form peaked at about 20 MB
    def two_blocks():
        BlockStreams(AdversaryConfig(n_blocks=2, horizon=1 << 16)).xs(2)

    assert _peak_bytes(two_blocks) < 10 * 2**20


def test_five_block_materialization_peak_memory():
    # block 5 merges its sorted values with each of the four before it; the
    # two kept blocks and five sorted views peak at about 7 MB at 2^16
    def five_blocks():
        BlockStreams(AdversaryConfig(n_blocks=5, horizon=1 << 16)).xs(5)

    assert _peak_bytes(five_blocks) < 10 * 2**20


def _peak_above(fn):
    """Peak bytes fn allocates above what is allocated when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_block_and_scan_peaks_in_full_size_arrays():
    # in full-size float arrays (8 bytes a pair) at horizon 2^16, numpy 2.4:
    # making block 5 (its four kept arrays included) peaks at 8.26, and one
    # uniform or weighted evaluation at m = n at 5.01.  Each bound is the
    # measured peak plus half an array, room for numpy's own temporaries to
    # move between versions, while one more full-size array fails it.
    n = 1 << 16
    full = 8 * n
    streams = BlockStreams(AdversaryConfig(n_blocks=5, horizon=n))
    for k in range(1, 5):
        streams.block(k)
    assert _peak_above(lambda: streams.block(5)) < (8.26 + 0.5) * full
    blk, target = streams.block(5), RademacherFn(5)
    assert _peak_above(lambda: uniform_prefix_discrepancy(blk.prefix(n))) < (5.01 + 0.5) * full
    assert _peak_above(lambda: weighted_prefix_discrepancy(blk.prefix(n), target)) < (5.01 + 0.5) * full


def test_block_is_freed_once_its_thresholds_are_computed():
    # nothing the scans leave behind refers to the block: a reference cycle
    # through it (a scan closure that calls itself, say) would keep each
    # block's arrays, 16 MiB at 2^20, alive until the collector ran
    blk = BlockStreams(AdversaryConfig(n_blocks=2, horizon=1 << 12)).block(2)
    ref = weakref.ref(blk)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        compute_block_thresholds(2, blk, 1 << 12)
        del blk
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
