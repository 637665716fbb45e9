import copy
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stableseq.estimator import (
    EstimatorState,
    _accumulate_cells,
    _window_buckets,
    batch_tau_search,
    checkpoint_from_dict,
    checkpoint_to_dict,
    histogram_estimate,
    kappa_index,
    variation_check,
    verify_checkpoint,
)
from stableseq.generators import RandomSource, gen_deterministic, gen_iid
from stableseq.measures import DistributionModel, SampleSequence
from stableseq.partitions import PiecewiseDyadicFn, VariationBudget
from stableseq.regression import RegressionModel

UNIFORM = DistributionModel.uniform(0.0, 1.0)
H1 = RegressionModel.from_dyadic(PiecewiseDyadicFn(1, {1: 1.0, 2: 0.0}, 0.0))
H2_FN = PiecewiseDyadicFn(2, {1: 1.0, 2: 0.0, 3: 1.0, 4: 0.0}, 0.0)


class TestHistogramEstimate:
    def test_ratio_cells(self):
        seq = SampleSequence(np.array([0.1, 0.3, 0.6]), np.array([1.0, 0.0, 1.0]))
        est = histogram_estimate(seq, 1, 3)
        assert dict(est.fn.values) == {1: 0.5, 2: 1.0}
        assert est.k == 1 and est.n == 3

    def test_whole_line_is_mean(self):
        seq = SampleSequence(np.array([5.0, -3.0, 0.25]), np.array([1.0, 2.0, 6.0]))
        est = histogram_estimate(seq, 0, 3)
        assert dict(est.fn.values) == {0: 3.0}

    def test_empty_cells_are_zero(self):
        seq = SampleSequence(np.array([0.1]), np.array([1.0]))
        est = histogram_estimate(seq, 3, 1)
        assert est.fn(0.9) == 0.0

    def test_prefix_bound_checked(self):
        seq = SampleSequence(np.array([0.1]), np.array([1.0]))
        with pytest.raises(ValueError):
            histogram_estimate(seq, 1, 2)
        with pytest.raises(ValueError):
            histogram_estimate(seq, 1, 0)


class TestVariationCheck:
    def test_flat_passes_any_budget(self):
        assert variation_check(PiecewiseDyadicFn(4, {}, 0.0), VariationBudget.const(1e-6))

    def test_alternating_strict_tie_fails(self):
        # windowed variation is exactly 4; 4 < 4*1 fails, 4 < 4*1.01 passes
        assert not variation_check(H2_FN, VariationBudget.const(1.0))
        assert variation_check(H2_FN, VariationBudget.const(1.01))


class TestKappa:
    def test_examples(self):
        assert kappa_index([1, 3, 7, 15], 8) == 2
        assert kappa_index([1, 3, 7, 15], 1) == 0
        assert kappa_index([1, 3, 7, 15], 15) == 3

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            kappa_index([1], 0)


class TestEstimatorState:
    def test_first_pair_freezes_resolution_zero(self):
        st = EstimatorState(VariationBudget.const(2.0))
        assert st.ingest(0.4, 0.9) == 0
        assert st.tau == [1]
        assert dict(st.frozen[0].values) == {0: 0.9}
        assert st.search_resolution == 1

    @given(
        st.integers(0, 40),
        st.one_of(
            st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans()),
            # |y| >= 2^512 is out of bounds: no exact window sum is promised there
            st.tuples(st.sampled_from([2.0**512, -(2.0**512), 1.7e308, -1.7e308]), st.just(False)),
        ),
    )
    def test_non_finite_pair_rejected(self, n_before, bad):
        bad, bad_is_x = bad
        state = EstimatorState(VariationBudget.const(2.0))
        xs = RandomSource(n_before).generator().random(n_before)
        state.ingest_many(xs, xs * 0.5)
        before = copy.deepcopy(vars(state))
        pair = (bad, 0.5) if bad_is_x else (0.5, bad)
        with pytest.raises(ValueError):
            state.ingest(*pair)
        assert vars(state) == before

    @pytest.mark.parametrize("n_before", [0, 1, 5, 40])
    def test_pair_too_large_to_locate_leaves_state_untouched(self, n_before):
        state = EstimatorState(VariationBudget.const(2.0))
        xs = RandomSource(n_before).generator().random(n_before)
        state.ingest_many(xs, xs * 0.5)
        before = copy.deepcopy(vars(state))
        with pytest.raises(OverflowError):
            state.ingest(1e300, 0.5)
        assert vars(state) == before
        state.ingest(0.3, 0.5)  # and the state still takes valid pairs
        assert state.consumed == n_before + 1

    def test_overflow_in_resolution_rebuild_rejects_the_pair(self):
        # 1e70 locates up to resolution 23; the freeze that unlocks 24
        # rebuilds every stored x there and overflows on it
        budget = VariationBudget.const(1e6)
        state = EstimatorState(budget)
        accepted = [(1e70, 0.5)]
        state.ingest(*accepted[0])
        i = 1
        with pytest.raises(OverflowError):
            while True:
                i += 1
                before = {k: copy.copy(getattr(state, k)) for k in ("xs", "ys", "tau", "frozen")}
                state.ingest(0.5 / i, 0.5)
                accepted.append((0.5 / i, 0.5))
        assert i == 24
        for key, value in before.items():
            assert getattr(state, key) == value
        assert state.search_resolution == 23
        fresh = EstimatorState(budget)
        fresh.ingest_many(*zip(*accepted))
        for x, y in [(0.25, 0.5), (-3.0, 1.0)]:  # both states reject the same pairs
            with pytest.raises(OverflowError):
                fresh.ingest(x, y)
            with pytest.raises(OverflowError):
                state.ingest(x, y)
            for key in ("xs", "ys", "tau", "frozen", "search_resolution"):
                assert getattr(state, key) == getattr(fresh, key)

    def test_slack_budget_sprints(self):
        # a budget that never binds freezes at the first admissible n each time
        st = EstimatorState(VariationBudget.const(1e6))
        gen = RandomSource(7).generator()
        xs = gen.random(80)
        ys = np.sin(xs * 9.0)
        st.ingest_many(xs, ys)
        assert st.tau == list(range(1, 81))

    def test_fixed_sample_estimate_boundaries(self):
        st = EstimatorState(VariationBudget.const(1e6))
        xs = RandomSource(1).generator().random(20)
        st.ingest_many(xs, np.ones(20))
        assert st.estimate_at(1) is st.frozen[0]
        for k, t in enumerate(st.tau):
            assert st.estimate_at(t) is st.frozen[k]
        with pytest.raises(ValueError):
            st.estimate_at(21)
        with pytest.raises(ValueError):
            st.estimate_at(0)

    def test_frozen_equals_recomputed_histogram(self):
        seq = gen_iid(UNIFORM, H1, "binary", 800, RandomSource(13))
        st = EstimatorState(VariationBudget.const(1.5))
        st.ingest_many(seq.x, seq.y)
        assert len(st.tau) >= 3
        for k, t in enumerate(st.tau):
            if k == 0:
                continue
            rebuilt = histogram_estimate(seq, k, t).fn
            assert dict(rebuilt.values) == dict(st.frozen[k].values)
            assert variation_check(rebuilt, st.budget)

    def test_streaming_equals_batch(self):
        seq = gen_iid(
            UNIFORM,
            RegressionModel.piecewise_linear([0, 1], [0.2, 0.8]),
            "binary",
            600,
            RandomSource(5),
        )
        for c in (0.6, 1.0, 2.0):
            budget = VariationBudget.const(c)
            st = EstimatorState(budget)
            st.ingest_many(seq.x, seq.y)
            tau_b, frozen_b = batch_tau_search(seq.x, seq.y, budget)
            assert st.tau == tau_b
            for a, b in zip(st.frozen, frozen_b):
                assert dict(a.values) == dict(b.values)

    def test_streaming_equals_batch_after_cancelling_jumps(self):
        # a +-3e12 pair cancels inside one cell: a float running window sum
        # is left ~1.6e-4 off after it, enough to freeze at 6021, not 6016.
        # Fed pair by pair through `ingest`, then in 64-pair `ingest_many`
        # batches (one ends at 6016); both stop at the second freeze: the
        # constant tail would then freeze one resolution per pair until
        # cell_of overflows
        ys = [0.0, 3e12 + 13.3, -3e12] + [4.2] * 2000 + [3.9] * 4500
        xs = [0.25] * len(ys)
        budget = VariationBudget.const(2.0)
        for batch in (1, 64):
            state = EstimatorState(budget)
            for lo in range(0, len(xs), batch):
                if batch == 1:
                    froze = [state.ingest(xs[lo], ys[lo])]
                else:
                    froze = [k for k, _ in state.ingest_many(xs[lo:lo + batch], ys[lo:lo + batch])]
                if 1 in froze:
                    break
            tau_b, frozen_b = batch_tau_search(xs, ys, budget, n_max=state.consumed)
            assert state.tau == tau_b == [1, 6016]
            for a, b in zip(state.frozen, frozen_b):
                assert dict(a.values) == dict(b.values)

    @example(pairs=[(0.5, 0, 1.0)] * 3, c=0.5)  # V = 2 = 4*alpha: the tie fails
    @example(pairs=[(0.3, 511, 1.0), (0.3, -1074, -1.0), (0.7, 511, -1.0), (0.6, -1074, 1.0)], c=0.25)
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-0.75, 0.1, 0.3, 0.5, 0.6, 0.7, 1.0, 1.5]),
                st.one_of(st.integers(-1074, 511), st.integers(-2, 2)),
                st.sampled_from([-1.0, 0.0, 1.0]),
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([0.25, 0.5, 1.0, 2.0**-1000, 2.0**500]),
    )
    def test_streaming_equals_batch_on_powers_of_two(self, pairs, c):
        # y = +-2^e spans every exponent ingest accepts; 4*alpha is a power
        # of two, so a window sum can equal it exactly.  Both entry points
        xs = [x for x, _, _ in pairs]
        ys = [s * math.ldexp(1.0, e) for _, e, s in pairs]
        budget = VariationBudget.const(c)
        tau_b, frozen_b = batch_tau_search(xs, ys, budget)
        for state, err in (_per_pair(budget, xs, ys), _batched(budget, xs, ys)):
            assert err is None and state.tau == tau_b
            for a, b in zip(state.frozen, frozen_b):
                assert a.k == b.k and dict(a.values) == dict(b.values)

    def test_non_member_target_stalls(self):
        # alternating pattern at depth 4 has windowed variation 16 >= 8 = 4*2:
        # the search sprints while cells are sparse, then sticks permanently
        h4 = PiecewiseDyadicFn(4, {j: float(1 - (j - 1) % 2) for j in range(1, 17)}, 0.0)
        seq = gen_deterministic(RegressionModel.from_dyadic(h4), 3000)
        st = EstimatorState(VariationBudget.const(2.0))
        st.ingest_many(seq.x, seq.y)
        assert st.tau == list(range(1, 11))  # sparse sprint through depth 9
        assert st.open_search_age() == 3000 - 10  # then no freeze ever again

    def test_member_target_reaches_depth_ten(self):
        # a strictly in-budget target unlocks the first eleven resolutions
        # within a 2^12 horizon on the deterministic input
        m = RegressionModel.identity_on_unit()
        seq = gen_deterministic(m, 1 << 12)
        st = EstimatorState(VariationBudget.affine(2.0, 0.1))
        st.ingest_many(seq.x, seq.y)
        assert len(st.tau) >= 11  # tau_10 reached

    def test_deterministic_replay(self):
        seq = gen_iid(UNIFORM, H1, "binary", 300, RandomSource(2))
        runs = []
        for _ in range(2):
            st = EstimatorState(VariationBudget.const(1.0))
            st.ingest_many(seq.x, seq.y)
            runs.append((list(st.tau), [dict(f.values) for f in st.frozen]))
        assert runs[0] == runs[1]


class TestCheckpointFormat:
    def test_round_trip_exact(self):
        seq = gen_iid(UNIFORM, H1, "binary", 400, RandomSource(9))
        st = EstimatorState(VariationBudget.affine(0.5, 0.2))
        st.ingest_many(seq.x, seq.y)
        d = checkpoint_to_dict(st)
        blob = json.dumps(d, sort_keys=True)
        parsed = checkpoint_from_dict(json.loads(blob))
        assert parsed["tau"] == st.tau
        assert parsed["budget"] == st.budget
        for a, b in zip(parsed["frozen"], st.frozen):
            assert a.k == b.k and dict(a.values) == dict(b.values)
        assert json.dumps(checkpoint_to_dict_from_parsed(parsed), sort_keys=True) == blob


    def test_verify_checkpoint_passes_and_detects_tamper(self):
        seq = gen_iid(UNIFORM, H1, "binary", 300, RandomSource(4))
        st = EstimatorState(VariationBudget.const(1.0))
        st.ingest_many(seq.x, seq.y)
        chk = checkpoint_to_dict(st)
        assert all(ok for _, ok, _ in verify_checkpoint(seq, chk))
        bad = json.loads(json.dumps(chk))
        bad["frozen"][-1]["cells"][0][1] += 0.125
        assert not all(ok for _, ok, _ in verify_checkpoint(seq, bad))


def checkpoint_to_dict_from_parsed(parsed: dict) -> dict:
    return {
        "budget": parsed["budget"].to_dict(),
        "consumed": parsed["consumed"],
        "tau": list(parsed["tau"]),
        "frozen": [f.to_dict() for f in parsed["frozen"]],
    }


# -- the batched fast path --------------------------------------------------------

def _cells_repr(state: dict):
    """The vars of a state as reprs, so -0.0 and 0.0 differ."""
    cells = sorted((j, c[0], repr(c[1])) for j, c in state["_cells"].items())
    frozen = [(f.k, sorted((j, repr(v)) for j, v in f.values.items())) for f in state["frozen"]]
    return cells, frozen


def _reference(budget, xs, ys):
    """From scratch: (the vars of the state after the pairs, exception type).

    The pairs before the first non-finite one or |y| >= 2^512 are fed to
    `batch_tau_search`.  It raises OverflowError exactly where an x has no
    cell index at the search resolution or a freeze cannot place a stored x
    one resolution deeper; the longest prefix it completes is the one the
    state keeps.  Its cells and window buckets come from `_accumulate_cells`
    and `_window_buckets` at the resolution after the last freeze.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    n, err = len(xs), None
    for i, (x, y) in enumerate(zip(xs, ys)):
        if not (math.isfinite(x) and math.isfinite(y) and abs(y) < 2.0**512):
            n, err = i, ValueError
            break

    def search(m):
        try:
            return batch_tau_search(xs, ys, budget, n_max=m) if m else ([], [])
        except OverflowError:
            return None

    found = search(n)
    if found is None:  # bisect for the longest prefix the search completes
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if search(mid) is not None else (lo, mid - 1)
        n, err, found = lo, OverflowError, search(lo)
    tau, frozen = found
    k = len(tau)
    cells, buckets = {}, {}
    if n:
        keys, counts, sums = _accumulate_cells(xs, ys, k, n)
        cells = {j: [c, s] for j, c, s in zip(keys.tolist(), counts.tolist(), sums.tolist())}
        buckets = _window_buckets(keys, sums / counts, k)
    alpha4 = [4.0 * budget.alpha(i) for i in range(1, k + 1)]
    units4 = [int(Fraction(min(a, sys.float_info.max)) * 2**1074) for a in alpha4]
    state = {
        "budget": budget, "xs": xs[:n], "ys": ys[:n], "tau": tau, "frozen": frozen, "_k": k,
        "_cells": cells, "_bucket": buckets, "_alpha4": alpha4, "_units4": units4,
    }
    return state, err


def _per_pair(budget, xs, ys):
    """`ingest` pair by pair; returns (state, exception type)."""
    state = EstimatorState(budget)
    try:
        for x, y in zip(xs, ys):
            state.ingest(x, y)
    except (ValueError, OverflowError) as e:
        return state, type(e)
    return state, None


def _batched(budget, xs, ys, cuts=()):
    """`ingest_many` on the pieces between the cuts."""
    state = EstimatorState(budget)
    bounds = [0, *sorted(min(c, len(xs)) for c in cuts), len(xs)]
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            state.ingest_many(xs[lo:hi], ys[lo:hi])
    except (ValueError, OverflowError) as e:
        return state, type(e)
    return state, None


def _assert_state(state: EstimatorState, want: dict) -> None:
    assert vars(state) == want
    assert _cells_repr(vars(state)) == _cells_repr(want)


# x in a handful of cells with neighbours at every depth, plus fresh cells;
# x = -0.3 only ever carries -0.0
_X = st.one_of(
    st.sampled_from([0.1, 0.25, 0.25 + 2.0**-12, 0.5, 0.5 - 2.0**-30, 0.75, 1.0, 1.5, -0.3]),
    st.floats(-0.5, 1.5),
)
_Y = st.one_of(
    st.tuples(st.sampled_from([3e12, -3e12]), st.floats(0.0, 1.0)).map(sum),
    st.tuples(st.sampled_from([1.0, -1.0]), st.integers(-1074, 511)).map(
        lambda t: t[0] * math.ldexp(1.0, t[1])
    ),
    st.sampled_from([-0.0, 0.0, 1.0, 4.2, 3.9]),
    st.floats(-2.0, 2.0),
)
_BUDGETS = st.sampled_from(
    [VariationBudget.const(c) for c in (0.25, 0.5, 2.0, 1e6, 2.0**-1000, 2.0**500, 3e12)]
    + [VariationBudget.affine(2.0, 0.1), VariationBudget.from_table([0.3, 1.0, 2.5])]
)


class TestIngestMany:
    @example(  # cancelling +-3e12 pairs in one cell, next to a -0.0-only cell
        pairs=[(0.25, 0.0), (0.25, 3e12 + 13.3), (0.25, -3e12), (-0.3, 0.0), (0.3, 4.2)],
        cuts=[2], budget=VariationBudget.const(2.0),
    )
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(_X, _Y), min_size=1, max_size=120),
        st.lists(st.integers(0, 120), max_size=3),
        _BUDGETS,
    )
    def test_equals_per_pair_loop(self, pairs, cuts, budget):
        xs = [x for x, _ in pairs]
        ys = [-0.0 if x == -0.3 else y for x, y in pairs]
        want, err = _reference(budget, xs, ys)
        runs = (_per_pair(budget, xs, ys), _batched(budget, xs, ys), _batched(budget, xs, ys, cuts))
        assert [e for _, e in runs] == [err] * 3
        for state, _ in runs:
            _assert_state(state, want)

    def test_jump_rounding_is_in_the_bound(self):
        # at k = 1 cell 0 moves by t = 2^-62, far inside the exact margin
        # D = 2^-60 by which the windows fail; but the jump from it to the
        # 1.5 in cell 1 rounds down a whole ulp, 2^-52, and the window sum
        # drops below 4 * alpha = 1.5: only the slack term sees it coming
        a = 2.0**-53
        xs = [0.25, 0.75, -0.75, -0.25, -0.25]
        ys = [1.5, 1.5, a - 2.0**-60, a, a + 2.0**-61]
        budget = VariationBudget.const(0.375)
        want, _ = _reference(budget, xs, ys)
        assert want["tau"] == [1, 5]
        for state, _ in (_per_pair(budget, xs, ys), _batched(budget, xs, ys)):
            _assert_state(state, want)

    def test_sparse_touches_refresh_cell_by_cell(self):
        # 512 cells hold a few pairs each; later pairs revisit few of them,
        # so spans end with a cell-by-cell refresh, not a table rebuild
        gen = RandomSource(3).generator()
        xs = np.concatenate([np.arange(1, 513) / 512.0, gen.choice([0.1, 0.6, 0.9], 3000)])
        ys = np.concatenate([gen.random(512), gen.random(3000) * 8.0])
        for budget in (VariationBudget.const(0.3), VariationBudget.const(40.0)):
            fast, _ = _batched(budget, xs, ys, [700, 701, 2000])
            _assert_state(fast, _reference(budget, xs, ys)[0])

    @pytest.mark.parametrize("at", [0, 1, 7, 300])
    @pytest.mark.parametrize(
        "bad",
        [(math.nan, 0.5), (0.5, math.nan), (0.5, math.inf), (0.5, 2.0**512), (0.5, -(2.0**512)),
         (1e300, 0.5)],
    )
    def test_bad_pair_raises_at_the_same_pair(self, at, bad):
        gen = RandomSource(at).generator()
        xs = list(gen.random(400))
        ys = list(gen.random(400) * 0.5)
        xs.insert(at, bad[0])
        ys.insert(at, bad[1])
        budget = VariationBudget.const(0.6)
        want, err = _reference(budget, xs, ys)
        assert err is not None and len(want["xs"]) == at
        for state, got_err in (_per_pair(budget, xs, ys), _batched(budget, xs, ys)):
            assert got_err is err and state.consumed == at
            _assert_state(state, want)

    def test_freeze_that_overflows_raises_at_the_same_pair(self):
        # 1e70 locates up to resolution 23: the freeze unlocking 24 overflows
        xs = [1e70] + [0.5 / i for i in range(2, 40)]
        ys = [0.5] * len(xs)
        budget = VariationBudget.const(1e6)
        want, err = _reference(budget, xs, ys)
        assert err is OverflowError
        for state, got_err in (_per_pair(budget, xs, ys), _batched(budget, xs, ys)):
            assert got_err is err
            assert state.search_resolution == 23 and state.consumed == 23
            _assert_state(state, want)

    @pytest.mark.parametrize("seed", range(12))
    def test_accumulation_equals_sequential_sums(self, seed):
        # 1e16 cancellations, subnormals and -0.0: the array pass must give
        # the arrival-order Python sums bit for bit
        gen = RandomSource(seed).generator()
        n = 600
        xs = gen.choice([0.05, 0.3, 0.35, 0.9, -0.2], n) + gen.integers(0, 3, n) * 2.0**-9
        pool = np.array([1e16, -1e16, 1.0, -1.0, 5e-324, -5e-324, 2.0**-1060, 0.1, -0.0, 3.0])
        ys = pool[gen.integers(0, len(pool), n)]
        ys[xs == -0.2] = -0.0
        for k in (1, 4, 9):
            want: dict[int, list] = {}
            for x, y in zip(xs.tolist(), ys.tolist()):
                j = math.ceil(math.ldexp(x, k))
                if j in want:
                    want[j][0] += 1
                    want[j][1] += y
                else:
                    want[j] = [1, y]
            keys, counts, sums = _accumulate_cells(xs, ys, k, n)
            got = {j: [c, s] for j, c, s in zip(keys.tolist(), counts.tolist(), sums.tolist())}
            assert [(j, c, repr(s)) for j, (c, s) in sorted(got.items())] == [
                (j, c, repr(s)) for j, (c, s) in sorted(want.items())
            ]

    def test_no_table_keeps_a_zero_entry(self):
        # the second pair into cell 2 brings it level with cell 1: the jump
        # between them returns to 0, and no table of the state may keep a
        # 0 for it (a jump or window sum of 0 is no entry at all), so the
        # state depends on the cells alone, whichever path built it
        state = EstimatorState(VariationBudget.const(0.25))
        for x, y in [(0.25, 1.0), (0.75, 0.0), (0.75, 2.0)]:
            state.ingest(x, y)
        assert state.tau == [1] and state._cells == {1: [1, 1.0], 2: [2, 2.0]}
        tables = [t for name, t in vars(state).items() if name != "_cells" and isinstance(t, dict)]
        assert tables and all(0 not in t.values() for t in tables)
        want, _ = _reference(VariationBudget.const(0.25), [0.25, 0.75, 0.75], [1.0, 0.0, 2.0])
        fast = EstimatorState(VariationBudget.const(0.25))
        fast.ingest_many([0.25, 0.75, 0.75], [1.0, 0.0, 2.0])
        _assert_state(fast, want)
        _assert_state(state, want)

    def test_window_checks_are_rare_on_noisy_iid(self, monkeypatch):
        # the stream-noisy benchmark input at 2^14 pairs: the fast path must
        # check the windows at a small share of pairs, not at every one
        calls = []
        check = EstimatorState._window_margin
        monkeypatch.setattr(
            EstimatorState, "_window_margin", lambda self: calls.append(1) or check(self)
        )
        ramp = RegressionModel.piecewise_linear([0.0, 1.0], [0.2, 0.8])
        n = 1 << 14
        seq = gen_iid(UNIFORM, ramp, "uniform", n, RandomSource(7), delta=0.2)
        state = EstimatorState(VariationBudget.const(2.0))
        state.ingest_many(seq.x, seq.y)
        assert len(state.tau) >= 3
        assert len(calls) < n / 50
