import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stableseq.partitions import (
    DyadicCell,
    PiecewiseDyadicFn,
    VariationBudget,
    cell_of,
    total_variation_window,
)


class TestCellOf:
    @pytest.mark.parametrize(
        "x,k,j",
        [
            (0.3, 2, 2),     # ceil(1.2) = 2, cell (0.25, 0.5]
            (0.25, 2, 1),    # boundary point belongs to the left cell
            (-0.1, 1, 0),    # cell (-0.5, 0]
            (0.5, 1, 1),
            (0.0, 3, 0),
            (1.0, 4, 16),
            (-0.5, 3, -4),
        ],
    )
    def test_examples(self, x, k, j):
        assert cell_of(x, k).j == j

    def test_whole_line_cell(self):
        assert cell_of(123.4, 0) == DyadicCell(0, 0)

    def test_negative_resolution_rejected(self):
        with pytest.raises(ValueError):
            cell_of(0.5, -1)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            cell_of(0.7, 300)

    @given(st.integers(min_value=-(2**20), max_value=2**20), st.integers(1, 20))
    def test_boundary_is_right_closed(self, j, k):
        # the point j/2^k is exactly the right end of cell j
        x = math.ldexp(float(j), -k)
        assert cell_of(x, k).j == j

    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.integers(0, 30),
    )
    def test_refinement_child(self, x, k):
        child = cell_of(x, k + 1)
        assert child.parent() == cell_of(x, k)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False), st.integers(1, 40))
    def test_membership(self, x, k):
        lo, hi = cell_of(x, k).bounds()
        assert lo < x <= hi


def _frexp_cell_index(x: float, k: int) -> int:
    """The cell index by integer mantissa and exponent (the former cell_of)."""
    if x == 0.0:
        return 0
    m, e = math.frexp(x)
    mant = int(m * float(1 << 53))
    shift = e - 53 + k
    j = mant << shift if shift >= 0 else -((-mant) >> (-shift))
    if j.bit_length() > 256:
        raise OverflowError("cell index exceeds 256 bits")
    return j


class TestCellIndexFormula:
    """ceil(ldexp(x, k)), scalar and vectorized, against the frexp form."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e70, -1e70, 0.1, -0.75,
               1.0, 3.0, 2.0**-40, 1.0 - 2.0**-53, 2.0**52 + 1, 1e17, 1e300]

    @pytest.fixture
    def points(self, rng):
        return (
            self.SPECIAL
            + rng.uniform(-1, 1, 200).tolist()
            + (rng.normal(size=200) * 1e3).tolist()
            + (np.arange(-64, 65) / 32.0).tolist()  # a dyadic grid
        )

    @pytest.mark.parametrize("k", [1, 5, 10, 20, 40, 52, 60, 100, 200, 256, 1100, 1400])
    def test_matches_reference(self, points, k):
        located = [x for x in points if _located(x, k)]
        cells = [_frexp_cell_index(x, k) for x in located]
        assert [cell_of(x, k).j for x in located] == cells
        # every other cell holds a value; the rest take the default
        f = PiecewiseDyadicFn(k, {j: float(i) for i, j in enumerate(cells[::2])}, -1.0)
        assert f.eval_many(np.array(located)).tolist() == [f.value_at_cell(j) for j in cells]
        for x in set(points) - set(located):
            with pytest.raises(OverflowError):
                cell_of(x, k)
            with pytest.raises(OverflowError):
                f.eval_many(np.array([0.5, x]))


def _located(x: float, k: int) -> bool:
    try:
        _frexp_cell_index(x, k)
    except OverflowError:
        return False
    return True


def _brute_force_variation(fn: PiecewiseDyadicFn, lo: float, hi: float, rng) -> float:
    """Supremum over random refining grids of summed absolute increments."""
    best = 0.0
    w = math.ldexp(1.0, -fn.k)
    edges = np.arange(math.floor(lo / w), math.ceil(hi / w) + 1) * w
    reps = [e + 0.5 * w for e in edges[:-1] if lo < e + 0.5 * w <= hi]
    for _ in range(200):
        extra = rng.uniform(lo + 1e-12, hi, size=8)
        grid = np.unique(np.clip(np.concatenate([reps, extra, [hi]]), None, hi))
        grid = grid[grid > lo]
        vals = [fn(float(t)) for t in grid]
        best = max(best, float(np.sum(np.abs(np.diff(vals)))))
    return best


class TestTotalVariationWindow:
    def test_alternating_from_zero(self):
        f = PiecewiseDyadicFn(2, {1: 0.0, 2: 1.0, 3: 0.0, 4: 1.0}, 0.0)
        assert total_variation_window(f, 1) == 3.0

    def test_alternating_from_one(self):
        # step profile 1,0,1,0 on (0,1]: the entry jump at 0 counts, exit at 1 is flat
        f = PiecewiseDyadicFn(2, {1: 1.0, 2: 0.0, 3: 1.0, 4: 0.0}, 0.0)
        assert total_variation_window(f, 1) == 4.0

    def test_constant_is_flat(self):
        assert total_variation_window(PiecewiseDyadicFn(3, {}, 5.0), 4) == 0.0
        f = PiecewiseDyadicFn(2, {j: 2.5 for j in range(-8, 9)}, 2.5)
        assert total_variation_window(f, 2) == 0.0

    def test_whole_line_resolution(self):
        assert total_variation_window(PiecewiseDyadicFn(0, {0: 3.0}, 0.0), 5) == 0.0

    def test_window_excludes_left_edge_jump(self):
        # single cell just right of -1: jump at -1 itself must not count
        w = 0.25
        f = PiecewiseDyadicFn(2, {int(-1 / w) + 1: 7.0}, 0.0)
        assert total_variation_window(f, 1) == 7.0  # only the jump back down at -0.75

    def test_matches_grid_supremum(self, rng):
        for _ in range(25):
            k = int(rng.integers(1, 4))
            js = rng.integers(-(2 ** k) * 2, (2 ** k) * 2, size=rng.integers(1, 7))
            fn = PiecewiseDyadicFn(
                k, {int(j): float(rng.normal()) for j in js}, 0.0
            )
            i = int(rng.integers(1, 3))
            exact = total_variation_window(fn, i)
            brute = _brute_force_variation(fn, -float(i), float(i), rng)
            assert brute <= exact + 1e-12
            assert exact - brute <= 1e-12  # representative grid attains the sum


class TestPiecewiseDyadicFn:
    def test_eval(self):
        f = PiecewiseDyadicFn(1, {1: 2.0, 2: -1.0}, 0.5)
        assert f(0.3) == 2.0
        assert f(0.5) == 2.0
        assert f(0.75) == -1.0
        assert f(9.0) == 0.5

    def test_eval_many_matches_scalar(self, rng):
        f = PiecewiseDyadicFn(3, {int(j): float(rng.normal()) for j in range(-4, 9)}, 0.25)
        xs = rng.uniform(-2, 2, size=64)
        out = f.eval_many(xs)
        assert [f(float(x)) for x in xs] == list(out)

    @given(
        st.lists(st.floats(-4, 4), max_size=8),
        st.integers(0, 8),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 50),
    )
    def test_eval_many_rejects_non_finite(self, xs, pos, bad, k):
        f = PiecewiseDyadicFn(k, {0: 1.0} if k == 0 else {1: 1.0, -3: 2.0}, 0.5)
        xs.insert(min(pos, len(xs)), bad)
        with pytest.raises(ValueError):
            f.eval_many(np.array(xs))

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(1, 60),
    )
    def test_eval_many_matches_scalar_at_any_magnitude(self, x, k):
        # beyond the int64 range eval_many must neither wrap nor warn
        f = PiecewiseDyadicFn(k, {-1: 3.0, 0: 1.0, 1: 2.0}, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                expect = f(x)
            except OverflowError:
                with pytest.raises(OverflowError):
                    f.eval_many(np.array([x]))
                return
            assert list(f.eval_many(np.array([x, x]))) == [expect, expect]

    @given(
        st.integers(60, 70),
        st.lists(st.tuples(st.floats(-8, 8, allow_nan=False), st.floats(-9, 9)), max_size=8),
        st.lists(st.floats(-8, 8, allow_nan=False), max_size=8),
    )
    def test_eval_many_equals_scalar_beyond_int64(self, k, mapped, others):
        # at k >= 60 cell indices reach past 2^62, where the cells, the
        # located indices or both are Python ints of dtype object
        cells = {cell_of(x, k).j: v for x, v in mapped}
        f = PiecewiseDyadicFn(k, cells, 0.25)
        xs = [x for x, _ in mapped] + others
        expect = [cells.get(cell_of(x, k).j, 0.25) for x in xs]
        assert f.eval_many(np.array(xs)).tolist() == [f(x) for x in xs] == expect

    def test_eval_many_mixes_index_kinds(self):
        near, far = PiecewiseDyadicFn(70, {5: 2.0}, 0.5), PiecewiseDyadicFn(70, {2**70: 3.0}, 0.5)
        assert near.cells.dtype == np.int64 and far.cells.dtype == object
        xs = np.array([1.0, 5 * 2.0**-70, 0.5])  # cells 2^70, 5 and 2^69
        assert near.eval_many(xs).tolist() == [0.5, 2.0, 0.5]
        assert far.eval_many(xs).tolist() == [3.0, 0.5, 0.5]
        # 2^70 + 1 is no double's cell: no point reaches it
        assert PiecewiseDyadicFn(70, {2**70 + 1: 3.0}, 0.5).eval_many(xs).tolist() == [0.5] * 3

    def test_serialization_round_trip_exact(self, rng):
        f = PiecewiseDyadicFn(
            7, {int(j): float(v) for j, v in zip(rng.integers(-99, 99, 9), rng.normal(size=9))}, 0.125
        )
        g = PiecewiseDyadicFn.from_dict(f.to_dict())
        assert g.k == f.k and g.default == f.default
        assert dict(g.values) == dict(f.values)

    def test_from_dict_takes_cells_in_any_order_and_the_last_repeat(self):
        d = {"k": 2, "default": 0.5, "cells": [[3, 1.0], [-1, 2.0], [3, 4.0], [2**70, 5.0]]}
        f = PiecewiseDyadicFn.from_dict(d)
        assert f.cells.tolist() == [-1, 3, 2**70] and f.vals.tolist() == [2.0, 4.0, 5.0]
        assert f.to_dict()["cells"] == [[-1, 2.0], [3, 4.0], [2**70, 5.0]]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_from_dict_rejects_non_finite_numbers(self, value):
        for d in ({"k": 1, "default": 0.0, "cells": [[1, value]]},
                  {"k": 1, "default": value, "cells": [[1, 0.5]]}):
            with pytest.raises(ValueError, match="finite"):
                PiecewiseDyadicFn.from_dict(d)

    def test_k0_only_index_zero(self):
        with pytest.raises(ValueError):
            PiecewiseDyadicFn(0, {1: 2.0})


class TestVariationBudget:
    def test_forms(self):
        assert VariationBudget.const(2.0).alpha(7) == 2.0
        b = VariationBudget.affine(2.0, 0.1)
        assert b.alpha(1) == 2.1 and b.alpha(3) == 6.1
        t = VariationBudget.from_table([1.0, 2.0, 2.0])
        assert t.alpha(1) == 1.0 and t.alpha(2) == 2.0 and t.alpha(99) == 2.0

    def test_non_decreasing_enforced(self):
        with pytest.raises(ValueError):
            VariationBudget.from_table([2.0, 1.0])
        with pytest.raises(ValueError):
            VariationBudget.const(0.0)

    def test_round_trip(self):
        for b in (
            VariationBudget.const(3.5),
            VariationBudget.affine(2.0, 0.1),
            VariationBudget.from_table([0.5, 1.5]),
        ):
            assert VariationBudget.from_dict(b.to_dict()) == b

    def test_nan_rejected_and_infinity_kept(self):
        # a freeze reads an infinite 4 alpha(i) as a window that never binds
        table = VariationBudget.from_dict({"kind": "table", "values": [1.0, math.inf]})
        assert table.alpha(2) == math.inf
        for d in ({"kind": "table", "values": [1.0, math.nan]},
                  {"kind": "affine", "slope": math.nan, "intercept": 1.0},
                  {"kind": "affine", "slope": 1.0, "intercept": math.nan}):
            with pytest.raises(ValueError, match="NaN"):
                VariationBudget.from_dict(d)

    def test_defined_on_positive_integers(self):
        with pytest.raises(ValueError):
            VariationBudget.const(1.0).alpha(0)


class TestCallOnArrays:
    F = PiecewiseDyadicFn(3, {-2: 4.0, 1: 0.25, 3: -1.0, 6: 2.5}, 0.125)

    @pytest.mark.parametrize(
        "xs",
        [np.array(0.3), np.array([-0.3, 0.0, -0.0, 0.125, 0.7, 9.0]),
         np.linspace(-1.0, 1.0, 12).reshape(3, 4)],
        ids=["0-d", "1-d", "2-d"],
    )
    def test_array_call_equals_eval_many(self, xs):
        got = self.F(xs)
        want = self.F.eval_many(xs)
        assert np.shape(got) == np.shape(want) == xs.shape
        assert np.array_equal(got, want)

    def test_scalar_call_is_the_cell_value(self):
        for x in (-0.3, 0.0, -0.0, 0.125, 0.7, 9.0):
            got = self.F(x)
            assert type(got) is float
            assert got == self.F.value_at_cell(cell_of(x, 3).j)

    def test_scalar_errors_are_cell_of_errors(self):
        with pytest.raises(ValueError):
            self.F(math.nan)
        with pytest.raises(OverflowError):
            self.F(1e308)
        # at k = 0 too, a non-finite point has no cell, scalar or array
        f0 = PiecewiseDyadicFn(0, {0: 1.5}, 1.5)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                f0(x)
            with pytest.raises(ValueError):
                f0(np.array([x]))

    def test_dyadic_resolution(self):
        assert [PiecewiseDyadicFn(k).dyadic_resolution for k in (0, 1, 7)] == [1, 1, 7]
