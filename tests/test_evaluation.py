import csv
import io
import math

import numpy as np
import pytest
from conftest import state_view

from stableseq.estimator import EstimatorState
from stableseq.evaluation import (
    ErrorCurve,
    _segment_cuts,
    consistency_curve,
    error_curve_csv_bytes,
    l2_error_exact,
    l2_error_quadrature,
    stream_checkpoints,
)
from stableseq.generators import RandomSource, gen_deterministic, gen_iid
from stableseq.measures import DistributionModel
from stableseq.partitions import PiecewiseDyadicFn, VariationBudget
from stableseq.regression import RegressionModel

UNIFORM = DistributionModel.uniform(0.0, 1.0)
H1 = RegressionModel.from_dyadic(PiecewiseDyadicFn(1, {1: 1.0, 2: 0.0}, 0.0))
H2 = RegressionModel.from_dyadic(PiecewiseDyadicFn(2, {1: 1.0, 2: 0.0, 3: 1.0, 4: 0.0}, 0.0))
H3 = RegressionModel.from_dyadic(
    PiecewiseDyadicFn(3, {j: float(1 - (j - 1) % 2) for j in range(1, 9)}, 0.0)
)


class TestL2Exact:
    def test_constant_vs_step(self):
        est = PiecewiseDyadicFn(0, {0: 0.5}, 0.5)
        assert l2_error_exact(est, H1, UNIFORM) == pytest.approx(0.25, abs=1e-15)

    def test_identity_zero(self):
        assert l2_error_exact(H1.fn, H1, UNIFORM) == 0.0

    def test_distinct_ladder_functions_half_apart(self):
        assert l2_error_exact(H1.fn, H2, UNIFORM) == pytest.approx(0.5, abs=1e-15)

    def test_linear_piece_closed_form(self):
        est = PiecewiseDyadicFn(0, {0: 0.0}, 0.0)
        got = l2_error_exact(est, RegressionModel.identity_on_unit(), UNIFORM)
        assert got == pytest.approx(1 / 3, abs=1e-15)

    def test_atoms_counted(self):
        model = DistributionModel(atoms=((0.5, 0.5),), segments=((0.0, 1.0, 0.5),))
        est = PiecewiseDyadicFn(0, {0: 0.0}, 0.0)
        m = RegressionModel.constant(1.0)
        # 0.5 * (0-1)^2 atom + 0.5 * 1 continuous
        assert l2_error_exact(est, m, model) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_black_boxes(self):
        with pytest.raises(TypeError):
            l2_error_exact(lambda x: x, H1, UNIFORM)
        with pytest.raises(TypeError):
            l2_error_exact(H1.fn, lambda x: x, UNIFORM)

    def test_scale_equivariance(self):
        base = l2_error_exact(H1.fn, H3, UNIFORM)
        doubled_est = PiecewiseDyadicFn(1, {1: 2.0, 2: 0.0}, 0.0)
        got = l2_error_exact(doubled_est, H3.scaled(2.0), UNIFORM)
        assert got == pytest.approx(4.0 * base, abs=1e-12)


    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_piece_by_piece_sum(self, seed):
        # the same terms, in the same order, as a scalar walk over the pieces
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        est = PiecewiseDyadicFn(k, {int(j): float(rng.normal()) for j in rng.integers(-3, 70, 40)}, 0.0)
        m = RegressionModel.piecewise_linear([-0.2, 0.1, 0.45, 0.8, 1.3], rng.normal(size=5).tolist())
        mu = DistributionModel(atoms=((0.3, 0.19), (0.5, 0.1)),
                               segments=((-0.5, 0.2, 0.5), (0.2, 1.5, 0.36 / 1.3)))
        terms = []
        for a, b, d in mu.segments:
            cuts = sorted({a, b, *(j / 2.0**k for j in range(-1024, 1024) if a < j / 2.0**k < b),
                           *(t for t in m.xs if a < t < b)})
            for lo, hi in zip(cuts, cuts[1:]):
                c, s = m.linear_piece_at(0.5 * (lo + hi))
                p = est(0.5 * (lo + hi)) - c
                val = p * p * (hi - lo) - p * s * (hi * hi - lo * lo) + s * s * (hi * hi * hi - lo * lo * lo) / 3.0
                terms.append(d * val)
        terms += [mass * (est(u) - m.eval(u)) * (est(u) - m.eval(u)) for u, mass in mu.atoms]
        assert l2_error_exact(est, m, mu) == math.fsum(terms)

    @pytest.mark.parametrize("a, b", [(-0.0, 1.0), (-0.5, 0.0), (-0.5, 0.5), (0.25, 0.75)])
    def test_segment_cuts_equal_the_sorted_set(self, a, b):
        # m's nodes repeat the estimate's grid points and the segment ends,
        # and -0.0 sits beside the grid's 0.0: both count as one cut
        est = PiecewiseDyadicFn(3, {-3: 1.0, 0: 0.5, 2: -1.0, 5: 2.0}, 0.0)
        m = RegressionModel.piecewise_linear(
            [-0.5, -0.0, 0.25, 0.375, 0.75, 1.0], [0.1, -0.3, 0.2, 0.9, 0.0, 0.4]
        )
        grid = RegressionModel.from_dyadic(est).breakpoints_in(a, b)
        expected = sorted({a, b, *grid.tolist(), *m.breakpoints_in(a, b).tolist()})
        assert _segment_cuts(a, b, est, m).tolist() == expected

    def test_overflow_raises(self):
        huge = RegressionModel.piecewise_linear([0.0, 1.0], [1e308, 0.8])
        with pytest.raises(OverflowError):
            l2_error_exact(PiecewiseDyadicFn(1, {1: -1e308}, 0.0), huge, UNIFORM)


class TestL2Quadrature:
    def test_identical_constants(self):
        r = l2_error_quadrature(RegressionModel.constant(3.0), RegressionModel.constant(3.0), UNIFORM)
        assert r.value == 0.0 and r.converged

    def test_matches_exact_on_steps(self):
        r = l2_error_quadrature(H1.fn, H3, UNIFORM, cells=1 << 16)
        exact = l2_error_exact(H1.fn, H3, UNIFORM)
        assert r.converged
        assert r.value == pytest.approx(exact, abs=1e-6)
        assert exact == pytest.approx(0.5, abs=1e-12)

    def test_polynomial(self):
        r = l2_error_quadrature(lambda x: x, RegressionModel.constant(0.0), UNIFORM, cells=1 << 16)
        assert r.value == pytest.approx(1 / 3, abs=1e-6)

    def test_cells_validated(self):
        with pytest.raises(ValueError):
            l2_error_quadrature(H1.fn, H1, UNIFORM, cells=1000)
        with pytest.raises(ValueError):
            l2_error_quadrature(H1.fn, H1, UNIFORM, cells=512)

    def test_not_converged_is_soft(self):
        # an indicator resonant with the coarse grid: every 2^10-midpoint sees
        # 1, every 2^11-midpoint sees 0, so the Richardson check must fail
        def resonant(x):
            frac = np.mod(np.asarray(x) * (1 << 10), 1.0)
            return ((frac >= 0.45) & (frac < 0.55)).astype(float)

        r = l2_error_quadrature(resonant, RegressionModel.constant(0.0), UNIFORM, cells=1 << 10)
        assert not r.converged
        assert r.coarse == pytest.approx(1.0) and r.fine == pytest.approx(0.0)


class TestConsistencyCurve:
    def test_constant_target_error_hits_zero(self):
        # noiseless constant labels make every populated cell average exactly
        # c (0.75 keeps the running sums exact in binary); with an atomic
        # law, unpopulated cells carry no mass, so the error is exactly 0
        # from the first stopping time onward
        m = RegressionModel.constant(0.75)
        mu = DistributionModel.atomic([(0.25, 0.5), (0.75, 0.5)])
        seq = gen_iid(mu, m, "none", 256, RandomSource(1))
        assert set(np.unique(seq.x[:2])) == {0.25, 0.75}  # both atoms seen early
        curve = consistency_curve(seq, m, mu, VariationBudget.const(1.0), [2, 64, 256])
        assert [e for _, _, e in curve.rows] == [0.0, 0.0, 0.0]
        assert curve.stalled_at is None

    def test_constant_target_on_lebesgue_decreases(self):
        # with Lebesgue mass the frozen estimate can leave boundary-adjacent
        # uncovered cells (variation is blind to them), so the error is the
        # uncovered mass times c^2, vanishing as coverage completes
        m = RegressionModel.constant(0.7)
        seq = gen_deterministic(m, 256)
        curve = consistency_curve(seq, m, UNIFORM, VariationBudget.const(0.4), [1, 64, 256])
        errs = [e for _, _, e in curve.rows]
        assert errs[0] == 0.0  # the depth-0 estimate is y_1 = c exactly
        assert errs[2] < errs[1] and errs[2] <= 0.49 * 4 / 256

    def test_step_target_converges(self):
        seq = gen_deterministic(H1, 1 << 12)
        curve = consistency_curve(
            seq, H1, UNIFORM, VariationBudget.const(2.0), [128, 1 << 12]
        )
        assert curve.rows[-1][2] < curve.rows[0][2]
        assert curve.metadata["declared_membership_ok"] is False  # V(-1,1)=2 ties alpha

    def test_lipschitz_declared_member(self):
        m = RegressionModel.identity_on_unit()
        seq = gen_deterministic(m, 512)
        curve = consistency_curve(seq, m, UNIFORM, VariationBudget.affine(2.0, 0.1), [64, 512])
        assert curve.metadata["declared_membership_ok"] is True
        assert curve.rows[-1][2] < curve.rows[0][2]

    def test_stall_marker(self):
        h4 = PiecewiseDyadicFn(4, {j: float(1 - (j - 1) % 2) for j in range(1, 17)}, 0.0)
        m = RegressionModel.from_dyadic(h4)
        seq = gen_deterministic(m, 3000)
        curve = consistency_curve(
            seq, m, UNIFORM, VariationBudget.const(2.0), [64, 3000], stall_patience=512
        )
        assert curve.stalled_at == 10 + 512 + 1
        assert [n for n, _, _ in curve.rows] == [64]  # truncated before 3000

    def test_checkpoint_below_one_rejected(self):
        seq = gen_deterministic(H1, 64)
        with pytest.raises(ValueError):
            consistency_curve(seq, H1, UNIFORM, VariationBudget.const(2.0), [0, 16, 64])

    def test_csv_bytes(self):
        curve = ErrorCurve(((4, 1, 0.5), (8, 2, 0.25)), {"alpha": "x"})
        text = error_curve_csv_bytes(curve).decode()
        assert text.splitlines()[0] == "n,kappa,error"
        assert "8,2,0.25" in text

    @pytest.mark.parametrize(
        "rows",
        [((4, 1, math.nan), (8, 2, math.inf), (16, 2, -math.inf), (32, 3, -0.0),
          (64, 3, 5e-324), (128, 4, 1e16), (256, 4, np.float64(0.1))),
         ()],
        ids=["special-floats", "no-rows"],
    )
    def test_csv_bytes_equal_the_csv_writer(self, rows):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "kappa", "error"])
        for n, kappa, err in rows:
            w.writerow([n, kappa, repr(float(err))])
        assert error_curve_csv_bytes(ErrorCurve(rows)) == buf.getvalue().encode("utf-8")


def _stream_checkpoints_per_pair(seq, budget, n_stop, checkpoints, patience, m, mu):
    """Reference loop: `ingest` pair by pair, stall check before the rows."""
    checkpoints = sorted(checkpoints)
    state = EstimatorState(budget)
    rows, stalled_at, next_cp = [], None, 0
    for i in range(n_stop):
        state.ingest(float(seq.x[i]), float(seq.y[i]))
        n = i + 1
        if patience is not None and state.open_search_age() > patience:
            stalled_at = n
            break
        while next_cp < len(checkpoints) and checkpoints[next_cp] == n:
            rows.append((n, state.kappa(n), l2_error_exact(state.estimate_at(n), m, mu)))
            next_cp += 1
    return state, rows, stalled_at


class TestStreamCheckpoints:
    @pytest.mark.parametrize("patience", [None, -3, 0, 1, 5, 40, 300])
    @pytest.mark.parametrize("inputs", ["stalling", "noisy"])
    def test_equals_per_pair_loop(self, patience, inputs):
        if inputs == "stalling":  # sprints through depth 9, then never freezes
            seq = gen_deterministic(H3, 700)
            m, budget = H3, VariationBudget.const(1.0)
        else:
            m = RegressionModel.piecewise_linear([0.0, 1.0], [0.2, 0.8])
            seq = gen_iid(UNIFORM, m, "uniform", 700, RandomSource(2), delta=0.2)
            budget = VariationBudget.const(0.5)
        _, _, stall = _stream_checkpoints_per_pair(seq, budget, 700, [], patience, m, UNIFORM)
        grids = [[], [1], [3, 3, 9, 64, 650], list(range(1, 700, 37)), [699, 700, 701]]
        if stall is not None:
            grids.append([max(stall - 1, 1), stall, stall + 1])  # a stall on a checkpoint: no row
        for checkpoints in grids:
            for n_stop in (1, 650, 700):
                want = _stream_checkpoints_per_pair(seq, budget, n_stop, checkpoints, patience, m, UNIFORM)
                got = stream_checkpoints(seq, budget, n_stop, checkpoints, patience, m, UNIFORM)
                assert got[1:] == want[1:]
                assert [repr(e) for *_, e in got[1]] == [repr(e) for *_, e in want[1]]
                assert state_view(got[0]) == state_view(want[0])
