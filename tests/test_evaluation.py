import numpy as np
import pytest

from stableseq.evaluation import (
    ErrorCurve,
    consistency_curve,
    error_curve_csv_bytes,
    l2_error_exact,
    l2_error_quadrature,
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
