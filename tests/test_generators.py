import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableseq.estimator import EstimatorState
from stableseq.evaluation import l2_error_exact
from stableseq.generators import (
    GeneratorError,
    RandomSource,
    gen_deterministic,
    gen_harmonic_approach,
    gen_iid,
    gen_markov,
    gen_nonergodic_mixture,
    markov_stationary_model,
    van_der_corput,
)
from stableseq.measures import (
    DistributionModel,
    sequence_csv_bytes,
    stability_diagnostic,
    sup_interval_discrepancy,
)
from stableseq.partitions import PiecewiseDyadicFn, VariationBudget
from stableseq.regression import RegressionModel, SignedMeasureModel

UNIFORM = DistributionModel.uniform(0.0, 1.0)
H1 = RegressionModel.from_dyadic(PiecewiseDyadicFn(1, {1: 1.0, 2: 0.0}, 0.0))


class TestVanDerCorput:
    def test_first_values(self):
        np.testing.assert_array_equal(van_der_corput(4), [0.5, 0.25, 0.75, 0.125])

    def test_all_distinct(self):
        x = van_der_corput(1 << 14)
        assert len(np.unique(x)) == len(x)

    def test_discrepancy_bound_at_1024(self):
        seq = gen_deterministic(RegressionModel.constant(0.0), 1024)
        d = sup_interval_discrepancy(seq, UNIFORM)
        assert d <= 11 / 1024  # classical (log2 n + 1)/n ceiling
        assert d == pytest.approx(0.00146484375, abs=1e-15)  # measured, frozen

    def test_weighted_convergence(self):
        seq = gen_deterministic(H1, 1 << 12)
        from stableseq.measures import IntervalA, empirical_weighted_mass

        got = empirical_weighted_mass(seq, IntervalA(0.0, 0.5))
        assert got == pytest.approx(0.5, abs=0.01)


class TestGenIid:
    def test_noiseless_labels(self):
        seq = gen_iid(UNIFORM, H1, "none", 4, RandomSource(1))
        assert len(seq) == 4
        np.testing.assert_array_equal(seq.y, np.asarray(H1.eval(seq.x)))

    def test_binary_noise_mean(self):
        atom = DistributionModel.point_mass(0.5)
        seq = gen_iid(atom, RegressionModel.constant(0.7), "binary", 10_000, RandomSource(11))
        assert set(np.unique(seq.y)) <= {0.0, 1.0}
        assert float(seq.y.mean()) == pytest.approx(0.7, abs=0.02)
        assert float(seq.y.mean()) == 0.7028  # seeded run, frozen

    def test_empty(self):
        seq = gen_iid(UNIFORM, H1, "none", 0, RandomSource(1))
        assert len(seq) == 0

    def test_binary_noise_requires_unit_range(self):
        bad = RegressionModel.piecewise_linear([0, 1], [-0.5, 0.5])
        with pytest.raises(GeneratorError):
            gen_iid(UNIFORM, bad, "binary", 10, RandomSource(1))

    def test_uniform_noise_bounded(self):
        seq = gen_iid(UNIFORM, RegressionModel.constant(0.5), "uniform", 500, RandomSource(3), delta=0.2)
        assert float(np.abs(seq.y - 0.5).max()) <= 0.2

    def test_seed_determinism_bytes(self):
        a = gen_iid(UNIFORM, H1, "binary", 256, RandomSource(42))
        b = gen_iid(UNIFORM, H1, "binary", 256, RandomSource(42))
        assert sequence_csv_bytes(a) == sequence_csv_bytes(b)
        c = gen_iid(UNIFORM, H1, "binary", 256, RandomSource(43))
        assert sequence_csv_bytes(a) != sequence_csv_bytes(c)


class TestGenMarkov:
    T = [[0.7, 0.3], [0.3, 0.7]]

    def test_symmetric_stationary_law(self):
        stat = markov_stationary_model([0.25, 0.75], self.T)
        assert stat.atoms == ((0.25, pytest.approx(0.5)), (0.75, pytest.approx(0.5)))

    def test_empirical_frequencies(self):
        seq = gen_markov([0.25, 0.75], self.T, RegressionModel.identity_on_unit(), 100_000, RandomSource(5))
        assert seq.atom_frequency(0.25) == pytest.approx(0.5, abs=0.01)
        assert seq.atom_frequency(0.75) == pytest.approx(0.5, abs=0.01)
        assert seq.atom_frequency(0.25) == 0.50091  # seeded run, frozen

    def test_half_half_rows_match_iid(self):
        # memoryless rows: transition row equals the stationary law
        seq = gen_markov([0.25, 0.75], [[0.5, 0.5], [0.5, 0.5]], RegressionModel.constant(1.0), 3000, RandomSource(5))
        assert seq.atom_frequency(0.25) == pytest.approx(0.5, abs=0.05)

    def test_reducible_rejected(self):
        with pytest.raises(GeneratorError):
            gen_markov([0.25, 0.75], [[1.0, 0.0], [0.0, 1.0]], H1, 10, RandomSource(1))

    def test_periodic_rejected(self):
        with pytest.raises(GeneratorError):
            gen_markov([0.25, 0.75], [[0.0, 1.0], [1.0, 0.0]], H1, 10, RandomSource(1))

    def test_rows_must_be_stochastic(self):
        with pytest.raises(GeneratorError):
            gen_markov([0.25, 0.75], [[0.6, 0.3], [0.3, 0.7]], H1, 10, RandomSource(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad, capfd):
        # a NaN row sum passed the row-sum check and reached lstsq
        t = [[bad, 1.0], [0.5, 0.5]]
        with pytest.raises(GeneratorError, match="transition entries must be finite"):
            gen_markov([0.25, 0.75], t, H1, 10, RandomSource(1))
        with pytest.raises(GeneratorError, match="transition entries must be finite"):
            markov_stationary_model([0.25, 0.75], t)
        assert capfd.readouterr().err == ""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda s: st.lists(st.lists(st.integers(0, 3), min_size=s, max_size=s),
                           min_size=s, max_size=s)
    ))
    def test_chain_checks_equal_matrix_powers(self, weights):
        # a row of zero weights gets its self-loop; the verdict is the one
        # the 0/1 matrix A of positive entries gives: irreducible iff
        # (I + A)^(s-1) > 0, and then aperiodic iff A^((s-1)^2 + 1) > 0
        w = np.array(weights, dtype=float)
        s = len(w)
        zero = np.flatnonzero(w.sum(axis=1) == 0)
        w[zero, zero] = 1.0
        t = w / w.sum(axis=1, keepdims=True)
        adj = (t > 0).astype(np.int64)

        def power(m, e):
            out = np.eye(s, dtype=np.int64)
            for _ in range(e):
                out = np.minimum(out @ m, 1)
            return out

        expected = (
            "transition matrix is reducible" if not power(np.eye(s, dtype=int) + adj, s - 1).all()
            else "transition matrix is periodic" if not power(adj, (s - 1) ** 2 + 1).all()
            else None
        )
        states = [(i + 0.5) / s for i in range(s)]
        try:
            gen_markov(states, t.tolist(), H1, 8, RandomSource(0))
            got = None
        except GeneratorError as e:
            got = str(e)
        assert got == expected

    def test_outputs_and_rejections_are_pinned(self):
        # 300 seeded chains of 1 to 7 states, some periodic, some with a
        # repeated or an extra state value: their outputs and rejections
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for i in range(300):
            s = int(rng.integers(1, 8))
            t = rng.random((s, s)) * (rng.random((s, s)) < rng.uniform(0.15, 0.9))
            if i % 10 == 0:
                t = np.roll(np.eye(s), 1, axis=1)
            t[t.sum(axis=1) == 0, 0] = 1.0
            t /= t.sum(axis=1, keepdims=True)
            states = (rng.permutation(s) / s + rng.uniform(0.0, 0.1)).tolist()
            if i % 23 == 0 and s > 1:
                states[1] = states[0]
            if i % 29 == 0:
                states.append(0.99)
            try:
                seq = gen_markov(states, t.tolist(), RegressionModel.identity_on_unit(), 40,
                                 RandomSource(i), noise="uniform", delta=0.25)
                digest.update(seq.x.tobytes() + seq.y.tobytes())
            except GeneratorError as e:
                digest.update(str(e).encode())
        assert digest.hexdigest() == "eabf9e325b1589128937016c8d9ce0154dbf37cb10b230ac864b44e3240f429e"


class TestHarmonicApproach:
    def test_values(self):
        seq = gen_harmonic_approach(3)
        np.testing.assert_allclose(seq.x, [-1 / 2, -1 / 3, -1 / 4])
        np.testing.assert_array_equal(seq.y, [0.0, 0.0, 0.0])

    def test_atom_never_sampled_but_halfline_full(self):
        seq = gen_harmonic_approach(500)
        assert seq.atom_frequency(0.0) == 0.0
        assert float(seq.empirical_cdf(0.0)) == 1.0
        assert float(seq.empirical_cdf(-1e-9)) == 1.0  # still left of 0


class TestMixture:
    def test_degenerate_weights(self):
        comps = [(1.0, UNIFORM, H1), (0.0, UNIFORM, RegressionModel.constant(0.0))]
        _, idx = gen_nonergodic_mixture(comps, "none", 10, RandomSource(99))
        assert idx == 0

    def test_choice_deterministic(self):
        comps = [(0.5, UNIFORM, H1), (0.5, UNIFORM, RegressionModel.constant(0.0))]
        ids = {gen_nonergodic_mixture(comps, "none", 5, RandomSource(21))[1] for _ in range(3)}
        assert len(ids) == 1

    def test_estimator_tracks_chosen_component(self):
        mA = RegressionModel.constant(0.9)
        mB = RegressionModel.constant(0.1)
        seq, idx = gen_nonergodic_mixture(
            [(0.5, UNIFORM, mA), (0.5, UNIFORM, mB)], "binary", 50_000, RandomSource(21)
        )
        st = EstimatorState(VariationBudget.const(2.0))
        st.ingest_many(seq.x, seq.y)
        est = st.estimate_at(50_000)
        chosen, other = (mA, mB) if idx == 0 else (mB, mA)
        assert l2_error_exact(est, chosen, UNIFORM) < l2_error_exact(est, other, UNIFORM)

    def test_weights_validated(self):
        with pytest.raises(GeneratorError):
            gen_nonergodic_mixture([(0.7, UNIFORM, H1)], "none", 5, RandomSource(1))


class TestStabilityOfGenerators:
    CHECKPOINTS = [100, 1000, 10_000, 100_000]

    def _decreasing(self, seq, mu, m):
        rep = stability_diagnostic(seq, mu, SignedMeasureModel(mu, m), self.CHECKPOINTS)
        discs = [c.interval_discrepancy for c in rep.checkpoints]
        return (not rep.flag) and discs[-1] < discs[0]

    def test_iid_markov_vdc_all_stable(self):
        m = RegressionModel.piecewise_linear([0, 1], [0.2, 0.8])
        assert self._decreasing(gen_iid(UNIFORM, m, "binary", 100_000, RandomSource(3)), UNIFORM, m)
        assert self._decreasing(gen_deterministic(m, 100_000), UNIFORM, m)
        stat = markov_stationary_model([0.25, 0.75], [[0.7, 0.3], [0.3, 0.7]])
        mk = gen_markov([0.25, 0.75], [[0.7, 0.3], [0.3, 0.7]], m, 100_000, RandomSource(5))
        assert self._decreasing(mk, stat, m)

    def test_harmonic_flags(self):
        pm = DistributionModel.point_mass(0.0)
        rep = stability_diagnostic(
            gen_harmonic_approach(100_000),
            pm,
            SignedMeasureModel(pm, RegressionModel.constant(0.0)),
            self.CHECKPOINTS,
        )
        assert rep.flag
