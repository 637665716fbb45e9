import csv
import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import brute_force_interval_sup, random_mixture_model
from stableseq import measures
from stableseq.generators import gen_harmonic_approach, gen_iid, RandomSource
from stableseq.adversary import rademacher_cumulative, rademacher_integral
from stableseq.measures import (
    DistributionModel,
    IntervalA,
    ModelError,
    SampleSequence,
    cramer_distance,
    empirical_mass,
    empirical_weighted_mass,
    interval_prob,
    levy_distance,
    read_sequence_csv,
    sequence_csv_bytes,
    stability_diagnostic,
    sup_interval_discrepancy,
    sup_weighted_discrepancy,
    write_sequence_csv,
)
from stableseq.partitions import PiecewiseDyadicFn
from stableseq.regression import RegressionModel, SignedMeasureModel

UNIFORM = DistributionModel.uniform(0.0, 1.0)


def _ref_rows(model):
    """The pieces in location order, an atom first at a tie, each as (kind,
    start, mass, location, density), the start summed one mass at a time."""
    rows, cum, ai, si = [], 0.0, 0, 0
    while ai < len(model.atoms) or si < len(model.segments):
        next_atom = model.atoms[ai][0] if ai < len(model.atoms) else math.inf
        next_seg = model.segments[si][0] if si < len(model.segments) else math.inf
        if next_atom <= next_seg:
            loc, m = model.atoms[ai]
            rows.append(("atom", cum, m, loc, 0.0))
            ai += 1
        else:
            a, b, d = model.segments[si]
            m = d * (b - a)
            rows.append(("seg", cum, m, a, d))
            si += 1
        cum += m
    return rows


def ref_inverse_cdf(model, u):
    """The quantile transform as a walk over the pieces, one mask per piece."""
    rows = _ref_rows(model)
    starts = np.array([r[1] for r in rows])
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    idx = np.clip(np.searchsorted(starts, u_arr, side="right") - 1, 0, len(rows) - 1)
    out = np.empty_like(u_arr)
    for i, (kind, cum0, m, a, d) in enumerate(rows):
        sel = idx == i
        if kind == "atom" or m == 0 or d == 0:
            out[sel] = a
        else:
            out[sel] = a + (u_arr[sel] - cum0) / d
    return out


@st.composite
def mixture_rows(draw):
    """(atoms, segments) of a mass-1 mixture on a grid of quarters, so atoms
    sit at segment starts and ends; some segments have density 0 or a
    subnormal density whose mass is 0."""
    grid = st.integers(-12, 12).map(lambda i: i / 4.0)
    ends = sorted(draw(st.sets(grid, min_size=0, max_size=6)))
    segs = []
    for a, b in zip(ends, ends[1:]):
        kind = draw(st.sampled_from(["weight", "weight", "zero", "subnormal", "skip"]))
        if kind != "skip":
            segs.append((a, b, kind))
    locs = sorted(draw(st.sets(grid | st.floats(-4.0, 4.0), max_size=4)))
    if not locs and not any(kind == "weight" for _, _, kind in segs):
        locs = [draw(grid)]
    weights = draw(
        st.lists(st.floats(0.01, 10.0), min_size=len(locs) + len(segs),
                 max_size=len(locs) + len(segs))
    )
    total = math.fsum(weights[:len(locs)]) + math.fsum(
        w for w, (_, _, kind) in zip(weights[len(locs):], segs) if kind == "weight"
    )
    atoms = tuple((u, w / total) for u, w in zip(locs, weights))
    segments = []
    for w, (a, b, kind) in zip(weights[len(locs):], segs):
        d = {"weight": w / total / (b - a), "zero": 0.0, "subnormal": 5e-324}[kind]
        segments.append((a, b, d))
    return atoms, tuple(segments)


class TestIntervalA:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalA(1.0, 1.0)
        with pytest.raises(ValueError):
            IntervalA(0.0, math.inf)
        assert IntervalA.left_unbounded(2.0).left_unbounded_kind

    def test_contains_half_open(self):
        A = IntervalA(0.0, 1.0)
        assert not A.contains(0.0) and A.contains(1.0) and A.contains(0.5)


class TestDistributionModel:
    def test_invariants_enforced(self):
        with pytest.raises(ModelError):
            DistributionModel(atoms=((0.0, 0.5),))  # mass deficit
        with pytest.raises(ModelError):
            DistributionModel(atoms=((0.0, 0.5), (0.0, 0.5)))  # duplicate atom
        with pytest.raises(ModelError):
            DistributionModel(segments=((0.0, 1.0, 0.5), (0.5, 1.5, 0.5)))  # overlap

    @pytest.mark.parametrize(
        "atoms,segments",
        [
            (((0.5, 1.0),), ((0.0, 1.0, math.nan),)),
            (((0.5, 1.0),), ((-math.inf, 0.0, 0.0),)),
            (((0.5, 1.0),), ((0.0, math.inf, 0.0),)),
            (((math.nan, 1.0),), ()),
            (((-math.inf, 1.0),), ()),
        ],
        ids=["nan-density", "infinite-start", "infinite-end", "nan-location", "infinite-location"],
    )
    def test_non_finite_numbers_rejected(self, atoms, segments):
        # each total mass is NaN or 1, and NaN passes the mass check alone
        with pytest.raises(ModelError, match="finite"):
            DistributionModel(atoms=atoms, segments=segments)

    def test_interval_prob_examples(self):
        assert interval_prob(UNIFORM, IntervalA(0.25, 0.5)) == pytest.approx(0.25, abs=1e-15)
        pm = DistributionModel.point_mass(0.0)
        assert interval_prob(pm, IntervalA(-1.0, 0.0)) == 1.0
        assert interval_prob(pm, IntervalA(0.0, 1.0)) == 0.0
        mix = DistributionModel(atoms=((0.5, 0.5),), segments=((0.0, 1.0, 0.5),))
        assert interval_prob(mix, IntervalA(0.0, 0.5)) == pytest.approx(0.75, abs=1e-15)

    def test_empty_overlap_zero(self):
        assert interval_prob(UNIFORM, IntervalA(5.0, 6.0)) == 0.0

    def test_json_round_trip(self, rng):
        m = random_mixture_model(rng)
        m2 = DistributionModel.from_dict(json.loads(json.dumps(m.to_dict(), sort_keys=True)))
        assert m2.atoms == m.atoms and m2.segments == m.segments

    def test_inverse_cdf_pushforward(self, rng):
        model = DistributionModel(
            atoms=((0.5, 0.25),), segments=((0.0, 0.4, 0.75), (0.6, 1.2, 0.75))
        )
        u = rng.random(20000)
        x = model.inverse_cdf(u)
        seq = SampleSequence(x, np.zeros_like(x))
        assert sup_interval_discrepancy(seq, model) < 0.02

    @settings(max_examples=300, deadline=None)
    @given(mixture_rows(), st.lists(st.floats(allow_nan=True), max_size=20))
    def test_inverse_cdf_equals_the_piece_walk(self, rows, extra_u):
        atoms, segments = rows
        model = DistributionModel(atoms=atoms, segments=segments)
        starts = [r[1] for r in _ref_rows(model)]
        # 0, 1, each row start and its float neighbours, values past both
        # ends, and any float
        u = [0.0, -0.0, 1.0, 1.5, -0.5, math.inf, -math.inf, *extra_u]
        for s0 in starts:
            u += [s0, math.nextafter(s0, -math.inf), math.nextafter(s0, math.inf)]
        u = np.array(u)
        with np.errstate(over="ignore"):  # a subnormal density overflows both
            got, want = model.inverse_cdf(u), ref_inverse_cdf(model, u)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_half_open_additivity_random(self, rng):
        for _ in range(50):
            model = random_mixture_model(rng)
            a, b, c = sorted(rng.uniform(-4, 6, size=3))
            if a == b or b == c:
                continue
            lhs = interval_prob(model, IntervalA(a, c))
            rhs = interval_prob(model, IntervalA(a, b)) + interval_prob(model, IntervalA(b, c))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEmpiricalProperties:
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=40),
        st.floats(-6, 6, allow_nan=False),
        st.floats(-6, 6, allow_nan=False),
        st.floats(-6, 6, allow_nan=False),
    )
    def test_half_open_additivity_is_exact(self, xs, a, b, c):
        a, b, c = sorted((a, b, c))
        assume(a < b < c)
        seq = SampleSequence(np.array(xs), np.zeros(len(xs)))
        # the additivity is exact at the count level; normalizing divides
        # once per term, so the summed form can differ by one ulp
        n = len(xs)
        count = lambda lo, hi: int(seq.count_le(hi)) - int(seq.count_le(lo))
        assert count(a, c) == count(a, b) + count(b, c)
        lhs = empirical_mass(seq, IntervalA(a, c))
        rhs = empirical_mass(seq, IntervalA(a, b)) + empirical_mass(seq, IntervalA(b, c))
        assert lhs == pytest.approx(rhs, abs=1e-15)

    @given(
        st.lists(
            st.tuples(st.floats(-5, 5, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
            min_size=1,
            max_size=30,
        ),
        st.floats(-6, 6, allow_nan=False),
    )
    def test_weighted_halfline_matches_direct_sum(self, pairs, b):
        seq = SampleSequence(np.array([x for x, _ in pairs]), np.array([y for _, y in pairs]))
        got = empirical_weighted_mass(seq, IntervalA.left_unbounded(b))
        direct = sum(y for x, y in pairs if x <= b) / len(pairs)
        assert got == pytest.approx(direct, abs=1e-12)

    @given(
        st.lists(
            st.one_of(
                st.integers(-2, 6).map(lambda i: i / 4.0),  # ties, and values outside [0, 1]
                st.floats(-3.0, 3.0),
                st.just(math.nan),
                st.just(-0.0),
            ),
            max_size=80,
        ),
        st.data(),
    )
    def test_prefix_sorted_view_equals_stable_sort(self, xs, data):
        # prefix(m) is the sequence built from the first m pairs, bit for
        # bit, at every m: the parent's masked view (16 m >= n) and the
        # sorted short prefix (16 m < n) alike
        x = np.array(xs, dtype=float)
        y = np.array(
            data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(xs), max_size=len(xs))),
            dtype=float,
        )
        seq = SampleSequence(x, y)
        for m in range(len(xs) + 1):
            want = SampleSequence(x[:m], y[:m])
            # a parent whose sorted view is built, and one whose view is not yet
            for got in (seq.prefix(m), SampleSequence(x, y).prefix(m)):
                for name in ("x", "y", "sorted_index", "x_sorted", "y_cumsum_sorted"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (m, name)

    def test_sorted_view_is_built_on_first_use(self):
        seq = SampleSequence(np.array([0.5, 0.1, 0.5]), np.array([1.0, 2.0, 4.0]))
        assert "sorted_index" not in vars(seq) and "x_sorted" not in vars(seq)
        assert seq.count_le(0.5) == 3
        assert seq.sorted_index.tolist() == [1, 0, 2] and seq.x_sorted.tolist() == [0.1, 0.5, 0.5]


class TestEmpirical:
    def setup_method(self):
        self.seq = SampleSequence(np.array([0.1, 0.2, 0.9]), np.array([1.0, 0.0, 1.0]))

    def test_mass_examples(self):
        assert empirical_mass(self.seq, IntervalA(0.0, 0.5)) == pytest.approx(2 / 3)
        assert empirical_mass(self.seq, IntervalA.left_unbounded(0.1)) == pytest.approx(1 / 3)
        tri = SampleSequence(np.array([0.5] * 3), np.zeros(3))
        assert empirical_mass(tri, IntervalA(0.5, 1.0)) == 0.0

    def test_weighted_examples(self):
        assert empirical_weighted_mass(self.seq, IntervalA(0.0, 0.5)) == pytest.approx(1 / 3)
        assert empirical_weighted_mass(self.seq, IntervalA.left_unbounded(0.9)) == pytest.approx(2 / 3)
        assert empirical_weighted_mass(self.seq, IntervalA(2.0, 3.0)) == 0.0

    def test_exact_additivity(self, rng):
        x = rng.uniform(0, 1, 101)
        y = rng.normal(size=101)
        seq = SampleSequence(x, y)
        a, b, c = 0.2, 0.5, 0.9
        assert empirical_mass(seq, IntervalA(a, c)) == (
            empirical_mass(seq, IntervalA(a, b)) + empirical_mass(seq, IntervalA(b, c))
        )

    def test_ties_in_x_keep_queries_well_defined(self):
        seq = SampleSequence(np.array([0.5, 0.5, 0.3]), np.array([1.0, 2.0, 4.0]))
        assert empirical_weighted_mass(seq, IntervalA(0.4, 0.5)) == pytest.approx(1.0)
        assert seq.atom_weighted(0.5) == pytest.approx(1.0)


class TestSupIntervalDiscrepancy:
    def test_three_points_vs_uniform(self):
        seq = SampleSequence(np.array([0.1, 0.2, 0.9]), np.zeros(3))
        assert sup_interval_discrepancy(seq, UNIFORM) == pytest.approx(0.7, abs=1e-12)

    def test_equidistributed_nine(self):
        xs = np.arange(1, 10) / 10.0
        seq = SampleSequence(xs, np.zeros(9))
        assert sup_interval_discrepancy(seq, UNIFORM) == pytest.approx(0.2, abs=1e-12)

    def test_single_sample_at_atom(self):
        seq = SampleSequence(np.array([0.5]), np.zeros(1))
        assert sup_interval_discrepancy(seq, DistributionModel.point_mass(0.5)) == 0.0

    def test_oracle_equivalence_small(self, rng):
        for _ in range(40):
            model = random_mixture_model(rng)
            n = int(rng.integers(1, 51))
            x = rng.uniform(-3, 5, size=n)
            seq = SampleSequence(x, np.zeros(n))
            exact = sup_interval_discrepancy(seq, model)
            brute = brute_force_interval_sup(seq, model)
            assert abs(exact - brute) <= 1e-9
            assert exact >= brute - 1e-15  # exact scan dominates the sampled oracle

    def test_dominates_ks(self, rng):
        for _ in range(20):
            model = random_mixture_model(rng)
            n = int(rng.integers(1, 40))
            x = rng.uniform(-3, 5, size=n)
            seq = SampleSequence(x, np.zeros(n))
            ks = max(
                abs(float(seq.empirical_cdf(t)) - float(model.cdf(t)))
                for t in np.concatenate([x, model.breakpoints()])
            )
            assert sup_interval_discrepancy(seq, model) >= ks - 1e-15

    def test_atom_refinement_bound(self, rng):
        # adding a sample exactly at an atom moves its deviation by <= 1/n
        model = DistributionModel(atoms=((0.3, 0.6),), segments=((0.0, 1.0, 0.4),))
        x = list(rng.uniform(0, 1, size=19))
        for _ in range(10):
            seq_before = SampleSequence(np.array(x), np.zeros(len(x)))
            d0 = abs(seq_before.atom_frequency(0.3) - 0.6)
            x.append(0.3)
            seq_after = SampleSequence(np.array(x), np.zeros(len(x)))
            d1 = abs(seq_after.atom_frequency(0.3) - 0.6)
            assert d1 <= d0 + 1.0 / len(seq_before)


class TestSupWeightedDiscrepancy:
    def test_zero_relation(self):
        seq = SampleSequence(np.array([0.3, 0.7]), np.zeros(2))
        target = SignedMeasureModel(UNIFORM, RegressionModel.constant(0.0))
        assert sup_weighted_discrepancy(seq, target) == 0.0

    def test_single_pair_vs_half_density(self):
        seq = SampleSequence(np.array([0.5]), np.array([1.0]))
        target = SignedMeasureModel(UNIFORM, RegressionModel.constant(0.5))
        assert sup_weighted_discrepancy(seq, target) == pytest.approx(1.0, abs=1e-12)

    def test_two_labeled_points_vs_half_indicator(self):
        # y = (x < 0.5) at x = 0.1, 0.6 against the measure with that density:
        # the interval degenerating to {0.1} realizes deviation 0.5
        m = RegressionModel.from_dyadic(PiecewiseDyadicFn(1, {1: 1.0, 2: 0.0}, 0.0))
        seq = SampleSequence(np.array([0.1, 0.6]), np.array([1.0, 0.0]))
        target = SignedMeasureModel(UNIFORM, m)
        assert sup_weighted_discrepancy(seq, target) == pytest.approx(0.5, abs=1e-12)

    def test_regressor_zero_inside_a_piece_is_scanned(self):
        # nu(-inf, t] = t^2 - t has its minimum -1/4 at the regressor's zero
        # t = 1/2, inside the one piece (0, 1]; (0, 1/2] alone deviates by 1/4
        m = RegressionModel.piecewise_linear([0.0, 1.0], [-1.0, 1.0])
        target = SignedMeasureModel(UNIFORM, m)
        assert target.breakpoints().tolist() == [0.0, 0.5, 1.0]
        seq = SampleSequence(np.array([0.9]), np.array([0.0]))
        assert sup_weighted_discrepancy(seq, target) == 0.25
        # the identity's zero is the segment end 0, and the ramp has none
        ramp = RegressionModel.piecewise_linear([0.2, 0.8], [0.2, 0.8])
        identity = SignedMeasureModel(UNIFORM, RegressionModel.identity_on_unit())
        assert identity.breakpoints().tolist() == [0.0, 1.0]
        assert SignedMeasureModel(UNIFORM, ramp).breakpoints().tolist() == [0.0, 0.2, 0.8, 1.0]

    def test_signed_measure_bound(self, rng):
        for _ in range(20):
            model = random_mixture_model(rng)
            m = RegressionModel.piecewise_linear([-1.0, 2.0], [-0.7, 0.4])
            nu = SignedMeasureModel(model, m)
            a, b = sorted(rng.uniform(-4, 6, size=2))
            if a == b:
                continue
            A = IntervalA(a, b)
            assert abs(nu.interval(A)) <= m.bound() * interval_prob(model, A) + 1e-12


class TestCdfLevelStatistics:
    def test_cramer_harmonic_values(self):
        pm = DistributionModel.point_mass(0.0)
        assert cramer_distance(gen_harmonic_approach(50), pm) == pytest.approx(0.0358, abs=2e-3)
        assert cramer_distance(gen_harmonic_approach(100), pm) < 0.02

    def test_levy_decays_on_harmonic(self):
        pm = DistributionModel.point_mass(0.0)
        vals = [levy_distance(gen_harmonic_approach(n), pm) for n in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[1] == pytest.approx(1 / 11, abs=1e-3)

    def test_both_zero_on_exact_match(self):
        seq = SampleSequence(np.array([0.5, 0.5]), np.zeros(2))
        pm = DistributionModel.point_mass(0.5)
        assert levy_distance(seq, pm) <= 1e-12
        assert cramer_distance(seq, pm) == 0.0

    def test_levy_below_interval_sup(self, rng):
        for _ in range(10):
            model = random_mixture_model(rng)
            x = rng.uniform(-3, 5, size=30)
            seq = SampleSequence(x, np.zeros(30))
            assert levy_distance(seq, model) <= sup_interval_discrepancy(seq, model) + 1e-9


class TestStabilityDiagnostic:
    def test_harmonic_pattern_flags(self):
        pm = DistributionModel.point_mass(0.0)
        target = SignedMeasureModel(pm, RegressionModel.constant(0.0))
        rep = stability_diagnostic(gen_harmonic_approach(100), pm, target, [10, 30, 100])
        assert rep.flag
        assert rep.checkpoints[-1].atom_deviations[0.0] == 1.0
        assert rep.checkpoints[-1].interval_discrepancy == 1.0

    def test_constant_sequence_all_zero_no_flag(self):
        pm = DistributionModel.point_mass(0.5)
        seq = SampleSequence(np.full(50, 0.5), np.ones(50))
        target = SignedMeasureModel(pm, RegressionModel.constant(1.0))
        rep = stability_diagnostic(seq, pm, target, [10, 50])
        assert not rep.flag
        for c in rep.checkpoints:
            assert c.interval_discrepancy == 0.0
            assert c.atom_deviations[0.5] == 0.0
            assert c.weighted_atom_deviations[0.5] == 0.0

    def test_iid_no_flag_and_decreasing(self):
        m = RegressionModel.piecewise_linear([0.0, 1.0], [0.2, 0.8])
        seq = gen_iid(UNIFORM, m, "binary", 10000, RandomSource(3))
        rep = stability_diagnostic(seq, UNIFORM, SignedMeasureModel(UNIFORM, m), [100, 1000, 10000])
        assert not rep.flag
        discs = [c.interval_discrepancy for c in rep.checkpoints]
        assert discs[-1] < discs[0]

    def test_checkpoint_validation(self):
        pm = DistributionModel.point_mass(0.0)
        target = SignedMeasureModel(pm, RegressionModel.constant(0.0))
        seq = gen_harmonic_approach(10)
        with pytest.raises(ValueError):
            stability_diagnostic(seq, pm, target, [5, 5])
        with pytest.raises(ValueError):
            stability_diagnostic(seq, pm, target, [5, 11])


class TestCompensatedPrefixSums:
    def test_long_prefix_matches_fsum(self):
        # above 10^6 entries the chunked-compensated path engages; its final
        # prefix value must match a correctly rounded reference sum closely
        import math

        n = 1_000_100
        rng = np.random.default_rng(8)
        y = rng.uniform(-1.0, 1.0, size=n) * 0.1
        seq = SampleSequence(np.arange(n, dtype=float), y)
        exact_tail = math.fsum(y[np.argsort(np.arange(n), kind="stable")].tolist())
        got = float(seq.y_cumsum_sorted[-1])
        assert got == pytest.approx(exact_tail, abs=5e-11)


class TestSequenceCsv:
    def test_round_trip_exact(self, rng, tmp_path):
        x = rng.normal(size=37)
        y = rng.normal(size=37)
        seq = SampleSequence(x, y)
        p = tmp_path / "seq.csv"
        write_sequence_csv(seq, p)
        back = read_sequence_csv(p)
        assert np.array_equal(back.x, seq.x) and np.array_equal(back.y, seq.y)
        write_sequence_csv(back, tmp_path / "seq2.csv")
        assert (tmp_path / "seq2.csv").read_bytes() == p.read_bytes()

    def test_bytes_match_csv_writer_reference(self):
        # signed zeros, the smallest subnormal, values near the double range
        # and integral x must print as repr(float) does, through csv.writer
        x = np.array([1.0, -0.0, 5e-324, 1.7e308, -1.7e308, 2.0**60, 3.0, 0.1])
        y = np.array([-0.0, 5e-324, -1.7e308, 1.7e308, 1e-310, -2.0, 0.3, 1.0])
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["i", "x", "y"])
        for i, (a, b) in enumerate(zip(x, y), start=1):
            w.writerow([i, repr(float(a)), repr(float(b))])
        assert sequence_csv_bytes(SampleSequence(x, y)) == buf.getvalue().encode("utf-8")

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_sequence_csv(p)

    @given(
        st.integers(1, 20),
        st.data(),
        st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]),
    )
    def test_non_finite_rejected(self, tmp_path_factory, n, data, bad):
        row = data.draw(st.integers(0, n - 1))
        col = data.draw(st.integers(1, 2))
        cells = [[str(i + 1), "0.5", "0.25"] for i in range(n)]
        cells[row][col] = bad
        p = tmp_path_factory.mktemp("csv") / "seq.csv"
        p.write_text("i,x,y\n" + "".join(",".join(c) + "\n" for c in cells))
        with pytest.raises(ValueError, match=f"row {row + 1}"):
            read_sequence_csv(p)


def _levy_reference(seq, model):
    """The Levy bisection over all points, kept verbatim as the reference."""
    n = len(seq)
    ts = np.unique(seq.x_sorted)
    f_right = seq.count_le(ts) / n
    f_left = seq.count_lt(ts) / n

    def feasible(eps: float) -> bool:
        over = f_right - model.cdf(ts + eps)
        if float(over.max()) > eps + 1e-15:
            return False
        under = np.asarray(model.cdf_left(ts - eps), dtype=float) - f_left
        return float(under.max()) <= eps + 1e-15

    lo, hi = 0.0, 1.0
    if feasible(0.0):
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12:
            break
    return hi


_GRID = [i / 8 for i in range(-8, 17)]


@st.composite
def _levy_cases(draw):
    """A model of atoms and segments on a coarse grid (atoms may sit on
    segment ends, segments may adjoin) and samples on and off its points."""
    atoms = sorted(draw(st.sets(st.sampled_from(_GRID), max_size=3)))
    edges = sorted(draw(st.sets(st.sampled_from(_GRID), max_size=6)))
    segs = [(a, b) for a, b in zip(edges, edges[1:]) if draw(st.booleans())]
    assume(atoms or segs)
    weights = draw(st.lists(st.integers(1, 9), min_size=len(atoms) + len(segs),
                            max_size=len(atoms) + len(segs)))
    mass = [w / sum(weights) for w in weights]
    model = DistributionModel(
        atoms=tuple(zip(atoms, mass)),
        segments=tuple((a, b, m / (b - a)) for (a, b), m in zip(segs, mass[len(atoms):])),
    )
    xs = draw(st.lists(
        st.one_of(st.sampled_from(_GRID), st.floats(-1.5, 2.5, allow_nan=False)),
        min_size=1, max_size=40,
    ))
    return model, SampleSequence(np.array(xs), np.zeros(len(xs)))


class TestLevyBisection:
    @pytest.mark.parametrize("candidates", [1, 64])
    @given(_levy_cases())
    def test_bit_identical_to_full_bisection(self, candidates, case):
        # with one candidate nearly every call refines its candidate set
        model, seq = case
        with mock.patch.object(measures, "_LEVY_CANDIDATES", candidates):
            got = levy_distance(seq, model)
        assert repr(got) == repr(_levy_reference(seq, model))

    def test_at_most_three_passes_over_all_points(self, monkeypatch):
        x = np.random.default_rng(14).random(1 << 14)
        seq = SampleSequence(x, x)
        n_distinct = len(np.unique(x))
        full = {"cdf": 0, "cdf_left": 0}
        for name in full:
            def counted(model, t, _name=name, _orig=getattr(DistributionModel, name)):
                full[_name] += np.size(t) == n_distinct
                return _orig(model, t)

            monkeypatch.setattr(DistributionModel, name, counted)
        got = levy_distance(seq, UNIFORM)
        monkeypatch.undo()
        assert repr(got) == repr(_levy_reference(seq, UNIFORM))
        assert full["cdf"] <= 3 and full["cdf_left"] <= 3, full


def _reader_reference(path):
    """The csv.reader + float() sequence reader that the array parse replaced."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [h.strip() for h in header] != ["i", "x", "y"]:
            raise ValueError("bad header")
        xs, ys = [], []
        for row in r:
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"line {r.line_num} has {len(row)} columns")
            xs.append(float(row[1]))
            ys.append(float(row[2]))
    x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite")
    return x, y


def _same_read(path):
    """read_sequence_csv agrees with the reference: both raise ValueError, or
    both give the same bits."""
    try:
        want = _reader_reference(path)
    except ValueError:
        with pytest.raises(ValueError):
            read_sequence_csv(path)
        return
    got = read_sequence_csv(path)
    for a, b in zip((got.x, got.y), want):
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


_HARD_DECIMALS = [
    "1.00000000000000011102230246251565404236316680908203125",  # halfway, to even
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "9007199254740993", "9007199254740995", "-0.0", "+0.0", "0e-999", "1e-400",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "4.9406564584124654e-324",
    "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
    "1.7976931348623157e308", "1.7976931348623158e308", "0.1", "0.30000000000000004",
    "3.1415926535897932384626433832795028841971", "1234567890123456789012345678901234567890",
    "0.0000000000000000000000000000000000000001234567890123456789012345678901234567890",
    "1.", ".5", "5E-3", "  7  ", "\t-2.5e+10\t",
]


class TestSequenceCsvArrayReader:
    def _write(self, tmp_path, text, name="s.csv"):
        p = tmp_path / name
        p.write_bytes(text.encode("utf-8"))
        return p

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_repr_of_random_doubles_bit_exact(self, tmp_path_factory, values):
        p = self._write(tmp_path_factory.mktemp("csv"),
                        "i,x,y\n" + "".join(f"{i},{v!r},{-v!r}\n" for i, v in enumerate(values)))
        got = read_sequence_csv(p)
        assert got.x.tobytes() == np.array(values).tobytes()
        assert got.y.tobytes() == (-np.array(values)).tobytes()

    def test_hard_decimals_bit_exact(self, tmp_path):
        p = self._write(tmp_path, "i,x,y\n" + "".join(f"{i},{s},{s}\n" for i, s in enumerate(_HARD_DECIMALS)))
        want = np.array([float(s) for s in _HARD_DECIMALS])
        got = read_sequence_csv(p)
        assert got.x.tobytes() == got.y.tobytes() == want.tobytes()
        _same_read(p)

    @pytest.mark.parametrize("body", [
        "1,0.5,0.25\r\n2,0.1,0.2\r\n",
        "1,0.5,0.25\r2,0.1,0.2\r",
        "1,0.5,0.25\n\n\n2,0.1,0.2\n",
        '1,"0.5","0.25"\n2,"-1e-3",7\n',
        '1," 0.5",0.25\n',
        '1, "0.5",0.25\n',
        "1, 0.5 ,\t0.25\t\n2,\t0.1, 0.2 \n",
        "1,0.5,0.25,9,x\n2,0.1,0.2\n",
        "",
        "\n\n",
        "1,0.5,0.25",
        "1,0.5,0.25\n2,0.1,0.2",
        "1,0.5\n",
        "1,,0.25\n",
        "1,0.5,abc\n",
        "1,0.5,0.25 # note\n",
        "1,0x10,0.5\n",
        "1,nan,0.5\n",
        "1,0.5,-Infinity\n",
        "  \n",
    ], ids=["crlf", "bare-cr", "blank-lines", "quoted", "quoted-space", "space-quote",
            "spaces-tabs", "extra-columns", "header-only", "header-blank", "no-final-newline",
            "no-final-newline-2", "short-row", "empty-field", "word", "comment", "hex", "nan",
            "inf", "whitespace-line"])
    def test_matches_csv_reader_reference(self, tmp_path, body):
        _same_read(self._write(tmp_path, "i,x,y\n" + body))
        _same_read(self._write(tmp_path, "i,x,y\r\n" + body, "crlf.csv"))

    @given(st.text(alphabet="0123456789.eE+-, \t\"\r\nnaif", max_size=60))
    def test_fuzz_matches_csv_reader_reference(self, tmp_path_factory, body):
        _same_read(self._write(tmp_path_factory.mktemp("csv"), "i,x,y\n" + body))

    def test_header_only_is_empty_without_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = read_sequence_csv(self._write(tmp_path, "i,x,y\n"))
        assert len(seq) == 0 and seq.x.dtype == np.float64

    @pytest.mark.parametrize("value", ["1_0", "1_000.5", "١٢"])
    def test_digit_separators_and_non_ascii_digits_rejected(self, tmp_path, value):
        assert float(value) > 0  # float() alone accepts them
        p = self._write(tmp_path, f"i,x,y\n1,0.5,0.5\n\n3,{value},0.5\n")
        with pytest.raises(ValueError, match="line 4"):
            read_sequence_csv(p)


class TestOneIntervalRule:
    """The five interval measures against the rule each wrote out before
    they shared one, bit for bit and type for type."""

    @staticmethod
    def _reference(A):
        def rule(cum, zero):
            lo = zero if A.left_unbounded_kind else cum(A.a)
            return cum(A.b) - lo
        return rule

    def test_interval_functions_equal_the_written_out_rule(self):
        rng = np.random.default_rng(24)
        ends = [-math.inf, -0.0, 0.0, -2.5, 0.5, 1.0, 3.0]
        for trial in range(60):
            model = random_mixture_model(rng)
            n = int(rng.integers(1, 40))
            x = rng.choice([-0.0, 0.0, 0.5, 1.0, *rng.uniform(-3, 3, 8)], size=n)
            seq = SampleSequence(x, rng.normal(size=n))
            nu = SignedMeasureModel(model, RegressionModel.piecewise_linear([-1.0, 2.0], [3.0, -1.0]))
            k = int(rng.integers(0, 6))
            pts = sorted(rng.choice(ends + list(rng.uniform(-4, 4, 3)), size=2, replace=False))
            if pts[0] == pts[1] or pts[1] == -math.inf:
                continue
            for A in (IntervalA(*pts), IntervalA.left_unbounded(pts[1])):
                ref = self._reference(A)
                cum = seq.y_cumsum_sorted
                pairs = [
                    (interval_prob(model, A), max(0.0, ref(model.cdf, 0.0))),
                    (empirical_mass(seq, A), (int(ref(lambda t: int(seq.count_le(t)), 0))) / len(seq)),
                    (empirical_weighted_mass(seq, A),
                     float(ref(lambda t: cum[int(seq.count_le(t))], cum[0])) / len(seq)),
                    (nu.interval(A), float(ref(nu.cumulative, 0.0))),
                    (rademacher_integral(k, A), float(ref(lambda t: rademacher_cumulative(k, t), 0.0))),
                ]
                for got, want in pairs:
                    assert type(got) is type(want)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (A, got, want)

    def test_empty_overlap_and_signed_zero_ends(self):
        seq = SampleSequence(np.array([0.25, 0.5]), np.array([1.0, -2.0]))
        for A in (IntervalA(5.0, 6.0), IntervalA(-3.0, -0.0), IntervalA.left_unbounded(-0.0)):
            assert interval_prob(UNIFORM, A) == 0.0
            assert empirical_mass(seq, A) == 0.0
            assert empirical_weighted_mass(seq, A) == 0.0
        A = IntervalA(-0.0, 0.25)
        assert (interval_prob(UNIFORM, A), empirical_mass(seq, A), empirical_weighted_mass(seq, A)) == (
            0.25, 0.5, 0.5
        )
        with pytest.raises(ValueError, match="need at least one sample"):
            empirical_mass(SampleSequence(np.array([]), np.array([])), IntervalA(0.0, 1.0))
        with pytest.raises(ValueError, match="need at least one sample"):
            empirical_weighted_mass(SampleSequence(np.array([]), np.array([])), IntervalA(0.0, 1.0))
