import hashlib
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stableseq.adversary import (
    AdversaryConfig,
    BlockStreams,
    ConsistencyViolationWitness,
    ConstantProcedure,
    ExternalProcedure,
    HorizonExhausted,
    OracleProcedure,
    PluginHistogramProcedure,
    RademacherFn,
    _span_scan,
    build_adversarial_sequence,
    certified_prefix_scan,
    compute_block_thresholds,
    l2_unit_distance,
    rademacher_cumulative,
    rademacher_eval,
    rademacher_integral,
    uniform_prefix_discrepancy,
    verify_adversary_report,
    weighted_prefix_discrepancy,
)
from stableseq.cli import main
from stableseq.generators import van_der_corput
from stableseq.measures import (
    DistributionModel,
    IntervalA,
    SampleSequence,
    stability_diagnostic,
    sup_interval_discrepancy,
    sup_weighted_discrepancy,
)
from stableseq.partitions import PiecewiseDyadicFn
from stableseq.regression import RegressionModel, SignedMeasureModel


class TestRademacherLadder:
    def test_pointwise_examples(self):
        assert rademacher_eval(2, 0.3) == 0.0
        assert rademacher_eval(1, 0.49) == 1.0
        assert rademacher_eval(1, 0.5) == 0.0  # left-closed/right-open pieces
        assert rademacher_eval(0, 0.3) == 0.5
        assert rademacher_eval(3, -0.1) == 0.0 and rademacher_eval(3, 1.0) == 0.0

    def test_opposite_closure_from_dyadic_cells(self):
        # at the shared boundary 0.5 the ladder is 0 while the right-closed
        # dyadic-cell representation of the same profile evaluates to 1
        dyadic = PiecewiseDyadicFn(1, {1: 1.0, 2: 0.0}, 0.0)
        assert rademacher_eval(1, 0.5) == 0.0
        assert dyadic(0.5) == 1.0

    def test_integral_examples(self):
        assert rademacher_integral(3, IntervalA(0.0, 1.0)) == 0.5
        assert rademacher_integral(1, IntervalA(0.0, 0.5)) == 0.5
        assert rademacher_integral(0, IntervalA.left_unbounded(0.25)) == 0.125

    def test_integral_matches_quadrature(self, rng):
        for k in range(0, 7):
            a, b = sorted(rng.uniform(-0.2, 1.2, size=2))
            if a == b:
                continue
            grid = np.linspace(a, b, 200_001)[:-1] + (b - a) / 400_000
            approx = float(np.mean(rademacher_eval(k, grid))) * (b - a)
            assert rademacher_integral(k, IntervalA(a, b)) == pytest.approx(approx, abs=1e-4)

    def test_orthogonality_exact(self):
        for j in range(1, 9):
            for k in range(j + 1, 9):
                assert l2_unit_distance(RademacherFn(j), RademacherFn(k)).value == 0.5

    def test_proximity_to_half_level(self, rng):
        # every ladder integral is within 2^(1-k) of the half-level measure
        for k in range(1, 11):
            for _ in range(100):
                a, b = sorted(rng.uniform(0.0, 1.0, size=2))
                if a == b:
                    continue
                A = IntervalA(a, b)
                gap = abs(rademacher_integral(k, A) - rademacher_integral(0, A))
                assert gap <= 2.0 ** (1 - k) + 1e-15


class TestPrefixDiscrepancies:
    def test_match_general_scanner(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            x = rng.uniform(0, 1, size=n)
            seq = SampleSequence(x, np.zeros(n))
            assert uniform_prefix_discrepancy(seq) == pytest.approx(
                sup_interval_discrepancy(seq, DistributionModel.uniform(0, 1)), abs=1e-12
            )
            k = int(rng.integers(0, 5))
            y = rademacher_eval(k, x)
            seq2 = SampleSequence(x, y)
            assert weighted_prefix_discrepancy(seq2, RademacherFn(k)) == pytest.approx(
                sup_weighted_discrepancy(seq2, RademacherFn(k)), abs=1e-12
            )


class TestCertifiedScan:
    def test_finds_late_violations_on_piling_data(self):
        # equidistributed prefix followed by mass piling on one point: the
        # discrepancy climbs back up late, and the certified skips must not
        # jump past the exact last crossing
        x = np.concatenate([van_der_corput(800), np.full(1200, 0.0009765625)])
        seq = SampleSequence(x, np.zeros(len(x)))
        theta = 0.3

        def d(m):
            return uniform_prefix_discrepancy(seq.prefix(m))

        last, _, evals = certified_prefix_scan(d, 1, 2000, theta)
        true_last = max((m for m in range(1, 2001) if d(m) > theta), default=0)
        assert last == true_last
        assert true_last > 800  # the violation really is late
        assert len(evals) < 2000

    def test_skips_are_sound_on_real_data(self):
        x = van_der_corput(4096)
        seq = SampleSequence(x, np.zeros(len(x)))
        theta = 0.25

        def d(m):
            return uniform_prefix_discrepancy(seq.prefix(m))

        last, _, evals = certified_prefix_scan(d, 1, 4096, theta)
        # exhaustive reference
        true_last = max((m for m in range(1, 4097) if d(m) > theta), default=0)
        assert last == true_last
        assert len(evals) < 4096  # the certification actually skipped work

    def test_vacuous_threshold(self):
        last, mx, evals = certified_prefix_scan(lambda m: 1 / m, 1, 100, 1.0)
        assert last == 0 and evals == []

    def test_skip_is_the_exact_floor(self):
        # m (theta - d)/(1 - theta) is just below 263577, and its float
        # rounds up onto it; at m + 263577 the one-step bound exceeds theta
        # by about 1.1e-17, so that length must be evaluated, not skipped
        theta, m, d = 0.5, 626223, 0.28955020815268684
        assert int(m * (theta - d) / (1 - theta)) == 263577

        def bound(s):
            return (m * Fraction(d) + s) / (m + s)

        assert bound(263576) <= theta < bound(263577)
        _, _, evals = certified_prefix_scan(lambda j: d if j == m else 0.0, m, m + 263578, theta)
        assert [j for j, _ in evals] == [m, m + 263577]


    @pytest.mark.parametrize(
        "k, lo, hi, digest",
        [(7, 0, 1 << 20, "2b8843a1d451808a5c22e2db0aa7d58d40518494b2ff9ef4deeaf3db48c344d6"),
         (12, 3, 5000, "91369e8b3556ad08e2b761a73b3fc9fbc0d823a83c72360e20e89cb6ee2bbe7b")],
    )
    def test_span_scans_keep_the_forward_rule(self, k, lo, hi, digest):
        # span scans write their evaluations into report.json, so they keep
        # the forward rule; the digests were taken before the threshold
        # scans went two-sided
        def weighted(m):
            return min(1.0, (2.0 + abs(math.sin(m)) * math.sqrt(m)) / m)

        evals = _span_scan(weighted, k, lo, hi)["evaluations"]
        ms = [m for m, _ in evals]
        assert ms == sorted(ms) and 6.0 / k < 1.0
        text = "".join(f"{m} {d!r}\n" for m, d in evals)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestBlockThresholds:
    def test_small_thresholds_on_shifted_stream(self):
        streams = BlockStreams(AdversaryConfig(n_blocks=2, horizon=1 << 12))
        l1, lt1 = compute_block_thresholds(1, streams.block(1), 1 << 12)
        assert l1 == 4 and lt1 == 1  # seeded construction, frozen
        assert l1 <= 4  # the 1/2 threshold is crossed within a few points

    def test_degenerate_threshold_is_one(self):
        # index 0 has threshold 1/(0+1) = 1, and no discrepancy exceeds 1
        streams = BlockStreams(AdversaryConfig(n_blocks=2, horizon=256))
        x = streams.xs(1)[:256]
        blk = SampleSequence(x, rademacher_eval(0, x))
        l0, lt0 = compute_block_thresholds(0, blk, 256)
        assert l0 == 1 and lt0 == 1

    def test_horizon_exhausted(self):
        x = np.mod(van_der_corput(2) + math.sqrt(2.0), 1.0)
        blk = SampleSequence(x, rademacher_eval(1, x))
        with pytest.raises(HorizonExhausted):
            compute_block_thresholds(1, blk, 2)

    def test_block_shorter_than_horizon_rejected(self):
        x = van_der_corput(16)
        with pytest.raises(ValueError):
            compute_block_thresholds(1, SampleSequence(x, np.zeros(16)), 64)


class TestBlockStreams:
    def test_distinct_across_blocks(self):
        streams = BlockStreams(AdversaryConfig(n_blocks=4, horizon=1 << 12))
        allx = np.concatenate([streams.xs(k) for k in range(1, 5)])
        assert len(np.unique(allx)) == len(allx)

    def test_labels_match_ladder(self):
        streams = BlockStreams(AdversaryConfig(n_blocks=2, horizon=256))
        np.testing.assert_array_equal(streams.ys(2), rademacher_eval(2, streams.xs(2)))

    def test_iid_source(self):
        streams = BlockStreams(AdversaryConfig(n_blocks=2, horizon=512, block_source="iid", seed=5))
        x = streams.xs(1)
        assert len(np.unique(x)) == len(x)
        assert np.all((x > 0) & (x < 1))

    @pytest.mark.parametrize("source", ["vdc_shift", "iid"])
    def test_old_block_made_again_bit_for_bit(self, source):
        # only the last two blocks are kept whole; an older one comes back
        # from its raw stream and the earlier blocks' sorted values
        cfg = AdversaryConfig(n_blocks=4, horizon=1 << 10, block_source=source, seed=3)
        streams = BlockStreams(cfg)
        first = {}
        for k in range(1, 6):
            blk = streams.block(k)
            first[k] = (blk.x.tobytes(), blk.y.tobytes(), blk.sorted_index.tobytes())
            assert len(streams._presorted) <= 2 and len(streams._sorted) == k
        for k in (1, 3, 2, 5, 4, 1):
            blk = streams.block(k)
            assert (blk.x.tobytes(), blk.y.tobytes(), blk.sorted_index.tobytes()) == first[k]
            assert blk.x_sorted.tobytes() == streams._sorted[k - 1].tobytes()
            assert len(streams._presorted) <= 2 and len(streams._sorted) == 5
        fresh = BlockStreams(cfg)  # asked out of order, the earlier blocks are made first
        assert fresh.xs(3).tobytes() == first[3][0] and len(fresh._sorted) == 3


class TestSplice:
    def test_oracle_two_blocks_exact_distance(self):
        cfg = AdversaryConfig(n_blocks=2, horizon=1 << 12, block_budget=1 << 13)
        state, report = build_adversarial_sequence(OracleProcedure(), 2, cfg)
        assert report["pairwise_sq_distances"][0][1] == 0.5
        assert report["oscillation_ok"]
        assert report["blocks"][0]["certificates"]["l2_to_block_target"] == 0.0

    @pytest.mark.parametrize("n", [40, 64, 100])
    def test_oracle_run_of_every_trailing_label(self, n):
        # h_5 explains all of the last min(64, n) labels, and h_3 all but the
        # first of them, so only a run of the full length picks h_5
        pool = np.random.default_rng(n).random(4096)
        same = rademacher_eval(3, pool) == rademacher_eval(5, pool)
        agree = min(64, n) - 1
        xs = np.concatenate([pool[~same][:n - agree], pool[same][:agree]])
        ys = rademacher_eval(5, xs)
        assert OracleProcedure().fit(xs, ys).k == 5

    def test_oracle_run_of_no_trailing_label(self):
        # h_k is 0 or 1, so no index matches a label of 0.5: every run is 0,
        # and the first index wins
        xs = np.random.default_rng(3).random(100)
        assert OracleProcedure().fit(xs, np.full(100, 0.5)).k == 1
        ys = rademacher_eval(4, xs)
        ys[-1] = 0.5
        assert OracleProcedure().fit(xs, ys).k == 1

    def test_oracle_picks_the_longest_trailing_run(self):
        # h_6 explains exactly the last 30 labels, h_2 the ones before
        xs = np.random.default_rng(4).random(100)
        ys = rademacher_eval(2, xs)
        ys[-30:] = rademacher_eval(6, xs[-30:])
        ys[-31] = 0.5
        fits = {k: OracleProcedure(k).fit(xs, ys).k for k in (1, 5, 6, 12)}
        assert fits == {1: 1, 5: fits[5], 6: 6, 12: 6} and fits[5] < 6

    def test_plugin_three_blocks(self):
        cfg = AdversaryConfig(n_blocks=3, horizon=1 << 14, block_budget=1 << 15)
        state, report = build_adversarial_sequence(PluginHistogramProcedure(), 3, cfg)
        assert [b["n_k"] for b in report["blocks"]] == [16, 144, 656]  # frozen run
        assert report["min_pairwise_sq_distance"] >= 1 / 20
        assert report["spans_ok"]
        for j, b in enumerate(report["blocks"]):
            k = j + 1
            assert b["certificates"]["interval_discrepancy"] <= 1 / (k + 1)
            assert b["certificates"]["weighted_discrepancy"] <= 1 / (k + 1)
            assert b["certificates"]["l2_to_block_target"] <= 1 / 40
            assert b["n_k"] >= b["certificates"]["min_length_required"]

    def test_boundaries_strictly_increase(self):
        cfg = AdversaryConfig(n_blocks=3, horizon=1 << 13, block_budget=1 << 14)
        state, _ = build_adversarial_sequence(PluginHistogramProcedure(), 3, cfg)
        assert all(b > a for a, b in zip(state.boundaries, state.boundaries[1:]))

    def test_all_inputs_distinct(self):
        cfg = AdversaryConfig(n_blocks=3, horizon=1 << 13, block_budget=1 << 14)
        state, _ = build_adversarial_sequence(PluginHistogramProcedure(), 3, cfg)
        xs = np.asarray(state.xs)
        assert len(np.unique(xs)) == len(xs)
        assert np.all((xs >= 0) & (xs < 1))
        assert set(np.unique(state.ys)) <= {0.0, 1.0}

    def test_state_is_the_spliced_block_prefixes(self):
        # block k contributes its first n_k - n_(k-1) pairs, bit for bit
        cfg = AdversaryConfig(n_blocks=3, horizon=1 << 13, block_budget=1 << 14)
        state, report = build_adversarial_sequence(PluginHistogramProcedure(), 3, cfg)
        streams = BlockStreams(cfg)
        takes = np.diff([0, *state.boundaries])
        xs = np.concatenate([streams.xs(k)[:t] for k, t in enumerate(takes, 1)])
        ys = np.concatenate([streams.ys(k)[:t] for k, t in enumerate(takes, 1)])
        assert state.xs.dtype == state.ys.dtype == np.float64
        assert state.xs.tobytes() == xs.tobytes() and state.ys.tobytes() == ys.tobytes()
        assert report["blocks"] == state.records
        assert report["total_length"] == state.n == state.boundaries[-1]

    def test_constant_procedure_yields_witness(self):
        cfg = AdversaryConfig(n_blocks=2, horizon=1 << 10, block_budget=256)
        with pytest.raises(ConsistencyViolationWitness) as exc:
            build_adversarial_sequence(ConstantProcedure(0.5), 2, cfg)
        w = exc.value
        assert w.k == 1
        # the half-level constant sits at exact squared distance 1/4 > 1/40
        assert all(d == 0.25 for _, d in w.trajectory)
        # the state holds the partial block up to the last check
        assert w.state.n == w.trajectory[-1][0] == 256
        assert w.state.xs.tobytes() == BlockStreams(cfg).xs(1)[:256].tobytes()

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError):
            build_adversarial_sequence(OracleProcedure(), 1)

    def test_n_blocks_must_match_config(self):
        # the report records config.n_blocks, so a different count would contradict it
        cfg = AdversaryConfig(n_blocks=3, horizon=1 << 12, block_budget=1 << 13)
        with pytest.raises(ValueError, match="n_blocks"):
            build_adversarial_sequence(OracleProcedure(), 2, cfg)

    def test_plugin_depth_bound(self):
        assert PluginHistogramProcedure(max_depth=22).max_depth == 22
        with pytest.raises(ValueError, match="max_depth"):
            PluginHistogramProcedure(depth_offset=-100, max_depth=23)

    def test_report_verifies_and_tamper_detected(self):
        cfg = AdversaryConfig(n_blocks=3, horizon=1 << 13, block_budget=1 << 14)
        state, report = build_adversarial_sequence(PluginHistogramProcedure(), 3, cfg)
        seq = state.sequence()
        results = verify_adversary_report(report, seq)
        assert all(ok for _, ok, _ in results)
        bad = {**report, "blocks": [dict(b) for b in report["blocks"]]}
        bad["blocks"][1] = {
            **bad["blocks"][1],
            "certificates": {**bad["blocks"][1]["certificates"], "interval_discrepancy": 0.0},
        }
        assert not all(ok for _, ok, _ in verify_adversary_report(bad, seq))

    def test_verify_reads_the_recorded_quad_cells(self):
        # a fit off the dyadic grid takes the quadrature, at the config's
        # quad_cells in the splice; verify took the default 2^16 and failed
        # every L2 certificate of the report the splice had just written
        class ShiftedOracle:
            name = "shifted-oracle"

            def fit(self, xs, ys):
                k = OracleProcedure().fit(xs, ys).k
                return lambda x: rademacher_eval(k, x + 1e-3)

        phi = ShiftedOracle()
        cfg = AdversaryConfig(n_blocks=2, horizon=1 << 10, block_budget=64, quad_cells=1 << 10)
        state, report = build_adversarial_sequence(phi, 2, cfg)
        results = verify_adversary_report(report, state.sequence(), phi)
        assert [name for name, ok, _ in results if ok is not True] == []
        assert "block2-l2-certificate" in [name for name, _, _ in results]

    def test_spliced_sequence_is_stable_toward_half_level(self):
        cfg = AdversaryConfig(n_blocks=3, horizon=1 << 14, block_budget=1 << 15)
        state, report = build_adversarial_sequence(PluginHistogramProcedure(), 3, cfg)
        seq = state.sequence()
        uni = DistributionModel.uniform(0, 1)
        target = SignedMeasureModel(uni, RegressionModel.constant(0.5))
        rep = stability_diagnostic(seq, uni, target, [state.boundaries[0], state.n])
        assert not rep.flag
        # within each span the prefix discrepancy against the half-level
        # measure stays under 6/k (here vacuously strong; values recorded)
        for s in report["spans"]:
            assert s["certified"]
            assert s["max_observed"] <= s["bound"]


class TestExternalProcedure:
    def test_line_protocol(self, tmp_path):
        script = tmp_path / "est.py"
        script.write_text(
            "import sys\n"
            "lines = sys.stdin.read().splitlines()\n"
            "i = next(j for j, l in enumerate(lines) if l.startswith('QUERIES'))\n"
            "m = int(lines[i].split()[1])\n"
            "n = i - 1  # pairs seen\n"
            "for q in lines[i+1:i+1+m]:\n"
            "    print(q, 0.25 if n else 0.0)\n"
        )
        phi = ExternalProcedure(["python3", str(script)], name="toy")
        fitted = phi.fit(np.array([0.2, 0.8]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(fitted(np.array([0.1, 0.9])), [0.25, 0.25])
        r = l2_unit_distance(fitted, RademacherFn(1), quad_cells=1 << 10)
        assert r.converged
        assert r.value == pytest.approx(0.5 * (0.75**2 + 0.25**2), abs=1e-9)

    def test_prefix_rows_are_the_sequence_csv(self, tmp_path):
        # the script parses every row with float(); query 2r answers row r's
        # x and query 2r + 1 its y, so the answers are the rows it read
        script = tmp_path / "est.py"
        script.write_text(
            "import sys\n"
            "lines = sys.stdin.read().splitlines()\n"
            "assert lines[0] == 'i,x,y'\n"
            "i = next(j for j, l in enumerate(lines) if l.startswith('QUERIES'))\n"
            "rows = [[float(v) for v in l.split(',')] for l in lines[1:i]]\n"
            "assert [r[0] for r in rows] == list(range(1, len(rows) + 1))\n"
            "for q in lines[i + 1:]:\n"
            "    print(q, rows[int(float(q)) // 2][1 + int(float(q)) % 2])\n"
        )
        xs, ys = np.array([0.2, 0.1 + 0.2, 1e-300]), np.array([1.0, -1.0, 0.3])
        fitted = ExternalProcedure([sys.executable, str(script)]).fit(xs, ys)
        assert fitted(np.arange(6.0)).tolist() == np.column_stack([xs, ys]).ravel().tolist()


def _ladder_reference(k, x):
    """h_k(x) for k >= 1 from the exact binary expansion x = p / 2^j."""
    if not 0.0 <= x < 1.0:
        return 0.0
    f = Fraction(x)
    p, j = f.numerator, f.denominator.bit_length() - 1
    # floor(x * 2^k) = p * 2^(k - j), even for k > j, or p >> (j - k)
    odd = k <= j and (p >> (j - k)) % 2 == 1
    return 0.0 if odd else 1.0


class TestLadderAtLargeIndex:
    @pytest.mark.parametrize("k", [1, 52, 53, 54, 62, 63, 64, 1074, 1075, 1076, 10**8])
    def test_matches_exact_reference_without_warnings(self, k):
        rng = np.random.default_rng(k % 1000)
        bits = rng.integers(0, 0x3FF0000000000000, size=400, dtype=np.int64)  # [0, 1)
        xs = np.concatenate([
            rng.random(200), bits.view(np.float64),
            [0.0, 5e-324, 2.0**-1022, 0.5, 1.0 - 2.0**-53, 2.0**-60, 1.0, -0.25],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rademacher_eval(k, xs)
        assert got.tolist() == [_ladder_reference(k, float(x)) for x in xs]

    @pytest.mark.parametrize("k", [1, 2, 52, 1071, 1072, 1073, 1074, 1075, 1076, 2000])
    def test_cumulative_matches_exact_reference(self, k):
        # N_k(t) = q 2^-k + min(r, 2^-k) with t = q 2^-(k-1) + r, in exact
        # rationals, then rounded once to the nearest double
        rng = np.random.default_rng(k)
        bits = rng.integers(0, 0x3FF0000000000000, size=300, dtype=np.int64)  # [0, 1)
        ts = np.concatenate([
            rng.random(200), bits.view(np.float64),
            [0.0, 5e-324, 3 * 5e-324, 2.0**-1022, 3 * 2.0**-1022, 0.5, 0.3, 1.0 - 2.0**-53, 1.0,
             -0.25, 1.5],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rademacher_cumulative(k, ts)
            one = [rademacher_cumulative(k, float(t)) for t in ts]
        want = []
        for t in ts.tolist():
            t = Fraction(min(max(t, 0.0), 1.0))
            q = t * 2 ** (k - 1) // 1
            r = t - q / 2 ** (k - 1)
            want.append(float(q / 2**k + min(r, Fraction(1, 2**k))))
        assert got.tolist() == one == want
        assert all(math.isfinite(v) for v in want)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_cumulative_non_decreasing_in_floats(self, k):
        # the weighted scans ask nu_k for its support ends only, which needs
        # N_k non-decreasing as computed, not just in exact arithmetic
        grid = np.arange((1 << k) + 1, dtype=float) / (1 << k)
        dense = np.random.default_rng(k).random(20_000)
        ts = np.sort(np.concatenate([
            grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf), dense,
            [-0.5, 5e-324, 1.5],
        ]))
        vals = rademacher_cumulative(k, ts)
        assert np.all(vals[1:] >= vals[:-1])
        assert vals[0] == 0.0 and vals[-1] == 0.5

    @pytest.mark.parametrize("k", [40, 64, 1075])
    def test_weighted_scans_need_no_grid(self, k):
        # a 2^k + 1 point grid would ask for 8 TiB at k = 40
        assert RademacherFn(k).breakpoints().tolist() == [0.0, 1.0]
        x = BlockStreams(AdversaryConfig(n_blocks=2, horizon=1 << 12)).xs(1)
        for m in (1, 100, 1 << 12):
            seq = SampleSequence(x[:m], rademacher_eval(k, x[:m]))
            d = weighted_prefix_discrepancy(seq, RademacherFn(k))
            assert math.isfinite(d) and 0.0 <= d <= 1.0

    def test_oracle_index_beyond_ladder_top(self, tmp_path):
        # h_k is the same function for k >= 1075, so a larger max_index ends
        # at once and gives the same report
        out = {}
        for max_index in (1075, 10**8):
            cfg = tmp_path / f"c{max_index}.json"
            cfg.write_text(json.dumps({"phi": {"kind": "oracle", "max_index": max_index},
                                       "n_blocks": 2, "horizon": 256, "block_budget": 64}))
            d = tmp_path / str(max_index)
            assert main(["adversary", "--config", str(cfg), "--out", str(d)]) == 0
            out[max_index] = [(d / f).read_bytes() for f in ("report.json", "sequence.csv")]
        assert out[1075] == out[10**8]


class TestL2UnitDistanceCallsOnArrays:
    """Values pinned from the distances taken before step functions were
    called on arrays, when `l2_unit_distance` switched on their type."""

    F = PiecewiseDyadicFn(3, {1: 0.25, 3: -1.0, 6: 2.5, 9: 7.0}, 0.125)

    @pytest.mark.parametrize(
        "f,g,value,coarse",
        [
            (F, RademacherFn(4), 1.126953125, 1.126953125),
            (RademacherFn(4), F, 1.126953125, 1.126953125),
            (PiecewiseDyadicFn(0, {0: 0.7}, 0.7), RademacherFn(2), 0.29, 0.29),
            (RademacherFn(0), PiecewiseDyadicFn(0, {0: -0.3}, -0.3),
             0.6400000000000001, 0.6400000000000001),
            (F, lambda x: np.sin(3.0 * x), 0.9805263897825829, 0.980526289616062),
            (lambda x: x * x, PiecewiseDyadicFn(5, {7: 1.5, 20: -2.0}, 0.0),
             0.43786413607498176, 0.4378640150030719),
            (PiecewiseDyadicFn(23, {5: 3.0, 1 << 22: -1.0}, 0.25), RademacherFn(1), 0.3125, 0.3125),
        ],
        ids=["step-hk", "hk-step", "k0-hk", "hk-k0", "step-array", "array-step", "deep-step-hk"],
    )
    def test_pinned(self, f, g, value, coarse):
        r = l2_unit_distance(f, g, quad_cells=1 << 10)
        assert r.converged
        assert (r.value, r.coarse, r.fine) == (value, coarse, value)
