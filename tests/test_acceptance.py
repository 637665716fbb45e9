"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""
import json
import time

import numpy as np

from conftest import brute_force_interval_sup, random_mixture_model
from stableseq.adversary import (
    AdversaryConfig,
    PluginHistogramProcedure,
    RademacherFn,
    build_adversarial_sequence,
    l2_unit_distance,
    rademacher_integral,
)
from stableseq.estimator import EstimatorState, batch_tau_search, histogram_estimate, variation_check
from stableseq.evaluation import consistency_curve, l2_error_exact
from stableseq.generators import (
    RandomSource,
    gen_deterministic,
    gen_harmonic_approach,
    gen_iid,
)
from stableseq.measures import (
    DistributionModel,
    IntervalA,
    SampleSequence,
    cramer_distance,
    sequence_csv_bytes,
    stability_diagnostic,
    sup_interval_discrepancy,
)
from stableseq.partitions import PiecewiseDyadicFn, VariationBudget
from stableseq.regression import RegressionModel, SignedMeasureModel

UNIFORM = DistributionModel.uniform(0.0, 1.0)
H1 = RegressionModel.from_dyadic(PiecewiseDyadicFn(1, {1: 1.0, 2: 0.0}, 0.0))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_discrepancy_oracle_equivalence():
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        model = random_mixture_model(rng)
        n = int(rng.integers(1, 51))
        x = rng.uniform(-3.0, 5.0, size=n)
        seq = SampleSequence(x, np.zeros(n))
        exact = sup_interval_discrepancy(seq, model)
        brute = brute_force_interval_sup(seq, model)
        worst = max(worst, abs(exact - brute))
    elapsed = time.time() - t0
    _report(
        "1-oracle-equivalence",
        worst <= 1e-9 and elapsed < 30.0,
        f"max |exact - oracle| = {worst:.3g}, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_2_rademacher_facts():
    worst_orth = 0.0
    for j in range(1, 9):
        for k in range(j + 1, 9):
            d = l2_unit_distance(RademacherFn(j), RademacherFn(k)).value
            worst_orth = max(worst_orth, abs(d - 0.5))
    rng = np.random.default_rng(2)
    bound_ok = True
    for k in range(1, 11):
        for _ in range(100):
            a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
            if a == b:
                continue
            A = IntervalA(float(a), float(b))
            gap = abs(rademacher_integral(k, A) - rademacher_integral(0, A))
            bound_ok = bound_ok and gap <= 2.0 ** (1 - k) + 1e-15
    _report(
        "2-rademacher-facts",
        worst_orth <= 1e-12 and bound_ok,
        f"max orthogonality error {worst_orth:.3g}; half-level proximity bound held "
        f"on 1000 random intervals for k <= 10",
    )


def _seeded_run_specs():
    """96 short runs + 4 at n = 10^4 (mixed budgets, targets, noise)."""
    budgets = [
        VariationBudget.const(0.6),
        VariationBudget.const(1.0),
        VariationBudget.const(2.0),
        VariationBudget.affine(0.4, 0.2),
    ]
    targets = [
        H1,
        RegressionModel.piecewise_linear([0, 1], [0.2, 0.8]),
        RegressionModel.constant(0.5),
    ]
    noises = ["binary", "none", "uniform"]
    specs = []
    for seed in range(92):
        specs.append(
            dict(
                seed=seed,
                n=256 + (seed % 5) * 150,
                budget=budgets[seed % 4],
                m=targets[seed % 3],
                noise=noises[seed % 3],
            )
        )
    for seed in (501, 502, 503, 504):  # never-binding budget: tau_k = k + 1
        specs.append(
            dict(seed=seed, n=112, budget=VariationBudget.const(1e6),
                 m=targets[1], noise="binary")
        )
    for seed in (1001, 1002):
        specs.append(
            dict(seed=seed, n=10_000, budget=budgets[0],
                 m=targets[1], noise="binary")
        )
    for seed in (1003, 1004):
        specs.append(
            dict(seed=seed, n=10_000, budget=budgets[1],
                 m=targets[1], noise="binary")
        )
    return specs


def test_criterion_3_estimator_certificates_and_batch_equality():
    t0 = time.time()
    runs = 0
    for spec in _seeded_run_specs():
        m = spec["m"]
        noise = spec["noise"]
        if noise == "binary" and (m.bound() > 1.0 or float(m.eval(0.9)) < 0.0):
            noise = "none"
        seq = gen_iid(UNIFORM, m, noise, spec["n"], RandomSource(spec["seed"]), delta=0.2)
        st = EstimatorState(spec["budget"])
        st.ingest_many(seq.x, seq.y)
        tau_b, frozen_b = batch_tau_search(seq.x, seq.y, spec["budget"])
        assert st.tau == tau_b, f"tau mismatch at seed {spec['seed']}"
        if spec["budget"].kind == "constant" and spec["budget"].constant == 1e6:
            assert st.tau == list(range(1, spec["n"] + 1))  # sprint regime
        for k, t in enumerate(st.tau):
            if k == 0:
                continue
            rebuilt = histogram_estimate(seq, k, t)
            assert dict(rebuilt.values) == dict(st.frozen[k].values), (
                f"frozen[{k}] differs from recomputation at seed {spec['seed']}"
            )
            assert variation_check(rebuilt, spec["budget"]), (
                f"certificate failed at seed {spec['seed']}, k={k}"
            )
            assert dict(frozen_b[k].values) == dict(st.frozen[k].values)
        runs += 1
    _report(
        "3-certificates-and-batch-equality",
        runs == 100,
        f"{runs} seeded runs: tau sequences identical, certificates exact "
        f"({time.time() - t0:.1f}s)",
    )


CASE4 = {
    "a-step-budget2": (
        H1,
        VariationBudget.const(2.0),
    ),
    "b-monotone-budget2M": (
        RegressionModel.piecewise_linear([0.0, 1.0], [0.1, 0.9], monotone=True),
        VariationBudget.const(2.0),  # 2M with M = 1 > sup|m| = 0.9
    ),
    "c-lipschitz-affine": (
        RegressionModel.identity_on_unit(),
        VariationBudget.affine(2.0, 0.1),  # 2Ci + eps with C = 1
    ),
}


def test_criterion_4_consistency_at_desk_scale():
    details = []
    ok = True
    for name, (m, budget) in CASE4.items():
        t0 = time.time()
        seq = gen_deterministic(m, 1 << 16)
        curve = consistency_curve(seq, m, UNIFORM, budget, [1 << 7, 1 << 16])
        e_small, e_big = curve.rows[0][2], curve.rows[1][2]
        elapsed = time.time() - t0
        case_ok = e_big < 0.01 and e_big < e_small and elapsed < 120.0
        ok = ok and case_ok
        details.append(f"{name}: err(2^16)={e_big:.2e} < 0.01 and < err(2^7)={e_small:.2e}, {elapsed:.0f}s")
    _report("4-consistency-desk-scale", ok, "; ".join(details))


def test_criterion_5_creeping_atom_pathology():
    pm = DistributionModel.point_mass(0.0)
    seq = gen_harmonic_approach(100)
    cdf_stat = cramer_distance(seq, pm)
    atom_freq = seq.atom_frequency(0.0)
    target = SignedMeasureModel(pm, RegressionModel.constant(0.0))
    rep = stability_diagnostic(seq, pm, target, [10, 30, 100])
    interval_sup = sup_interval_discrepancy(seq, pm)
    ok = cdf_stat < 0.02 and atom_freq == 0.0 and rep.flag and interval_sup == 1.0
    _report(
        "5-creeping-atom",
        ok,
        f"CDF discrepancy {cdf_stat:.4f} < 0.02 at n=100, atom frequency exactly "
        f"{atom_freq}, flag={rep.flag} (interval supremum stays {interval_sup})",
    )


def test_criterion_6_adversary_defeats_plugin_histogram():
    t0 = time.time()
    config = AdversaryConfig(n_blocks=4, horizon=1 << 20)
    state, report = build_adversarial_sequence(PluginHistogramProcedure(), 4, config)
    elapsed = time.time() - t0
    dist = report["pairwise_sq_distances"]
    min_pair = min(dist[i][j] for i in range(4) for j in range(i + 1, 4))
    spans_ok = all(s["certified"] and s["max_observed"] <= s["bound"] for s in report["spans"])
    ok = (
        min_pair >= 1.0 / 20.0
        and report["pairwise_distances_converged"]
        and spans_ok
        and elapsed < 600.0
    )
    _report(
        "6-adversary-oscillation",
        ok,
        f"boundaries {[b['n_k'] for b in report['blocks']]}, min pairwise "
        f"squared distance {min_pair:.4f} >= 0.05 (exact), span envelopes "
        f"certified <= 6/k, runtime {elapsed:.0f}s < 600s",
    )


def test_criterion_7_prefix_invariance():
    m, budget = CASE4["a-step-budget2"]
    n = 100_000
    clean = gen_deterministic(m, n)
    s0 = EstimatorState(budget)
    s0.ingest_many(clean.x, clean.y)
    e0 = l2_error_exact(s0.estimate_at(n), m, UNIFORM)

    # adversarial junk: an equidistant burst carrying the target's own labels;
    # it sprint-freezes the first ~8 resolutions on garbage histograms and
    # shifts every later stopping time (measured: tau_8 moves 122 -> 346)
    jx = (2 * np.arange(1, 101) - 1) / 200.0
    jy = np.asarray(m.eval(jx))
    s1 = EstimatorState(budget)
    s1.ingest_many(np.concatenate([jx, clean.x[: n - 100]]),
                   np.concatenate([jy, clean.y[: n - 100]]))
    e1 = l2_error_exact(s1.estimate_at(n), m, UNIFORM)

    if e0 == 0.0:
        ok = e1 == 0.0
    else:
        ok = e0 / 2.0 <= e1 <= 2.0 * e0
    _report(
        "7-prefix-invariance",
        ok,
        f"errors at n=1e5: clean {e0!r}, junk-prefixed {e1!r} "
        f"(measured ratio {e1 / e0 if e0 else float('nan'):.3f}; "
        f"tau shifted {s0.tau[8]} -> {s1.tau[8]})",
    )


def test_criterion_8_reproducibility():
    # pinned generator run: byte-identical CSV
    a = gen_iid(UNIFORM, H1, "binary", 512, RandomSource(42))
    b = gen_iid(UNIFORM, H1, "binary", 512, RandomSource(42))
    csv_same = sequence_csv_bytes(a) == sequence_csv_bytes(b)

    # pinned estimator run: byte-identical checkpoint JSON
    from stableseq.estimator import checkpoint_to_dict

    chks = []
    for _ in range(2):
        st = EstimatorState(VariationBudget.const(1.0))
        st.ingest_many(a.x, a.y)
        chk = checkpoint_to_dict(st)
        chks.append(json.dumps(chk, sort_keys=True, default=PiecewiseDyadicFn.to_dict))
    chk_same = chks[0] == chks[1]

    # pinned adversary run: byte-identical report JSON
    reports = []
    for _ in range(2):
        cfg = AdversaryConfig(n_blocks=2, horizon=1 << 12, block_budget=1 << 13)
        _, rep = build_adversarial_sequence(PluginHistogramProcedure(), 2, cfg)
        reports.append(json.dumps(rep, sort_keys=True))
    rep_same = reports[0] == reports[1]

    _report(
        "8-reproducibility",
        csv_same and chk_same and rep_same,
        f"sequence CSV bytes identical: {csv_same}; checkpoint JSON identical: "
        f"{chk_same}; adversary report identical: {rep_same}",
    )
