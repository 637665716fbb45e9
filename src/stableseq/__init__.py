"""Histogram regression from individual stable sequences.

A single fixed data stream (x_1, y_1), (x_2, y_2), ... -- no generating
mechanism assumed -- carries a regression function whenever its empirical
interval masses and y-weighted masses converge.  This package provides:

  * exact measure/discrepancy arithmetic over half-open intervals,
  * an adaptive streaming histogram estimator whose resolution deepens
    through stopping times gated by a known variation budget,
  * generators of stable sequences (i.i.d., Markov, van der Corput,
    pathological, non-ergodic mixtures),
  * an adversarial splicing procedure that defeats any fixed estimation
    rule on the bounded-variation class, with machine-checkable
    certificates,
  * exact and quadrature L2 error functionals, and a CLI.
"""
from .measures import (
    DistributionModel,
    IntervalA,
    SampleSequence,
    cramer_distance,
    empirical_mass,
    empirical_weighted_mass,
    interval_prob,
    levy_distance,
    read_sequence_csv,
    stability_diagnostic,
    sup_interval_discrepancy,
    sup_weighted_discrepancy,
    write_sequence_csv,
)
from .partitions import (
    DyadicCell,
    PiecewiseDyadicFn,
    VariationBudget,
    cell_of,
    total_variation_window,
)
from .regression import RegressionModel, SignedMeasureModel, average_over_partition
from .estimator import (
    EstimatorState,
    batch_tau_search,
    histogram_estimate,
    variation_check,
)
from .generators import (
    RandomSource,
    gen_deterministic,
    gen_harmonic_approach,
    gen_iid,
    gen_markov,
    gen_nonergodic_mixture,
    van_der_corput,
)
from .evaluation import consistency_curve, l2_error_exact, l2_error_quadrature
from .adversary import (
    AdversaryConfig,
    build_adversarial_sequence,
    compute_block_thresholds,
    rademacher_eval,
    rademacher_integral,
)

__version__ = "0.1.0"
