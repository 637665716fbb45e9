"""L2(mu) error functionals and consistency-curve experiments.

Two routes to the same integral, kept deliberately separate:

  * `l2_error_exact` integrates (est - m)^2 against mu in closed form over
    the common refinement of the estimate's dyadic cells, the regression
    curve's pieces, and the distribution's segments, plus exact atom terms.
    No quadrature error enters acceptance thresholds.

  * `l2_error_quadrature` treats both functions as black boxes: composite
    midpoint rule per segment, weighted by the segment density, with a
    doubled-resolution Richardson check.  Disagreement beyond relative 1e-3
    is reported as NOT-CONVERGED alongside both values rather than raised.

`stream_checkpoints` is the one stream-and-checkpoint loop: it feeds a
sequence through the estimator and records the exact error of the
fixed-sample estimate at each checkpoint.  `consistency_curve` (the
convergence experiments) and the CLI's estimate subcommand both run it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .estimator import EstimatorState
from .measures import DistributionModel, SampleSequence
from .partitions import PiecewiseDyadicFn, VariationBudget
from .regression import RegressionModel

__all__ = [
    "l2_error_exact",
    "l2_error_quadrature",
    "QuadratureResult",
    "consistency_curve",
    "ErrorCurve",
    "error_curve_csv_bytes",
]


def _segment_cuts(
    a: float, b: float, est: PiecewiseDyadicFn, m: RegressionModel
) -> np.ndarray:
    grid = RegressionModel.from_dyadic(est).breakpoints_in(a, b)
    return np.unique(np.concatenate([[a, b], grid, m.breakpoints_in(a, b)]))


def l2_error_exact(
    est: PiecewiseDyadicFn, m: RegressionModel, mu: DistributionModel
) -> float:
    """Exact integral of (est - m)^2 d(mu).

    Requires m to be one of the exactly integrable regression kinds; pass
    black-box callables to `l2_error_quadrature` instead.  A term or a sum
    beyond the double range raises OverflowError.
    """
    if not isinstance(est, PiecewiseDyadicFn):
        raise TypeError("est must be a dyadic step function for the exact route")
    if not isinstance(m, RegressionModel):
        raise TypeError("m must be an exactly integrable regression model")
    terms: list[float] = []
    for a, b, d in mu.segments:
        if d == 0.0:
            continue
        cuts = _segment_cuts(a, b, est, m)
        lo, hi = cuts[:-1], cuts[1:]
        mid = 0.5 * (lo + hi)
        c, s = m._linear_pieces(mid)
        with np.errstate(over="ignore", invalid="ignore"):  # caught below
            p = est.eval_many(mid) - c
            # integral of (p - s t)^2 over (lo, hi], piece by piece
            val = (
                p * p * (hi - lo)
                - p * s * (hi * hi - lo * lo)
                + s * s * (hi * hi * hi - lo * lo * lo) / 3.0
            )
            terms += (d * val).tolist()
    for u, mass in mu.atoms:
        diff = float(est(u)) - float(m.eval(u))
        terms.append(mass * diff * diff)
    if not np.isfinite(terms).all():
        raise OverflowError("the exact L2 error overflows a double")
    return math.fsum(terms)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    converged: bool
    coarse: float
    fine: float

    def __float__(self) -> float:
        return self.value


def l2_error_quadrature(
    est: Callable, m: Callable, mu: DistributionModel, cells: int = 1 << 16
) -> QuadratureResult:
    """Composite midpoint quadrature of (est - m)^2 d(mu) for black boxes.

    est and m are called on 1-d arrays of points, as every fitted function,
    regression model and h_k takes them.  `cells` must be a power of two
    >= 2^10: that many midpoints are placed per segment, the rule is
    repeated at double resolution, and the two estimates must agree within
    relative 1e-3; otherwise the result is flagged NOT-CONVERGED
    (converged=False) with both values attached.  Atom contributions are
    exact in both.
    """
    if cells < 1 << 10 or cells & (cells - 1):
        raise ValueError("cells must be a power of two >= 2^10")

    def evaluate(f, xs: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(f(xs), dtype=float))

    def rule(n_cells: int) -> float:
        parts: list[float] = []
        for a, b, d in mu.segments:
            if d == 0.0:
                continue
            h = (b - a) / n_cells
            mids = a + h * (np.arange(n_cells) + 0.5)
            diff = evaluate(est, mids) - evaluate(m, mids)
            parts.append(d * h * float(np.sum(diff * diff)))
        for u, mass in mu.atoms:
            de = float(evaluate(est, np.array([u]))[0]) - float(
                evaluate(m, np.array([u]))[0]
            )
            parts.append(mass * de * de)
        return math.fsum(parts)

    coarse = rule(cells)
    fine = rule(cells * 2)
    tol = 1e-3 * max(abs(fine), 1e-300)
    converged = abs(fine - coarse) <= tol or (coarse == 0.0 and fine == 0.0)
    return QuadratureResult(value=fine, converged=converged, coarse=coarse, fine=fine)


@dataclass(frozen=True)
class ErrorCurve:
    """Exact-error trajectory of the fixed-sample estimate at checkpoints."""

    rows: tuple[tuple[int, int, float], ...]  # (n, kappa, error)
    metadata: dict = field(default_factory=dict)
    stalled_at: int | None = None

    def to_metadata_json(self) -> str:
        meta = dict(self.metadata)
        meta["stalled_at"] = self.stalled_at
        return json.dumps(meta, sort_keys=True)


def error_curve_csv_bytes(curve: ErrorCurve) -> bytes:
    rows = (f"{n},{kappa},{float(err)!r}\n" for n, kappa, err in curve.rows)
    return ("n,kappa,error\n" + "".join(rows)).encode("utf-8")


def stream_checkpoints(
    seq: SampleSequence,
    budget: VariationBudget,
    n_stop: int,
    checkpoints: Sequence[int],
    stall_patience: int | None = None,
    m: RegressionModel | None = None,
    mu: DistributionModel | None = None,
) -> tuple[EstimatorState, list[tuple[int, int, float]], int | None]:
    """Stream the first n_stop pairs of seq through a fresh estimator.

    Returns (state, rows, stalled_at).  Each checkpoint n <= n_stop adds a
    row (n, kappa, exact L2(mu) error of the fixed-sample estimate vs m;
    NaN when m is None).  Once the open search exceeds `stall_patience`
    the stream stops there (`stalled_at`).  n_stop < 1 or a checkpoint < 1
    raises ValueError.
    """
    checkpoints = sorted(int(c) for c in checkpoints)
    if n_stop < 1:
        raise ValueError(f"stream length (horizon) must be >= 1, got {n_stop}")
    if checkpoints and checkpoints[0] < 1:
        raise ValueError(f"checkpoints must be >= 1, got {checkpoints[0]}")
    state = EstimatorState(budget)
    rows: list[tuple[int, int, float]] = []
    stalled_at = None
    n = next_cp = 0
    while n < n_stop:
        # feed up to the next checkpoint, or to the pair at which the open
        # search would outlast the patience if nothing froze before it
        end = n_stop
        if next_cp < len(checkpoints):
            end = min(end, checkpoints[next_cp])
        if stall_patience is not None:
            deadline = (state.tau[-1] if state.tau else 1) + stall_patience + 1
            end = max(n + 1, min(end, deadline))
        state.ingest_many(seq.x[n:end], seq.y[n:end])
        n = end
        if stall_patience is not None and state.open_search_age() > stall_patience:
            stalled_at = n
            break
        while next_cp < len(checkpoints) and checkpoints[next_cp] == n:
            err = math.nan if m is None else l2_error_exact(state.estimate_at(n), m, mu)
            rows.append((n, state.kappa(n), err))
            next_cp += 1
    return state, rows, stalled_at


def consistency_curve(
    seq: SampleSequence,
    m: RegressionModel,
    mu: DistributionModel,
    budget: VariationBudget,
    checkpoints: Sequence[int],
    stall_patience: int | None = None,
) -> ErrorCurve:
    """Stream seq through the estimator; exact L2(mu) error at checkpoints.

    Declared budget membership (V(m:-i,i) < alpha(i) for i = 1..4) is
    advisory: a violation is recorded in the metadata rather than raised,
    because the stopping-time search can still settle whenever the
    projected variation stays under 4*alpha.  If `stall_patience` is set and
    the open search exceeds it, the curve is truncated at the last completed
    checkpoint and `stalled_at` records the sample count where patience ran
    out.
    """
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints or max(checkpoints) > len(seq):
        raise ValueError("checkpoints must be nonempty and within the sequence")
    meta = {"budget": budget.to_dict(), "declared_membership_ok": m.fits_budget(budget, 4)}
    _, rows, stalled_at = stream_checkpoints(
        seq, budget, max(checkpoints), checkpoints, stall_patience, m, mu
    )
    return ErrorCurve(tuple(rows), meta, stalled_at)
