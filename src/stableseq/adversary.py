"""Constructive stress-tester: splice labeled blocks until an estimator oscillates.

The target family is the Rademacher ladder on [0, 1]:

    h_k(x) = 1 on [2j/2^k, (2j+1)/2^k), 0 <= j < 2^{k-1}, else 0   (k >= 1)
    h_0(x) = 0.5 on [0, 1], 0 elsewhere,

with exact closed-form integrals nu_k(A) = integral of h_k over A.  Note
the sub-intervals are left-closed/right-open -- deliberately the opposite
closure from the estimator's dyadic cells; both conventions are exact and
coexist (they agree off a null set, which is all the L2 functionals see).

Any two distinct h_j, h_k (j, k >= 1) are at squared L2 distance exactly
0.5, while every nu_k is within 2^{-k+1} of nu_0 on every interval.  The
splice appends ever-longer blocks labeled by successive h_k; a procedure
that tracks each block's regression must therefore keep jumping between
functions 0.5 apart, while the composite sequence itself converges to the
law (uniform, h_0).

Per block k, the boundary n_k is accepted only when, simultaneously,

    squared L2 distance of the fitted estimate to h_k   <= 1/40,
    interval discrepancy of the whole prefix vs uniform <= 1/(k+1),
    weighted discrepancy of the prefix vs nu_k          <= 1/(k+1),
    n_k >= k * max(l_{k+1}, l~_{k+1}),

where l_{k+1}, l~_{k+1} are the next block's own uniform-ization
thresholds: the smallest L past which its running prefix discrepancies stay
under 1/(k+2) *for every* prefix length up to the horizon.  The "for
every" is checked rigorously without evaluating every length: adding one
point moves U_m = m * (discrepancy at m) by at most 1, so from d at M the
discrepancy at m is at most (M*d + |m - M|)/m, above M and below it.  Each
evaluation at or under the threshold certifies the lengths on both sides
where this bound stays under it (in exact arithmetic), and only the lengths
no evaluation covers are evaluated (`certified_prefix_scan`).

If the fitted estimate never approaches h_k within the block budget, that
is not a failure of the construction but a witness: a concrete stable
sequence on which the procedure demonstrably does not converge
(ConsistencyViolationWitness carries it).

The full run is a finite-prefix witness (the thresholds' suprema are
truncated at the configured horizon) and reports label it as such.

The splice and `verify_adversary_report` share one certificate routine per
block and one for the oscillation fields, so a report is re-checked by the
code that produced it.  Every prefix discrepancy, of a block or of the
spliced sequence, is `uniform_prefix_discrepancy` or
`weighted_prefix_discrepancy` over one `SampleSequence`: a block's
`prefix`, the spliced prefix at a check, or `prefix(n_k)` of the stored
sequence in `verify`.  Both read its one sorted view, built on first use,
so no prefix is sorted twice; one `RademacherFn(k)` is h_k and nu_k.
"""
from __future__ import annotations

import dataclasses
import math
import re
import subprocess
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .evaluation import QuadratureResult, l2_error_quadrature
from .measures import (
    DistributionModel, IntervalA, SampleSequence, _interval_measure, _interval_sup,
    _number_literal, sequence_csv_bytes,
)
from .partitions import PiecewiseDyadicFn, _cell_indices, _numbers
from .generators import RandomSource, van_der_corput

__all__ = [
    "rademacher_eval",
    "rademacher_cumulative",
    "rademacher_integral",
    "RademacherFn",
    "l2_unit_distance",
    "compute_block_thresholds",
    "certified_prefix_scan",
    "HorizonExhausted",
    "ConsistencyViolationWitness",
    "AdversaryConfig",
    "SpliceState",
    "BlockStreams",
    "uniform_prefix_discrepancy",
    "weighted_prefix_discrepancy",
    "PluginHistogramProcedure",
    "ConstantProcedure",
    "OracleProcedure",
    "ExternalProcedure",
    "build_adversarial_sequence",
    "splice_next_block",
    "verify_adversary_report",
]


# -- the Rademacher ladder -----------------------------------------------------

_LADDER_TOP = 1075  # h_k on doubles is the same function for every k >= this


def rademacher_eval(k: int, x) -> np.ndarray | float:
    """h_k(x): exact, left-closed/right-open sub-intervals; 0 outside [0, 1)."""
    if k < 0:
        raise ValueError("index must be >= 0")
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if k == 0:
        out = np.where((xs >= 0.0) & (xs <= 1.0), 0.5, 0.0)
    else:
        # floor(x * 2^k) is even where y = x * 2^(k-1) has y - floor(y) < 1/2,
        # which is exact in floats.  x >= 2^(53 - k) gives floor(x * 2^k) >=
        # 2^53, an even integer like every double there, so x is clamped to
        # 2^(53 - k) and y never overflows.  Every double in [0, 1) is
        # m * 2^-1074, so h_k is h_1075 for k >= 1075.
        k = min(k, _LADDER_TOP)
        inside = (xs >= 0.0) & (xs < 1.0)
        y = np.where(inside, xs, 0.0)
        np.minimum(y, math.ldexp(1.0, 53 - k), out=y)
        np.ldexp(y, k - 1, out=y)
        y -= np.floor(y)
        out = np.where(inside & (y < 0.5), 1.0, 0.0)
    return float(out[0]) if scalar else out


def rademacher_cumulative(k: int, t) -> np.ndarray | float:
    """N_k(t) = integral of h_k over (-inf, t]; exact piecewise-linear form.

    The float returned is N_k(t) rounded once to nearest (see below), so
    it is non-decreasing in t as N_k is: clipping t to [0, 1] and rounding
    are both monotone.  `RademacherFn` relies on this to give the
    scans no grid points.
    """
    scalar = np.ndim(t) == 0
    tt = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), 0.0, 1.0)
    if k == 0:
        out = 0.5 * tt
    else:
        # with y = t * 2^(k-1), q = floor(y) and f = y - q, N_k(t) is
        # (q + 2 min(f, 1/2)) * 2^-k.  y, q, f and 2 min(f, 1/2) are exact,
        # and so is the first factor: a multiple of ulp(y) below q + 1, it
        # stays in y's binade (or below 1 when q = 0).  So the one rounding
        # is in the final ldexp (all in place in `out`).  From
        # t >= 2^(53-k) on, y is an integer and N_k(t) = t / 2; t is clamped
        # there so y never overflows, and N_k is N_1075 for k >= 1075 (see
        # `rademacher_eval`)
        k = min(k, _LADDER_TOP)
        top = math.ldexp(1.0, 53 - k)
        out = np.minimum(tt, top)
        np.ldexp(out, k - 1, out=out)
        q = np.floor(out)
        out -= q
        np.minimum(out, 0.5, out=out)
        out *= 2.0
        out += q
        del q
        np.ldexp(out, -k, out=out)
        np.multiply(tt, 0.5, out=out, where=tt >= top)
    return float(out[0]) if scalar else out


def rademacher_integral(k: int, A: IntervalA) -> float:
    """nu_k(A): exact integral of h_k over A intersected with [0, 1]."""
    return float(_interval_measure(lambda t: rademacher_cumulative(k, t), A))


@dataclass(frozen=True)
class RademacherFn:
    """The exact h_k: callable, with its dyadic profile for closed-form L2
    distances, and nu_k (cumulative, breakpoints, no atoms) as a
    weighted-measure target for the discrepancy scans."""

    k: int

    def __call__(self, x):
        return rademacher_eval(self.k, x)

    @property
    def dyadic_resolution(self) -> int:
        return max(self.k, 1)

    def cumulative(self, t):
        return rademacher_cumulative(self.k, t)

    cumulative_left = cumulative  # continuous

    def breakpoints(self) -> np.ndarray:  # N_k is monotone in floats: the ends suffice
        return np.array([0.0, 1.0])

    def point_mass(self, u: float) -> float:
        return 0.0


# -- L2 distances on [0, 1] -----------------------------------------------------

_UNIT = DistributionModel.uniform(0.0, 1.0)


def l2_unit_distance(f, g, quad_cells: int = 1 << 16) -> QuadratureResult:
    """Squared L2 distance of f and g over uniform [0, 1].

    f and g are called on arrays.  Exact by midpoint evaluation on the
    common dyadic refinement whenever both declare a `dyadic_resolution`
    (as `PiecewiseDyadicFn` and `RademacherFn` do: constant on the cell
    interiors of that grid, and midpoints are interior) of at most 22;
    otherwise composite midpoint quadrature with a doubled-resolution check.
    """
    rf, rg = (getattr(h, "dyadic_resolution", None) for h in (f, g))
    if rf is not None and rg is not None and max(rf, rg) <= 22:
        r = max(rf, rg)
        w = math.ldexp(1.0, -r)
        mids = (np.arange(1 << r, dtype=float) + 0.5) * w
        diff = np.asarray(f(mids), dtype=float) - np.asarray(g(mids), dtype=float)
        val = math.fsum((diff * diff).tolist()) * w
        return QuadratureResult(value=val, converged=True, coarse=val, fine=val)
    return l2_error_quadrature(f, g, _UNIT, cells=quad_cells)


# -- exact prefix discrepancies ---------------------------------------------------

# These two scans stay beside the measures scans, which give the same values
# at a higher cost (adversary stage at horizon 2^20 alone, three runs each):
# `sup_weighted_discrepancy` evaluates the continuous target twice, 176.6-176.8
# MB peak RSS against 168.8 MB, and the uniform model's cdf and cdf_left in
# place of the clipped values cost 191.6-191.8 MB and 3.2-3.7 s against 3.0-3.2 s.

def uniform_prefix_discrepancy(seq: SampleSequence) -> float:
    """sup over intervals of |empirical mass - uniform[0,1] mass| of seq,
    exact, read from its sorted view."""
    xs = seq.x_sorted
    f = np.clip(xs, 0.0, 1.0)  # the uniform CDF at xs
    return _interval_sup(xs, np.arange(len(xs) + 1, dtype=float), f, f, _UNIT)


def weighted_prefix_discrepancy(seq: SampleSequence, target) -> float:
    """sup over intervals of |y-weighted empirical mass - target| of seq,
    exact, read from its sorted view and prefix sums of y; `target` is
    continuous (no atoms), so cumulative == cumulative_left."""
    xs = seq.x_sorted
    t_xs = np.asarray(target.cumulative(xs), dtype=float)
    return _interval_sup(xs, seq.y_cumsum_sorted, t_xs, t_xs, target)


# -- certified scans over all prefix lengths --------------------------------------

class HorizonExhausted(RuntimeError):
    """No admissible threshold index exists at or below the horizon."""


def certified_prefix_scan(
    eval_at: Callable[[int], float],
    lo: int,
    hi: int,
    threshold: float,
    *,
    both_ends: bool = False,
) -> tuple[int, float, list[tuple[int, float]]]:
    """Certify sup over m in [lo, hi] of disc_m against the threshold.

    Returns (last_violation, max_observed, evaluations), the evaluations in
    the order they were made.  The statistics here are U_m / m, where
    U_m = m * disc_m moves by at most 1 when a point is added
    (|U_{m+1} - U_m| <= 1), so an evaluation d = disc_M <= theta covers:

    - forward, every m in [M, M + s] with s = floor(M (theta - d)/(1 - theta)),
      from U_m <= U_M + (m - M);
    - backward (with `both_ends`), every m in [ceil(M (1 + d)/(1 + theta)), M],
      from U_m <= U_M + (M - m).

    Both ends are taken in exact arithmetic on the given doubles.  Without
    `both_ends` the scan evaluates the first length no cover reaches.
    With it, after an evaluation at or under the threshold it evaluates the
    highest M whose backward cover would reach down to the covered lengths
    if disc_M equalled the last d, but no higher than the lowest M whose
    forward cover would then reach the top of the range being scanned (hi,
    or the top of a gap); a backward cover that falls short
    leaves a gap, scanned later unless a violation above it is found (no
    length below a violation needs a certificate).  max_observed is over
    the evaluated lengths only.  What is certified is the computed disc_m,
    a float rounded from the exact discrepancy.  Thresholds >= 1 are
    vacuous (the statistics are differences of [0,1]-bounded set functions).
    """
    if threshold >= 1.0:
        return 0, 0.0, []
    # theta = a / b and d = c / e exactly, so every cover end is an integer
    # floor or ceiling (Python ints, not fractions, whose import costs each
    # process 0.3 MB)
    a, b = threshold.as_integer_ratio()
    evals: list[tuple[int, float]] = []
    last_viol = 0
    max_obs = 0.0
    gaps: list[tuple[int, int]] = []  # (covered, top) of each gap, highest last
    covered, top = lo - 1, hi  # every length in (covered, top] is still open
    c = e = None  # the last d = c / e; None while it exceeds the threshold
    while True:
        if covered >= top:
            if not gaps:
                return last_viol, max_obs, evals
            covered, top = gaps.pop()
        m = covered + 1
        if both_ends and c is not None:
            # if disc_M <= the last d: the highest M whose backward cover
            # reaches m, and the lowest whose forward cover reaches top
            m = max(m, min(
                (covered + 1) * (b + a) * e // (b * (e + c)),
                -(-top * (b - a) * e // (b * (e - c))),
                top,
            ))
        d = eval_at(m)
        evals.append((m, d))
        max_obs = max(max_obs, d)
        if d > threshold:
            last_viol, covered, c = m, m, None
            gaps.clear()
            continue
        c, e = d.as_integer_ratio()
        if both_ends:
            low = -(-m * (e + c) * b // (e * (b + a)))
            if low > covered + 1:
                gaps.append((covered, low - 1))
        covered = m + m * (a * e - c * b) // (e * (b - a))


def compute_block_thresholds(
    k: int, block: SampleSequence, horizon: int
) -> tuple[int, int]:
    """(l_k, l~_k): least L past which both running prefix discrepancies of
    the pristine block stay at or under 1/(k+1), for every prefix length up
    to the horizon (truncated-supremum semantics; the report layer labels
    results as finite-prefix witnesses).

    Raises HorizonExhausted when no such L <= horizon exists.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(block) < horizon:
        raise ValueError(
            f"block has {len(block)} pairs; need at least horizon = {horizon}"
        )
    theta = 1.0 / (k + 1)
    nu_k = RademacherFn(k)
    lv_plain, _, _ = certified_prefix_scan(
        lambda m: uniform_prefix_discrepancy(block.prefix(m)), 1, horizon, theta,
        both_ends=True,
    )
    lv_wt, _, _ = certified_prefix_scan(
        lambda m: weighted_prefix_discrepancy(block.prefix(m), nu_k), 1, horizon, theta,
        both_ends=True,
    )
    if lv_plain >= horizon or lv_wt >= horizon:
        raise HorizonExhausted(
            f"prefix discrepancy still above {theta:.4g} at the horizon {horizon}"
        )
    return lv_plain + 1, lv_wt + 1


# -- estimation procedures under attack --------------------------------------------

# a plugin fit counts into two dense arrays of 2^max_depth + 1 cells (64 MiB
# at 2^22), and up to 2^22 cells `l2_unit_distance` keeps its exact path
_PLUGIN_DEPTH_TOP = 22


class PluginHistogramProcedure:
    """Histogram on [0, 1] with slowly growing dyadic depth.

    depth(n) = max(1, floor(log2 n) - depth_offset): for any fixed target
    on an i.i.d.-style block the depth eventually resolves it while cells
    keep ~2^depth_offset points each.
    """

    def __init__(self, depth_offset: int = 5, max_depth: int = 16):
        if max_depth > _PLUGIN_DEPTH_TOP:
            raise ValueError(f"max_depth must be <= {_PLUGIN_DEPTH_TOP}, got {max_depth}")
        self.depth_offset = depth_offset
        self.max_depth = max_depth
        # the name alone rebuilds the procedure (`_procedure_from_name`)
        extra = "" if max_depth == 16 else f", max_depth={max_depth}"
        self.name = f"plugin_histogram(offset={depth_offset}{extra})"

    def depth(self, n: int) -> int:
        return max(1, min(int(n).bit_length() - 1 - self.depth_offset, self.max_depth))

    def fit(self, xs: np.ndarray, ys: np.ndarray) -> PiecewiseDyadicFn:
        n = len(xs)
        d = self.depth(n)
        idx = _cell_indices(np.asarray(xs, dtype=float), d)
        keep = (idx >= 1) & (idx <= (1 << d))  # NaN (no cell index) is dropped
        idx = idx[keep].astype(np.int64)
        yy = np.asarray(ys, dtype=float)[keep]
        counts = np.bincount(idx, minlength=(1 << d) + 1)
        sums = np.bincount(idx, weights=yy, minlength=(1 << d) + 1)
        js = np.flatnonzero(counts)
        return PiecewiseDyadicFn(d, (js, sums[js] / counts[js]), 0.0)


class ConstantProcedure:
    """Returns the same constant function regardless of the data."""

    def __init__(self, c: float = 0.5):
        self.c = float(c)
        self.name = f"constant({c})"

    def fit(self, xs, ys) -> PiecewiseDyadicFn:
        return PiecewiseDyadicFn(0, {0: self.c}, self.c)


class OracleProcedure:
    """Returns the exact ladder function whose labels explain the longest
    trailing run of the prefix's last 64 pairs -- the idealized procedure
    that locks onto each block immediately."""

    def __init__(self, max_index: int = 12):
        self.max_index = max_index
        # the name alone rebuilds the procedure (`_procedure_from_name`); an
        # index beyond the ladder's top fits as the top does, and is named so
        top = min(max_index, _LADDER_TOP)
        self.name = "oracle" if top == 12 else f"oracle(max_index={top})"

    def fit(self, xs, ys) -> RademacherFn:
        t = min(64, len(xs))
        xt = np.asarray(xs, dtype=float)[-t:]
        yt = np.asarray(ys, dtype=float)[-t:]
        best_k, best_run = 1, -1
        # h_k repeats from _LADDER_TOP on, and only a strictly longer run wins
        for k in range(1, min(self.max_index, _LADDER_TOP) + 1):
            miss = np.flatnonzero(yt[::-1] != rademacher_eval(k, xt)[::-1])
            run = int(miss[0]) if len(miss) else t
            if run > best_run:
                best_k, best_run = k, run
        return RademacherFn(best_k)


class ExternalProcedureError(RuntimeError):
    """The command of an ExternalProcedure failed or broke the protocol."""


class ExternalProcedure:
    """Out-of-process estimator speaking the line protocol.

    Per fit+evaluation: the command is spawned; stdin receives the prefix
    in the sequence.csv format (header i,x,y), a line `QUERIES <m>`, then m
    query x-values one per line; stdout must answer m lines `x value`.
    """

    def __init__(self, cmd: Sequence[str], name: str | None = None):
        self.cmd = list(cmd)
        self.name = name or f"external({self.cmd[0]})"

    def fit(self, xs, ys):
        prefix = sequence_csv_bytes(SampleSequence(xs, ys)).decode("utf-8")

        def query(points) -> np.ndarray:
            points = np.atleast_1d(np.asarray(points, dtype=float))
            lines = [f"QUERIES {len(points)}", *(repr(float(p)) for p in points)]
            try:
                out = subprocess.run(
                    self.cmd,
                    input=prefix + "\n".join(lines) + "\n",
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            except OSError as e:
                raise ExternalProcedureError(
                    f"cannot run external estimator {self.cmd[0]!r}: {e}"
                ) from e
            except subprocess.CalledProcessError as e:
                raise ExternalProcedureError(
                    f"external estimator {self.cmd[0]!r} failed "
                    f"(exit {e.returncode}): {e.stderr.strip()[:500]}"
                ) from e
            rows = out.strip().splitlines()
            if len(rows) != len(points):
                raise ExternalProcedureError(
                    f"external estimator answered {len(rows)} of {len(points)} queries"
                )
            vals = []
            for line, (row, p) in enumerate(zip(rows, points.tolist()), 1):
                try:  # `x value`, each read as the sequence CSV reads a number
                    x, v = map(_number_literal, row.split())
                except ValueError:  # not two such numbers
                    x = v = math.nan
                if x != p or not math.isfinite(v):
                    raise ExternalProcedureError(
                        f"external estimator {self.cmd[0]!r} answer line {line}: {row!r} "
                        f"is not 'x value' with x = {p!r} and a finite value"
                    )
                vals.append(v)
            return np.array(vals, dtype=float)

        return query


def _procedure_from_name(name: str):
    """The built-in procedure whose `name` a report records, or None.  (A
    constant procedure never yields a report: it stays >= 1/4 from every
    h_k in squared L2.)"""
    m = re.fullmatch(r"plugin_histogram\(offset=(-?\d+)(?:, max_depth=(-?\d+))?\)", name)
    if m:
        return PluginHistogramProcedure(int(m[1]), int(m[2] or 16))
    m = re.fullmatch(r"oracle(?:\(max_index=(-?\d+)\))?", name)
    return OracleProcedure(int(m[1] or 12)) if m else None


# -- the splice --------------------------------------------------------------------

_STREAM_SLACK = 64  # extra raw values per block, to cover dropped collisions


@dataclass(frozen=True)
class AdversaryConfig:
    n_blocks: int
    horizon: int = 1 << 20
    block_budget: int = 1 << 18
    first_check: int = 16
    quad_cells: int = 1 << 16
    block_source: str = "vdc_shift"  # or "iid"
    shift: float = math.sqrt(2.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_blocks < 2:
            raise ValueError("n_blocks must be >= 2 (oscillation needs two targets)")
        for name in ("horizon", "block_budget", "first_check", "quad_cells"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.block_source not in ("vdc_shift", "iid"):
            raise ValueError(
                f"unknown block_source {self.block_source!r}; use 'vdc_shift' or 'iid'"
            )
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift!r}")
        if self.quad_cells < 1 << 10 or self.quad_cells & (self.quad_cells - 1):
            raise ValueError(f"quad_cells must be a power of two >= 2^10, got {self.quad_cells}")
        if self.block_source == "vdc_shift":
            # the raw van der Corput values are multiples of 2^-grid, and
            # `BlockStreams._raw` adds j * shift to them and takes the sum mod 1;
            # a sum that rounds back onto the grid (j * shift a multiple of
            # 2^-grid, or too small to move a grid value) makes blocks repeat
            # each other's points.  The rounding is coarsest at the grid's ends.
            grid = (self.horizon + _STREAM_SLACK).bit_length()
            ends = np.array([math.ldexp(1.0, -grid), 1.0 - math.ldexp(1.0, -grid)])
            for j in range(1, self.n_blocks + 1):
                moved = np.mod(ends + j * self.shift, 1.0)
                if any(math.ldexp(v, grid).is_integer() for v in moved.tolist()):
                    raise ValueError(
                        f"shift {self.shift!r} makes blocks {j} apart repeat each "
                        f"other's points ({j} * shift added to a multiple of 2^-{grid} "
                        f"gives one)"
                    )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class BlockStreams:
    """Deterministic per-block input streams with pairwise distinct values.

    Block k's raw stream is the van der Corput sequence shifted by k times
    an irrational constant, mod 1, injective over the reals (the i.i.d.
    source substitutes seeded uniforms).  Float collisions, within or
    across blocks, are removed in block order: the raw stream is sorted
    once, by a stable argsort, and a value equal to its sorted predecessor,
    or to a value of an earlier block, is dropped.  The values shared with
    an earlier block are the adjacent equal ones of one merge of its sorted
    values with the stream's sorted distinct values.  The kept part of the
    one argsort is the block's sorted view, so no block is sorted twice.

    Kept: each made block's sorted values, once, and the two most recently
    made blocks whole, as SampleSequences.  An older block asked for again
    is made again, bit for bit, from its raw stream and the earlier blocks'
    sorted values.
    """

    def __init__(self, config: AdversaryConfig):
        self.config = config
        self._sorted: list[np.ndarray] = []  # block k's sorted values at k - 1
        self._presorted: dict[int, SampleSequence] = {}  # the last two made

    def _raw(self, k: int, count: int) -> np.ndarray:
        if self.config.block_source == "iid":
            gen = RandomSource(self.config.seed).generator(stream=k)
            return np.clip(gen.random(count), 1e-12, 1.0 - 1e-12)
        raw = van_der_corput(count)
        raw += k * self.config.shift
        return np.mod(raw, 1.0, out=raw)

    def _make(self, k: int) -> SampleSequence:
        horizon = self.config.horizon
        raw = self._raw(k, horizon + _STREAM_SLACK)
        order = np.argsort(raw, kind="stable")
        s = raw[order]
        # in-stream dedupe: the stable sort puts each value's first
        # occurrence first, the rule of np.unique(return_index=True)
        fresh = np.empty(len(s), dtype=bool)
        fresh[:1] = True
        np.not_equal(s[1:], s[:-1], out=fresh[1:])
        firsts = s[fresh]  # each value of the stream once
        for prev in self._sorted[:k - 1]:
            # one merge of two sorted runs of distinct values (the stable
            # sort is timsort): a value met twice in a row is in both
            both = np.concatenate((prev, firsts))
            both.sort(kind="stable")
            shared = both[1:][both[1:] == both[:-1]]
            del both
            fresh[np.searchsorted(s, shared)] = False  # its first copy in s
        kept = order[fresh]  # raw indices of the kept values, ascending by value
        s = s[fresh]  # the kept values, ascending
        del order, fresh, firsts
        keep = np.zeros(len(raw), dtype=bool)
        keep[kept] = True
        xs = raw[keep][:horizon]
        if len(xs) < horizon:
            raise RuntimeError("collision filtering exhausted the stream slack")
        rank = np.cumsum(keep)[kept] - 1  # positions in xs, in sorted order
        ys = rademacher_eval(k, xs)
        inside = rank < horizon
        return SampleSequence._presorted(xs, ys, rank[inside], s[inside])

    def _sequence(self, k: int) -> SampleSequence:
        if k not in self._presorted:
            for kk in range(min(len(self._sorted) + 1, k), k + 1):
                if len(self._presorted) == 2:  # the oldest goes before a block is made
                    del self._presorted[next(iter(self._presorted))]
                seq = self._presorted[kk] = self._make(kk)
                self._sorted[kk - 1:kk] = [seq.x_sorted]  # appends; a remake swaps in its equal
        return self._presorted[k]

    def block(self, k: int) -> SampleSequence:
        return self._sequence(k)

    def xs(self, k: int) -> np.ndarray:
        return self._sequence(k).x

    def ys(self, k: int) -> np.ndarray:
        return self._sequence(k).y


@dataclass
class SpliceState:
    """The accumulated adversarial sequence and its block certificates."""

    config: AdversaryConfig
    xs: np.ndarray = field(default_factory=lambda: np.empty(0))
    ys: np.ndarray = field(default_factory=lambda: np.empty(0))
    boundaries: list[int] = field(default_factory=list)  # n_1 < n_2 < ...
    records: list[dict] = field(default_factory=list)  # the report's blocks
    fitted: list[object] = field(default_factory=list)  # estimate at each boundary
    thresholds: dict[int, tuple[int, int]] = field(default_factory=dict)

    def sequence(self) -> SampleSequence:
        return SampleSequence(self.xs, self.ys)

    @property
    def n(self) -> int:
        return len(self.xs)


class ConsistencyViolationWitness(RuntimeError):
    """The procedure under attack failed to approach the block target.

    This *is* a deliverable of the construction: `state` holds a stable
    sequence prefix on which the fitted estimates demonstrably do not
    converge to the block's regression; `trajectory` is the list of
    (prefix length, squared L2 distance to the target) evidence.
    """

    def __init__(self, k: int, state: SpliceState, trajectory: list[tuple[int, float]]):
        super().__init__(
            f"estimate never came within 1/40 of block target {k} "
            f"inside the block budget"
        )
        self.k = k
        self.state = state
        self.trajectory = trajectory


def _block_thresholds_cached(
    state: SpliceState, streams: BlockStreams, k: int
) -> tuple[int, int]:
    if k not in state.thresholds:
        state.thresholds[k] = compute_block_thresholds(
            k, streams.block(k), state.config.horizon
        )
    return state.thresholds[k]


def _block_certificates(phi, seq: SampleSequence, k: int, quad_cells: int):
    """Block k's certificates on the prefix seq: phi's fit and its squared
    L2 distance to h_k (both None without a procedure), and the interval
    and weighted prefix discrepancies against uniform and nu_k, both read
    from seq's one sorted view."""
    h_k = RademacherFn(k)
    est = l2 = None
    if phi is not None:
        est = phi.fit(seq.x, seq.y)
        l2 = l2_unit_distance(est, h_k, quad_cells)
    return est, l2, uniform_prefix_discrepancy(seq), weighted_prefix_discrepancy(seq, h_k)


_OSCILLATION_BOUND = 1.0 / 20.0


def _oscillation(fitted: list, quad_cells: int) -> dict:
    """The report's oscillation fields, derived from the boundary estimates:
    their squared L2 distance matrix, whether every distance converged, the
    least distance and whether it reaches the bound 1/20."""
    count = len(fitted)
    distances = [[0.0] * count for _ in range(count)]
    converged = True
    for i in range(count):
        for j in range(i + 1, count):
            r = l2_unit_distance(fitted[i], fitted[j], quad_cells)
            distances[i][j] = distances[j][i] = r.value
            converged = converged and r.converged
    pairs = [distances[i][j] for i in range(count) for j in range(i + 1, count)]
    least = min(pairs, default=math.inf)
    return {
        "pairwise_sq_distances": distances,
        "pairwise_distances_converged": converged,
        "min_pairwise_sq_distance": least,
        "oscillation_ok": least >= _OSCILLATION_BOUND,
    }


def _check_lengths(cfg: AdversaryConfig):
    """The block lengths at which the splice checks a block: first_check,
    doubling, up to the cap min(block_budget, horizon), which comes last (a
    block holds horizon pairs)."""
    cap, length = min(cfg.block_budget, cfg.horizon), cfg.first_check
    while length < cap:
        yield length
        length *= 2
    yield cap


def splice_next_block(
    state: SpliceState, phi, k: int, streams: BlockStreams
) -> SpliceState:
    """Append block k until all boundary conditions hold; record n_k.

    Checks run at geometrically growing block lengths (first_check, then
    doubling, capped by block_budget and by the block's own length),
    bounding the number of estimator evaluations.  Raises
    ConsistencyViolationWitness when block_budget pairs never satisfy the
    conditions, and HorizonExhausted when the block runs out first; the
    state then holds the block's pairs up to the last check.
    """
    cfg = state.config
    l_next, lt_next = _block_thresholds_cached(state, streams, k + 1)
    need_len = k * max(l_next, lt_next)
    prefix_x, prefix_y = state.xs, state.ys
    block_x = streams.xs(k)
    block_y = streams.ys(k)
    theta = 1.0 / (k + 1)
    trajectory: list[tuple[int, float]] = []
    for take in _check_lengths(cfg):
        state.xs = np.concatenate([prefix_x, block_x[:take]])
        state.ys = np.concatenate([prefix_y, block_y[:take]])
        n = state.n
        est, l2, d_int, d_wt = _block_certificates(phi, state.sequence(), k, cfg.quad_cells)
        trajectory.append((n, l2.value))
        if l2.value <= 1.0 / 40.0 and d_int <= theta and d_wt <= theta and n >= need_len:
            l_k, lt_k = _block_thresholds_cached(state, streams, k)
            state.boundaries.append(n)
            state.fitted.append(est)
            state.records.append({
                "k": k,
                "l_k": l_k,
                "l_tilde_k": lt_k,
                "n_k": n,
                "certificates": {
                    "l2_to_block_target": l2.value,
                    "l2_converged": l2.converged,
                    "interval_discrepancy": d_int,
                    "weighted_discrepancy": d_wt,
                    "min_length_required": need_len,
                },
            })
            return state
    if take >= cfg.block_budget:
        raise ConsistencyViolationWitness(k, state, trajectory)
    raise HorizonExhausted(
        f"block {k} ran out after {take} pairs (the horizon) before "
        f"its boundary conditions held"
    )


def _span_scan(weighted: Callable[[int], float], k: int, lo: int, hi: int) -> dict:
    """Span k of the report: the certified sup over n in (lo, hi] of the
    prefix discrepancy against nu_0, under the bound 6/k.  `weighted(n)` is
    that discrepancy of the sequence's first n pairs."""
    threshold = 6.0 / k
    if threshold >= 1.0:
        # vacuous bound; still sample a few points for the report
        pts = sorted(set(int(v) for v in np.geomspace(lo + 1, hi, num=6)))
        evals = [(m, weighted(m)) for m in pts]
        certified, max_obs = True, max(d for _, d in evals)
    else:
        last_viol, max_obs, evals = certified_prefix_scan(weighted, lo + 1, hi, threshold)
        certified = last_viol == 0
    return {
        "k": k,
        "n_lo": lo,
        "n_hi": hi,
        "bound": threshold,
        "certified": certified,
        "max_observed": max_obs,
        "evaluations": [[int(m), float(d)] for m, d in evals],
    }


def _spans(seq: SampleSequence, bounds: list[int]) -> list[dict]:
    """The report's spans: span k over (n_k, n_{k+1}] of seq, for each pair
    of consecutive boundaries."""
    def weighted(m: int) -> float:
        return weighted_prefix_discrepancy(seq.prefix(m), RademacherFn(0))

    pairs = zip(bounds, bounds[1:])
    return [_span_scan(weighted, k, lo, hi) for k, (lo, hi) in enumerate(pairs, 1)]


def build_adversarial_sequence(
    phi, n_blocks: int, config: AdversaryConfig | None = None
) -> tuple[SpliceState, dict]:
    """Run the splice for blocks 1..n_blocks and assemble the run report.

    The report contains per-block thresholds and certificates, the pairwise
    squared L2 distance matrix of the boundary estimates, and the certified
    per-span envelope of the prefix discrepancy against nu_0 with bound 6/k
    on each span (n_k, n_{k+1}].  A config must record the same n_blocks.
    """
    if config is None:
        config = AdversaryConfig(n_blocks=n_blocks)
    elif config.n_blocks != n_blocks:
        raise ValueError(f"n_blocks is {n_blocks} but config.n_blocks is {config.n_blocks}")
    state = SpliceState(config=config)
    streams = BlockStreams(config)
    for k in range(1, n_blocks + 1):
        splice_next_block(state, phi, k, streams)

    spans = _spans(state.sequence(), state.boundaries)
    report = {
        "phi": getattr(phi, "name", repr(phi)),
        "config": config.to_dict(),
        "finite_prefix_witness": True,
        "blocks": state.records,
        **_oscillation(state.fitted, config.quad_cells),
        "oscillation_bound": _OSCILLATION_BOUND,
        "spans": spans,
        "spans_ok": all(s["certified"] for s in spans),
        "total_length": state.n,
    }
    return state, report


def verify_adversary_report(
    report: dict, seq: SampleSequence, phi=None
) -> list[tuple[str, bool | None, str]]:
    """Re-validate a run report against its stored sequence.

    Checks that the boundaries n_k strictly increase and that the last one
    equals `total_length` and the sequence length, and then that each block
    length n_k - n_(k-1) is one at which the splice checks (`_check_lengths`
    of the recorded config).  Recomputes boundary
    discrepancies and, when the procedure is available (a built-in one
    rebuilt from its recorded name, or an explicit object), the boundary L2
    certificates and the oscillation fields (the pairwise distances and
    what derives from them).  A recomputed certificate must equal the
    recorded one: the splice's code on the same prefix gives the same float.
    Without the procedure those two checks come back as
    skipped: ok is None, not a verdict.
    The span envelopes are scanned again, by the code that wrote them, and
    must equal `spans`, be certified and agree with `spans_ok`; they are
    skipped when the boundaries do not match the sequence.  Block k's
    min_length_required must be k * max(l_k, l_tilde_k) of block k + 1, as
    the splice sets it, for every block but the last.  Raises
    ValueError, before computing anything, when a k, n_k, l_k, l_tilde_k,
    min_length_required, total_length or a field of the recorded config
    that `AdversaryConfig` declares int is not an integer, the blocks are
    not numbered 1, 2, ... in order, `AdversaryConfig` rejects the recorded
    config or its n_blocks is not the number of blocks, the two constants
    the splice writes (`finite_prefix_witness` true, `oscillation_bound`
    1/20) differ, or the recorded plugin depth is > 22.
    """
    blocks = report["blocks"]
    total = report.get("total_length")  # absent: the boundary check fails
    ints = [(rec["k"], rec["n_k"], rec["certificates"]["min_length_required"]) for rec in blocks]
    ints += [(rec["l_k"], rec["l_tilde_k"]) for rec in blocks]
    _numbers([v for row in ints for v in row] + ([] if total is None else [total]), integer=True)
    for i, rec in enumerate(blocks, 1):
        if rec["k"] != i:
            raise ValueError(f"block {i} of the report has k = {rec['k']!r}, not {i}")
    config = report["config"]
    fields = dataclasses.fields(AdversaryConfig)
    _numbers([config[f.name] for f in fields if f.type == "int" and f.name in config], integer=True)
    if config["n_blocks"] != len(blocks):  # first: the config check loops over n_blocks
        raise ValueError(
            f"config.n_blocks is {config['n_blocks']!r} but the report has {len(blocks)} blocks"
        )
    cfg = AdversaryConfig(**config)
    if report["finite_prefix_witness"] is not True:
        raise ValueError(f"finite_prefix_witness is {report['finite_prefix_witness']!r}, not true")
    if report["oscillation_bound"] != _OSCILLATION_BOUND:
        raise ValueError(f"oscillation_bound is {report['oscillation_bound']!r}, not 1/20")
    if phi is None:
        phi = _procedure_from_name(str(report.get("phi", "")))
    bounds = [rec["n_k"] for rec in blocks]
    bounds_ok = (
        all(a < b for a, b in zip(bounds, bounds[1:]))
        and bounds[-1:] == [total] and total == len(seq)
    )
    results: list[tuple[str, bool | None, str]] = [
        (
            "block-boundaries-match-sequence",
            bounds_ok,
            f"n_k={bounds}, total_length={total}, sequence of {len(seq)}",
        )
    ]
    if bounds_ok:
        lengths = [b - a for a, b in zip([0, *bounds], bounds)]
        schedule = list(_check_lengths(cfg))
        results.append((
            "block-lengths-on-check-schedule",
            all(n in schedule for n in lengths),
            f"block lengths {lengths}; checks at {schedule[0]}, doubling, up to {schedule[-1]}",
        ))
    else:
        results.append(
            ("block-lengths-on-check-schedule", None, "the boundaries do not match the sequence")
        )
    fitted = []
    for k, (rec, n_k) in enumerate(zip(blocks, bounds), 1):
        certs = rec["certificates"]
        theta = 1.0 / (k + 1)
        # the pairs of seq.x[:n_k]: a boundary off the sequence fails its own check only
        pre = seq.prefix(len(seq.x[:n_k]))
        est, l2, d_int, d_wt = _block_certificates(phi, pre, k, cfg.quad_cells)
        results.append(
            (
                f"block{k}-interval-discrepancy",
                d_int == certs["interval_discrepancy"] and d_int <= theta,
                f"recomputed {d_int:.6g}",
            )
        )
        results.append(
            (
                f"block{k}-weighted-discrepancy",
                d_wt == certs["weighted_discrepancy"] and d_wt <= theta,
                f"recomputed {d_wt:.6g}",
            )
        )
        need = certs["min_length_required"]
        # the splice asks k times the next block's larger threshold
        tied = k == len(blocks) or need == k * max(blocks[k]["l_k"], blocks[k]["l_tilde_k"])
        results.append(
            (f"block{k}-length-requirement", tied and n_k >= need, f"n_k={n_k} >= {need}")
        )
        if phi is not None:
            fitted.append(est)
            results.append(
                (
                    f"block{k}-l2-certificate",
                    l2.value == certs["l2_to_block_target"]
                    and l2.value <= 1.0 / 40.0
                    and certs["l2_converged"] is bool(l2.converged),
                    f"recomputed {l2.value:.6g}",
                )
            )
    if phi is None:
        why = f"procedure {report.get('phi')!r} is not rebuilt from its name"
        results.append(("block-l2-certificates", None, why))
        results.append(("pairwise-distances", None, why))
    elif len(fitted) >= 2:
        osc = _oscillation(fitted, cfg.quad_cells)
        wrong = [key for key, value in osc.items() if report.get(key) != value]
        detail = (
            f"recorded {', '.join(wrong)} differ from the recomputed" if wrong
            else "all >= 1/20" if osc["oscillation_ok"]
            else f"least recomputed {osc['min_pairwise_sq_distance']:.6g} < 1/20"
        )
        results.append(("pairwise-distances", not wrong and osc["oscillation_ok"], detail))
    if bounds_ok:
        spans = _spans(seq, bounds)
        certified = all(s["certified"] for s in spans)
        results.append(
            (
                "span-envelopes",
                certified and report.get("spans_ok") is True and spans == report.get("spans"),
                f"{len(spans)} spans recomputed, all within 6/k: {certified}",
            )
        )
    else:
        results.append(("span-envelopes", None, "the boundaries do not match the sequence"))
    return results
