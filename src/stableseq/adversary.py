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
point moves any interval's empirical mass by at most (1 - d)/(m+1), so
sup over m..m+s of the discrepancy is at most (m*d + s)/(m + s); ranges
where this certified bound stays under the threshold are skipped.

If the fitted estimate never approaches h_k within the block budget, that
is not a failure of the construction but a witness: a concrete stable
sequence on which the procedure demonstrably does not converge
(ConsistencyViolationWitness carries it).

The full run is a finite-prefix witness (the thresholds' suprema are
truncated at the configured horizon) and reports label it as such.
"""
from __future__ import annotations

import math
import re
import subprocess
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .evaluation import QuadratureResult, l2_error_quadrature
from .measures import (
    DistributionModel, IntervalA, SampleSequence, _interval_sup, sequence_csv_bytes
)
from .partitions import PiecewiseDyadicFn, _cell_indices
from .generators import RandomSource, van_der_corput

__all__ = [
    "rademacher_eval",
    "rademacher_cumulative",
    "rademacher_integral",
    "RademacherFn",
    "RademacherMeasure",
    "l2_unit_distance",
    "compute_block_thresholds",
    "certified_prefix_scan",
    "HorizonExhausted",
    "ConsistencyViolationWitness",
    "AdversaryConfig",
    "SpliceState",
    "BlockRecord",
    "BlockStreams",
    "uniform_prefix_discrepancy",
    "weighted_prefix_discrepancy",
    "PluginHistogramProcedure",
    "ConstantProcedure",
    "OracleProcedure",
    "ExternalProcedure",
    "builtin_procedures",
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
    """N_k(t) = integral of h_k over (-inf, t]; exact piecewise-linear form."""
    scalar = np.ndim(t) == 0
    tt = np.clip(np.atleast_1d(np.asarray(t, dtype=float)), 0.0, 1.0)
    if k == 0:
        out = 0.5 * tt
    else:
        # with y = t * 2^(k-1), q = floor(y) and f = y - q, N_k(t) is
        # (q + 2 min(f, 1/2)) * 2^-k, whose first factor is a double: one
        # rounding, in the final ldexp (all in place in `out`).  From
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
        np.ldexp(out, -k, out=out)
        np.multiply(tt, 0.5, out=out, where=tt >= top)
    return float(out[0]) if scalar else out


def rademacher_integral(k: int, A: IntervalA) -> float:
    """nu_k(A): exact integral of h_k over A intersected with [0, 1]."""
    hi = rademacher_cumulative(k, A.b)
    lo = 0.0 if A.left_unbounded_kind else rademacher_cumulative(k, A.a)
    return float(hi - lo)


@dataclass(frozen=True)
class RademacherFn:
    """Callable marker for an exact h_k; carries its dyadic profile for
    closed-form L2 distances."""

    k: int

    def __call__(self, x):
        return rademacher_eval(self.k, x)

    @property
    def dyadic_resolution(self) -> int:
        return max(self.k, 1)


class RademacherMeasure:
    """nu_k as a weighted-measure target for the discrepancy scanner."""

    def __init__(self, k: int):
        self.k = k

    def cumulative(self, t):
        return rademacher_cumulative(self.k, t)

    def cumulative_left(self, t):
        return rademacher_cumulative(self.k, t)  # continuous

    def breakpoints(self) -> np.ndarray:
        if self.k == 0:
            return np.array([0.0, 1.0])
        step = math.ldexp(1.0, -self.k)
        return np.arange(0, (1 << self.k) + 1, dtype=float) * step

    def point_mass(self, u: float) -> float:
        return 0.0


# -- L2 distances on [0, 1] -----------------------------------------------------

def _dyadic_profile(f) -> int | None:
    if isinstance(f, PiecewiseDyadicFn):
        return max(f.k, 1)
    if isinstance(f, RademacherFn):
        return f.dyadic_resolution
    return None


_UNIT = DistributionModel.uniform(0.0, 1.0)


def l2_unit_distance(f, g, quad_cells: int = 1 << 16) -> QuadratureResult:
    """Squared L2 distance of f and g over uniform [0, 1].

    Exact by midpoint evaluation on the common dyadic refinement whenever
    both functions are piecewise constant on dyadic grids (step functions
    are constant on cell interiors, and midpoints are interior); otherwise
    composite midpoint quadrature with a doubled-resolution check.
    """
    rf, rg = _dyadic_profile(f), _dyadic_profile(g)
    if rf is not None and rg is not None and max(rf, rg) <= 22:
        r = max(rf, rg)
        w = math.ldexp(1.0, -r)
        mids = (np.arange(1 << r, dtype=float) + 0.5) * w
        vf = f.eval_many(mids) if isinstance(f, PiecewiseDyadicFn) else f(mids)
        vg = g.eval_many(mids) if isinstance(g, PiecewiseDyadicFn) else g(mids)
        diff = np.asarray(vf, dtype=float) - np.asarray(vg, dtype=float)
        val = math.fsum((diff * diff).tolist()) * w
        return QuadratureResult(value=val, converged=True, coarse=val, fine=val)
    return l2_error_quadrature(f, g, _UNIT, cells=quad_cells)


# -- exact prefix discrepancies ---------------------------------------------------

def _uniform_sorted(xs: np.ndarray) -> float:
    """uniform_prefix_discrepancy of points already sorted by value."""
    f = np.clip(xs, 0.0, 1.0)  # the uniform CDF at xs
    return _interval_sup(xs, np.arange(len(xs) + 1, dtype=float), f, f, _UNIT)


def _weighted_sorted(xs: np.ndarray, ys: np.ndarray, t_xs: np.ndarray, target) -> float:
    """weighted_prefix_discrepancy of points in stable x order; `ys` is in
    the same order and `t_xs` is target.cumulative(xs)."""
    return _interval_sup(xs, np.concatenate([[0.0], np.cumsum(ys)]), t_xs, t_xs, target)


def uniform_prefix_discrepancy(x: np.ndarray) -> float:
    """sup over intervals of |empirical mass - uniform[0,1] mass|, exact."""
    return _uniform_sorted(np.sort(np.asarray(x, dtype=float)))


def weighted_prefix_discrepancy(
    x: np.ndarray, y: np.ndarray, target
) -> float:
    """sup over intervals of |y-weighted empirical mass - target|, exact.

    `target` is continuous (no atoms): cumulative == cumulative_left.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    t_xs = np.asarray(target.cumulative(xs), dtype=float)
    return _weighted_sorted(xs, y[order], t_xs, target)


class _SortedPrefixes:
    """Both prefix discrepancies of one block, read from its sorted view.

    The values of prefix m in sorted order are the entries of the block's
    stable sorted view whose original index is below m (ties keep index
    order, as a stable sort of the prefix would), so no evaluation sorts.
    The labels in sorted order and the target's cumulative values at the
    sorted points are computed once per block; each evaluation selects its
    prefix from them and runs the one interval scan of `measures`, counting
    with the plain cumulative sum of the prefix's labels.  Every value is
    therefore bitwise equal to uniform_prefix_discrepancy(x[:m]) and
    weighted_prefix_discrepancy(x[:m], y[:m], target).
    """

    def __init__(self, block: SampleSequence, target):
        self.order = block.sorted_index
        self.x_sorted = block.x_sorted
        self.y = block.y
        self.target = target
        self._weighted_view = None

    def uniform(self, m: int) -> float:
        return _uniform_sorted(self.x_sorted[self.order < m])

    def weighted(self, m: int) -> float:
        if self._weighted_view is None:  # built on first use only
            self._weighted_view = (
                self.y[self.order],
                np.asarray(self.target.cumulative(self.x_sorted), dtype=float),
            )
        ys, t_xs = self._weighted_view
        sel = np.flatnonzero(self.order < m)
        return _weighted_sorted(self.x_sorted[sel], ys[sel], t_xs[sel], self.target)


# -- certified scans over all prefix lengths --------------------------------------

class HorizonExhausted(RuntimeError):
    """No admissible threshold index exists at or below the horizon."""


def certified_prefix_scan(
    eval_at: Callable[[int], float],
    lo: int,
    hi: int,
    threshold: float,
) -> tuple[int, float, list[tuple[int, float]]]:
    """Certify sup over m in [lo, hi] of disc_m against the threshold.

    Returns (last_violation, max_observed, evaluations).  Every skipped
    range is rigorously covered: the statistics here satisfy
    disc_{m+1} <= (m * disc_m + 1)/(m + 1), hence
    sup_{t <= s} disc_{m+t} <= (m * disc_m + s)/(m + s), and a range is
    only skipped when that bound stays at or under the threshold, so no
    violation can hide inside it.  Thresholds >= 1 are vacuous (the
    statistics are differences of [0,1]-bounded set functions).
    """
    if threshold >= 1.0:
        return 0, 0.0, []
    evals: list[tuple[int, float]] = []
    last_viol = 0
    max_obs = 0.0
    m = lo
    while m <= hi:
        d = eval_at(m)
        evals.append((m, d))
        max_obs = max(max_obs, d)
        if d > threshold:
            last_viol = m
            m += 1
        else:
            s = int(m * (threshold - d) / (1.0 - threshold))
            m += s + 1
    return last_viol, max_obs, evals


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
    prefixes = _SortedPrefixes(block, RademacherMeasure(k))
    lv_plain, _, _ = certified_prefix_scan(prefixes.uniform, 1, horizon, theta)
    lv_wt, _, _ = certified_prefix_scan(prefixes.weighted, 1, horizon, theta)
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
        values = {
            int(j): float(sums[j] / counts[j])
            for j in np.nonzero(counts)[0]
        }
        return PiecewiseDyadicFn(d, values, 0.0)


class ConstantProcedure:
    """Returns the same constant function regardless of the data."""

    def __init__(self, c: float = 0.5):
        self.c = float(c)
        self.name = f"constant({c})"

    def fit(self, xs, ys) -> PiecewiseDyadicFn:
        return PiecewiseDyadicFn(0, {0: self.c}, self.c)


class OracleProcedure:
    """Returns the exact ladder function whose labels explain the longest
    trailing run of the prefix -- the idealized procedure that locks onto
    each block immediately."""

    def __init__(self, max_index: int = 12, window: int = 64):
        self.max_index = max_index
        self.window = window
        self.name = "oracle"

    def fit(self, xs, ys) -> RademacherFn:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        t = min(self.window, len(xs))
        xt, yt = xs[-t:], ys[-t:]
        best_k, best_run = 1, -1
        # h_k repeats from _LADDER_TOP on, and only a strictly longer run wins
        for k in range(1, min(self.max_index, _LADDER_TOP) + 1):
            match = yt == rademacher_eval(k, xt)
            run = 0
            for good in match[::-1]:
                if not good:
                    break
                run += 1
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
            vals = []
            for row in out.strip().splitlines():
                parts = row.split()
                if len(parts) != 2:
                    raise ExternalProcedureError(f"bad external estimator line: {row!r}")
                vals.append(float(parts[1]))
            if len(vals) != len(points):
                raise ExternalProcedureError(
                    f"external estimator answered {len(vals)} of {len(points)} queries"
                )
            return np.array(vals, dtype=float)

        return query


def builtin_procedures() -> dict[str, Callable[[], object]]:
    return {
        "plugin": PluginHistogramProcedure,
        "constant": ConstantProcedure,
        "oracle": OracleProcedure,
    }


def _procedure_from_name(name: str):
    """The built-in procedure whose `name` a report records, or None.  (A
    constant procedure never yields a report: it stays >= 1/4 from every
    h_k in squared L2.)"""
    m = re.fullmatch(r"plugin_histogram\(offset=(-?\d+)(?:, max_depth=(-?\d+))?\)", name)
    if m:
        return PluginHistogramProcedure(int(m[1]), int(m[2] or 16))
    return OracleProcedure() if name == "oracle" else None


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
        return {
            "n_blocks": self.n_blocks,
            "horizon": self.horizon,
            "block_budget": self.block_budget,
            "first_check": self.first_check,
            "quad_cells": self.quad_cells,
            "block_source": self.block_source,
            "shift": self.shift,
            "seed": self.seed,
        }


class BlockStreams:
    """Deterministic per-block input streams with pairwise distinct values.

    Block k's raw stream is the van der Corput sequence shifted by k times
    an irrational constant, mod 1 (injective over the reals; float
    collisions, within or across blocks, are removed deterministically in
    block order so the emitted values are distinct by construction).  The
    i.i.d. source substitutes seeded uniforms, same dedup.

    Each raw stream is sorted once, by a stable argsort.  A value equal to
    its sorted predecessor repeats an earlier index and is dropped; a value
    found, by binary search, in an earlier block's sorted values is dropped
    too.  The kept part of that one sort is the block's sorted view, which
    `block` hands to SampleSequence, so no block is sorted twice.
    """

    def __init__(self, config: AdversaryConfig):
        self.config = config
        self._streams: dict[int, np.ndarray] = {}
        self._labels: dict[int, np.ndarray] = {}
        self._orders: dict[int, np.ndarray] = {}  # stable argsort of each block

    def _raw(self, k: int, count: int) -> np.ndarray:
        if self.config.block_source == "iid":
            gen = RandomSource(self.config.seed).generator(stream=k)
            return np.clip(gen.random(count), 1e-12, 1.0 - 1e-12)
        base = van_der_corput(count)
        return np.mod(base + k * self.config.shift, 1.0)

    def _materialize(self, k: int) -> None:
        horizon = self.config.horizon
        for kk in range(1, k + 1):
            if kk in self._streams:
                continue
            raw = self._raw(kk, horizon + _STREAM_SLACK)
            order = np.argsort(raw, kind="stable")
            s = raw[order]
            # in-stream dedupe: the stable sort puts each value's first
            # occurrence first, the rule of np.unique(return_index=True)
            fresh = np.empty(len(s), dtype=bool)
            fresh[:1] = True
            np.not_equal(s[1:], s[:-1], out=fresh[1:])
            for p in range(1, kk):
                prev = self._streams[p][self._orders[p]]
                at = np.searchsorted(prev, s)
                np.minimum(at, len(prev) - 1, out=at)
                fresh &= prev[at] != s
                del prev, at
            kept = order[fresh]  # raw indices of the kept values, ascending by value
            del s, order, fresh
            keep = np.zeros(len(raw), dtype=bool)
            keep[kept] = True
            xs = raw[keep][:horizon]
            if len(xs) < horizon:
                raise RuntimeError("collision filtering exhausted the stream slack")
            rank = np.cumsum(keep)[kept] - 1  # positions in xs, in sorted order
            self._orders[kk] = rank[rank < horizon]
            self._streams[kk] = xs
            self._labels[kk] = rademacher_eval(kk, xs)

    def block(self, k: int) -> SampleSequence:
        self._materialize(k)
        return SampleSequence._presorted(
            self._streams[k], self._labels[k], self._orders[k]
        )

    def xs(self, k: int) -> np.ndarray:
        self._materialize(k)
        return self._streams[k]

    def ys(self, k: int) -> np.ndarray:
        self._materialize(k)
        return self._labels[k]


@dataclass
class BlockRecord:
    k: int
    l_k: int
    l_tilde_k: int
    n_k: int
    l2_to_block_target: float
    l2_converged: bool
    interval_discrepancy: float
    weighted_discrepancy: float
    min_length_required: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "l_k": self.l_k,
            "l_tilde_k": self.l_tilde_k,
            "n_k": self.n_k,
            "certificates": {
                "l2_to_block_target": self.l2_to_block_target,
                "l2_converged": self.l2_converged,
                "interval_discrepancy": self.interval_discrepancy,
                "weighted_discrepancy": self.weighted_discrepancy,
                "min_length_required": self.min_length_required,
            },
        }


@dataclass
class SpliceState:
    """The accumulated adversarial sequence and its block certificates."""

    config: AdversaryConfig
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)
    boundaries: list[int] = field(default_factory=list)  # n_1 < n_2 < ...
    records: list[BlockRecord] = field(default_factory=list)
    fitted: list[object] = field(default_factory=list)  # estimate at each boundary
    thresholds: dict[int, tuple[int, int]] = field(default_factory=dict)

    def sequence(self) -> SampleSequence:
        return SampleSequence(np.array(self.xs, dtype=float), np.array(self.ys, dtype=float))

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


def splice_next_block(
    state: SpliceState, phi, k: int, streams: BlockStreams
) -> SpliceState:
    """Append block k until all boundary conditions hold; record n_k.

    Checks run at geometrically growing block lengths (first_check, then
    doubling, capped by block_budget and by the block's own length),
    bounding the number of estimator evaluations.  Raises
    ConsistencyViolationWitness when block_budget pairs never satisfy the
    conditions, and HorizonExhausted when the block runs out first.
    """
    cfg = state.config
    l_next, lt_next = _block_thresholds_cached(state, streams, k + 1)
    need_len = k * max(l_next, lt_next)
    n_prev = state.boundaries[-1] if state.boundaries else 0
    block_x = streams.xs(k)
    block_y = streams.ys(k)
    target = RademacherFn(k)
    nu_target = RademacherMeasure(k)
    appended = 0
    offset = cfg.first_check
    trajectory: list[tuple[int, float]] = []
    while True:
        take = min(offset, cfg.block_budget, len(block_x))
        while appended < take:
            state.xs.append(float(block_x[appended]))
            state.ys.append(float(block_y[appended]))
            appended += 1
        n = n_prev + appended
        xs = np.asarray(state.xs, dtype=float)
        ys = np.asarray(state.ys, dtype=float)
        est = phi.fit(xs, ys)
        e15 = l2_unit_distance(est, target, cfg.quad_cells)
        trajectory.append((n, e15.value))
        d16 = uniform_prefix_discrepancy(xs)
        d17 = weighted_prefix_discrepancy(xs, ys, nu_target)
        theta = 1.0 / (k + 1)
        if e15.value <= 1.0 / 40.0 and d16 <= theta and d17 <= theta and n >= need_len:
            l_k, lt_k = _block_thresholds_cached(state, streams, k)
            state.boundaries.append(n)
            state.fitted.append(est)
            state.records.append(
                BlockRecord(
                    k=k,
                    l_k=l_k,
                    l_tilde_k=lt_k,
                    n_k=n,
                    l2_to_block_target=e15.value,
                    l2_converged=e15.converged,
                    interval_discrepancy=d16,
                    weighted_discrepancy=d17,
                    min_length_required=need_len,
                )
            )
            return state
        if appended >= cfg.block_budget:
            raise ConsistencyViolationWitness(k, state, trajectory)
        if appended >= len(block_x):
            raise HorizonExhausted(
                f"block {k} ran out after {appended} pairs (the horizon) before "
                f"its boundary conditions held"
            )
        offset *= 2


def _span_scan(
    xs: np.ndarray, ys: np.ndarray, lo: int, hi: int, threshold: float
) -> dict:
    """Certified sup over n in (lo, hi] of the prefix discrepancy vs nu_0."""
    nu0 = RademacherMeasure(0)

    def eval_at(m: int) -> float:
        return weighted_prefix_discrepancy(xs[:m], ys[:m], nu0)

    if threshold >= 1.0:
        # vacuous bound; still sample a few points for the report
        pts = sorted(set(int(v) for v in np.geomspace(lo + 1, hi, num=6)))
        evals = [(m, eval_at(m)) for m in pts]
        return {
            "bound": threshold,
            "certified": True,
            "max_observed": max(d for _, d in evals),
            "evaluations": evals,
        }
    last_viol, max_obs, evals = certified_prefix_scan(eval_at, lo + 1, hi, threshold)
    return {
        "bound": threshold,
        "certified": last_viol == 0,
        "max_observed": max_obs,
        "evaluations": evals,
    }


def build_adversarial_sequence(
    phi, n_blocks: int, config: AdversaryConfig | None = None
) -> tuple[SpliceState, dict]:
    """Run the splice for blocks 1..n_blocks and assemble the run report.

    The report contains per-block thresholds and certificates, the pairwise
    squared L2 distance matrix of the boundary estimates, and the certified
    per-span envelope of the prefix discrepancy against nu_0 with bound 6/k
    on each span (n_k, n_{k+1}].
    """
    if n_blocks < 2:
        raise ValueError("need at least 2 blocks to exhibit oscillation")
    if config is None:
        config = AdversaryConfig(n_blocks=n_blocks)
    state = SpliceState(config=config)
    streams = BlockStreams(config)
    for k in range(1, n_blocks + 1):
        splice_next_block(state, phi, k, streams)
    xs = np.asarray(state.xs, dtype=float)
    ys = np.asarray(state.ys, dtype=float)

    k_count = len(state.fitted)
    distances = [[0.0] * k_count for _ in range(k_count)]
    dist_converged = True
    for i in range(k_count):
        for j in range(i + 1, k_count):
            r = l2_unit_distance(state.fitted[i], state.fitted[j], config.quad_cells)
            distances[i][j] = distances[j][i] = r.value
            dist_converged = dist_converged and r.converged

    spans = []
    for idx in range(len(state.boundaries) - 1):
        k = idx + 1
        span = _span_scan(
            xs, ys, state.boundaries[idx], state.boundaries[idx + 1], 6.0 / k
        )
        span["k"] = k
        span["n_lo"] = state.boundaries[idx]
        span["n_hi"] = state.boundaries[idx + 1]
        spans.append(span)

    min_pairwise = min(
        (distances[i][j] for i in range(k_count) for j in range(i + 1, k_count)),
        default=float("inf"),
    )
    report = {
        "phi": getattr(phi, "name", repr(phi)),
        "config": config.to_dict(),
        "finite_prefix_witness": True,
        "blocks": [r.to_dict() for r in state.records],
        "pairwise_sq_distances": distances,
        "pairwise_distances_converged": dist_converged,
        "min_pairwise_sq_distance": min_pairwise,
        "oscillation_bound": 1.0 / 20.0,
        "oscillation_ok": min_pairwise >= 1.0 / 20.0,
        "spans": [
            {
                "k": s["k"],
                "n_lo": s["n_lo"],
                "n_hi": s["n_hi"],
                "bound": s["bound"],
                "certified": s["certified"],
                "max_observed": s["max_observed"],
                "evaluations": [[int(m), float(d)] for m, d in s["evaluations"]],
            }
            for s in spans
        ],
        "spans_ok": all(s["certified"] for s in spans),
        "total_length": int(len(xs)),
    }
    return state, report


def verify_adversary_report(
    report: dict, seq: SampleSequence, phi=None
) -> list[tuple[str, bool | None, str]]:
    """Re-validate a run report against its stored sequence.

    Recomputes boundary discrepancies and, when the procedure is available
    (a built-in one rebuilt from its recorded name, or an explicit object),
    the boundary L2 certificates and the pairwise distances.  Without it
    those two checks come back as skipped: ok is None, not a verdict.
    """
    results: list[tuple[str, bool | None, str]] = []
    if phi is None:
        phi = _procedure_from_name(str(report.get("phi", "")))
    xs, ys = seq.x, seq.y
    fitted = []
    for rec in report["blocks"]:
        k = int(rec["k"])
        n_k = int(rec["n_k"])
        certs = rec["certificates"]
        theta = 1.0 / (k + 1)
        d16 = uniform_prefix_discrepancy(xs[:n_k])
        results.append(
            (
                f"block{k}-interval-discrepancy",
                abs(d16 - certs["interval_discrepancy"]) <= 1e-12 and d16 <= theta,
                f"recomputed {d16:.6g}",
            )
        )
        d17 = weighted_prefix_discrepancy(xs[:n_k], ys[:n_k], RademacherMeasure(k))
        results.append(
            (
                f"block{k}-weighted-discrepancy",
                abs(d17 - certs["weighted_discrepancy"]) <= 1e-12 and d17 <= theta,
                f"recomputed {d17:.6g}",
            )
        )
        results.append(
            (
                f"block{k}-length-requirement",
                n_k >= int(certs["min_length_required"]),
                f"n_k={n_k} >= {certs['min_length_required']}",
            )
        )
        if phi is not None:
            est = phi.fit(xs[:n_k], ys[:n_k])
            fitted.append(est)
            e15 = l2_unit_distance(est, RademacherFn(k))
            results.append(
                (
                    f"block{k}-l2-certificate",
                    abs(e15.value - certs["l2_to_block_target"]) <= 1e-9
                    and e15.value <= 1.0 / 40.0,
                    f"recomputed {e15.value:.6g}",
                )
            )
    if phi is None:
        why = f"procedure {report.get('phi')!r} is not rebuilt from its name"
        results.append(("block-l2-certificates", None, why))
        results.append(("pairwise-distances", None, why))
    elif len(fitted) >= 2:
        dist = report["pairwise_sq_distances"]
        ok = True
        worst = ""
        for i in range(len(fitted)):
            for j in range(i + 1, len(fitted)):
                v = l2_unit_distance(fitted[i], fitted[j]).value
                if abs(v - dist[i][j]) > 1e-9 or v < 1.0 / 20.0:
                    ok = False
                    worst = f"pair ({i+1},{j+1}) recomputed {v:.6g}"
        results.append(("pairwise-distances", ok, worst or "all >= 1/20"))
    return results
