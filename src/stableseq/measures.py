"""Exact measure arithmetic over half-open intervals and sup-discrepancies.

The interval class used everywhere is

    A = (a, b]   or   A = (-inf, b],   a < b real,

with right-closed semantics: an atom sitting exactly at b belongs to A, one
at a does not.  Every measure of an interval -- mu(A), the plain and
y-weighted empirical masses, nu(A) and nu_k(A) -- is read from its
cumulative function, measure(-inf, t], by one rule (`_interval_measure`):
the value at b, less the value at a unless A is left-unbounded.
Distribution models are finite mixtures of point masses and
constant-density segments, which makes every interval probability, CDF value
and left limit exactly computable, and lets the supremum over the whole
interval class of |empirical - model| be evaluated in closed form:

with D(t) = F_hat(t) - F(t) (both right-continuous), the deviation on (a, b]
is D(b) - D(a), so the supremum over the class equals max - min of D over
the closure of its range.  D is piecewise linear between the breakpoints of
either CDF, hence the extrema sit at breakpoint right-values and left
limits, plus the value 0 carried by a -> -inf / b beyond the data.  No
epsilon-perturbation is involved; suprema that are approached but not
attained are captured by the left limits.  One table of atoms and pieces,
`_CumulativeTable`, evaluates the cumulative and its left limit of mu and
of nu(A) = integral of m over A against mu alike.

One scan, `_interval_sup`, evaluates that supremum on points sorted by
value, for the plain class and the y-weighted one alike: it counts with
prefix sums (0..n, or the sums of y) against any target with a cumulative
function, its left limits and its breakpoints, every atom among them.  It
reads the cumulative once at the points, and the left limits only at the
points on a breakpoint.  One extra candidate past the data and the
breakpoints carries the constant tail value, which the weighted curves
need not share.  A `SampleSequence` holds x and y in arrival order; its
sorted view is built on first use, so only the scans pay for the sort.
One prefix view, `SampleSequence.prefix`, gives the scan a sequence's
first m points, for the stability diagnostic and the adversary alike.

A separate, weaker statistic is the Levy metric between the empirical CDF
and the model CDF (`levy_distance`).  It metrizes pointwise CDF convergence
at continuity points, which the interval supremum does not: a sequence can
creep up on an atom so that every CDF value converges pointwise while the
interval supremum stays at 1 forever.  The stability diagnostic reports
both, plus per-atom deviations, and flags exactly that divergence pattern.
"""
from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .partitions import _numbers

__all__ = [
    "IntervalA",
    "DistributionModel",
    "SampleSequence",
    "interval_prob",
    "empirical_mass",
    "empirical_weighted_mass",
    "sup_interval_discrepancy",
    "sup_weighted_discrepancy",
    "cramer_distance",
    "levy_distance",
    "stability_diagnostic",
    "StabilityReport",
    "read_sequence_csv",
    "write_sequence_csv",
    "sequence_csv_bytes",
]


@dataclass(frozen=True)
class IntervalA:
    """Half-open interval (a, b]; a = -inf gives the left-unbounded kind."""

    a: float
    b: float

    def __post_init__(self):
        if math.isnan(self.a) or math.isnan(self.b):
            raise ValueError("interval endpoints must not be NaN")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got ({self.a}, {self.b}]")
        if math.isinf(self.b):
            raise ValueError("right endpoint must be finite")

    @classmethod
    def left_unbounded(cls, b: float) -> "IntervalA":
        return cls(-math.inf, b)

    @property
    def left_unbounded_kind(self) -> bool:
        return math.isinf(self.a)

    def contains(self, x: float) -> bool:
        return self.a < x <= self.b


class ModelError(ValueError):
    """A distribution model violates its construction invariants."""


_MASS_TOL = 1e-12


class _CumulativeTable:
    """The cumulative of atoms, (location, value) pairs, and pieces, (lo,
    hi, d) rows: each piece (lo, hi] has density d * (c + s*t), with (c, s)
    = coefs(midpoint), or c = 1 and s = 0 without coefs (mu).  Both sorted,
    the pieces disjoint.  The slope term is evaluated on sloped pieces only:
    far out t*t overflows, and 0 * inf is NaN.  The piece cumulative starts
    at +0.0, so no value read from it is -0.0; without atoms, adding their
    +0.0 is skipped."""

    def __init__(self, atoms, pieces, coefs=None):
        self.locs, vals = np.array(atoms, dtype=float).reshape(-1, 2).T.copy()
        self.atom_cum = np.concatenate([[0.0], np.cumsum(vals)])
        self.lo, self.hi, self.d = np.array(pieces, dtype=float).reshape(-1, 3).T.copy()
        mids = (self.lo + self.hi) / 2.0
        self.c, self.s = coefs(mids) if coefs else (None, np.zeros_like(mids))
        self._sloped = self.s != 0
        whole = self._integral(np.arange(len(mids)), self.hi.copy())
        self.piece_cum = np.cumsum(np.concatenate([[0.0], whole]))

    def _integral(self, p: np.ndarray, tt: np.ndarray) -> np.ndarray:
        """The measure of (lo, tt] on each piece p, tt clipped to the piece:
        d*(c*(tt - lo) + (0.5*s)*(tt*tt - lo*lo)), computed in tt's memory."""
        lo = self.lo[p]
        np.fmin(tt, self.hi[p], out=tt)  # NaN reads the whole piece
        np.fmax(tt, lo, out=tt)
        q = self._sloped[p]
        slope = np.square(tt[q])
        slope -= np.square(lo[q])
        slope *= 0.5 * self.s[p[q]]
        tt -= lo
        if self.c is not None:
            tt *= self.c[p]
        tt[q] += slope
        tt *= self.d[p]
        return tt

    def at(self, t, side: str) -> np.ndarray | float:
        """The measure of (-inf, t] (side "right") or (-inf, t) ("left").  A t
        past every piece, or NaN, reads all of the last one: piece_cum[-1], bit for bit."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = 0.0  # the atoms alone when there are no pieces
        if len(self.hi):
            p = np.minimum(np.searchsorted(self.hi, t, side="left"), len(self.hi) - 1)
            out = self._integral(p, t.copy())
            out += self.piece_cum[p]
        if len(self.locs):
            out += self.atom_cum[np.searchsorted(self.locs, t, side=side)]
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class DistributionModel:
    """Probability distribution = finite atoms + piecewise-constant density.

    atoms: ((location, mass), ...) with distinct locations, masses in (0, 1].
    segments: ((a, b, density), ...) disjoint, sorted, a < b, density >= 0.
    Total mass must be 1 within 1e-12.

    The restriction to constant densities is deliberate: it covers every
    distribution the estimation and adversary experiments need (uniform
    laws, point masses, finite mixtures) while keeping interval
    probabilities, CDF left limits and inverse-CDF sampling exact.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    segments: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        atoms = tuple(sorted((float(u), float(m)) for u, m in self.atoms))
        segs = tuple(
            sorted((float(a), float(b), float(d)) for a, b, d in self.segments)
        )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "segments", segs)

        if not all(map(math.isfinite, [v for row in atoms + segs for v in row])):
            raise ModelError("atom locations and masses, segment ends and densities must be finite")
        if len({u for u, _ in atoms}) != len(atoms):
            raise ModelError("atom locations must be distinct")
        if any(m <= 0 for _, m in atoms):
            raise ModelError("atom masses must be positive")
        for a, b, d in segs:
            if not a < b:
                raise ModelError(f"segment needs a < b, got ({a}, {b}]")
            if d < 0:
                raise ModelError("densities must be nonnegative")
        for (_, b0, _), (a1, _, _) in zip(segs, segs[1:]):
            if a1 < b0:
                raise ModelError("segments must be disjoint")
        total = math.fsum([m for _, m in atoms] + [d * (b - a) for a, b, d in segs])
        if abs(total - 1.0) > _MASS_TOL:
            raise ModelError(f"total mass is {total!r}, must be 1 within {_MASS_TOL}")
        object.__setattr__(self, "_cum", _CumulativeTable(atoms, segs))

    # -- constructors ---------------------------------------------------------
    @classmethod
    def uniform(cls, a: float = 0.0, b: float = 1.0) -> "DistributionModel":
        return cls(segments=(((a, b, 1.0 / (b - a))),))

    @classmethod
    def point_mass(cls, loc: float) -> "DistributionModel":
        return cls(atoms=((loc, 1.0),))

    @classmethod
    def atomic(cls, locs_masses: Iterable[tuple[float, float]]) -> "DistributionModel":
        return cls(atoms=tuple(locs_masses))

    # -- CDF machinery --------------------------------------------------------
    def cdf(self, t) -> np.ndarray | float:
        """mu(-inf, t], vectorized; exact up to float rounding."""
        return self._cum.at(t, "right")

    def cdf_left(self, t) -> np.ndarray | float:
        """mu(-inf, t), the left limit of the CDF."""
        return self._cum.at(t, "left")

    # mu as a target of the interval scan, which counts the plain class with y = 1
    cumulative = cdf
    cumulative_left = cdf_left

    def atom_mass(self, t: float) -> float:
        """mu({t})."""
        i = bisect_left(self.atoms, (t,))
        if i < len(self.atoms) and self.atoms[i][0] == t:
            return self.atoms[i][1]
        return 0.0

    def breakpoints(self) -> np.ndarray:
        """All CDF breakpoints: atom locations and segment endpoints."""
        pts = [u for u, _ in self.atoms] + [v for a, b, _ in self.segments for v in (a, b)]
        return np.array(sorted(set(pts)), dtype=float)

    def inverse_cdf(self, u) -> np.ndarray:
        """Quantile transform; maps Uniform(0,1) draws to mu-distributed points.

        The pieces (atoms, density 0, and segments) sit in one table in
        location order, an atom before a segment that starts at it, which is
        exactly the CDF's own order, so the transform is the generalized
        inverse of `cdf`.  A piece's start is the sequential sum of the
        masses before it.  A piece without density maps to its location.
        """
        atoms = np.array(self.atoms, dtype=float).reshape(-1, 2)
        segs = np.array(self.segments, dtype=float).reshape(-1, 3)
        loc = np.concatenate([atoms[:, 0], segs[:, 0]])
        order = np.argsort(loc, kind="stable")  # the atoms come first at a tie
        loc = loc[order]
        mass = np.concatenate([atoms[:, 1], segs[:, 2] * (segs[:, 1] - segs[:, 0])])[order]
        dens = np.concatenate([np.zeros(len(atoms)), segs[:, 2]])[order]
        starts = np.cumsum(np.concatenate([[0.0], mass[:-1]]))
        flat = (mass == 0) | (dens == 0)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        i = np.clip(np.searchsorted(starts, u, side="right") - 1, 0, len(loc) - 1)
        out = u - starts[i]  # loc + (u - start) / density, in out's memory
        out /= np.where(flat, 1.0, dens)[i]
        out += loc[i]
        np.copyto(out, loc[i], where=flat[i])
        return out

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "atoms": [[u, m] for u, m in self.atoms],
            "segments": [[a, b, d] for a, b, d in self.segments],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DistributionModel":
        atoms = tuple((u, m) for u, m in d.get("atoms", []))
        segments = tuple((a, b, dd) for a, b, dd in d.get("segments", []))
        _numbers([v for row in atoms + segments for v in row])
        return cls(atoms=atoms, segments=segments)


def _interval_measure(cumulative, A: IntervalA):
    """The measure of A from its cumulative function, measure(-inf, t]:
    cumulative(b), less cumulative(a) unless A is left-unbounded."""
    if A.left_unbounded_kind:
        return cumulative(A.b)
    return cumulative(A.b) - cumulative(A.a)


def interval_prob(model: DistributionModel, A: IntervalA) -> float:
    """mu(A) with right-closed semantics; empty overlap returns 0."""
    return max(0.0, _interval_measure(model.cdf, A))


def _compensated_cumsum(y: np.ndarray) -> np.ndarray:
    """Prefix sums of y, written over y and returned, with chunked exact
    correction.

    Within 4096-element chunks an ordinary cumsum is used; chunk offsets are
    fsum-exact, so accumulated error stays O(chunk * eps) regardless of n.
    Only engaged above 10^6 elements; below that, plain cumsum error is
    already far under the discrepancy scales of interest.
    """
    n = len(y)
    if n <= 1_000_000:
        return np.cumsum(y, out=y)
    chunk = 4096
    offset = 0.0
    parts: list[float] = []
    for s in range(0, n, chunk):
        part = y[s:s + chunk]
        parts.append(math.fsum(part.tolist()))
        np.cumsum(part, out=part)
        part += offset
        offset = math.fsum(parts)
    return y


@dataclass(frozen=True)
class SampleSequence:
    """An observed finite prefix (x_i, y_i), i = 1..n, insertion order kept.

    The sorted view (stable argsort by x, and x in that order) and the
    prefix sums of y in sorted order are built on first use; they support
    O(log n) interval queries for both the plain and the y-weighted
    empirical measures.  Code that reads the pairs in arrival order only
    (the estimator, checkpoint verification, the procedures under attack)
    never sorts.  Ties in x keep insertion order in the sorted view; every
    query is by x-value range, so the tie order never changes an answer.

    Instances are immutable after construction; all query methods are pure.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        vars(self).update(x=x, y=y)

    @cached_property
    def sorted_index(self) -> np.ndarray:
        """The stable argsort of x."""
        masked = vars(self).pop("_masked_index", None)
        if masked is not None:  # a masked prefix view's, see `prefix`
            index, keep = masked
            return index.take(keep)
        return np.argsort(self.x, kind="stable")

    @cached_property
    def x_sorted(self) -> np.ndarray:
        """x in sorted order."""
        return self.x[self.sorted_index]

    @cached_property
    def y_cumsum_sorted(self) -> np.ndarray:
        """Prefix sums of y in sorted order, with a leading 0."""
        cum = np.empty(len(self) + 1)
        cum[0] = 0.0
        # the index is in range, so "clip" moves none; it writes straight
        # into cum, where the default mode would fill a full-size buffer first
        np.take(self.y, self.sorted_index, out=cum[1:], mode="clip")
        _compensated_cumsum(cum[1:])
        return cum

    @classmethod
    def _presorted(cls, x, y, order, x_sorted) -> "SampleSequence":
        """Instance over x, y whose stable argsort by x and sorted values
        are already known."""
        seq = cls(x, y)
        vars(seq).update(sorted_index=order, x_sorted=x_sorted)
        return seq

    def __len__(self) -> int:
        return len(self.x)

    def prefix(self, m: int) -> "SampleSequence":
        """SampleSequence(x[:m], y[:m]), array for array.  A stable sort of
        the prefix keeps the parent's order of its indices, so its sorted
        view is the parent's masked to indices below m (which builds the
        parent's); below n/16 the prefix sorts itself on first use, which
        costs less than masking all n, and gives the same.  The masked view
        gathers its sorted values at once and its `sorted_index` when that
        is first read, which the uniform scan never does; until then it
        holds the parent's index and the positions kept, and neither after."""
        if not 0 <= m <= len(self):
            raise ValueError(f"prefix length {m} out of range")
        view = SampleSequence(self.x[:m], self.y[:m])
        if 16 * m >= len(self):
            keep = np.flatnonzero(self.sorted_index < m)
            vars(view).update(x_sorted=self.x_sorted.take(keep),
                              _masked_index=(self.sorted_index, keep))
        return view

    # -- counting -------------------------------------------------------------
    def count_le(self, t) -> np.ndarray | int:
        return np.searchsorted(self.x_sorted, t, side="right")

    def count_lt(self, t) -> np.ndarray | int:
        return np.searchsorted(self.x_sorted, t, side="left")

    def empirical_cdf(self, t) -> np.ndarray | float:
        return self.count_le(t) / len(self)

    def atom_frequency(self, u: float) -> float:
        """Empirical mass of the single point {u}."""
        return float(self.count_le(u) - self.count_lt(u)) / len(self)

    def atom_weighted(self, u: float) -> float:
        """(1/n) * sum of y_i over x_i == u."""
        lo, hi = int(self.count_lt(u)), int(self.count_le(u))
        return float(self.y_cumsum_sorted[hi] - self.y_cumsum_sorted[lo]) / len(self)


def empirical_mass(seq: SampleSequence, A: IntervalA) -> float:
    """Fraction of samples inside A; exact count over n."""
    if len(seq) < 1:
        raise ValueError("need at least one sample")
    return int(_interval_measure(seq.count_le, A)) / len(seq)


def empirical_weighted_mass(seq: SampleSequence, A: IntervalA) -> float:
    """(1/n) * sum of y_i over x_i in A, via prefix-sum differences."""
    if len(seq) < 1:
        raise ValueError("need at least one sample")
    cum = seq.y_cumsum_sorted
    return float(_interval_measure(lambda t: cum[seq.count_le(t)], A)) / len(seq)


def _interval_sup(xs: np.ndarray, cum: np.ndarray, at_xs: np.ndarray, target) -> float:
    """sup over the interval class of |cum-weighted empirical mass - target|.

    `xs` holds the n >= 1 points in stable x order and cum[i] the counted
    weight of xs[:i], i = 0..n, and at_xs = target.cumulative(xs).  Returns
    max - min of D = cum/n - target over the candidates (xs, the target's
    breakpoints and one anchor past both; right values and left limits) and
    0.  Only points on a breakpoint, which every atom is, read left limits.

    Precondition: the computed target.cumulative is monotone between any
    two consecutive candidates; then so is D, whose counted weight is
    constant there, and its extremes sit at the candidates.  A target that
    is non-decreasing in floats everywhere (`adversary.RademacherFn`)
    may list only its support ends, which set the anchor: between two
    samples D is non-increasing, so no point there beats the sample before
    it (for the max) or the left limit at the sample after it (for the min).
    """
    n = len(xs)
    if n < 1:
        raise ValueError("need at least one sample")
    bks = np.asarray(target.breakpoints(), dtype=float)
    tail = max(float(xs[-1]), float(bks.max()) if len(bks) else -math.inf) + 1.0
    extra = np.append(bks, tail)
    if np.all(xs[1:] > xs[:-1]):  # strictly increasing: the counts are ranks
        right, left = cum[1:], cum[:-1]
    else:  # ties or NaN
        right = cum[np.searchsorted(xs, xs, side="right")]
        left = cum[np.searchsorted(xs, xs, side="left")]
    first, past = np.searchsorted(xs, extra, side="left"), np.searchsorted(xs, extra, side="right")
    e_right = cum[past] / n - target.cumulative(extra)
    e_left = cum[first] / n - target.cumulative_left(extra)
    d = np.divide(right, n)  # one buffer: the right deviations, then the left
    d -= at_xs
    # np.maximum/np.minimum propagate NaN as one max over all candidates would
    hi_right = np.maximum(d.max(), e_right.max())
    lo_right = np.minimum(d.min(), e_right.min())
    np.divide(left, n, out=d)
    d -= at_xs
    on = np.concatenate([np.arange(a, b) for a, b in zip(first.tolist(), past.tolist())])
    if len(on):  # the points on a breakpoint: xs[first[j]:past[j]] on the j-th
        d[on] = left[on] / n - target.cumulative_left(xs[on])
    hi = max(float(hi_right), float(np.maximum(d.max(), e_left.max())), 0.0)
    lo = min(float(lo_right), float(np.minimum(d.min(), e_left.min())), 0.0)
    return hi - lo


def sup_interval_discrepancy(seq: SampleSequence, model: DistributionModel) -> float:
    """sup over all (a, b] and (-inf, b] of |empirical mass - mu|.

    Evaluates D = F_hat - F at every breakpoint of either CDF, both the
    right value and the left limit, and returns max - min against the
    baseline 0 (the value of D at +/-inf, where both CDFs agree).  This is
    the exact supremum: D is piecewise linear between the candidates.
    """
    xs = seq.x_sorted
    return _interval_sup(xs, np.arange(len(xs) + 1, dtype=float), model.cdf(xs), model)


def sup_weighted_discrepancy(seq: SampleSequence, target) -> float:
    """sup over the interval class of |y-weighted empirical mass - target|.

    `target` must expose cumulative(t), cumulative_left(t) (vectorized) and
    breakpoints(), every atom among them.  The scan is that of
    `sup_interval_discrepancy`, counting with the prefix sums of y.
    """
    xs = seq.x_sorted
    at_xs = target.cumulative(xs)  # before the prefix sums: a lower peak
    return _interval_sup(xs, seq.y_cumsum_sorted, at_xs, target)


def cramer_distance(seq: SampleSequence, model: DistributionModel) -> float:
    """Squared L2 distance between the empirical and model CDFs over the line.

    integral of (F_hat - F)^2 dt, exact: both CDFs are piecewise linear
    between the union of their breakpoints (F_hat is a step function), so
    each piece contributes (d0^2 + d0*d1 + d1^2)/3 * len with d0, d1 the
    deviations at the piece ends (right value at the left end, left limit
    at the right end).  The integrand vanishes outside the joint support.

    Like the Levy metric, this goes to 0 under pointwise CDF convergence
    plus tightness -- in particular on sequences that creep up on an atom
    without sampling it -- while the interval-class supremum does not.
    """
    if len(seq) < 1:
        raise ValueError("need at least one sample")
    n = len(seq)
    pts = np.unique(np.concatenate([seq.x_sorted, model.breakpoints()]))
    if len(pts) < 2:
        return 0.0
    a = pts[:-1]
    b = pts[1:]
    f_hat = seq.count_le(a) / n  # constant on each open piece
    d0 = f_hat - model.cdf(a)
    d1 = f_hat - model.cdf_left(b)
    pieces = (d0 * d0 + d0 * d1 + d1 * d1) / 3.0 * (b - a)
    return float(math.fsum(pieces.tolist()))


_LEVY_CANDIDATES = 64  # samples the Levy bisection tests before it checks all of them


def levy_distance(seq: SampleSequence, model: DistributionModel) -> float:
    """Levy metric between the empirical CDF and the model CDF.

    Smallest eps with F(t - eps) - eps <= F_hat(t) <= F(t + eps) + eps for
    all t.  Between sample jumps F_hat is flat and F is non-decreasing, so
    feasibility of one eps reduces to checks at the distinct sample points
    (right values for the upper envelope, left limits for the lower): a
    point fails when max(F_hat(t) - F(t + eps), F(t - eps) - F_hat(t-))
    exceeds eps + 1e-15.  Bisection finds eps to absolute precision 1e-12.

    The bisection tests a small candidate set C, the points that deviate
    most at eps = 0, and checks all points once at its result; points that
    fail there join C and the bisection runs again.  The returned float is
    that of the bisection over all points:

    (a) Each point's test is monotone in eps.  Every float operation in it
        is monotone: fl(t +- eps), the searchsorted lookups,
        seg_cum[i] + d * max(0, min(t, b) - a), the sum with the atom
        cumulative, the subtraction from F_hat and eps + 1e-15.  At a
        segment end, seg_cum[i] + d * (b - a) is exactly the next cumsum
        entry, so the CDF takes no downward step.  Feasibility over all
        points is therefore monotone too.
    (b) A False on C is a False on all points.  Every True on C is at a
        midpoint >= the final hi.  If all points pass at the final hi, by
        (a) every True on C also holds for all points, so the bisection
        took the path of the one over all points and returns its float.
        If no midpoint was True, hi is the initial 1.0 either way.

    This metrizes pointwise CDF convergence at continuity points -- a
    strictly weaker statistic than the interval supremum, and exactly the
    gap the stability diagnostic needs to expose: mass creeping toward an
    atom without ever hitting it drives the Levy distance to 0 while the
    interval supremum stays at 1.
    """
    if len(seq) < 1:
        raise ValueError("need at least one sample")
    n = len(seq)
    ts = np.unique(seq.x_sorted)
    f_right = seq.count_le(ts) / n
    f_left = seq.count_lt(ts) / n

    def deviation(idx, eps: float) -> np.ndarray:
        """Per point of ts[idx] (idx = slice(None): all), the larger envelope
        excess at eps; the point fails where it exceeds eps + 1e-15."""
        dev = f_right[idx] - model.cdf(ts[idx] + eps)
        np.maximum(dev, model.cdf_left(ts[idx] - eps) - f_left[idx], out=dev)
        return dev

    dev = deviation(slice(None), 0.0)
    if float(dev.max()) <= 1e-15:
        return 0.0
    # a copy, not a view that would keep the full index array alive
    cand = np.argpartition(dev, max(len(dev) - _LEVY_CANDIDATES, 0))[-_LEVY_CANDIDATES:].copy()
    del dev
    while True:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(deviation(cand, mid).max()) <= mid + 1e-15:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-12:
                break
        if hi == 1.0:  # no midpoint passed on C, so none passes on all points
            return hi
        bad = np.flatnonzero(deviation(slice(None), hi) > hi + 1e-15)
        if len(bad) == 0:
            return hi
        cand = np.union1d(cand, bad)


# -- stability diagnostic -----------------------------------------------------

@dataclass(frozen=True)
class StabilityCheckpoint:
    n: int
    interval_discrepancy: float
    weighted_discrepancy: float
    cdf_cramer: float
    cdf_levy: float
    atom_deviations: dict[float, float]
    weighted_atom_deviations: dict[float, float]


FLAG_NAME = "NON-STABLE-EVIDENCE"


@dataclass(frozen=True)
class StabilityReport:
    checkpoints: tuple[StabilityCheckpoint, ...]
    flag: bool
    flag_reason: str

    @property
    def flag_name(self) -> str:
        return FLAG_NAME if self.flag else ""

    def to_dict(self) -> dict:
        return {
            "checkpoints": [
                {
                    "n": c.n,
                    "interval_discrepancy": c.interval_discrepancy,
                    "weighted_discrepancy": c.weighted_discrepancy,
                    "cdf_cramer": c.cdf_cramer,
                    "cdf_levy": c.cdf_levy,
                    "atom_deviations": {repr(u): d for u, d in sorted(c.atom_deviations.items())},
                    "weighted_atom_deviations": {
                        repr(u): d for u, d in sorted(c.weighted_atom_deviations.items())
                    },
                }
                for c in self.checkpoints
            ],
            "flag": self.flag,
            "flag_name": self.flag_name,
            "flag_reason": self.flag_reason,
        }


# Flag thresholds: an atom deviation counts as "stuck" if at the last
# checkpoint it is at least ATOM_FLOOR and has not dropped below
# STUCK_FRACTION of its first value, while the CDF-level statistic (the
# Cramer distance) has fallen to at most CDF_DROP of its first value.
_ATOM_FLOOR = 0.05
_STUCK_FRACTION = 0.75
_CDF_DROP = 0.75


def stability_diagnostic(
    seq: SampleSequence,
    model: DistributionModel,
    target,
    checkpoints: Sequence[int],
) -> StabilityReport:
    """Track convergence evidence along increasing prefix sizes.

    Per checkpoint m: the exact interval-class discrepancies (plain and
    y-weighted), the Cramer and Levy distances of the empirical CDF to the
    model CDF, and per-atom deviations |mu_hat_m({u}) - mu({u})| and
    |nu_hat_m({u}) - nu({u})| for every atom u of the model.

    The flag fires on the divergence pattern where the CDF part converges
    (Cramer distance drops) while some atom's plain deviation stays put --
    evidence that the sequence approaches the atom's location without
    sampling it, so interval-class convergence cannot hold.
    """
    checkpoints = [int(m) for m in checkpoints]
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if checkpoints and checkpoints[-1] > len(seq):
        raise ValueError("checkpoints must not exceed the sequence length")
    atoms = [u for u, _ in model.atoms]
    rows: list[StabilityCheckpoint] = []
    for m in checkpoints:
        pre = seq.prefix(m)
        adev = {u: abs(pre.atom_frequency(u) - model.atom_mass(u)) for u in atoms}
        wdev = {
            u: abs(pre.atom_weighted(u) - float(target.point_mass(u))) for u in atoms
        }
        rows.append(
            StabilityCheckpoint(
                n=m,
                interval_discrepancy=sup_interval_discrepancy(pre, model),
                weighted_discrepancy=sup_weighted_discrepancy(pre, target),
                cdf_cramer=cramer_distance(pre, model),
                cdf_levy=levy_distance(pre, model),
                atom_deviations=adev,
                weighted_atom_deviations=wdev,
            )
        )
    flag, reason = False, ""
    if len(rows) >= 2 and atoms:
        first, last = rows[0], rows[-1]
        cdf_converging = last.cdf_cramer <= _CDF_DROP * first.cdf_cramer
        if cdf_converging:
            for u in atoms:
                d0, d1 = first.atom_deviations[u], last.atom_deviations[u]
                if d1 >= _ATOM_FLOOR and d1 >= _STUCK_FRACTION * d0:
                    flag = True
                    reason = (
                        f"CDF-level discrepancy converges ({first.cdf_cramer:.4g} -> "
                        f"{last.cdf_cramer:.4g}) but the deviation at atom {u!r} "
                        f"is stuck at {d1:.4g}"
                    )
                    break
    return StabilityReport(tuple(rows), flag, reason)


# -- sequence file format -----------------------------------------------------

_CSV_BLOCK = 8192  # rows formatted per block by `sequence_csv_bytes`


def sequence_csv_bytes(seq: SampleSequence) -> bytes:
    """Canonical CSV encoding: header i,x,y; repr floats (round-trip exact)."""
    parts = [b"i,x,y\n"]
    for lo in range(0, len(seq), _CSV_BLOCK):  # in blocks: a few rows' strings alive at once
        # tolist gives Python floats, whose repr is the shortest round trip
        pairs = zip(seq.x[lo:lo + _CSV_BLOCK].tolist(), seq.y[lo:lo + _CSV_BLOCK].tolist())
        rows = [f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(pairs, start=lo + 1)]
        parts.append("".join(rows).encode("utf-8"))
    return b"".join(parts)


def write_sequence_csv(seq: SampleSequence, path) -> None:
    with open(path, "wb") as fh:
        fh.write(sequence_csv_bytes(seq))


def read_sequence_csv(path) -> SampleSequence:
    """The pairs of a sequence CSV: a header i,x,y, then one row per pair.

    Columns 2 and 3 of each data row are x and y; the first column and any
    further ones are not read, and blank lines are skipped.  A value is an
    ASCII decimal or `inf`/`nan` literal, optionally quoted and surrounded by
    whitespace, parsed to the nearest double as by float(); digit separators
    (`1_0`) and non-ASCII digits are errors.  A short row, a value that is
    not such a literal and a non-finite value raise ValueError naming the
    line or data row.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError("sequence CSV is empty (no i,x,y header)")
        if [h.strip() for h in header] != ["i", "x", "y"]:
            raise ValueError(f"unexpected sequence CSV header: {header}")
        try:
            with warnings.catch_warnings():  # a header-only file is a valid empty sequence
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                xy = np.loadtxt(fh, delimiter=",", usecols=(1, 2), comments=None,
                                quotechar='"', ndmin=2)
        except ValueError as e:
            fh.seek(0)
            raise _bad_csv_line(fh) or e
    x, y = np.ascontiguousarray(xy.T)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):  # one mask alive at a time
        row = int(np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))[0]) + 1
        raise ValueError(f"non-finite value in sequence CSV data row {row}")
    return SampleSequence(x, y)


def _number_literal(text: str) -> float:
    """A value of the sequence CSV: an ASCII decimal or `inf`/`nan` literal,
    surrounded by any whitespace, parsed as by float(); ValueError otherwise."""
    v = text.strip()
    # float() alone also takes digit separators and non-ASCII digits
    return float(v if v.isascii() and "_" not in v else "not ascii")


def _bad_csv_line(fh) -> ValueError | None:
    """The error naming the first data row of `fh` that `read_sequence_csv`
    cannot read, by the same rules; None if there is none."""
    r = csv.reader(fh)
    next(r)
    for row in r:
        if row and len(row) < 3:
            return ValueError(f"sequence CSV line {r.line_num} has {len(row)} columns, need 3")
        for value in row[1:3]:
            try:
                _number_literal(value)
            except ValueError:
                return ValueError(f"sequence CSV line {r.line_num}: {value!r} is not a number")
    return None
