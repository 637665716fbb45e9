"""Adaptive histogram regression from a single data stream.

The estimator consumes pairs (x_i, y_i) in order and never revisits a
decision.  At resolution k it maintains per-cell counts and y-sums over the
dyadic partition; the cell estimate is the ratio y-sum/count with the
convention 0/0 = 0.  Resolutions are unlocked sequentially through stopping
times:

    tau_0 = 1,
    tau_k = first n > tau_{k-1} with  V(est_{k,n} : -i, i) < 4 * alpha(i)
            for every window 1 <= i <= k,

where est_{k,n} is the resolution-k histogram built from the first n pairs
and alpha is the known variation budget.  The estimate frozen at tau_k uses
exactly that prefix; the fixed-sample-size estimate for n is the deepest
frozen one affordable with n samples.

Exactness discipline.  The strict inequality against 4 * alpha(i) is a
contract: ties fail, and a re-run from scratch must reproduce the same tau
sequence bit for bit.  Every finite double is an integer multiple of
2^-1074, so the streaming state keeps each window bucket as the exact
integer sum of its jumps in that unit; a pair refresh moves it by
new - old without rounding.  A window sum acc / 2^1074 is one correctly
rounded int/int division, hence the same float as the `math.fsum` of the
same jumps that `variation_check` compares -- the public function a
from-scratch audit calls -- so the streaming decision is
`variation_check`'s bit for bit, with no snapshot and no re-check.  Per-cell
y-sums accumulate in arrival order both here and in `histogram_estimate`,
so all three paths (streaming, batch reference, certificate replay) see
identical cell values.  Ingest rejects |y| >= 2^512 (the paper assumes
bounded y): below it no cell sum, jump or window sum can overflow.

Statistics at a freshly unlocked resolution are rebuilt by one array pass
over the retained prefix: cell indices, per-cell sums seeded with each
cell's first y and then `np.add.at` in arrival order (the same additions
as `+=`), jumps as differences over the sorted occupied cells, and each
bucket's integer from exponent-binned int64 sums.  The estimator keeps the
whole prefix and is not constant-memory by design (correctness over space
at desk scale).  No jump is stored: an update recomputes the jumps beside
a cell from its old and new value and its neighbours.  Only buckets of
windows up to k are kept, none of them 0, so the state is a function of
the cells alone, whichever path built it.

Certified spans.  Deciding at every pair, as `batch_tau_search` does from
scratch, walks the windows once per pair.  `ingest_many` decides only where
a decision could pass, so it freezes at the same pairs.  Write U_i =
units(4 alpha(i)).  Rounding is monotone and 4 alpha(i) is a double, so
acc_i >= U_i makes window i fail.  At a decision that fails, the exact
integer D = max_i (acc_i - U_i) is taken.  A later pair changes one cell's
value from v to v' -- the doubles fl(s/c) of the cell before and after it,
v = 0 for an empty cell -- and with it the two jumps beside the cell, each
d = fl|v - w| against a neighbour value w.
Reverse triangle inequality: each moves by at most |v' - v| plus the
rounding of its two subtractions, u(|v' - w| + |v - w|) with u = 2^-53
(a subtraction whose result is subnormal is exact, so the relative bound
always holds).  Both jumps together move by at most

    2|v' - v| + 2u * S,   S = |v'| + |v| + |w_left| + |w_right|.

The cell sum and s/c need no term of their own: v and v' are the very
doubles a decision at that pair sees, so their rounding is already in them.
The bound is accumulated in floats as

    B <- (B + 2|v' - v| + 2^-51 * S + 2^-1020) * (1 + 2^-50).

Each rounding to nearest loses at most a factor 1 + u, so the new B is at
least (1 + 2^-50) / (1 + u)^4 times

    B + 2|v' - v| / (1 + u) + 2^-51 * S / (1 + u)^4 - 2^-1075 + 2^-1020:

four roundings for the three additions and the product, one for v' - v,
three for the float S and one for 2^-51 * S, which may also lose 2^-1075
to underflow.  The 2^-1020 term covers that loss and keeps the product
normal.  Since 1 + 2^-50 >= (1 + u)^5 and 2^-51 / (1 + u)^3 >= 2u, the
new B is at least the old B plus the exact bound: B rounds up.  While B
stays at or below D / 2^1074 rounded down, acc_i for the i that gave D
stays >= U_i, so a decision at any of those pairs would fail and freeze
nothing; those pairs only update their cells.  Once B exceeds it, each
touched cell is refreshed once through the exact jump update (or, when
many were touched, the buckets are rebuilt as at a freeze) and the
windows are checked.  D <= 0 makes each pair a decision point, and so is
the first pair after a freeze or at the start of a batch.

Single-writer: ingestion is strictly sequential.  Frozen estimates are
immutable snapshots and may be read concurrently.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .measures import SampleSequence
from .partitions import (
    PiecewiseDyadicFn,
    VariationBudget,
    _cell_indices,
    _smallest_window,
    adjacent_jumps,
    cell_of,
)

__all__ = [
    "HistogramEstimate",
    "histogram_estimate",
    "variation_check",
    "EstimatorState",
    "batch_tau_search",
    "kappa_index",
    "checkpoint_to_dict",
    "checkpoint_from_dict",
    "verify_checkpoint",
]

_Y_BOUND = 2.0**512  # |y| below it: no cell sum, jump or window sum overflows
_ULP_SCALE = 1 << 1074  # every finite double is an integer multiple of 2^-1074
_CHUNK = 4096  # pairs whose cells `ingest_many` locates in one array pass
# a decision rebuilds all buckets once 8 * touched > cells + 320: refreshing
# costs ~5 us per touched cell, a rebuild ~200 us + 0.6 us per cell
_REBUILD_SHARE = 8
_REBUILD_MIN = 320
# the certified-span bound's rounding terms, derived in the module docstring
_SLACK = 2.0**-51
_TINY = 2.0**-1020
_ROUND_UP = 1.0 + 2.0**-50


@dataclass(frozen=True)
class HistogramEstimate:
    """A histogram estimate together with its provenance (k, n used)."""

    fn: PiecewiseDyadicFn
    k: int
    n: int


def _int_keys(scaled: np.ndarray) -> np.ndarray:
    """Integral floats as integers: int64, or Python ints beyond 2^62."""
    if not len(scaled) or np.abs(scaled).max() < 2.0**62:
        return scaled.astype(np.int64)
    return np.array([int(v) for v in scaled.tolist()], dtype=object)


def _accumulate_cells(xs, ys, k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, counts, ysums) of the first n pairs at resolution k, cells
    ascending.  Each sum starts at its cell's first y (a cell of -0.0s stays
    -0.0) and adds the others in arrival order.  An x that `cell_of` cannot
    place raises as `cell_of` does."""
    x = np.asarray(xs[:n], dtype=float)
    y = np.asarray(ys[:n], dtype=float)
    scaled = np.zeros(n) if k == 0 else _cell_indices(x, k)
    lost = np.isnan(scaled)
    if lost.any():
        cell_of(float(x[lost.argmax()]), k)  # raises ValueError or OverflowError
    keys, first, inverse, counts = np.unique(
        scaled, return_index=True, return_inverse=True, return_counts=True
    )
    sums = y[first]
    later = np.ones(n, dtype=bool)
    later[first] = False
    np.add.at(sums, inverse[later], y[later])
    return _int_keys(keys), counts, sums


def _cell_table(keys: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> dict[int, list]:
    return dict(zip(keys.tolist(), map(list, zip(counts.tolist(), sums.tolist()))))


def _cells_to_fn(cells: dict[int, list], k: int) -> PiecewiseDyadicFn:
    return PiecewiseDyadicFn(k, {j: c[1] / c[0] for j, c in cells.items()}, 0.0)


def _window_buckets(keys: np.ndarray, values: np.ndarray, k: int) -> dict[int, int]:
    """Each window's exact sum of its jumps, in units of 2^-1074, for the
    step function with `values` on the sorted nonempty cells `keys` and 0
    elsewhere; only windows up to k, and no zero sums."""
    adjacent = keys[1:] - keys[:-1] == 1
    left = np.zeros(len(keys))
    left[1:][adjacent] = values[:-1][adjacent]
    open_right = np.append(~adjacent, True)
    # boundary j - 1 of every cell j, and boundary j where cell j + 1 is empty
    b = np.concatenate([keys - 1, keys[open_right]])
    d = np.concatenate([np.abs(values - left), np.abs(values[open_right])])
    del adjacent, left, open_right  # the temporaries go as soon as they are used
    m = np.maximum(1, -(-np.maximum(b + 1, 1 - b) >> k))  # `_smallest_window`
    keep = (d != 0.0) & (m <= k)
    if not keep.any():
        return {}
    d, m = d[keep], m[keep].astype(np.int64)
    del b, keep
    # d * 2^1074 = mant * 2^shift, mant < 2^53; split it in 26-bit halves so
    # the int64 sums per (window, shift) bin hold for fewer than 2^36 jumps
    frac, expo = np.frexp(d)
    shift = expo + 1021
    mant = np.ldexp(frac, 53 + np.minimum(shift, 0)).astype(np.int64)
    key = m * 2048 + np.maximum(shift, 0)
    del d, m, frac, expo, shift
    order = np.argsort(key, kind="stable")
    key, mant = key[order], mant[order]
    starts = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    high = np.add.reduceat(mant >> 26, starts).tolist()
    low = np.add.reduceat(mant & 0x3FFFFFF, starts).tolist()
    buckets: dict[int, int] = {}
    for g, h, lo in zip(key[starts].tolist(), high, low):
        i, s = divmod(g, 2048)
        buckets[i] = buckets.get(i, 0) + (((h << 26) + lo) << s)
    return buckets


def histogram_estimate(seq: SampleSequence, k: int, n: int) -> HistogramEstimate:
    """Resolution-k histogram from the first n pairs; empty cells are 0."""
    if not 1 <= n <= len(seq):
        raise ValueError(f"need 1 <= n <= {len(seq)}, got {n}")
    keys, counts, sums = _accumulate_cells(seq.x, seq.y, k, n)
    values = dict(zip(keys.tolist(), (sums / counts).tolist()))
    return HistogramEstimate(PiecewiseDyadicFn(k, values, 0.0), k, n)


def variation_check(fn: PiecewiseDyadicFn, budget: VariationBudget) -> bool:
    """Strictly below 4*alpha on every window up to the function's resolution.

    Ties (exact equality with 4*alpha(i)) fail.  Each jump goes in the bucket
    of the smallest window holding it; window i's variation is the fsum of
    buckets 1..i, bit-equal to `total_variation_window(fn, i)`.
    """
    k = fn.k
    buckets: list[list[float]] = [[] for _ in range(k + 1)]
    for b, d in adjacent_jumps(fn):
        i = _smallest_window(b, k)
        if i <= k:
            buckets[i].append(d)
    terms: list[float] = []
    for i in range(1, k + 1):
        terms += buckets[i]
        if not math.fsum(terms) < 4.0 * budget.alpha(i):
            return False
    return True


def _units(d: float) -> int:
    """d as an exact integer count of 2^-1074 (every finite double is one)."""
    num, den = d.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _check_pair(x: float, y: float, k: int) -> None:
    """Raise for a pair ingest rejects at resolution k: a non-finite pair or
    |y| >= 2^512 (ValueError), or an x with no cell index (`cell_of`'s
    OverflowError)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"cannot ingest a non-finite pair ({x!r}, {y!r})")
    if not abs(y) < _Y_BOUND:
        raise ValueError(f"cannot ingest y = {y!r}: |y| must be below 2^512")
    cell_of(x, k)


def kappa_index(tau: list[int], n: int) -> int:
    """Largest k with tau[k] <= n (tau[0] = 1, so any n >= 1 is covered)."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return bisect_right(tau, n) - 1


class EstimatorState:
    """Streaming estimator state: stopping times, frozen estimates, search.

    The state after ingesting a prefix is a pure function of the prefix and
    the budget.  `ingest` returns the newly frozen resolution when a
    stopping time is recorded, else None.
    """

    def __init__(self, budget: VariationBudget):
        self.budget = budget
        self.xs: list[float] = []
        self.ys: list[float] = []
        self.tau: list[int] = []
        self.frozen: list[PiecewiseDyadicFn] = []
        self._k = 0  # resolution currently searched (0 = waiting for first pair)
        self._cells: dict[int, list] = {}
        self._bucket: dict[int, int] = {}  # smallest window -> sum of its jumps / 2^-1074
        self._alpha4: list[float] = []  # 4*alpha(i), i = 1.._k
        self._units4: list[int] = []  # the same in units of 2^-1074

    # -- public views -----------------------------------------------------------
    @property
    def consumed(self) -> int:
        return len(self.xs)

    @property
    def search_resolution(self) -> int:
        return self._k

    def kappa(self, n: int | None = None) -> int:
        return kappa_index(self.tau, self.consumed if n is None else n)

    def estimate_at(self, n: int | None = None) -> PiecewiseDyadicFn:
        """Fixed-sample estimate: deepest frozen resolution with tau_k <= n."""
        n = self.consumed if n is None else n
        if n > self.consumed:
            raise ValueError(f"only {self.consumed} pairs ingested, asked for {n}")
        return self.frozen[kappa_index(self.tau, n)]

    def open_search_age(self) -> int:
        """Samples consumed since the last freeze (0 before the first pair)."""
        if not self.tau:
            return 0
        return self.consumed - self.tau[-1]

    # -- ingestion ----------------------------------------------------------------
    def ingest(self, x: float, y: float) -> int | None:
        """Ingest one pair: `ingest_many` on it.  Returns the newly frozen
        resolution, else None."""
        events = self.ingest_many([float(x)], [float(y)])
        return events[0][0] if events else None

    def ingest_many(self, xs, ys) -> list[tuple[int, int]]:
        """Ingest a batch in order; returns [(frozen resolution, tau)] events.

        xs and ys are first converted to float arrays.  A pair `_check_pair`
        rejects at the search resolution raises there, with the pairs before
        it ingested; so does a freeze whose next resolution cannot place a
        stored x (see `_freeze`).  Any split of a stream into batches gives
        the same state.  See "Certified spans" above.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        events: list[tuple[int, int]] = []
        i = 0
        if n and not self.xs:  # the first pair freezes resolution 0 at tau = 1
            x, y = float(xs[0]), float(ys[0])
            _check_pair(x, y, 1)
            self.xs.append(x)
            self.ys.append(y)
            self._cells = {0: [1, y]}
            events.append((self._freeze(), 1))
            i = 1
        while i < n:
            i = self._ingest_run(xs, ys, i, events)
        return events

    # -- internals ------------------------------------------------------------------
    def _ingest_run(self, xs: np.ndarray, ys: np.ndarray, lo: int, events: list) -> int:
        """Ingest pairs lo, lo + 1, ... at the search resolution up to the
        first freeze or the end, and return the index after the last pair
        ingested; at the first pair `_check_pair` rejects, raise there.
        Pair lo is a decision point."""
        cells = self._cells
        get = cells.get
        limit, bound = -1.0, 0.0
        touched: dict[int, float] = {}  # cell -> its value at the last decision
        first_touch = touched.setdefault
        for start in range(lo, len(xs), _CHUNK):
            xc, yc = xs[start:start + _CHUNK], ys[start:start + _CHUNK]
            scaled = _cell_indices(xc, self._k)
            fit = ~np.isnan(scaled) & (np.abs(yc) < _Y_BOUND)
            stop = len(fit) if fit.all() else int(fit.argmin())
            js = _int_keys(scaled[:stop]).tolist()
            xl, yl = xc[:stop].tolist(), yc[:stop].tolist()
            done = 0
            for t, (j, y) in enumerate(zip(js, yl), 1):
                c = get(j)
                if c is None:
                    v = 0.0
                    cells[j] = [1, y]
                    v2 = y
                else:
                    v = c[1] / c[0]
                    c[0] += 1
                    c[1] += y
                    v2 = c[1] / c[0]
                w = abs(v2) + abs(v)
                c = get(j - 1)
                if c:
                    w += abs(c[1] / c[0])
                c = get(j + 1)
                if c:
                    w += abs(c[1] / c[0])
                bound = (bound + 2.0 * abs(v2 - v) + _SLACK * w + _TINY) * _ROUND_UP
                first_touch(j, v)
                if bound > limit:  # a decision point
                    self._refresh_cells(touched)
                    touched.clear()
                    self.xs += xl[done:t]
                    self.ys += yl[done:t]
                    done = t
                    limit, bound = self._window_margin(), 0.0
                    if limit is None:
                        cells = get = None  # the freeze releases the old cells
                        events.append((self._freeze(), self.tau[-1]))
                        return start + t
            self.xs += xl[done:]
            self.ys += yl[done:]
            if stop < len(fit):
                break
        self._refresh_cells(touched)
        if start + stop < len(xs):  # the pair the run cannot place
            _check_pair(float(xs[start + stop]), float(ys[start + stop]), self._k)
        return start + stop

    def _refresh_cells(self, touched: dict[int, float]) -> None:
        """Move the window buckets by the jumps beside the touched cells,
        from each cell's value when first touched to its current one."""
        cells = self._cells
        if _REBUILD_SHARE * len(touched) > len(cells) + _REBUILD_MIN:
            keys = sorted(cells)  # many touched: rebuild all buckets at once
            count_sum = np.array([cells[j] for j in keys], dtype=float)
            self._bucket = _window_buckets(
                _int_keys(np.array(keys, dtype=float)),  # cell indices are doubles
                count_sum[:, 1] / count_sum[:, 0],
                self._k,
            )
            return
        pending = dict(touched)  # cells whose buckets still hold the old value

        def value(i: int) -> float:
            if i in pending:
                return pending[i]
            c = cells.get(i)
            return c[1] / c[0] if c else 0.0

        for j, old in touched.items():
            del pending[j]
            v = value(j)
            for b, w in ((j - 1, value(j - 1)), (j, value(j + 1))):
                self._move_jump(b, abs(old - w), abs(v - w))

    def _window_margin(self) -> float | None:
        """One walk over the windows.  None when the current cells pass
        `variation_check`: each correctly rounded window sum acc / 2^1074 is
        the fsum that function compares.  Otherwise D / 2^1074 rounded down,
        D = max_i (acc_i - units(4 alpha(i))) the exact margin by which the
        cells fail, or -1.0 when D <= 0."""
        acc = deficit = 0
        passed = True
        bucket = self._bucket
        for i, (lim, units) in enumerate(zip(self._alpha4, self._units4), 1):
            acc += bucket.get(i, 0)
            passed = passed and acc / _ULP_SCALE < lim
            deficit = max(deficit, acc - units)
        if passed:
            return None
        return math.nextafter(deficit / _ULP_SCALE, 0.0) if deficit else -1.0

    def _freeze(self) -> int:
        """Record tau = consumed with the search histogram, search one
        resolution deeper and return the frozen resolution.  The cells there
        are located first: if a stored x has no cell index at that
        resolution, the last pair is rejected -- the state returns to the
        one before it -- and the OverflowError propagates."""
        k = self._k
        fn = _cells_to_fn(self._cells, k)
        try:
            cells = _accumulate_cells(self.xs, self.ys, k + 1, len(self.xs))
        except OverflowError:
            del self.xs[-1], self.ys[-1]
            self._set_cells(*_accumulate_cells(self.xs, self.ys, k, len(self.xs)))
            raise
        self.tau.append(len(self.xs))
        self.frozen.append(fn)
        self._k = k + 1
        self._alpha4 = [4.0 * self.budget.alpha(i) for i in range(1, k + 2)]
        # an infinite 4 alpha(i) never binds: every window sum is below DBL_MAX
        self._units4 = [_units(min(a, sys.float_info.max)) for a in self._alpha4]
        self._set_cells(*cells)
        return k

    def _set_cells(self, keys: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> None:
        self._cells = self._bucket = {}  # release the old tables first
        self._cells = _cell_table(keys, counts, sums)
        self._bucket = _window_buckets(keys, sums / counts, self._k)

    def _move_jump(self, pair: int, old: float, new: float) -> None:
        """The jump across boundary `pair` moved from old to new: its window
        bucket moves by new - old exactly, in units of 2^-1074.  Windows
        beyond k are not kept, and a bucket that returns to 0 is dropped."""
        if new == old:
            return
        m = _smallest_window(pair, self._k)
        if m > self._k:
            return
        if old <= 2.0 * new and new <= 2.0 * old:  # Sterbenz: new - old is a double
            delta = _units(new - old)
        else:
            delta = _units(new) - _units(old)
        acc = self._bucket.get(m, 0) + delta
        if acc:
            self._bucket[m] = acc
        else:
            del self._bucket[m]


def batch_tau_search(
    xs, ys, budget: VariationBudget, n_max: int | None = None
) -> tuple[list[int], list[PiecewiseDyadicFn]]:
    """Reference stopping-time search, recomputed per step from first principles.

    Used to cross-check the streaming bookkeeping: at every n the candidate
    histogram is materialized and `variation_check` runs fresh.  O(n * cells)
    per step; meant for audits at moderate n, not production streaming.
    """
    n_total = len(xs) if n_max is None else min(n_max, len(xs))
    if n_total < 1:
        raise ValueError("need at least one pair")
    tau = [1]
    frozen = [PiecewiseDyadicFn(0, {0: float(ys[0])}, 0.0)]
    k = 1
    cells = _cell_table(*_accumulate_cells(xs, ys, k, 1))
    for n in range(2, n_total + 1):
        j = cell_of(float(xs[n - 1]), k).j
        c = cells.get(j)
        if c is None:
            cells[j] = [1, float(ys[n - 1])]
        else:
            c[0] += 1
            c[1] += float(ys[n - 1])
        fn = _cells_to_fn(cells, k)
        if variation_check(fn, budget):
            tau.append(n)
            frozen.append(fn)
            k += 1
            cells = _cell_table(*_accumulate_cells(xs, ys, k, n))
    return tau, frozen


# -- checkpoint file format ---------------------------------------------------

def checkpoint_to_dict(state: EstimatorState) -> dict:
    return {
        "budget": state.budget.to_dict(),
        "consumed": state.consumed,
        "tau": list(state.tau),
        "frozen": [fn.to_dict() for fn in state.frozen],
    }


def checkpoint_from_dict(d: dict) -> dict:
    """Parse a checkpoint into structured pieces (budget, tau, frozen fns)."""
    return {
        "budget": VariationBudget.from_dict(d["budget"]),
        "consumed": int(d["consumed"]),
        "tau": [int(t) for t in d["tau"]],
        "frozen": [PiecewiseDyadicFn.from_dict(f) for f in d["frozen"]],
    }


def verify_checkpoint(seq: SampleSequence, chk: dict) -> list[tuple[str, bool, str]]:
    """Replay a checkpoint against its sequence and re-validate everything.

    Checks, per recorded stopping time: the frozen estimate equals the
    histogram recomputed from scratch on that prefix (exact float equality),
    and the strict variation bound holds on recomputation.  Finally, a full
    streaming re-run must reproduce the tau sequence.
    """
    parsed = checkpoint_from_dict(chk)
    budget, tau, frozen = parsed["budget"], parsed["tau"], parsed["frozen"]
    results: list[tuple[str, bool, str]] = []
    ok_mono = all(b > a for a, b in zip(tau, tau[1:])) and (not tau or tau[0] == 1)
    results.append(("tau-strictly-increasing-from-1", ok_mono, f"tau={tau[:8]}..."))
    for k, (t, fn) in enumerate(zip(tau, frozen)):
        if k == 0:
            expect = PiecewiseDyadicFn(0, {0: float(seq.y[0])}, 0.0)
            same = dict(fn.values) == dict(expect.values) and fn.k == 0
            results.append(("frozen[0]-is-first-y", same, f"tau_0={t}"))
            continue
        rebuilt = histogram_estimate(seq, k, t).fn
        same = (
            rebuilt.k == fn.k
            and rebuilt.default == fn.default
            and dict(rebuilt.values) == dict(fn.values)
        )
        results.append((f"frozen[{k}]-matches-recomputation", same, f"tau_{k}={t}"))
        results.append(
            (
                f"frozen[{k}]-variation-bound",
                variation_check(rebuilt, budget),
                f"tau_{k}={t}",
            )
        )
    replay = EstimatorState(budget)
    n_replay = min(parsed["consumed"], len(seq))
    replay.ingest_many(seq.x[:n_replay], seq.y[:n_replay])
    results.append(
        (
            "streaming-replay-reproduces-tau",
            replay.tau == tau,
            f"replayed tau={replay.tau[:8]}...",
        )
    )
    return results
