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

Statistics at a freshly unlocked resolution are rebuilt by one pass over
the retained prefix; the estimator keeps the whole prefix and is not
constant-memory by design (correctness over space at desk scale).

Single-writer: ingestion is strictly sequential.  Frozen estimates are
immutable snapshots and may be read concurrently.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .measures import SampleSequence
from .partitions import PiecewiseDyadicFn, VariationBudget, _smallest_window, adjacent_jumps, cell_of

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


@dataclass(frozen=True)
class HistogramEstimate:
    """A histogram estimate together with its provenance (k, n used)."""

    fn: PiecewiseDyadicFn
    k: int
    n: int


def _accumulate_cells(xs, ys, k: int, n: int) -> dict[int, list]:
    """Per-cell [count, ysum] from the first n pairs, in arrival order."""
    cells: dict[int, list] = {}
    for i in range(n):
        j = cell_of(float(xs[i]), k).j
        c = cells.get(j)
        if c is None:
            cells[j] = [1, float(ys[i])]
        else:
            c[0] += 1
            c[1] += float(ys[i])
    return cells


def _cells_to_fn(cells: dict[int, list], k: int) -> PiecewiseDyadicFn:
    return PiecewiseDyadicFn(k, {j: c[1] / c[0] for j, c in cells.items()}, 0.0)


def histogram_estimate(seq: SampleSequence, k: int, n: int) -> HistogramEstimate:
    """Resolution-k histogram from the first n pairs; empty cells are 0."""
    if not 1 <= n <= len(seq):
        raise ValueError(f"need 1 <= n <= {len(seq)}, got {n}")
    cells = _accumulate_cells(seq.x, seq.y, k, n)
    return HistogramEstimate(_cells_to_fn(cells, k), k, n)


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
        self._jumps: dict[int, float] = {}  # boundary -> |jump| in its bucket
        self._bucket: dict[int, int] = {}  # smallest window -> sum of its jumps / 2^-1074
        self._alpha4: list[float] = []  # 4*alpha(i), i = 1.._k

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
        x = float(x)
        y = float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"cannot ingest a non-finite pair ({x!r}, {y!r})")
        if not abs(y) < _Y_BOUND:
            raise ValueError(f"cannot ingest y = {y!r}: |y| must be below 2^512")
        # locate first: an x too large for a cell index raises OverflowError
        # here, before any state changes (the first pair is placed at k = 1)
        j = cell_of(x, max(self._k, 1)).j
        self.xs.append(x)
        self.ys.append(y)
        n = len(self.xs)
        if n == 1:
            self._freeze(PiecewiseDyadicFn(0, {0: y}, 0.0))
            return 0
        self._add_sample(j, y)
        if not self._windows_pass():
            return None
        k_frozen = self._k
        try:
            self._freeze(_cells_to_fn(self._cells, k_frozen))
        except OverflowError:  # reject the pair: back to the state before it
            del self.xs[-1], self.ys[-1]
            self._cells = _accumulate_cells(self.xs, self.ys, self._k, n - 1)
            self._rebuild_jumps()
            raise
        return k_frozen

    def ingest_many(self, xs, ys) -> list[tuple[int, int]]:
        """Ingest a batch; returns [(frozen resolution, tau)] events."""
        events = []
        for x, y in zip(xs, ys):
            k = self.ingest(x, y)
            if k is not None:
                events.append((k, self.tau[-1]))
        return events

    # -- internals ------------------------------------------------------------------
    def _freeze(self, fn: PiecewiseDyadicFn) -> None:
        """Record tau = consumed with estimate fn and search one resolution
        deeper.  The cells there are built first: an x with no cell index at
        that resolution raises OverflowError before any state changes."""
        cells = _accumulate_cells(self.xs, self.ys, self._k + 1, len(self.xs))
        self.tau.append(len(self.xs))
        self.frozen.append(fn)
        self._k += 1
        self._alpha4 = [4.0 * self.budget.alpha(i) for i in range(1, self._k + 1)]
        self._cells = cells
        self._rebuild_jumps()

    def _rebuild_jumps(self) -> None:
        # raw-cell walk, not adjacent_jumps: its step function costs ~6% peak RSS at 2^16 pairs
        self._jumps = {}
        self._bucket = {}
        for j in self._cells:
            self._refresh_cell(j)

    def _refresh_cell(self, j: int) -> None:
        """Set the jumps on both sides of cell j from the current values."""
        cells = self._cells
        c, left, right = cells.get(j), cells.get(j - 1), cells.get(j + 1)
        v = c[1] / c[0] if c else 0.0
        self._set_jump(j - 1, abs(v - (left[1] / left[0] if left else 0.0)))
        self._set_jump(j, abs(v - (right[1] / right[0] if right else 0.0)))

    def _set_jump(self, pair: int, d: float) -> None:
        """Record jump d across boundary `pair`; its window bucket moves by
        d - old exactly, in units of 2^-1074."""
        old = self._jumps.get(pair, 0.0)
        if d == old:
            return
        self._jumps[pair] = d
        if old <= 2.0 * d and d <= 2.0 * old:  # Sterbenz: d - old is a double
            delta = _units(d - old)
        else:
            delta = _units(d) - _units(old)
        m = _smallest_window(pair, self._k)
        self._bucket[m] = self._bucket.get(m, 0) + delta

    def _add_sample(self, j: int, y: float) -> None:
        c = self._cells.get(j)
        if c is None:
            self._cells[j] = [1, y]
        else:
            c[0] += 1
            c[1] += y
        self._refresh_cell(j)

    def _windows_pass(self) -> bool:
        """`variation_check` on the current cells: the correctly rounded
        window sum acc / 2^1074 is the fsum that function compares."""
        acc = 0
        bucket = self._bucket
        for i, lim in enumerate(self._alpha4, 1):
            acc += bucket.get(i, 0)
            if not acc / _ULP_SCALE < lim:
                return False
        return True


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
    cells = _accumulate_cells(xs, ys, k, 1)
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
            cells = _accumulate_cells(xs, ys, k, n)
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
