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
sequence bit for bit.  V_i is the correctly rounded `math.fsum` of the
absolute jumps inside window i.  One walk over the windows, `_windows`,
serves `variation_check` -- the public function a from-scratch audit
calls -- and the streaming decision, so both compare the same V_i with
the same 4 alpha(i).  The walk reads a histogram's jumps, a
`PiecewiseDyadicFn` on sorted arrays, from the one enumerator
`partitions.adjacent_jumps`.  Per-cell y-sums accumulate in
arrival order both here and in `histogram_estimate`, so all three paths
(streaming, batch reference, certificate replay) see identical cell
values.  Ingest rejects |y| >= 2^512 (the paper assumes bounded y): below
it no cell sum, jump or window sum can overflow.

State.  The prefix lives in two float64 arrays that double when full, and
the occupied cells in sorted keys (as `_int_keys` makes them), int64
counts and float64 y-sums; the estimator keeps the whole prefix by design
(correctness over space at desk scale).  A freshly unlocked resolution
rebuilds the cells in one pass over the prefix (sums seeded with each
cell's first y, then `np.add.at` in arrival order: the `+=` additions).
Ingest adds a chunk of pairs to the cells in one array pass, one vector
step per occurrence rank of a cell, so each running sum is the sequential
`+=`.  No jump or window sum is stored: each decision walks the windows
of the jumps `adjacent_jumps` finds, so the state is a function of the
prefix alone, whichever path built it.

Certified spans.  `batch_tau_search` decides at every pair; `ingest_many`
decides only where a decision could pass, so it freezes at the same pairs.
Write E_i = S_i - 4 alpha(i) for the exact excess of window i, where S_i
is the exact sum of its absolute jumps and V_i is S_i rounded.  Rounding
is monotone and 4 alpha(i) is a double, so E_i >= 0 makes window i fail.
At a decision that fails, D = max_i E_i is taken as fl(D), the largest
fsum of a window's jumps and -4 alpha(i).  A later pair changes one cell's
value from v to v' -- the doubles fl(s/c) of the cell before and after
it, v = 0 for an empty cell -- and with it the two jumps beside the cell,
each d = fl|v - w| against a neighbour value w.  Reverse triangle
inequality: each moves by at most |v' - v| plus the rounding of its two
subtractions, u(|v' - w| + |v - w|) with u = 2^-53 (a subnormal
difference is exact).  Both jumps together move by at most

    e = 2|v' - v| + 2u * S,   S = |v'| + |v| + |w_left| + |w_right|.

The cell sum and s/c need no term of their own: v and v' are the very
doubles a decision at that pair sees, so their rounding is already in them.
W, the largest |value| of a cell where a run of pairs (one batch up to a
freeze) first needs B, or after any pair of that run since, bounds every
neighbour while the pairs arrive.  One array pass over a chunk takes

    a = 2|v' - v| + 2^-51 * (|v'| + |v| + 2W) + 2^-1020,
    B = (cumsum(a) + B_0) * (1 + 2^-40),

with B_0 the bound carried from the chunk before (0 after a decision).
Rounding a nonnegative x to nearest gives at least (1 - u) x, and a
subnormal sum is exact.  So a >= (1 - u)^3 e: one rounding for v' - v, two
for the additions; 2^-51 = 4u covers 2u and the two roundings of the float
S, and 2^-1020 the at most 2^-1075 that 2^-51 * S may lose to underflow.
The t <= `_CHUNK` = 4096 partial sums of cumsum, the addition of B_0 and
the product lose a factor 1 - u each, and (1 - u)^4100 (1 + 2^-40) >= 1:
B is at least B_0 plus the exact sum of the e's.  While B stays at or
below the double below fl(D), so below D, E_i for the i that gave D stays
>= 0, so a decision at any of those pairs would fail and freeze nothing.
The first pair where B exceeds it is the next decision point: the pairs up
to it join the cells, and the windows are checked.
D <= 0 makes each pair a decision point, and so is the first pair after a
freeze or at the start of a batch.  A run of pairs is located and summed
in chunks that grow from its first pair: that pair alone, then `_FIRST` =
64 pairs, doubling up to `_CHUNK`, so a freeze discards fewer pairs of its
chunk than the run had before it plus 64.  The chunk's a serve every
decision in it; after each, one cumsum sums B over the rest of the chunk,
and one `searchsorted` finds the first pair where it exceeds the limit.

Single-writer: ingestion is strictly sequential.  Frozen estimates are
immutable snapshots and may be read concurrently.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np

from .measures import SampleSequence
from .partitions import (
    PiecewiseDyadicFn,
    VariationBudget,
    _cell_indices,
    _int_keys,
    _numbers,
    adjacent_jumps,
    cell_of,
)

__all__ = [
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
_CHUNK = 4096  # most pairs `ingest_many` locates and sums in one array pass
_FIRST = 64  # the size of a run's second chunk
_RANKS = 32  # occurrences of a cell summed one vector step each; the rest accumulate
# the certified-span bound's rounding terms, derived in the module docstring
_SLACK = 2.0**-51
_TINY = 2.0**-1020
_ROUND_UP = 1.0 + 2.0**-40


def _accumulate_cells(xs, ys, k: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, counts, ysums) of the first n pairs at resolution k, cells
    ascending.  Each sum starts at its cell's first y (a cell of -0.0s stays
    -0.0) and adds the others in arrival order.  An x that `cell_of` cannot
    place raises as `cell_of` does."""
    x = np.asarray(xs[:n], dtype=float)
    y = np.asarray(ys[:n], dtype=float)
    scaled = _cell_indices(x, k)
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


@lru_cache(maxsize=16)  # bounded: the edges of resolution k are 2k ints of k bits
def _edges(k: int) -> np.ndarray:
    """Window i = 1..k of resolution k holds the jump boundaries
    1 - i*2^k <= b < i*2^k: the k starts, then the k ends, as int64 or,
    beyond it, Python ints; read-only, as every caller shares it."""
    spans = [i << k for i in range(1, k + 1)]
    edges = np.array([1 - s for s in spans] + spans)
    edges.flags.writeable = False
    return edges


def _windows(fn: PiecewiseDyadicFn):
    """Yield (i, the |jumps| inside window i, a list) for window 1 and each
    later window up to fn.k that adds a jump: one that adds none, as alpha
    does not decrease, neither fails where the one before passes nor exceeds it."""
    b, d = adjacent_jumps(fn)
    at = np.searchsorted(b, _edges(fn.k)).tolist()
    terms, seen = np.abs(d).tolist(), None
    for i, inside in enumerate(zip(at, at[fn.k:]), 1):
        if inside != seen:
            yield i, terms[inside[0]:inside[1]]
            seen = inside


def _find(keys: np.ndarray, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pos, hit): where each of js goes in the sorted keys, and whether it is there."""
    pos = np.searchsorted(keys, js)
    hit = np.zeros(len(js), dtype=bool)
    inside = pos < len(keys)
    hit[inside] = keys[pos[inside]] == js[inside]
    return pos, hit


def _running_cells(keys, counts, sums, js: np.ndarray, ys: np.ndarray) -> list[np.ndarray]:
    """[count, sum, value before, value after] of each pair's cell, in arrival
    order, as the pairs (js, ys) join the cells (keys, counts, sums): a new
    cell's sum starts at its first y, later ys add in order as `+=` does.
    Rank r of each cell is one vector step below `_RANKS`, then accumulate."""
    cells, inv = np.unique(js, return_inverse=True)
    pos, hit = _find(keys, cells)
    c0, s0 = np.zeros(len(cells), dtype=np.int64), np.zeros(len(cells))
    c0[hit], s0[hit] = counts[pos[hit]], sums[pos[hit]]
    order = np.argsort(inv, kind="stable")  # by cell, then arrival
    g = inv[order]
    starts = np.flatnonzero(np.append(True, g[1:] != g[:-1]))
    sizes = np.diff(np.append(starts, len(g)))
    s = ys[order]
    s[starts[hit]] += s0[hit]
    for r in range(1, min(int(sizes.max(initial=0)), _RANKS)):
        at = starts[sizes > r] + r
        s[at] += s[at - 1]
    for a, z in zip(starts[sizes > _RANKS].tolist(), sizes[sizes > _RANKS].tolist()):
        np.add.accumulate(s[a + _RANKS - 1:a + z], out=s[a + _RANKS - 1:a + z])
    c = c0[g] + np.arange(len(g)) - starts[g] + 1
    after = s / c
    before = np.empty_like(after)  # the cell's value after its previous pair
    before[1:] = after[:-1]
    before[starts] = np.divide(s0, c0, out=np.zeros(len(cells)), where=hit)
    back = np.argsort(order)  # to arrival order
    return [c[back], s[back], before[back], after[back]]


def histogram_estimate(seq: SampleSequence, k: int, n: int) -> PiecewiseDyadicFn:
    """Resolution-k histogram from the first n pairs; empty cells are 0."""
    if not 1 <= n <= len(seq):
        raise ValueError(f"need 1 <= n <= {len(seq)}, got {n}")
    keys, counts, sums = _accumulate_cells(seq.x, seq.y, k, n)
    return PiecewiseDyadicFn(k, (keys, sums / counts), 0.0)


def variation_check(fn: PiecewiseDyadicFn, budget: VariationBudget) -> bool:
    """Strictly below 4*alpha on every window up to the function's resolution.

    Ties (exact equality with 4*alpha(i)) fail.  Window i's variation is
    the fsum of the jumps at -i*2^k < b < i*2^k, as in `total_variation_window`;
    the windows `_windows` skips pass whenever the ones before them do.
    """
    return all(math.fsum(terms) < 4.0 * budget.alpha(i) for i, terms in _windows(fn))


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
        self._x, self._y = np.empty(0), np.empty(0)  # the prefix, in the first _n slots
        self._n = 0
        self.tau: list[int] = []
        self.frozen: list[PiecewiseDyadicFn] = []
        self._k = 0  # resolution currently searched (0 = waiting for first pair)
        self._keys = np.empty(0, dtype=np.int64)  # occupied cells, ascending
        self._counts = np.empty(0, dtype=np.int64)
        self._sums = np.empty(0)
        self._alpha4: list[float] = []  # 4*alpha(i), i = 1.._k

    # -- public views -----------------------------------------------------------
    @property
    def xs(self) -> np.ndarray:
        return self._x[:self._n]

    @property
    def ys(self) -> np.ndarray:
        return self._y[:self._n]

    @property
    def consumed(self) -> int:
        return self._n

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

    def binding_window(self) -> tuple[int, float, float] | None:
        """(i, V_i, 4 alpha(i)) for the first window i of largest exact excess
        S_i - 4 alpha(i) ("Certified spans"), where the search histogram fails
        by the most or comes closest to failing; None at k = 0.  Window j
        beats the best i so far when the fsum of j's jumps, i's jumps negated,
        4 alpha(i) and -4 alpha(j) is positive, an exact sign.  An infinite
        4 alpha counts as the largest double."""
        best = None
        for j, terms in _windows(self._histogram()):
            lim = min(self._alpha4[j - 1], np.finfo(float).max)
            if best is None or math.fsum([*terms, *(-t for t in best[1]), best[2], -lim]) > 0:
                best = j, terms, lim
        return best and (best[0], math.fsum(best[1]), self._alpha4[best[0] - 1])

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
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        events: list[tuple[int, int]] = []
        i = 0
        while i < n:
            i = self._ingest_run(xs, ys, i, events)
        return events

    # -- internals ------------------------------------------------------------------
    def _ingest_run(self, xs: np.ndarray, ys: np.ndarray, lo: int, events: list) -> int:
        """Ingest pairs lo, lo + 1, ... at the search resolution up to the
        first freeze or the end, and return the index after the last pair
        ingested; at the first pair `_check_pair` rejects, raise there.
        Pair lo is a decision point; chunks grow as "Certified spans" says."""
        limit, bound, w = -1.0, 0.0, None
        start, size = lo, 1
        while start < len(xs):
            xc, yc = xs[start:start + size], ys[start:start + size]
            scaled = _cell_indices(xc, self._k)
            fit = ~np.isnan(scaled) & (np.abs(yc) < _Y_BOUND)
            stop = len(fit) if fit.all() else int(fit.argmin())
            p, a = 0, None
            if stop:
                js = _int_keys(scaled[:stop])
                cells = self._keys, self._counts, self._sums
                count, total, v, v2 = _running_cells(*cells, js, yc[:stop])
                if w is not None:
                    w = max(w, np.abs(v2).max())
            while p < stop:
                t = p  # the first pair where B exceeds the limit; pair p when D <= 0
                if limit >= 0.0:
                    if a is None:
                        if w is None:  # the cells' largest |value|, or one after a pair since
                            w = np.abs(self._sums / self._counts).max(initial=np.abs(v2).max())
                        a = 2.0 * np.abs(v2 - v) + _SLACK * (np.abs(v2) + np.abs(v) + 2.0 * w) + _TINY
                    b = (np.cumsum(a[p:stop]) + bound) * _ROUND_UP
                    t = p + int(np.searchsorted(b, limit, side="right"))
                q = min(t + 1, stop)
                self._apply(js[p:q], count[p:q], total[p:q])
                self._extend(xc[p:q], yc[p:q])
                if t == stop:
                    bound = float(b[-1])
                    break
                p = q
                limit, bound = self._window_margin(), 0.0
                if limit is None:
                    events.append((self._freeze(), self.tau[-1]))
                    return start + q
            if stop < len(fit):  # the pair the run cannot place
                _check_pair(float(xc[stop]), float(yc[stop]), self._k)
            start, size = start + stop, min(max(2 * size, _FIRST), _CHUNK)
        return len(xs)

    def _apply(self, js: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> None:
        """Give each cell of js the count and sum after its last pair there."""
        cells, last = np.unique(js[::-1], return_index=True)
        counts, sums = counts[::-1][last], sums[::-1][last]
        keys = self._keys
        pos, hit = _find(keys, cells)
        self._counts[pos[hit]], self._sums[pos[hit]] = counts[hit], sums[hit]
        if not hit.all():
            new = ~hit
            if cells.dtype == object:
                keys = keys.astype(object)
            self._keys = np.insert(keys, pos[new], cells[new])
            self._counts = np.insert(self._counts, pos[new], counts[new])
            self._sums = np.insert(self._sums, pos[new], sums[new])

    def _histogram(self) -> PiecewiseDyadicFn:
        return PiecewiseDyadicFn(self._k, (self._keys, self._sums / self._counts), 0.0)

    def _extend(self, x: np.ndarray, y: np.ndarray) -> None:
        """Append pairs to the prefix, doubling its arrays when they are full."""
        n, m = self._n, len(x)
        if n + m > len(self._x):
            cap = max(n + m, 2 * len(self._x))
            grown = (np.concatenate([a[:n], np.empty(cap - n)]) for a in (self._x, self._y))
            self._x, self._y = grown
        self._x[n:n + m], self._y[n:n + m] = x, y
        self._n = n + m

    def _window_margin(self) -> float | None:
        """None when the cells pass `variation_check`, by the same walk and
        comparisons.  Otherwise the limit of the certified span: the double
        below fl(D), or -1.0 when D <= 0.  Only a failing window's jumps are
        summed with -4 alpha(i): a window with E_i > 0 fails."""
        passed, worst = True, -math.inf
        for i, terms in _windows(self._histogram()):
            lim = self._alpha4[i - 1]
            if not math.fsum(terms) < lim:
                passed, worst = False, max(worst, math.fsum([*terms, -lim]))
        if passed:
            return None
        return math.nextafter(worst, 0.0) if worst > 0 else -1.0

    def _freeze(self) -> int:
        """Record tau = consumed with the search histogram, search one
        resolution deeper and return the frozen resolution.  The cells there
        are located first: if a stored x has no cell index at that
        resolution, the last pair is rejected -- the state returns to the
        one before it -- and the OverflowError propagates."""
        k, n = self._k, self._n
        fn = self._histogram()
        try:
            cells = _accumulate_cells(self.xs, self.ys, k + 1, n)
        except OverflowError:
            self._n = n - 1
            self._keys, self._counts, self._sums = _accumulate_cells(self.xs, self.ys, k, n - 1)
            raise
        self.tau.append(n)
        self.frozen.append(fn)
        self._k = k + 1
        self._alpha4 = [4.0 * self.budget.alpha(i) for i in range(1, k + 2)]
        self._keys, self._counts, self._sums = cells
        return k


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
    keys, counts, sums = _accumulate_cells(xs, ys, k, 1)
    for n in range(2, n_total + 1):
        j, y = cell_of(float(xs[n - 1]), k).j, float(ys[n - 1])
        p = bisect_left(keys, j)
        if p < len(keys) and keys[p] == j:
            counts[p] += 1
            sums[p] += y
        else:  # a new cell; cell indices are integral doubles
            keys = _int_keys(np.insert(keys.astype(float), p, j))
            counts, sums = np.insert(counts, p, 1), np.insert(sums, p, y)
        fn = PiecewiseDyadicFn(k, (keys, sums / counts), 0.0)
        if variation_check(fn, budget):
            tau.append(n)
            frozen.append(fn)
            k += 1
            keys, counts, sums = _accumulate_cells(xs, ys, k, n)
    return tau, frozen


# -- checkpoint file format ---------------------------------------------------

def checkpoint_to_dict(state: EstimatorState) -> dict:
    """The checkpoint with its frozen estimates as `PiecewiseDyadicFn`s, each
    standing for its `to_dict()`: the CLI's writer writes them from their
    arrays, and `json.dumps(..., default=PiecewiseDyadicFn.to_dict)` gives
    the same text."""
    return {
        "budget": state.budget.to_dict(),
        "consumed": state.consumed,
        "tau": list(state.tau),
        "frozen": list(state.frozen),
    }


def checkpoint_from_dict(d: dict) -> dict:
    """Parse a checkpoint into structured pieces (budget, tau, frozen fns,
    and `stalled_at` as written, None when absent); a non-integer count,
    stopping time, k or cell index raises ValueError, and so does a
    non-finite cell value or default.  d may come from a `json.load` with
    `PiecewiseDyadicFn.object_hook`, which parses each estimate as it is read."""
    return {
        "budget": VariationBudget.from_dict(d["budget"]),
        "consumed": _numbers([d["consumed"]], integer=True)[0],
        "tau": _numbers(list(d["tau"]), integer=True),
        "frozen": [PiecewiseDyadicFn.from_dict(f) for f in d["frozen"]],
        "stalled_at": d.get("stalled_at"),
    }


def _frozen_checks(seq: SampleSequence, budget, tau: list[int], frozen: list) -> list:
    """Each frozen estimate against the histogram recomputed on its prefix,
    and the recomputed one against the variation budget."""
    results = []
    for k, (t, fn) in enumerate(zip(tau, frozen)):
        if k == 0:
            same = fn == PiecewiseDyadicFn(0, {0: float(seq.y[0])}, 0.0)
            results.append(("frozen[0]-is-first-y", same, f"tau_0={t}"))
            continue
        rebuilt = histogram_estimate(seq, k, t)
        results.append((f"frozen[{k}]-matches-recomputation", rebuilt == fn, f"tau_{k}={t}"))
        results.append(
            (
                f"frozen[{k}]-variation-bound",
                variation_check(rebuilt, budget),
                f"tau_{k}={t}",
            )
        )
    return results


def verify_checkpoint(seq: SampleSequence, chk: dict) -> list[tuple[str, bool, str]]:
    """Replay a checkpoint, as `checkpoint_from_dict` parses it, against its
    sequence and re-validate everything.

    Checks the structure first: one frozen estimate per stopping time,
    `consumed` between the last stopping time and the sequence length, and
    `stalled_at` either null or, where the stream stopped, equal to
    `consumed`, which is then past the last stopping time.
    Then, per recorded stopping time: the frozen estimate equals the
    histogram recomputed from scratch on that prefix (exact float
    equality), and the strict variation bound holds on recomputation.
    Finally, a full streaming re-run must reproduce the tau sequence.
    """
    budget, tau, frozen = chk["budget"], chk["tau"], chk["frozen"]
    consumed, stalled = chk["consumed"], chk["stalled_at"]
    results: list[tuple[str, bool, str]] = []
    ok_mono = all(b > a for a, b in zip(tau, tau[1:])) and (not tau or tau[0] == 1)
    results.append(("tau-strictly-increasing-from-1", ok_mono, f"tau={tau[:8]}..."))
    results.append(
        (
            "frozen-count-equals-tau-count",
            len(frozen) == len(tau),
            f"{len(frozen)} frozen, {len(tau)} tau",
        )
    )
    last = max(tau, default=0)
    results.append(
        (
            "consumed-within-sequence",
            last <= consumed <= len(seq),
            f"{last} <= consumed={consumed} <= {len(seq)}",
        )
    )
    ok_stall = stalled is None or (type(stalled) is int and last < stalled == consumed)
    detail = f"stalled_at={stalled}, consumed={consumed}, last tau={last}"
    results.append(("stalled-at-equals-consumed", ok_stall, detail))
    results += _frozen_checks(seq, budget, tau, frozen)
    replay = EstimatorState(budget)
    n_replay = min(consumed, len(seq))
    replay.ingest_many(seq.x[:n_replay], seq.y[:n_replay])
    results.append(
        (
            "streaming-replay-reproduces-tau",
            replay.tau == tau,
            f"replayed tau={replay.tau[:8]}...",
        )
    )
    return results
