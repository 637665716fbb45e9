"""Regression curve models with exact variation and exact mu-integrals.

Two concrete shapes cover everything the experiments need, and both keep all
downstream functionals closed-form:

  * dyadic step functions (a `PiecewiseDyadicFn`), and
  * continuous piecewise-linear curves (breakpoints + node values, constant
    extension outside the node range).

Monotone-bounded and Lipschitz targets are piecewise-linear instances with
their class membership declared and *verified exactly* from the node data
(monotonicity from the node ordering, the Lipschitz constant from the
steepest piece), not estimated off a grid.

`SignedMeasureModel` pairs a distribution with a regression curve and
materializes nu(A) = integral of m over A against mu.  Its cumulative
function is piecewise quadratic with jumps at the atoms; the construction
precomputes the piece table once, so interval values, cumulative values and
left limits are cheap and vectorized.

`average_over_partition` is the conditional-average projection onto a
dyadic partition: on each cell of positive mu-mass the value is
nu(cell)/mu(cell); zero-mass cells stay at the step function's default 0,
matching the 0/0 = 0 convention of the histogram estimator it approximates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DistributionModel, IntervalA
from .partitions import PiecewiseDyadicFn, adjacent_jumps, cell_of

__all__ = [
    "RegressionModel",
    "SignedMeasureModel",
    "average_over_partition",
]


@dataclass(frozen=True)
class RegressionModel:
    """Bounded regression curve, exactly integrable and of known variation.

    kind "dyadic": step function `fn` on a dyadic partition.
    kind "piecewise_linear": node arrays xs (strictly increasing) and vs;
    linear between nodes, constant outside.

    `monotone` and `lipschitz` record declared class memberships; both are
    checked exactly at construction.  `bound()` is the exact sup of |m|.
    """

    kind: str
    fn: PiecewiseDyadicFn | None = None
    xs: tuple[float, ...] = ()
    vs: tuple[float, ...] = ()
    monotone: bool = False
    lipschitz: float | None = None

    def __post_init__(self):
        if self.kind == "dyadic":
            if self.fn is None:
                raise ValueError("dyadic kind requires fn")
        elif self.kind == "piecewise_linear":
            xs = tuple(float(v) for v in self.xs)
            vs = tuple(float(v) for v in self.vs)
            if len(xs) != len(vs) or len(xs) < 1:
                raise ValueError("need equally many nodes and values, at least one")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError("nodes must be strictly increasing")
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "vs", vs)
        else:
            raise ValueError(f"unknown regression kind {self.kind!r}")
        if self.monotone and not self._is_monotone():
            raise ValueError("declared monotone but node values are not")
        if self.lipschitz is not None:
            c = self._max_slope()
            if c > self.lipschitz:
                raise ValueError(
                    f"declared Lipschitz {self.lipschitz} but steepest piece is {c}"
                )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_dyadic(cls, fn: PiecewiseDyadicFn) -> "RegressionModel":
        return cls(kind="dyadic", fn=fn)

    @classmethod
    def constant(cls, c: float) -> "RegressionModel":
        return cls(kind="dyadic", fn=PiecewiseDyadicFn(0, {0: float(c)}, float(c)))

    @classmethod
    def piecewise_linear(
        cls, xs, vs, monotone: bool = False, lipschitz: float | None = None
    ) -> "RegressionModel":
        return cls(
            kind="piecewise_linear",
            xs=tuple(xs),
            vs=tuple(vs),
            monotone=monotone,
            lipschitz=lipschitz,
        )

    @classmethod
    def identity_on_unit(cls) -> "RegressionModel":
        """m(x) = x on [0, 1], clamped outside; Lipschitz constant 1."""
        return cls.piecewise_linear([0.0, 1.0], [0.0, 1.0], monotone=True, lipschitz=1.0)

    # -- evaluation ------------------------------------------------------------
    def eval(self, x) -> np.ndarray | float:
        scalar = np.ndim(x) == 0
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "dyadic":
            out = np.asarray(self.fn.eval_many(arr), dtype=float)
        else:
            out = np.interp(arr, self.xs, self.vs)
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self.eval(x)

    def _is_monotone(self) -> bool:
        if self.kind == "piecewise_linear":
            dv = np.diff(self.vs)
            return bool(np.all(dv >= 0) or np.all(dv <= 0))
        js = self.fn.support_cells()
        vals: list[float] = [self.fn.default]
        prev = None
        for j in js:
            if prev is not None and j > prev + 1:
                vals.append(self.fn.default)
            vals.append(self.fn.values[j])
            prev = j
        vals.append(self.fn.default)
        dv = np.diff(vals)
        return bool(np.all(dv >= 0) or np.all(dv <= 0))

    def _max_slope(self) -> float:
        if self.kind != "piecewise_linear":
            # any jump breaks every Lipschitz constant
            return math.inf if self.fn.values else 0.0
        dx = np.diff(self.xs)
        dv = np.abs(np.diff(self.vs))
        return float((dv / dx).max()) if len(dx) else 0.0

    def bound(self) -> float:
        if self.kind == "dyadic":
            return max([abs(self.fn.default)] + [abs(v) for v in self.fn.values.values()])
        return float(np.abs(self.vs).max())

    # -- pieces and variation ----------------------------------------------------
    def breakpoints_in(self, a: float, b: float) -> np.ndarray:
        """Interior breakpoints of m strictly inside (a, b)."""
        if self.kind == "piecewise_linear":
            pts = np.asarray(self.xs, dtype=float)
            return pts[(pts > a) & (pts < b)]
        k = self.fn.k
        if k == 0:
            return np.array([])
        w = math.ldexp(1.0, -k)
        j0 = math.floor(a / w) + 1
        j1 = math.ceil(b / w) - 1
        if j1 < j0:
            return np.array([])
        if j1 - j0 > 20_000_000:
            raise ValueError("dyadic refinement too fine for exact integration")
        return np.arange(j0, j1 + 1, dtype=float) * w

    def linear_piece_at(self, x: float) -> tuple[float, float]:
        """(c, s) with m(t) = c + s*t on the piece containing x."""
        c, s = self._linear_pieces(np.array([float(x)]))
        return float(c[0]), float(s[0])

    def _linear_pieces(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`linear_piece_at` at every point of the float array x: (c, s)
        with m(t) = c + s*t on the piece containing each point."""
        if self.kind == "dyadic":
            return self.fn.eval_many(x), np.zeros(len(x))
        xs, vs = np.asarray(self.xs), np.asarray(self.vs)
        left, right = x <= xs[0], x >= xs[-1]
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, max(len(xs) - 2, 0))
        j = np.minimum(i + 1, len(xs) - 1)
        with np.errstate(all="ignore"):  # pieces outside the nodes are discarded
            s = (vs[j] - vs[i]) / (xs[j] - xs[i])
            c = vs[i] - s * xs[i]
        c = np.where(left, vs[0], np.where(right, vs[-1], c))
        return c, np.where(left | right, 0.0, s)

    def variation(self, lo: float, hi: float) -> float:
        """Exact total variation of m on (lo, hi].

        Continuous piecewise-linear curves: sum of |increments| at clipped
        nodes.  Step functions: jumps at cell boundaries strictly inside
        (lo, hi); the jump exactly at lo does not count (grid points in the
        supremum definition exceed the open left endpoint).
        """
        if not lo < hi:
            raise ValueError("need lo < hi")
        if self.kind == "piecewise_linear":
            pts = [lo] + [x for x in self.xs if lo < x < hi] + [hi]
            vals = self.eval(np.asarray(pts))
            return float(math.fsum(abs(float(d)) for d in np.diff(vals)))
        k = self.fn.k
        if k == 0:
            return 0.0
        w = math.ldexp(1.0, -k)
        return math.fsum(d for b, d in adjacent_jumps(self.fn) if lo < b * w < hi)

    def variation_window(self, i: int) -> float:
        """V(m : -i, i)."""
        return self.variation(-float(i), float(i))

    def fits_budget(self, budget, i_max: int) -> bool:
        """Strict V(m:-i,i) < alpha(i) for i = 1..i_max."""
        return all(
            self.variation_window(i) < budget.alpha(i) for i in range(1, i_max + 1)
        )

    def scaled(self, factor: float) -> "RegressionModel":
        if self.kind == "dyadic":
            f = self.fn
            return RegressionModel.from_dyadic(
                PiecewiseDyadicFn(
                    f.k, {j: factor * v for j, v in f.values.items()}, factor * f.default
                )
            )
        return RegressionModel.piecewise_linear(
            self.xs, tuple(factor * v for v in self.vs)
        )

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> dict:
        if self.kind == "dyadic":
            return {"kind": "dyadic", "fn": self.fn.to_dict()}
        return {
            "kind": "piecewise_linear",
            "xs": list(self.xs),
            "vs": list(self.vs),
            "monotone": self.monotone,
            "lipschitz": self.lipschitz,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionModel":
        if d["kind"] == "dyadic":
            return cls.from_dyadic(PiecewiseDyadicFn.from_dict(d["fn"]))
        return cls.piecewise_linear(
            d["xs"], d["vs"], d.get("monotone", False), d.get("lipschitz")
        )


class SignedMeasureModel:
    """nu(A) = integral of m over A against mu, exactly.

    Exposes the cumulative interface the weighted discrepancy scan expects:
    cumulative(t) = nu(-inf, t], cumulative_left(t), breakpoints(), and
    point_mass(u) = mu({u}) * m(u).

    |nu(A)| <= bound(m) * mu(A) holds by construction (m is averaged
    against a nonnegative measure on A).
    """

    def __init__(self, base: DistributionModel, regressor: RegressionModel):
        self.base = base
        self.regressor = regressor
        lows: list[float] = []
        highs: list[float] = []
        dens: list[float] = []  # m = c + s*t against density d on each (lo, hi]
        for a, b, d in base.segments:
            cuts = [a] + [float(t) for t in regressor.breakpoints_in(a, b)] + [b]
            lows += cuts[:-1]
            highs += cuts[1:]
            dens += [d] * (len(cuts) - 1)
        lo = self._piece_lo = np.array(lows, dtype=float)
        hi = self._piece_hi = np.array(highs, dtype=float)
        d = self._coef_d = np.array(dens, dtype=float)
        c, s = self._coef_c, self._coef_s = regressor._linear_pieces((lo + hi) / 2.0)
        # the running sum starts at 0.0, so a first piece of -0.0 gives 0.0
        parts = d * (c * (hi - lo) + 0.5 * s * (hi * hi - lo * lo))
        self._piece_cum = np.cumsum(np.concatenate([[0.0], parts]))
        self._atom_locs = np.array([u for u, _ in base.atoms], dtype=float)
        self._atom_vals = np.array(
            [m * float(regressor.eval(u)) for u, m in base.atoms], dtype=float
        )
        self._atom_cum = np.concatenate([[0.0], np.cumsum(self._atom_vals)])

    def _continuous_cumulative(self, t: np.ndarray) -> np.ndarray:
        n_pieces = len(self._piece_lo)
        if n_pieces == 0:
            return np.zeros_like(t)
        idx = np.searchsorted(self._piece_hi, t, side="left")
        out = self._piece_cum[np.minimum(idx, n_pieces)].copy()
        inside = np.nonzero(idx < n_pieces)[0]
        if len(inside):
            p = idx[inside]
            lo = self._piece_lo[p]
            tt = np.maximum(np.minimum(t[inside], self._piece_hi[p]), lo)
            out[inside] += self._coef_d[p] * (
                self._coef_c[p] * (tt - lo) + 0.5 * self._coef_s[p] * (tt * tt - lo * lo)
            )
        return out

    def cumulative(self, t) -> np.ndarray | float:
        scalar = np.ndim(t) == 0
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = self._atom_cum[np.searchsorted(self._atom_locs, t_arr, side="right")]
        out = out + self._continuous_cumulative(t_arr)
        return float(out[0]) if scalar else out

    def cumulative_left(self, t) -> np.ndarray | float:
        scalar = np.ndim(t) == 0
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = self._atom_cum[np.searchsorted(self._atom_locs, t_arr, side="left")]
        out = out + self._continuous_cumulative(t_arr)
        return float(out[0]) if scalar else out

    def interval(self, A: IntervalA) -> float:
        hi = self.cumulative(A.b)
        lo = 0.0 if A.left_unbounded_kind else self.cumulative(A.a)
        return float(hi - lo)

    def point_mass(self, u: float) -> float:
        return self.base.atom_mass(u) * float(self.regressor.eval(u))

    def breakpoints(self) -> np.ndarray:
        pts = set(map(float, self.base.breakpoints()))
        pts.update(map(float, self._piece_lo))
        pts.update(map(float, self._piece_hi))
        return np.array(sorted(pts), dtype=float)

    def total(self) -> float:
        """integral of m d(mu) over the whole line."""
        pts = self.breakpoints()
        anchor = (float(pts.max()) + 1.0) if len(pts) else 1.0
        return float(self.cumulative(anchor))


def average_over_partition(
    m: RegressionModel, mu: DistributionModel, k: int
) -> PiecewiseDyadicFn:
    """Project m onto the resolution-k partition by mu-conditional averaging.

    Cells with mu(cell) > 0 get nu(cell)/mu(cell); zero-mass cells are left
    unmapped (value 0), aligning with the histogram estimator's 0/0 = 0
    convention so the two are comparable cell by cell.
    """
    nu = SignedMeasureModel(mu, m)
    if k == 0:
        return PiecewiseDyadicFn(0, {0: nu.total()})
    w = math.ldexp(1.0, -k)
    cells: set[int] = set()
    for a, b, d in mu.segments:
        if d == 0:
            continue
        j0 = cell_of(a, k).j
        if a == j0 * w:  # a sits on a boundary: (a, b] starts in the next cell
            j0 += 1
        j1 = cell_of(b, k).j
        if j1 - j0 > 5_000_000:
            raise ValueError("partition too fine for exhaustive cell enumeration")
        cells.update(range(j0, j1 + 1))
    for u, _ in mu.atoms:
        cells.add(cell_of(u, k).j)
    js = np.array(sorted(cells), dtype=float)
    left = (js - 1.0) * w
    right = js * w
    dens = np.maximum(0.0, np.asarray(mu.cdf(right)) - np.asarray(mu.cdf(left)))
    nums = np.asarray(nu.cumulative(right)) - np.asarray(nu.cumulative(left))
    values: dict[int, float] = {}
    for j, den, num in zip(sorted(cells), dens, nums):
        if den > 0:
            values[j] = float(num) / float(den)
    return PiecewiseDyadicFn(k, values, 0.0)
