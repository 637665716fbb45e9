"""Dyadic partitions of the real line and step functions on their cells.

The partition at resolution k >= 1 consists of the half-open intervals

    A_{k,j} = ((j-1)/2^k, j/2^k],     j in Z,

which are disjoint, cover R, and refine as k grows (each cell of level k is
the union of two cells of level k+1).  Resolution k = 0 denotes the trivial
one-cell partition {R}.

Cell membership is decided exactly: x lies in cell ceil(x * 2^k), with the
boundary case x * 2^k integral mapping to that integer (right-closed
convention).  Scaling by 2^k is an exponent shift, exact for every finite x
unless it overflows, and ceil of a float is exact.  This matters because
atom semantics at cell edges feed directly into measure queries downstream;
floating rounding in the scaling step would silently move boundary points
across cells.

A `PiecewiseDyadicFn` is a sparse, immutable step function: a map from cell
index to value, a default for unmapped cells, and the resolution.  Its total
variation on a window (-i, i] is a finite sum of adjacent-cell differences,
which is also the supremum-over-grids definition of variation for such step
functions (jumps at the window's open left edge do not count; jumps at
interior cell boundaries do).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping


def _numbers(values, integer: bool = False):
    """values, a list of numbers (integers with integer=True), checked in one
    pass over their types: the `from_dict` readers take JSON numbers only, so
    a bool, a string, null or a float for an integer raises ValueError."""
    kind = numbers.Integral if integer else numbers.Real
    for t in set(map(type, values)):
        if issubclass(t, bool) or not issubclass(t, kind):
            bad = next(v for v in values if type(v) is t)
            raise ValueError(f"{bad!r} is not {'an integer' if integer else 'a number'}")
    return values


@dataclass(frozen=True)
class DyadicCell:
    """Cell A_{k,j} = ((j-1)/2^k, j/2^k]; k = 0 is the whole line."""

    k: int
    j: int

    def bounds(self) -> tuple[float, float]:
        if self.k == 0:
            return (-math.inf, math.inf)
        w = math.ldexp(1.0, -self.k)
        return ((self.j - 1) * w, self.j * w)

    def parent(self) -> "DyadicCell":
        if self.k == 0:
            raise ValueError("the whole-line cell has no parent")
        if self.k == 1:
            return DyadicCell(0, 0)
        # child j of level k sits inside cell ceil(j/2) of level k-1
        return DyadicCell(self.k - 1, -((-self.j) // 2))


def cell_of(x: float, k: int) -> DyadicCell:
    """Return the unique resolution-k cell containing x.

    Exact on boundaries at every resolution: ldexp scales x by 2^k with no
    rounding, so ceil() never sees a rounded value.  Boundary points
    (x * 2^k integral) map to that integer: right-closed convention.

    Raises OverflowError when x * 2^k overflows or the cell index would
    exceed a 256-bit range (far beyond any usable partition depth).
    """
    if k < 0:
        raise ValueError(f"resolution must be >= 0, got {k}")
    if k == 0:
        return DyadicCell(0, 0)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot locate {x!r} in a dyadic cell")
    j = math.ceil(math.ldexp(x, k))
    if j.bit_length() > 256:
        raise OverflowError(
            f"cell index at resolution {k} exceeds the supported integer range"
        )
    return DyadicCell(k, j)


def _cell_indices(xs, k: int):
    """`cell_of(x, k).j` for every x of a float array, as integral floats;
    NaN where x is non-finite or, for k >= 1, where the index is at or
    beyond 2^256 (where `cell_of` raises)."""
    import numpy as np

    if k == 0:  # the one cell, index 0
        return np.where(np.isfinite(xs), 0.0, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf
        scaled = np.ceil(np.ldexp(xs, k))
    return np.where(np.abs(scaled) < 2.0**256, scaled, np.nan)


@dataclass(frozen=True)
class PiecewiseDyadicFn:
    """Sparse step function, constant on the cells of one dyadic partition.

    `values` maps cell index -> value; unmapped cells take `default`.
    Instances are value types: nothing mutates them after construction, so
    they are safe to share across threads.
    """

    k: int
    values: Mapping[int, float] = field(default_factory=dict)
    default: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("resolution must be >= 0")
        if self.k == 0 and any(j != 0 for j in self.values):
            raise ValueError("the one-cell partition only has index 0")

    def __call__(self, x: float) -> float:
        return self.value_at_cell(cell_of(x, self.k).j)

    def value_at_cell(self, j: int) -> float:
        return self.values.get(j, self.default)

    def eval_many(self, xs) -> "object":
        """Vectorized `__call__`; NaN or +-inf anywhere raises ValueError, and
        an x that `cell_of` cannot locate raises OverflowError."""
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        if not np.isfinite(xs).all():
            raise ValueError("cannot locate non-finite values in a dyadic cell")
        if self.k == 0:
            return np.full(xs.shape, self.values.get(0, self.default), dtype=float)
        scaled = _cell_indices(xs, self.k)
        if np.isnan(scaled).any():
            raise OverflowError(
                f"cell index at resolution {self.k} exceeds the supported integer range"
            )
        # integral floats hash and compare equal to the int keys
        get, default = self.values.get, self.default
        out = [get(j, default) for j in scaled.ravel().tolist()]
        return np.array(out, dtype=float).reshape(xs.shape)

    def support_cells(self) -> list[int]:
        """Mapped cell indices in increasing order."""
        return sorted(self.values)

    def to_dict(self) -> dict:
        values = self.values
        return {
            "k": self.k,
            "default": self.default,
            "cells": [[j, float(values[j])] for j in sorted(values)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewiseDyadicFn":
        cells, k, default = d["cells"], d["k"], d["default"]
        _numbers([k] + [j for j, _ in cells], integer=True)
        _numbers([default] + [v for _, v in cells])
        return cls(int(k), {int(j): float(v) for j, v in cells}, float(default))


def adjacent_jumps(f: PiecewiseDyadicFn):
    """Yield (b, |f(A_b) - f(A_{b+1})|) for every nonzero jump, ascending in b.

    Boundary b (the point b/2^k) separates cells b and b+1.  Only mapped
    cells can border a jump: each claims its left boundary, and its right
    one when the right neighbor is unmapped.
    """
    values, default = f.values, f.default
    for j in sorted(values):
        v = values[j]
        left = values.get(j - 1, default)
        if left != v:
            yield j - 1, abs(v - left)
        if (j + 1) not in values and v != default:
            yield j, abs(v - default)


def _smallest_window(b: int, k: int) -> int:
    """Smallest i >= 1 with boundary b inside (-i, i), i.e. -i*2^k < b < i*2^k:
    ceil((|b| + 1) / 2^k)."""
    return -((-1 - abs(b)) >> k)


def total_variation_window(f: PiecewiseDyadicFn, i: int) -> float:
    """Total variation of f on the window (-i, i].

    Equals the sum of |f(A_{k,j}) - f(A_{k,j+1})| over adjacent cell pairs
    with both cells inside the window, i.e. boundaries b ranging over
    [-i*2^k + 1, i*2^k - 1].  The jump *into* the window at -i is excluded
    (grid points in the supremum definition are strictly greater than the
    left endpoint); jumps at interior boundaries, including transitions
    to/from unmapped default cells, are included.

    The sum is a correctly-rounded fsum of the nonzero adjacent
    differences, so it depends only on the multiset of cell values, never
    on accumulation order.
    """
    if i < 1:
        raise ValueError("window radius must be >= 1")
    if f.k == 0:
        return 0.0
    span = i << f.k  # i * 2^k
    return math.fsum(d for b, d in adjacent_jumps(f) if -span < b < span)


@dataclass(frozen=True)
class VariationBudget:
    """Non-decreasing bound alpha(i) on variation over windows (-i, i].

    Three closed forms cover the use cases: a constant (monotone bounded
    targets admit alpha = 2M), an affine map alpha(i) = slope*i + intercept
    (Lipschitz targets with constant C admit slope 2C and any positive
    intercept), and an explicit table (last entry extends to all larger i).
    """

    kind: str
    constant: float = 0.0
    slope: float = 0.0
    intercept: float = 0.0
    table: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "constant":
            if not self.constant > 0:
                raise ValueError("constant budget must be positive")
        elif self.kind == "affine":
            if self.slope < 0 or self.intercept < 0 or self.slope + self.intercept <= 0:
                raise ValueError("affine budget must be nonnegative and positive at i=1")
        elif self.kind == "table":
            if not self.table or any(v <= 0 for v in self.table):
                raise ValueError("table budget must be positive")
            if any(b < a for a, b in zip(self.table, self.table[1:])):
                raise ValueError("budget must be non-decreasing")
        else:
            raise ValueError(f"unknown budget kind {self.kind!r}")

    def alpha(self, i: int) -> float:
        if i < 1:
            raise ValueError("budget is defined on positive integers")
        if self.kind == "constant":
            return self.constant
        if self.kind == "affine":
            return self.slope * i + self.intercept
        return self.table[min(i, len(self.table)) - 1]

    @classmethod
    def const(cls, c: float) -> "VariationBudget":
        return cls(kind="constant", constant=float(c))

    @classmethod
    def affine(cls, slope: float, intercept: float) -> "VariationBudget":
        return cls(kind="affine", slope=float(slope), intercept=float(intercept))

    @classmethod
    def from_table(cls, values) -> "VariationBudget":
        return cls(kind="table", table=tuple(float(v) for v in values))

    def to_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "c": self.constant}
        if self.kind == "affine":
            return {"kind": "affine", "slope": self.slope, "intercept": self.intercept}
        return {"kind": "table", "values": list(self.table)}

    @classmethod
    def from_dict(cls, d: dict) -> "VariationBudget":
        kind = d["kind"]
        if kind == "constant":
            return cls.const(*_numbers([d["c"]]))
        if kind == "affine":
            return cls.affine(*_numbers([d["slope"], d["intercept"]]))
        if kind == "table":
            return cls.from_table(_numbers(d["values"]))
        raise ValueError(f"unknown budget kind {kind!r}")
