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

A `PiecewiseDyadicFn` is a sparse, immutable step function: the sorted
indices of its mapped cells and their values, as two arrays, a default for
every other cell, and the resolution.  Its total variation on a window
(-i, i] is a finite sum of adjacent-cell differences, which is also the
supremum-over-grids definition of variation for such step functions (jumps
at the window's open left edge do not count; jumps at interior cell
boundaries do).  `adjacent_jumps` enumerates those differences, and every
variation sum reads it.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

_PIECE = 4096  # cells `PiecewiseDyadicFn.write_json` formats at a time


def _numbers(values, integer: bool = False, finite: bool = False):
    """values, a list of numbers (integers with integer=True), checked in one
    pass over their types: the `from_dict` readers take JSON numbers only, so
    a bool, a string, null or a float for an integer raises ValueError, and
    with finite=True so does NaN or an infinity."""
    kind = numbers.Integral if integer else numbers.Real
    for t in set(map(type, values)):
        if issubclass(t, bool) or not issubclass(t, kind):
            bad = next(v for v in values if type(v) is t)
            raise ValueError(f"{bad!r} is not {'an integer' if integer else 'a number'}")
    if finite and not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"{bad!r} is not a finite number")
    return values


def cell_of(x: float, k: int) -> int:
    """Return the index j of the unique resolution-k cell A_{k,j} containing
    x; k = 0 has the one cell, index 0.

    Exact on boundaries at every resolution: ldexp scales x by 2^k with no
    rounding, so ceil() never sees a rounded value.  Boundary points
    (x * 2^k integral) map to that integer: right-closed convention.

    Raises OverflowError when x * 2^k overflows or the cell index would
    exceed a 256-bit range (far beyond any usable partition depth).
    """
    if k < 0:
        raise ValueError(f"resolution must be >= 0, got {k}")
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot locate {x!r} in a dyadic cell")
    if k == 0:
        return 0
    j = math.ceil(math.ldexp(x, k))
    if j.bit_length() > 256:
        raise OverflowError(
            f"cell index at resolution {k} exceeds the supported integer range"
        )
    return j


def _cell_indices(xs, k: int):
    """`cell_of(x, k)` for every x of a float array, as integral floats;
    NaN where x is non-finite or, for k >= 1, where the index is at or
    beyond 2^256 (where `cell_of` raises)."""
    if k == 0:  # the one cell, index 0
        return np.where(np.isfinite(xs), 0.0, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf
        scaled = np.ceil(np.ldexp(xs, k))
    return np.where(np.abs(scaled) < 2.0**256, scaled, np.nan)


def _int_keys(keys: np.ndarray) -> np.ndarray:
    """Integral floats, or Python ints of dtype object, as int64, or as Python
    ints of dtype object when one is beyond 2^62 (int64 room for b + 1)."""
    if not len(keys) or np.abs(keys).max() < 2.0**62:
        return keys.astype(np.int64)
    return np.array([int(v) for v in keys.tolist()], dtype=object)


class PiecewiseDyadicFn:
    """Sparse step function, constant on the cells of one dyadic partition.

    `cells` holds the mapped cell indices in increasing order, as `_int_keys`
    makes them, and `vals` their values as float64; every other cell takes
    `default`.  Instances are value types: the arrays are read-only and
    nothing mutates them after construction, so they are safe to share
    across threads.
    """

    def __init__(self, k: int, values=None, default: float = 0.0):
        """`values` is a mapping cell -> value, for small literal functions,
        or the pair (cells, vals) of arrays as the attributes hold them."""
        if values is None or isinstance(values, Mapping):
            js = sorted(values or ())
            cells, vals = _int_keys(np.array(js, dtype=object)), [values[j] for j in js]
        else:
            cells, vals = values
        vals = np.asarray(vals, dtype=float)
        if k < 0:
            raise ValueError("resolution must be >= 0")
        if k == 0 and (cells != 0).any():
            raise ValueError("the one-cell partition only has index 0")
        cells.flags.writeable = vals.flags.writeable = False
        self.k, self.cells, self.vals, self.default = k, cells, vals, default

    @property
    def values(self) -> Mapping[int, float]:
        """The read-only mapping cell -> value, built from the arrays."""
        return MappingProxyType(dict(zip(self.cells.tolist(), self.vals.tolist())))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewiseDyadicFn)
            and (self.k, self.default) == (other.k, other.default)
            and np.array_equal(self.cells, other.cells)
            and np.array_equal(self.vals, other.vals)
        )

    def __repr__(self) -> str:
        return f"PiecewiseDyadicFn({self.k}, {dict(self.values)!r}, {self.default!r})"

    @property
    def dyadic_resolution(self) -> int:
        """max(k, 1): f is constant on every cell of this resolution."""
        return max(self.k, 1)

    def __call__(self, x):
        """f(x): a float for a scalar x, located by `cell_of` with its errors,
        and `eval_many(x)` for an array."""
        if np.ndim(x):
            return self.eval_many(x)
        return self.value_at_cell(cell_of(x, self.k))

    def value_at_cell(self, j: int) -> float:
        return float(self._at(_int_keys(np.array([j], dtype=object)))[0])

    def _at(self, js: np.ndarray) -> np.ndarray:
        """The values at the cell indices js, integers as `_int_keys` makes them."""
        cells = self.cells
        if not len(cells):
            return np.full(len(js), self.default, dtype=float)
        pos = np.minimum(np.searchsorted(cells, js), len(cells) - 1)
        return np.where(cells[pos] == js, self.vals[pos], self.default)

    def eval_many(self, xs) -> np.ndarray:
        """Vectorized `__call__`; NaN or +-inf anywhere raises ValueError, and
        an x that `cell_of` cannot locate raises OverflowError."""
        xs = np.asarray(xs, dtype=float)
        if not np.isfinite(xs).all():
            raise ValueError("cannot locate non-finite values in a dyadic cell")
        scaled = _cell_indices(xs.ravel(), self.k)
        if np.isnan(scaled).any():
            raise OverflowError(
                f"cell index at resolution {self.k} exceeds the supported integer range"
            )
        return self._at(_int_keys(scaled)).reshape(xs.shape)

    def to_dict(self) -> dict:
        cells = zip(self.cells.tolist(), self.vals.tolist())
        return {"k": self.k, "default": self.default, "cells": [[j, v] for j, v in cells]}

    def write_json(self, pad: str, write) -> None:
        """Write the text of `json.dumps(self.to_dict(), sort_keys=True,
        indent=2)` at the indentation pad, from the arrays `_PIECE` cells at
        a time: json writes an int as `int.__repr__`, a finite float as
        `float.__repr__` and any other float as NaN or +-Infinity."""
        inner, cell = pad + "  ", pad + "    "
        write(f'{{\n{inner}"cells": ')
        sep = "[\n"
        for lo in range(0, len(self.cells), _PIECE):
            vs = self.vals[lo:lo + _PIECE]
            text = float.__repr__ if np.isfinite(vs).all() else json.dumps
            write(sep + ",\n".join(
                f"{cell}[\n{cell}  {j},\n{cell}  {text(v)}\n{cell}]"
                for j, v in zip(self.cells[lo:lo + _PIECE].tolist(), vs.tolist())
            ))
            sep = ",\n"
        write(f"\n{inner}]" if len(self.cells) else "[]")
        write(f',\n{inner}"default": {json.dumps(self.default)},')
        write(f'\n{inner}"k": {json.dumps(self.k)}\n{pad}}}')

    @classmethod
    def from_dict(cls, d) -> "PiecewiseDyadicFn":
        """The inverse of `to_dict`; cells may come in any order, and a
        repeated cell keeps its last value.  d may also be what `object_hook`
        made of the dict: the function, or the exception to raise."""
        if isinstance(d, Exception):
            raise d
        if isinstance(d, cls):
            return d
        cells, k, default = d["cells"], d["k"], d["default"]
        _numbers([k] + [j for j, _ in cells], integer=True)
        _numbers([default] + [v for _, v in cells], finite=True)
        # a cell's first place in the reversed list holds its last value
        js = _int_keys(np.array([j for j, _ in reversed(cells)], dtype=object))
        js, last = np.unique(js, return_index=True)
        vals = np.array([v for _, v in reversed(cells)], dtype=float)[last]
        return cls(int(k), (js, vals), float(default))

    @classmethod
    def object_hook(cls, d: dict):
        """`json.load`'s object_hook: an object with exactly the keys cells,
        default and k becomes its function as soon as it is parsed, so a file
        of many holds one function's lists at a time.  One that `from_dict`
        rejects becomes the exception, without its traceback, for `from_dict`
        to raise where the caller reads it, in the order a plain parse would."""
        if d.keys() != {"cells", "default", "k"}:
            return d
        try:
            return cls.from_dict(d)
        except (ArithmeticError, LookupError, TypeError, ValueError) as e:
            return e.with_traceback(None)


def adjacent_jumps(f: PiecewiseDyadicFn) -> tuple[np.ndarray, np.ndarray]:
    """(b, d): every jump d = f(A_{b+1}) - f(A_b) with f(A_b) != f(A_{b+1})
    (so 0.0 beside -0.0 is none, and NaN always one), ascending in the
    boundary b, the point b/2^k.  Only mapped cells can border a jump: each
    claims its left boundary, and its right one when the right neighbour is
    unmapped.  Every variation sum reads |d|."""
    cells, vals, default = f.cells, f.vals, f.default
    n = len(vals)
    adjacent = cells[1:] - cells[:-1] == 1
    left = np.full(n, default)
    left[1:][adjacent] = vals[:-1][adjacent]
    open_right = np.ones(n, dtype=bool)
    open_right[:-1] = ~adjacent
    # slot 2i holds cell i's left boundary, slot 2i + 1 its right one
    b, d, jump = np.empty(2 * n, dtype=cells.dtype), np.empty(2 * n), np.empty(2 * n, dtype=bool)
    b[0::2], b[1::2] = cells - 1, cells
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is no jump
        d[0::2], d[1::2] = vals - left, default - vals
    jump[0::2], jump[1::2] = vals != left, open_right & (vals != default)
    return b[jump], d[jump]


def _variation_inside(f: PiecewiseDyadicFn, lo, hi) -> float:
    """The fsum of the jumps' absolute values at the boundaries lo < b < hi."""
    b, d = adjacent_jumps(f)
    return math.fsum(np.abs(d[(lo < b) & (b < hi)]).tolist())


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
    return _variation_inside(f, -span, span)


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
        if any(map(math.isnan, (self.constant, self.slope, self.intercept, *self.table))):
            raise ValueError("budget numbers must not be NaN")
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
