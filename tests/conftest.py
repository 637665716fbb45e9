"""Shared oracles and random-instance builders for the test suite.

The brute-force discrepancy oracle deliberately knows nothing about left
limits or prefix extrema: it enumerates interval endpoints (every sample
and model breakpoint, each also perturbed by +-1e-9 to approximate limits,
plus a coarse grid), counts points per interval directly, and maximizes
over all O(candidates^2) ordered pairs.  Random models keep densities
at most 0.9 so the perturbation undershoot stays below the 1e-9 tolerance.
"""
from __future__ import annotations

import numpy as np
import pytest

from stableseq.adversary import RademacherFn
from stableseq.measures import DistributionModel, SampleSequence


def grid_breakpoints(target) -> np.ndarray:
    """The target's breakpoints for a reference scan.  nu_k's are its whole
    grid j / 2^k, j = 0..2^k, built here: the library's scan asks nu_k for
    its support ends only, and the references check that nothing is lost."""
    if isinstance(target, RademacherFn):
        return np.arange((1 << target.k) + 1, dtype=float) / (1 << target.k)
    return np.asarray(target.breakpoints(), dtype=float)


def random_mixture_model(rng: np.random.Generator) -> DistributionModel:
    """Random atoms + piecewise-constant-density mixture, densities <= 0.9."""
    n_atoms = int(rng.integers(0, 4))
    n_segs = int(rng.integers(0, 4))
    if n_atoms + n_segs == 0:
        n_segs = 1
    atom_mass_raw = rng.uniform(0.05, 1.0, size=n_atoms)
    seg_mass_raw = rng.uniform(0.1, 1.0, size=n_segs)
    total = atom_mass_raw.sum() + seg_mass_raw.sum()
    atom_mass = atom_mass_raw / total
    seg_mass = seg_mass_raw / total
    atom_locs = rng.uniform(-2.0, 2.0, size=n_atoms)
    while len(np.unique(atom_locs)) != n_atoms:
        atom_locs = rng.uniform(-2.0, 2.0, size=n_atoms)
    densities = rng.uniform(0.2, 0.9, size=n_segs)
    lengths = seg_mass / densities
    cursor = float(rng.uniform(-3.0, -1.0))
    segments = []
    for L, d in zip(lengths, densities):
        a = cursor + float(rng.uniform(0.05, 0.5))
        b = a + float(L)
        segments.append((a, b, float(d)))
        cursor = b
    atoms = tuple((float(u), float(m)) for u, m in zip(atom_locs, atom_mass))
    return DistributionModel(atoms=atoms, segments=tuple(segments))


def brute_force_interval_sup(
    seq: SampleSequence, model: DistributionModel, grid: int = 64
) -> float:
    """Exhaustive-pairs oracle for the interval-class discrepancy.

    Enumerates every ordered candidate-endpoint pair (a, b), a < b, plus
    every half-line, evaluating the deviation |count(a, b]/n - mu(a, b]|
    directly; candidates are the samples and model breakpoints with +-1e-9
    perturbations (in place of left limits) and a coarse grid.  Shares no
    code path with the exact scanner.
    """
    n = len(seq)
    eps = 1e-9
    base = np.concatenate([seq.x, model.breakpoints()])
    cand = np.unique(
        np.concatenate(
            [
                base,
                base - eps,
                base + eps,
                np.linspace(base.min() - 0.5, base.max() + 0.5, grid),
            ]
        )
    )
    f_hat = np.searchsorted(np.sort(seq.x), cand, side="right") / n
    f_mod = np.asarray(model.cdf(cand), dtype=float)
    dev = (f_hat - f_mod)[None, :] - (f_hat - f_mod)[:, None]  # pair (a=i, b=j)
    upper = np.triu_indices(len(cand), k=1)
    best_pairs = float(np.abs(dev[upper]).max()) if len(upper[0]) else 0.0
    best_halflines = float(np.abs(f_hat - f_mod).max())
    return max(best_pairs, best_halflines)


def float_reprs(values) -> list[str]:
    """Floats as reprs, so -0.0 and 0.0 differ."""
    return [repr(float(v)) for v in values]


def cells_view(k, keys, counts, sums) -> dict:
    """Cells as comparable values; the key array's kind (int64, or Python ints
    of dtype object) must be the one `_int_keys` gives."""
    assert keys.dtype == (object if len(keys) and np.abs(keys).max() >= 2**62 else np.int64)
    assert counts.dtype == np.int64 and sums.dtype == np.float64
    return {"k": k, "keys": keys.tolist(), "counts": counts.tolist(), "sums": float_reprs(sums)}


def state_view(state) -> dict:
    """Every field of the state as comparable values: the prefix and the cell
    arrays as lists (floats as reprs), the frozen estimates as their cells and
    value reprs, and the budget as it is."""
    return {
        "budget": state.budget, "tau": state.tau,
        "xs": float_reprs(state.xs), "ys": float_reprs(state.ys),
        "frozen": [(f.k, f.cells.tolist(), float_reprs(f.vals), f.default) for f in state.frozen],
        "cells": cells_view(state._k, state._keys, state._counts, state._sums),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
