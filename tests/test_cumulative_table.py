"""mu and nu share one atom-and-piece cumulative.

The references below are the two evaluators the table replaced, kept as
they computed: `DistributionModel.cdf`/`cdf_left` over atom and segment
arrays, and `SignedMeasureModel.cumulative`/`cumulative_left` over a
piece table with m = c + s*t on each piece.  The shared table must give
the same floats, bit for bit, wherever the references are defined; on a
flat piece so far out that t*t overflows the nu reference gives NaN, and
the table a finite value.
"""
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stableseq.cli import main
from stableseq.measures import DistributionModel
from stableseq.partitions import PiecewiseDyadicFn
from stableseq.regression import RegressionModel, SignedMeasureModel


def ref_cdf(model: DistributionModel, t: np.ndarray, side: str) -> np.ndarray:
    """mu(-inf, t] (side "right") or mu(-inf, t) (side "left")."""
    atom_locs = np.array([u for u, _ in model.atoms], dtype=float)
    atom_mass = np.array([m for _, m in model.atoms], dtype=float)
    atom_cum = np.concatenate([[0.0], np.cumsum(atom_mass)])
    seg_a = np.array([a for a, _, _ in model.segments], dtype=float)
    seg_b = np.array([b for _, b, _ in model.segments], dtype=float)
    seg_d = np.array([d for _, _, d in model.segments], dtype=float)
    seg_cum = np.concatenate([[0.0], np.cumsum(seg_d * (seg_b - seg_a))])
    if len(seg_a) == 0:
        cont = np.zeros_like(t)
    else:
        idx = np.searchsorted(seg_b, t, side="left")
        cont = seg_cum[np.minimum(idx, len(seg_a))].copy()
        inside = idx < len(seg_a)
        if np.any(inside):
            ii = idx[inside]
            part = np.maximum(0.0, np.minimum(t[inside], seg_b[ii]) - seg_a[ii])
            cont[inside] += seg_d[ii] * part
    return atom_cum[np.searchsorted(atom_locs, t, side=side)] + cont


class RefSignedMeasure:
    """nu(A) = integral of m over A against mu, by the nine-array table."""

    def __init__(self, base: DistributionModel, regressor: RegressionModel):
        lows, highs, dens = [], [], []
        for a, b, d in base.segments:
            cuts = [a] + [float(t) for t in regressor.breakpoints_in(a, b)] + [b]
            lows += cuts[:-1]
            highs += cuts[1:]
            dens += [d] * (len(cuts) - 1)
        lo = self.piece_lo = np.array(lows, dtype=float)
        hi = self.piece_hi = np.array(highs, dtype=float)
        d = self.coef_d = np.array(dens, dtype=float)
        c, s = self.coef_c, self.coef_s = regressor._linear_pieces((lo + hi) / 2.0)
        parts = d * (c * (hi - lo) + 0.5 * s * (hi * hi - lo * lo))
        self.piece_cum = np.cumsum(np.concatenate([[0.0], parts]))
        self.atom_locs = np.array([u for u, _ in base.atoms], dtype=float)
        vals = np.array([m * float(regressor.eval(u)) for u, m in base.atoms], dtype=float)
        self.atom_cum = np.concatenate([[0.0], np.cumsum(vals)])

    def _continuous(self, t: np.ndarray) -> np.ndarray:
        n_pieces = len(self.piece_lo)
        if n_pieces == 0:
            return np.zeros_like(t)
        idx = np.searchsorted(self.piece_hi, t, side="left")
        out = self.piece_cum[np.minimum(idx, n_pieces)].copy()
        inside = np.nonzero(idx < n_pieces)[0]
        if len(inside):
            p = idx[inside]
            lo = self.piece_lo[p]
            tt = np.maximum(np.minimum(t[inside], self.piece_hi[p]), lo)
            out[inside] += self.coef_d[p] * (
                self.coef_c[p] * (tt - lo) + 0.5 * self.coef_s[p] * (tt * tt - lo * lo)
            )
        return out

    def cumulative(self, t: np.ndarray, side: str) -> np.ndarray:
        out = self.atom_cum[np.searchsorted(self.atom_locs, t, side=side)]
        return out + self._continuous(t)

    def total(self, breakpoints: np.ndarray) -> float:
        anchor = (float(breakpoints.max()) + 1.0) if len(breakpoints) else 1.0
        return float(self.cumulative(np.array([anchor]), "right")[0])


_GRID = st.integers(-32, 32).map(lambda i: i / 8)
_ENDS = _GRID | st.sampled_from([-0.0, 0.0]) | st.floats(-4.0, 4.0)
_VALUES = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 1.0]) | st.floats(-3.0, 3.0)


@st.composite
def mixtures(draw) -> DistributionModel:
    """Atoms, some at segment ends, and segments with gaps and zero densities."""
    ends = sorted(set(draw(st.lists(_ENDS, max_size=6))))
    segments = []
    for a, b in zip(ends, ends[1:]):
        if draw(st.booleans()):
            d = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0))
            segments.append((a, b, d))
    locs = draw(st.lists(st.sampled_from(ends) | _ENDS, max_size=4)) if ends else []
    locs = list({u: None for u in locs})  # distinct values; -0.0 equals 0.0
    masses = draw(st.lists(st.floats(0.01, 1.0), min_size=len(locs), max_size=len(locs)))
    total = math.fsum(masses + [d * (b - a) for a, b, d in segments])
    if not total > 1e-3:  # d / total could overflow: one atom holds the mass
        segments = [(a, b, 0.0) for a, b, _ in segments]
        locs, masses, total = [0.5], [1.0], 1.0
    return DistributionModel(
        atoms=tuple((u, m / total) for u, m in zip(locs, masses)),
        segments=tuple((a, b, d / total) for a, b, d in segments),
    )


@st.composite
def regressors(draw) -> RegressionModel:
    """Piecewise-linear curves (sloped, flat, negative) or dyadic steps."""
    if draw(st.booleans()):
        xs = sorted(set(draw(st.lists(_GRID, min_size=1, max_size=5))))
        vs = draw(st.lists(_VALUES, min_size=len(xs), max_size=len(xs)))
        return RegressionModel.piecewise_linear(xs, vs)
    k = draw(st.integers(0, 3))
    if k == 0:
        return RegressionModel.from_dyadic(PiecewiseDyadicFn(0, {0: draw(_VALUES)}, draw(_VALUES)))
    cells = draw(st.dictionaries(st.integers(-4 << k, 4 << k), _VALUES, max_size=6))
    return RegressionModel.from_dyadic(PiecewiseDyadicFn(k, cells, draw(_VALUES)))


def query_points(extra, model: DistributionModel, nu: SignedMeasureModel) -> np.ndarray:
    """The breakpoints of mu and nu and their float neighbours, +-0.0,
    +-inf, NaN and the drawn points."""
    bks = np.concatenate([model.breakpoints(), nu.breakpoints()])
    near = [np.nextafter(bks, -np.inf), bks, np.nextafter(bks, np.inf)]
    fixed = [0.0, -0.0, np.inf, -np.inf, np.nan]
    return np.concatenate(near + [np.array(fixed + extra, dtype=float)])


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(mixtures(), regressors(), st.lists(st.floats(), max_size=8))
def test_table_equals_the_two_evaluators(model, regressor, extra):
    nu = SignedMeasureModel(model, regressor)
    ref = RefSignedMeasure(model, regressor)
    t = query_points(extra, model, nu)
    assert same_bits(model.cdf(t), ref_cdf(model, t, "right"))
    assert same_bits(model.cdf_left(t), ref_cdf(model, t, "left"))
    assert same_bits(nu.cumulative(t), ref.cumulative(t, "right"))
    assert same_bits(nu.cumulative_left(t), ref.cumulative(t, "left"))
    assert repr(nu.total()) == repr(ref.total(nu.breakpoints()))
    for u in t[:3].tolist():  # a scalar in gives the same float out
        assert repr(model.cdf(u)) == repr(float(ref_cdf(model, np.array([u]), "right")[0]))
        assert repr(nu.cumulative_left(u)) == repr(float(ref.cumulative(np.array([u]), "left")[0]))


FAR_FLAT = {"atoms": [], "segments": [[0.0, 1e200, 1e-200]]}


def test_far_flat_segment_is_finite():
    """The reference squares t on flat pieces too: 0 * inf is NaN there."""
    mu = DistributionModel.from_dict(FAR_FLAT)
    nu = SignedMeasureModel(mu, RegressionModel.piecewise_linear([0.0], [0.5]))
    t = np.array([-1.0, 0.0, 1.0, 1e150, 1e199, 1e200, 1e300, np.inf])
    got = nu.cumulative(t)
    assert np.isfinite(got).all()
    assert same_bits(got, 0.5 * mu.cdf(t))
    assert same_bits(nu.cumulative_left(t), 0.5 * mu.cdf_left(t))
    assert nu.total() == 0.5 * mu.cdf(1e200)


def test_generate_on_a_far_flat_segment_writes_no_nan(tmp_path):
    cfg = {"kind": "iid", "n": 256, "seed": 3, "distribution": FAR_FLAT,
           "regression": {"kind": "piecewise_linear", "xs": [0.0], "vs": [0.5]},
           "noise": {"kind": "binary"}}
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["generate", "--config", str(path), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "stability_report.json").read_text(encoding="utf-8")
    assert "NaN" not in text and "Infinity" not in text
