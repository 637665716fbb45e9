"""Finite prefixes of stable sequences from several mechanisms.

Every generator is a pure function of its spec and seed: the random source
is a counter-based Philox generator keyed by (seed, stream), which is
bit-stable across platforms and runs, so identical specs reproduce
identical CSV bytes.

Mechanisms:

  * gen_iid          -- x i.i.d. from a mixture model via the exact quantile
                        transform; y with conditional mean m(x) under
                        binary, bounded-uniform, or no noise.
  * gen_markov       -- a stationary finite-state chain embedded in [0, 1];
                        the limiting distribution is its stationary law,
                        exactly representable as atoms.
  * gen_deterministic-- the base-2 van der Corput sequence (0.5, 0.25,
                        0.75, 0.125, ...) with y = m(x): a genuinely
                        non-random input whose empirical law converges to
                        uniform[0,1] at rate O(log n / n).
  * gen_harmonic_approach -- x_i = -1/(i+1), y = 0: the canonical sequence
                        whose empirical CDF converges pointwise to the unit
                        mass at 0 while the point 0 itself is never sampled,
                        so atom frequencies do not converge.
  * gen_nonergodic_mixture -- draw one component by weight, then i.i.d.
                        within it; the whole path is stable for the chosen
                        component.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DistributionModel, SampleSequence
from .regression import RegressionModel

__all__ = [
    "RandomSource",
    "GeneratorError",
    "van_der_corput",
    "gen_iid",
    "gen_markov",
    "gen_deterministic",
    "gen_harmonic_approach",
    "gen_nonergodic_mixture",
    "markov_stationary_model",
]


class GeneratorError(ValueError):
    """A generator precondition is violated."""


@dataclass(frozen=True)
class RandomSource:
    """Deterministic counter-based randomness, keyed by a 64-bit seed.

    Each (seed, stream) pair yields an independent, reproducible stream;
    generators derive sub-streams rather than sharing one cursor, so
    composite experiments stay reproducible under reordering.
    """

    seed: int

    def generator(self, stream: int = 0, sub: int = 0) -> np.random.Generator:
        """Generator for (stream, sub); sub separates the roles inside one
        logical stream (e.g. covariate draws vs label noise), so a prefix of
        draws does not depend on how many are requested in total."""
        word = ((stream << 1) | (sub & 1)) % (1 << 64)
        key = np.array([self.seed % (1 << 64), word], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


_REVERSED_BYTE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def van_der_corput(n: int, start: int = 1) -> np.ndarray:
    """First n base-2 radical inverses of start, start+1, ...

    The radical inverse of i with nbits binary digits is rev(i) / 2^nbits,
    where rev reverses those digits.  The reversal runs a byte at a time on
    unsigned integer arrays (32-bit when the indices fit), each byte
    reversed by a 256-entry table, so it takes ceil(nbits / 8) passes and
    memory stays a few arrays of length n.  It reverses whole bytes, so it
    gives rev(i) * 2^s with s = 8 ceil(nbits / 8) - nbits, divided by
    2^(nbits + s).  Exact: rev(i) < 2^53 converts to float64 without
    rounding (above that, rounding does not depend on the factor 2^s), and
    ldexp only moves the exponent.
    """
    if n <= 0:
        return np.zeros(0, dtype=float)
    nbytes = -(-int(start + n - 1).bit_length() // 8)
    word = np.uint32 if nbytes <= 4 else np.uint64
    table = _REVERSED_BYTE.astype(word)
    ii = np.arange(start, start + n, dtype=word)
    rev = np.zeros(n, dtype=word)
    byte = np.empty(n, dtype=np.intp)
    reversed_byte = np.empty(n, dtype=word)
    for _ in range(nbytes):
        np.bitwise_and(ii, 0xFF, out=byte)
        np.take(table, byte, out=reversed_byte, mode="clip")  # unbuffered; no byte is clipped
        rev <<= 8
        rev |= reversed_byte
        ii >>= 8
    del ii, byte, reversed_byte
    return np.ldexp(rev, -8 * nbytes)


def _apply_noise(base: np.ndarray, noise: str, delta: float, gen) -> np.ndarray:
    if noise == "none":
        return base.copy()
    if noise == "binary":
        if np.any((base < 0.0) | (base > 1.0)):
            bad = base[(base < 0.0) | (base > 1.0)][0]
            raise GeneratorError(
                f"binary noise needs 0 <= m(x) <= 1 everywhere sampled; saw {bad}"
            )
        u = gen.random(len(base))
        return (u < base).astype(float)
    if noise == "uniform":
        if not np.isfinite(delta) or delta < 0:
            raise GeneratorError("bounded-uniform noise needs a finite delta >= 0")
        u = gen.random(len(base))
        return base + delta * (2.0 * u - 1.0)
    raise GeneratorError(f"unknown noise kind {noise!r}")


def gen_iid(
    mu: DistributionModel,
    m: RegressionModel,
    noise: str,
    n: int,
    src: RandomSource,
    delta: float = 0.0,
    stream: int = 0,
) -> SampleSequence:
    """n i.i.d. draws from mu with E[y | x] = m(x) and |y| bounded.

    Covariates and label noise use separate substreams, so the first m
    pairs are the same whatever total n is requested (prefix-consistent).
    """
    u = src.generator(stream, sub=0).random(n)
    x = mu.inverse_cdf(u) if n else np.zeros(0)
    base = np.atleast_1d(np.asarray(m.eval(x), dtype=float))
    y = _apply_noise(base, noise, delta, src.generator(stream, sub=1)) if n else np.zeros(0)
    return SampleSequence(np.asarray(x, dtype=float), y)


def _depths(adj: list[list[int]]) -> dict[int, int]:
    """The BFS depth from state 0 of each state it reaches along adj."""
    depth, order = {0: 0}, [0]
    for u in order:  # the list grows while it is walked: a FIFO queue
        for v in adj[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                order.append(v)
    return depth


def _transition_matrix(transition) -> np.ndarray:
    """The transition matrix as floats, checked to be a stochastic matrix of
    an irreducible, aperiodic chain.  Irreducible: a BFS from state 0 reaches
    every state along the edges and along the reversed edges.  The period is
    the gcd of depth(u) + 1 - depth(v) over every edge u -> v."""
    try:
        t = np.asarray(transition, dtype=float)
    except ValueError as e:  # rows of unequal length
        raise GeneratorError("transition must be a square matrix") from e
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise GeneratorError("transition must be a square matrix")
    if np.any(t < 0):
        raise GeneratorError("transition entries must be nonnegative")
    if not np.isfinite(t).all():  # a NaN row sum passes the check below
        raise GeneratorError("transition entries must be finite")
    if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
        raise GeneratorError("transition rows must sum to 1 within 1e-12")
    s = t.shape[0]
    adj, radj = ([np.flatnonzero(row > 0).tolist() for row in a] for a in (t, t.T))
    depth = _depths(adj)
    if len(depth) != s or len(_depths(radj)) != s:
        raise GeneratorError("transition matrix is reducible")
    if math.gcd(*(depth[u] + 1 - depth[v] for u in range(s) for v in adj[u])) != 1:
        raise GeneratorError("transition matrix is periodic")
    return t


def _stationary(t: np.ndarray) -> np.ndarray:
    """The stationary law of the chain t, in state order."""
    s = t.shape[0]
    a = np.vstack([t.T - np.eye(s), np.ones((1, s))])
    b = np.concatenate([np.zeros(s), [1.0]])
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def markov_stationary_model(states, transition) -> DistributionModel:
    """Stationary law of the chain as an atomic distribution model."""
    pi = _stationary(_transition_matrix(transition))
    return DistributionModel.atomic(
        [(float(v), float(p)) for v, p in zip(states, pi)]
    )


def gen_markov(
    states,
    transition,
    m: RegressionModel,
    n: int,
    src: RandomSource,
    noise: str = "none",
    delta: float = 0.0,
    stream: int = 0,
) -> SampleSequence:
    """Stationary ergodic finite chain on state values inside [0, 1]."""
    t = _transition_matrix(transition)
    values = np.asarray(states, dtype=float)
    if len(values) != t.shape[0]:
        raise GeneratorError("need one state value per transition row")
    if len(set(values.tolist())) != len(values):
        raise GeneratorError("state values must be distinct")
    pi = _stationary(t)
    DistributionModel.atomic(zip(values, pi))  # its mass checks reject a degenerate pi
    u = src.generator(stream, sub=0).random(n + 1)
    cum_rows = np.cumsum(t, axis=1)
    cum_pi = np.cumsum(pi)
    path = np.empty(n, dtype=np.int64)
    state = int(np.searchsorted(cum_pi, u[0], side="right"))
    state = min(state, len(values) - 1)
    for i in range(n):
        path[i] = state
        state = int(np.searchsorted(cum_rows[state], u[i + 1], side="right"))
        state = min(state, len(values) - 1)
    x = values[path]
    base = np.atleast_1d(np.asarray(m.eval(x), dtype=float))
    y = _apply_noise(base, noise, delta, src.generator(stream, sub=1))
    return SampleSequence(x, y)


def gen_deterministic(m: RegressionModel, n: int) -> SampleSequence:
    """Van der Corput inputs with noiseless labels y = m(x)."""
    x = van_der_corput(n)
    y = np.atleast_1d(np.asarray(m.eval(x), dtype=float)) if n else np.zeros(0)
    return SampleSequence(x, y)


def gen_harmonic_approach(n: int) -> SampleSequence:
    """x_i = -1/(i+1) creeping up to 0; y identically 0.

    The empirical CDF converges pointwise to the unit step at 0 (Levy
    distance ~ 1/n) but the point 0 is never sampled, so the empirical atom
    frequency at 0 stays 0 forever and interval-class convergence fails.
    """
    idx = np.arange(2, n + 2, dtype=float)
    return SampleSequence(-1.0 / idx, np.zeros(n))


def gen_nonergodic_mixture(
    components: list[tuple[float, DistributionModel, RegressionModel]],
    noise: str,
    n: int,
    src: RandomSource,
    delta: float = 0.0,
) -> tuple[SampleSequence, int]:
    """Draw one ergodic component by weight, then run i.i.d. inside it.

    The sample path is stable for the chosen component's law and
    regression; an estimator fed this path should converge to the chosen
    component's regression, not to the mixture average.
    """
    weights = np.array([w for w, _, _ in components], dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise GeneratorError("component weights must be nonnegative and sum to 1")
    u = src.generator(stream=10_000).random()
    idx = int(np.searchsorted(np.cumsum(weights), u, side="right"))
    idx = min(idx, len(components) - 1)
    _, mu, m = components[idx]
    seq = gen_iid(mu, m, noise, n, src, delta=delta, stream=10_001 + idx)
    return seq, idx
