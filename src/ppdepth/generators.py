"""Samplers and exact laws for pattern counts and point displacements.

Count laws produce the number of points per pattern and always have support
in {1, 2, ...}: fixed counts, shifted Poisson (count - 1 is Poisson), mixed
zero-truncated Poisson (a Cox count with mixing law on the rate), and
explicit pmfs.  Displacement laws produce the point locations, i.i.d. and
independent of the count.  Randomness flows through counter-based streams so
that replicate r of experiment e is reproducible independently of scheduling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .functions import (
    Constant,
    EvalFunction,
    Exponential,
    HalfLineIndicator,
    HalfSpaceIndicator,
    Tabulated,
)
from .patterns import PointPattern, Sample

__all__ = [
    "RngStream",
    "CountLaw",
    "FixedCount",
    "ShiftedPoisson",
    "CoxMixture",
    "Pmf",
    "DisplacementLaw",
    "UniformBox",
    "DiagonalGaussian",
    "DiscretePoints",
    "CountMoments",
    "cox_pmf",
    "count_moments",
    "sample_count",
    "sample_pattern",
    "draw_flat",
    "draw_sample",
    "sample_sample",
]

_WEIGHT_TOL = 1e-12
_ZTP_INVERSION_CUTOFF = 30.0
_HERMITE_NODES = 128


# ---------------------------------------------------------------------------
# Deterministic parallel random streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """A (master_seed, stream_index) pair naming one counter-based stream.

    Distinct indices give statistically independent Philox streams; the same
    pair always reproduces the same byte sequence.  Use :meth:`child` to
    derive substreams from string/int labels (stable across platforms and
    process boundaries).
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed % 2**64, self.stream_index % 2**64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def _label_hash(self, labels):
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.master_seed).encode())
        h.update(str(self.stream_index).encode())
        for label in labels:
            h.update(b"/")
            h.update(str(label).encode())
        return h

    def child(self, *labels) -> "RngStream":
        index = int.from_bytes(self._label_hash(labels).digest(), "little")
        return RngStream(self.master_seed, index)

    def child_generators(self, *labels, lo: int, hi: int):
        """Yield, for r = lo .. hi - 1, a generator that draws the same bytes
        as ``self.child(*labels, r).generator()``.

        The block builds one Philox and reseats it for each replicate (the
        replicate's key, a zero counter, an empty buffer), and hashes the
        common labels once: ``Philox(key=...)`` draws OS entropy for a seed
        sequence that the key then overrides, which costs more than a small
        replicate's draws.  Every step yields the same generator object, so
        a replicate's generator is valid only until the next one is yielded.
        """
        prefix = self._label_hash(labels)
        seed = self.master_seed % 2**64
        bit_gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bit_gen)
        zeros = np.zeros(4, dtype=np.uint64)
        for r in range(lo, hi):
            h = prefix.copy()
            h.update(b"/")
            h.update(str(r).encode())
            index = int.from_bytes(h.digest(), "little")
            bit_gen.state = {
                "bit_generator": "Philox",
                "state": {"counter": zeros, "key": np.array([seed, index], dtype=np.uint64)},
                "buffer": zeros,
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield gen


# ---------------------------------------------------------------------------
# Count laws (support always in {1, 2, ...})
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountMoments:
    mean: float
    second_moment: float
    mgf: Callable[[float], float] | None

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean**2


class CountLaw:
    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def moments(self) -> CountMoments:
        raise NotImplementedError

    def mgf_squared(self, theta: float) -> float | None:
        """E[exp(theta * L^2)] where finite; None when unavailable."""
        return None

    def max_support(self) -> int | None:
        """Largest attainable count, or None for unbounded support."""
        return None


@dataclass(frozen=True)
class FixedCount(CountLaw):
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("fixed count must be >= 1")

    def sample(self, gen, size):
        return np.full(size, self.k, dtype=np.int64)

    def moments(self):
        k = self.k
        return CountMoments(float(k), float(k * k), lambda t: math.exp(t * k))

    def mgf_squared(self, theta):
        return math.exp(theta * self.k**2)

    def max_support(self):
        return self.k


@dataclass(frozen=True)
class ShiftedPoisson(CountLaw):
    """L - 1 ~ Poisson(lam), so L >= 1 always."""

    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("rate must be finite and >= 0")

    def sample(self, gen, size):
        return 1 + gen.poisson(self.lam, size=size).astype(np.int64)

    def moments(self):
        lam = self.lam
        mean = 1.0 + lam
        second = lam * lam + 3.0 * lam + 1.0
        mgf = lambda t: math.exp(t + lam * math.expm1(t))
        return CountMoments(mean, second, mgf)


@dataclass(frozen=True)
class Pmf(CountLaw):
    """Explicit probabilities on {1, ..., K}; probs[j] = P(L = j + 1)."""

    probs: tuple[float, ...]

    def __post_init__(self):
        p = tuple(float(x) for x in self.probs)
        if not p or min(p) < 0:
            raise ValueError("pmf needs nonnegative probabilities")
        if abs(sum(p) - 1.0) > _WEIGHT_TOL:
            raise ValueError("pmf must sum to 1")
        object.__setattr__(self, "probs", p)

    def sample(self, gen, size):
        support = np.arange(1, len(self.probs) + 1)
        return gen.choice(support, size=size, p=np.asarray(self.probs)).astype(np.int64)

    def moments(self):
        k = np.arange(1, len(self.probs) + 1, dtype=float)
        p = np.asarray(self.probs)
        mgf = lambda t, k=k, p=p: float(np.exp(t * k) @ p)
        return CountMoments(float(k @ p), float((k * k) @ p), mgf)

    def mgf_squared(self, theta):
        k = np.arange(1, len(self.probs) + 1, dtype=float)
        return float(np.exp(theta * k * k) @ np.asarray(self.probs))

    def max_support(self):
        return len(self.probs)


def _ztp_sample(gen: np.random.Generator, rates: np.ndarray) -> np.ndarray:
    """Zero-truncated Poisson draws, one per entry of ``rates``.

    Small rates use cdf inversion with the term recurrence starting at k = 1
    (no rejection); large rates draw Poisson and redraw the vanishing zeros.
    """
    rates = np.asarray(rates, dtype=float)
    out = np.empty(rates.shape, dtype=np.int64)

    small = rates <= _ZTP_INVERSION_CUTOFF
    if small.any():
        t = rates[small]
        u = gen.uniform(size=t.shape)
        # P(K = 1) = t / (e^t - 1); term_{k+1} = term_k * t / (k + 1)
        term = t / np.expm1(t)
        cum = term.copy()
        k = np.ones(t.shape, dtype=np.int64)
        pending = u > cum
        kk = 1
        while pending.any():
            kk += 1
            term = term * t / kk
            cum += term
            k[pending] = kk
            pending = u > cum
            if kk > 500:  # cdf inversion cannot get here for t <= 30
                raise RuntimeError("zero-truncated Poisson inversion stalled")
        out[small] = k

    large = ~small
    if large.any():
        t = rates[large]
        draws = gen.poisson(t)
        while (zero := draws == 0).any():
            draws[zero] = gen.poisson(t[zero])
        out[large] = draws
    return out


@dataclass(frozen=True)
class CoxMixture(CountLaw):
    """L | T = t is zero-truncated Poisson(t); T follows the mixing law.

    The mixing law is either a finite list of (rate, weight) atoms or a
    lognormal (exp of Normal(log_mean, log_sigma)); the lognormal case is
    sampled exactly while its pmf and moments use Gauss-Hermite quadrature.
    """

    atoms: tuple[tuple[float, float], ...] | None = None
    log_mean: float | None = None
    log_sigma: float | None = None

    def __post_init__(self):
        if (self.atoms is None) == (self.log_mean is None):
            raise ValueError("provide either atoms or lognormal parameters")
        if self.atoms is not None:
            atoms = tuple((float(t), float(w)) for t, w in self.atoms)
            if any(t <= 0 for t, _ in atoms) or any(w < 0 for _, w in atoms):
                raise ValueError("mixing atoms need rates > 0 and weights >= 0")
            if abs(sum(w for _, w in atoms) - 1.0) > _WEIGHT_TOL:
                raise ValueError("mixing weights must sum to 1")
            object.__setattr__(self, "atoms", atoms)
        else:
            if self.log_sigma is None or self.log_sigma < 0:
                raise ValueError("lognormal sigma must be >= 0")

    def _mixing_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(rates, weights) of the mixing law, exact or by quadrature."""
        if self.atoms is not None:
            t = np.array([a for a, _ in self.atoms])
            w = np.array([b for _, b in self.atoms])
            return t, w
        nodes, weights = hermegauss(_HERMITE_NODES)
        t = np.exp(self.log_mean + self.log_sigma * nodes)
        w = weights / math.sqrt(2.0 * math.pi)
        return t, w / w.sum()

    def sample(self, gen, size):
        if self.atoms is not None:
            t = np.array([a for a, _ in self.atoms])
            w = np.array([b for _, b in self.atoms])
            rates = t[gen.choice(len(t), size=size, p=w)]
        else:
            rates = np.exp(gen.normal(self.log_mean, self.log_sigma, size=size))
        return _ztp_sample(gen, rates)

    def moments(self):
        t, w = self._mixing_nodes()
        denom = -np.expm1(-t)  # 1 - e^{-t}
        mean = float(w @ (t / denom))
        second = float(w @ ((t + t * t) / denom))
        if self.atoms is not None:
            def mgf(theta, t=t, w=w):
                # E[e^{theta K} | T=t] = (e^{t e^theta} - 1) / (e^t - 1)
                return float(w @ (np.expm1(t * math.exp(theta)) / np.expm1(t)))
            return CountMoments(mean, second, mgf)
        return CountMoments(mean, second, None)


def cox_pmf(k: int, mixing: CoxMixture) -> float:
    """P(L = k) for a mixed zero-truncated Poisson count.

    Each atom contributes w * t^k / (k! (e^t - 1)); terms are combined in
    log-space once k is large enough for k! to matter.
    """
    if k < 1:
        raise ValueError("count pmf is defined for k >= 1 only")
    t, w = mixing._mixing_nodes()
    if k <= 20:
        terms = w * t**k / (math.factorial(k) * np.expm1(t))
        return float(terms.sum())
    from scipy.special import gammaln, logsumexp

    log_terms = (
        np.log(w, where=w > 0, out=np.full_like(w, -np.inf))
        + k * np.log(t)
        - gammaln(k + 1.0)
        - (t + np.log1p(-np.exp(-t)))
    )
    return float(np.exp(logsumexp(log_terms)))


def sample_count(law: CountLaw, rng: RngStream) -> int:
    return int(law.sample(rng.generator(), 1)[0])


def count_moments(law: CountLaw) -> CountMoments:
    return law.moments()


# ---------------------------------------------------------------------------
# Displacement laws
# ---------------------------------------------------------------------------


class DisplacementLaw:
    dim: int

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def projection_cdf(self, u: np.ndarray, s, strict: bool = False):
        """P(<X, u> <= s), or P(<X, u> < s) when ``strict``; vectorized in s.

        ``u`` may also be a (k, d) block of directions; ``s`` then has a
        leading axis of length k, and row i of the result equals the call
        with ``u[i]`` and ``s[i]``.
        """
        raise NotImplementedError

    def _rows_cdf(self, u: np.ndarray, s: np.ndarray, strict: bool) -> np.ndarray:
        """A (k, d) block of directions, one row at a time."""
        return np.array([self.projection_cdf(ui, si, strict) for ui, si in zip(u, s)])

    def mgf(self, theta: float) -> float:
        """E[e^{theta X}] for one-dimensional laws."""
        raise NotImplementedError

    def atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(points, weights) when the law is purely atomic, else None."""
        return None

    def expectation(self, f: EvalFunction) -> float:
        """E[f(X)] for the supported test-function variants."""
        if isinstance(f, Constant):
            return f.value
        if f.dim is not None and f.dim != self.dim:
            raise ValueError(f"function dimension {f.dim} != law dimension {self.dim}")
        if isinstance(f, HalfLineIndicator):
            if not math.isfinite(f.threshold):
                full = (f.threshold > 0) == (f.orientation == 1)
                return 1.0 if full else 0.0
            u = np.array([float(f.orientation)])
            return float(self.projection_cdf(u, f.orientation * f.threshold))
        if isinstance(f, HalfSpaceIndicator):
            return float(self.projection_cdf(f.direction, f.offset))
        if isinstance(f, Exponential):
            return self.mgf(f.theta)
        if isinstance(f, Tabulated):
            pts_w = self.atoms()
            if pts_w is None:
                # a continuous law never hits the table's null set
                return f.default
            pts, w = pts_w
            return float(f.evaluate(pts) @ w)
        raise ValueError(f"unsupported function variant {type(f).__name__}")

    def expectation_product(self, f: EvalFunction, g: EvalFunction) -> float:
        """E[f(X) g(X)] for the closed-form pairings used in covariance reports."""
        if isinstance(f, Constant):
            return f.value * self.expectation(g)
        if isinstance(g, Constant):
            return g.value * self.expectation(f)
        pts_w = self.atoms()
        if pts_w is not None:
            pts, w = pts_w
            return float((f.evaluate(pts) * g.evaluate(pts)) @ w)
        if isinstance(f, HalfLineIndicator) and isinstance(g, HalfLineIndicator):
            return self._halfline_product(f, g)
        if isinstance(f, HalfSpaceIndicator) and isinstance(g, HalfSpaceIndicator):
            if np.allclose(f.direction, g.direction, atol=1e-12):
                off = min(f.offset, g.offset)
                return float(self.projection_cdf(f.direction, off))
            raise ValueError("half-space products need a shared direction")
        if isinstance(f, Exponential) and isinstance(g, Exponential):
            return self.mgf(f.theta + g.theta)
        raise ValueError(
            f"no closed-form product for {type(f).__name__} x {type(g).__name__}"
        )

    def _halfline_product(self, f: HalfLineIndicator, g: HalfLineIndicator) -> float:
        u = np.array([1.0])
        if f.orientation == g.orientation:
            t = min(f.threshold, g.threshold) if f.orientation == 1 else max(
                f.threshold, g.threshold
            )
            hl = HalfLineIndicator(t, f.orientation)
            return self.expectation(hl)
        lo = f.threshold if f.orientation == -1 else g.threshold
        hi = f.threshold if f.orientation == 1 else g.threshold
        if hi < lo:
            return 0.0
        # mass of the closed interval [lo, hi]
        upper = float(self.projection_cdf(u, hi))
        lower = float(self.projection_cdf(u, lo, strict=True))
        return max(0.0, upper - lower)


@dataclass(frozen=True)
class UniformBox(DisplacementLaw):
    """Independent uniform coordinates on the box prod_i [low_i, high_i]."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.low, dtype=float))
        hi = np.atleast_1d(np.asarray(self.high, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("low and high must be vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo < hi).all()):
            raise ValueError("box needs finite low < high coordinatewise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "low", lo)
        object.__setattr__(self, "high", hi)
        object.__setattr__(self, "dim", lo.size)

    def sample(self, gen, size):
        if self.dim == 1:
            # scalar bounds take numpy's scalar path: the same C draw per
            # point as the broadcast path below, without the broadcasting
            return gen.uniform(float(self.low[0]), float(self.high[0]), size=(size, 1))
        return gen.uniform(self.low, self.high, size=(size, self.dim))

    def projection_cdf(self, u, s, strict=False):
        u = np.asarray(u, dtype=float)
        s = np.asarray(s, dtype=float)
        if u.ndim == 2:
            return self._block_cdf(u, s, strict)
        if self.dim >= 3:
            # the one-row block: a scalar s would take the libm power where
            # an array takes numpy's vectorized one, which can differ in the
            # last bit
            out = self._block_cdf(u[None], s[None], strict)[0]
            return out if out.ndim else float(out)
        lo = u * self.low
        hi = u * self.high
        if self.dim == 1 and u[0] != 0.0:
            a, b = min(lo[0], hi[0]), max(lo[0], hi[0])
            return np.clip((s - a) / (b - a), 0.0, 1.0)
        base = float(np.minimum(lo, hi).sum())
        widths = np.abs(hi - lo)
        wmax = float(widths.max(initial=0.0))
        # fold negligible widths into their midpoints: keeping them would
        # divide rounding noise by a near-zero width
        tiny = widths <= 1e-7 * wmax
        base += float(widths[tiny].sum()) / 2.0
        widths = np.sort(widths[~tiny])[::-1]
        m = widths.size
        t = s - base
        if m == 0:
            return ((t > 0) if strict else (t >= 0)).astype(float)
        if m == 1:
            return np.clip(t / widths[0], 0.0, 1.0)
        w1, w2 = float(widths[0]), float(widths[1])
        rise = np.square(np.clip(t, 0.0, w2)) / (2.0 * w1 * w2)
        mid = np.clip((t - 0.5 * w2) / w1, 0.0, None)
        fall = np.square(np.clip(w1 + w2 - t, 0.0, w2)) / (2.0 * w1 * w2)
        cdf = np.where(
            t <= w2, rise, np.where(t <= w1, mid, 1.0 - fall)
        )
        cdf = np.clip(cdf, 0.0, 1.0)
        return cdf if cdf.ndim else float(cdf)

    def _block_cdf(self, u, s, strict):
        """``projection_cdf`` for a (k, d) block, vectorized over the rows
        that keep the same number m of widths.  The rule is the one-direction
        call's, with its float operations: per row, the folded widths are
        summed in box order and the kept ones sorted in descending order,
        and m >= 3 takes the inclusion-exclusion over subsets of the kept
        widths.  On the line each row is one ``np.clip``, so rows go one at
        a time through the one-direction call."""
        if self.dim == 1:
            return self._rows_cdf(u, s, strict)
        col = lambda v: v.reshape((-1,) + (1,) * (s.ndim - 1))
        lo = u * self.low
        hi = u * self.high
        base = np.minimum(lo, hi).sum(axis=1)
        widths = np.abs(hi - lo)
        tiny = widths <= 1e-7 * widths.max(axis=1, keepdims=True)
        kept_counts = self.dim - tiny.sum(axis=1)
        out = np.empty(s.shape)
        for m in map(int, np.unique(kept_counts)):
            rows = kept_counts == m
            w, fold = widths[rows], tiny[rows]
            b = base[rows] + w[fold].reshape(w.shape[0], self.dim - m).sum(axis=1) / 2.0
            kept = np.sort(w[~fold].reshape(w.shape[0], m), axis=1)[:, ::-1]
            t = s[rows] - col(b)
            if m == 0:
                out[rows] = ((t > 0) if strict else (t >= 0)).astype(float)
            elif m == 1:
                out[rows] = np.clip(t / col(kept[:, 0]), 0.0, 1.0)
            elif m == 2:
                w1, w2 = col(kept[:, 0]), col(kept[:, 1])
                rise = np.square(np.clip(t, 0.0, w2)) / (2.0 * w1 * w2)
                mid = np.clip((t - 0.5 * w2) / w1, 0.0, None)
                fall = np.square(np.clip(w1 + w2 - t, 0.0, w2)) / (2.0 * w1 * w2)
                cdf = np.where(t <= w2, rise, np.where(t <= w1, mid, 1.0 - fall))
                out[rows] = np.clip(cdf, 0.0, 1.0)
            else:
                acc = np.zeros(t.shape)
                for mask in range(1 << m):
                    offset = np.zeros(kept.shape[0])
                    sign = 1.0
                    for j in range(m):
                        if mask >> j & 1:
                            offset += kept[:, j]
                            sign = -sign
                    acc = acc + sign * np.maximum(t - col(offset), 0.0) ** m
                denom = math.factorial(m) * kept.prod(axis=1)
                cdf = np.clip(acc / col(denom), 0.0, 1.0)
                out[rows] = np.where(t >= col(kept.sum(axis=1)), 1.0, cdf)
        return out

    def mgf(self, theta):
        if self.dim != 1:
            raise ValueError("mgf is defined for one-dimensional laws")
        a, b = float(self.low[0]), float(self.high[0])
        x = theta * (b - a)
        if x == 0.0:
            return 1.0
        return math.exp(theta * a) * math.expm1(x) / x


def _ndtr(x):
    """``scipy.special.ndtr``, imported on the first call, which rebinds
    this name to it: importing ``scipy.special`` takes about 0.3 s, and an
    import statement per call costs more than a small ``ndtr``."""
    global _ndtr
    from scipy.special import ndtr as _ndtr

    return _ndtr(x)


@dataclass(frozen=True)
class DiagonalGaussian(DisplacementLaw):
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        s = np.atleast_1d(np.asarray(self.std, dtype=float))
        if m.shape != s.shape or m.ndim != 1:
            raise ValueError("mean and std must be vectors of equal length")
        if not (np.isfinite(m).all() and np.isfinite(s).all()) or (s < 0).any():
            raise ValueError("mean must be finite and std finite and nonnegative")
        m.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)
        object.__setattr__(self, "dim", m.size)

    def sample(self, gen, size):
        return gen.normal(self.mean, self.std, size=(size, self.dim))

    def projection_cdf(self, u, s, strict=False):
        u = np.asarray(u, dtype=float)
        s = np.asarray(s, dtype=float)
        if u.ndim == 2:
            return self._block_cdf(u, s, strict)
        mu = float(u @ self.mean)
        sd = float(np.sqrt(((u * self.std) ** 2).sum()))
        if sd == 0.0:
            return ((s > mu) if strict else (s >= mu)).astype(float)
        out = _ndtr((s - mu) / sd)
        return out if out.ndim else float(out)

    def _block_cdf(self, u, s, strict):
        """``projection_cdf`` for a (k, d) block of directions.  ``vecdot``
        takes one dot product per row, the same as ``u @ mean`` above."""
        col = lambda v: v.reshape((-1,) + (1,) * (s.ndim - 1))
        mu = np.vecdot(u, self.mean)
        sd = np.sqrt(((u * self.std) ** 2).sum(axis=1))
        out = np.empty(s.shape)
        step = sd == 0.0
        s_step, mu_step = s[step], col(mu[step])
        out[step] = ((s_step > mu_step) if strict else (s_step >= mu_step)).astype(float)
        smooth = ~step
        out[smooth] = _ndtr((s[smooth] - col(mu[smooth])) / col(sd[smooth]))
        return out

    def mgf(self, theta):
        if self.dim != 1:
            raise ValueError("mgf is defined for one-dimensional laws")
        return math.exp(theta * self.mean[0] + 0.5 * (theta * self.std[0]) ** 2)


@dataclass(frozen=True)
class DiscretePoints(DisplacementLaw):
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape[0] != w.size:
            raise ValueError("one weight per point required")
        if not (np.isfinite(pts).all() and (w >= 0).all()) or abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("points must be finite, weights nonnegative and sum to 1")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "dim", pts.shape[1])

    def sample(self, gen, size):
        idx = gen.choice(self.points.shape[0], size=size, p=self.weights)
        return self.points[idx]

    def projection_cdf(self, u, s, strict=False):
        u = np.asarray(u, dtype=float)
        s = np.asarray(s, dtype=float)
        if u.ndim == 2:
            return self._rows_cdf(u, s, strict)
        # cumulative weights in projected order: the mass below s is one
        # prefix sum, the same float for any shape of s
        proj = self.points @ u
        order = np.argsort(proj, kind="stable")
        cum = np.concatenate([[0.0], np.cumsum(self.weights[order])])
        out = cum[np.searchsorted(proj[order], s, side="left" if strict else "right")]
        return out if out.ndim else float(out)

    def mgf(self, theta):
        if self.dim != 1:
            raise ValueError("mgf is defined for one-dimensional laws")
        return float(np.exp(theta * self.points[:, 0]) @ self.weights)

    def atoms(self):
        return self.points, self.weights


# ---------------------------------------------------------------------------
# Pattern and sample generation
# ---------------------------------------------------------------------------


def sample_pattern(count: CountLaw, disp: DisplacementLaw, rng: RngStream) -> PointPattern:
    return PointPattern(draw_flat(1, count, disp, rng.generator())[0])


def draw_flat(
    n: int, count: CountLaw, disp: DisplacementLaw, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n independent patterns from a numpy generator as (points, sizes): all
    n counts first, then all points in one draw."""
    sizes = count.sample(gen, n)
    return disp.sample(gen, int(sizes.sum())), sizes


def draw_sample(
    n: int, count: CountLaw, disp: DisplacementLaw, gen: np.random.Generator
) -> Sample:
    """``draw_flat`` as a ``Sample``."""
    return Sample(*draw_flat(n, count, disp, gen))


def sample_sample(
    n: int, count: CountLaw, disp: DisplacementLaw, rng: RngStream
) -> Sample:
    """Draw n independent patterns from one stream."""
    if n < 1:
        raise ValueError("need n >= 1 patterns")
    return draw_sample(n, count, disp, rng.generator())
