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
# The largest rate numpy's Generator.poisson accepts ("lam value too large"
# above it); a count law that would draw at a higher rate is refused.
POISSON_RATE_CAP = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))
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
        if self.lam > POISSON_RATE_CAP:
            raise ValueError(
                f"rate {self.lam:g} is above the Poisson limit {POISSON_RATE_CAP:g}"
            )

    def sample(self, gen, size):
        out = gen.poisson(self.lam, size=size)  # already int64
        out += 1
        return out

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
        if not p or not all(math.isfinite(x) and x >= 0 for x in p):
            raise ValueError("pmf needs finite nonnegative probabilities")
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
            if not all(0 < t < math.inf and 0 <= w < math.inf for t, w in atoms):
                raise ValueError("mixing atoms need finite rates > 0 and weights >= 0")
            if any(t > POISSON_RATE_CAP for t, _ in atoms):
                raise ValueError(
                    f"mixing rates must be at most the Poisson limit {POISSON_RATE_CAP:g}"
                )
            if abs(sum(w for _, w in atoms) - 1.0) > _WEIGHT_TOL:
                raise ValueError("mixing weights must sum to 1")
            object.__setattr__(self, "atoms", atoms)
        else:
            if self.log_sigma is None or not 0 <= self.log_sigma < math.inf:
                raise ValueError("lognormal sigma must be finite and >= 0")
            if not math.isfinite(self.log_mean):
                raise ValueError("lognormal mean must be finite")
            if self.log_mean + self.log_sigma * self.log_sigma / 2.0 > math.log(POISSON_RATE_CAP):
                raise ValueError(
                    f"the lognormal mixing mean exp(log_mean + log_sigma^2 / 2) is above "
                    f"the Poisson limit {POISSON_RATE_CAP:g}"
                )

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
            top = float(rates.max(initial=0.0))
            if top > POISSON_RATE_CAP:
                raise ValueError(
                    f"lognormal mixing draw {top:g} is above the Poisson limit {POISSON_RATE_CAP:g}"
                )
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
        leading axis of length k, and row i of the result is the law's rule
        along ``u[i]`` at ``s[i]``.  Each law has one rule, ``_block_cdf``;
        one direction is its one-row block, returned as a float for a
        scalar ``s``.  The result is always a fresh array or a float.
        """
        u = np.asarray(u, dtype=float)
        s = np.asarray(s, dtype=float)
        if u.ndim == 2:
            return self._block_cdf(u, s, strict)
        out = self._block_cdf(u[None], s[None], strict)[0]
        return out if out.ndim else float(out)

    def _block_cdf(self, u: np.ndarray, s: np.ndarray, strict: bool) -> np.ndarray:
        """``projection_cdf`` for a (k, d) block ``u`` and ``s`` with a
        leading axis of length k."""
        raise NotImplementedError

    def mgf(self, theta: float) -> float:
        """E[e^{theta X}] for one-dimensional laws."""
        raise NotImplementedError

    def atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(points, weights) when the law is purely atomic, else None."""
        return None

    def centre(self) -> np.ndarray | None:
        """The point c about which the law is centrally symmetric (X - c and
        c - X have one law), when it is known in closed form, else None."""
        return None

    def depth(self, x) -> float | None:
        """The half-space depth of x under the law in closed form, or None."""
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

    @np.errstate(over="ignore")  # a width past the float range reads inf
    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.low, dtype=float))
        hi = np.atleast_1d(np.asarray(self.high, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("low and high must be vectors of equal length")
        if not (np.isfinite(hi - lo).all() and (lo < hi).all()):  # inf or NaN bounds too
            raise ValueError("box needs finite low < high and a finite width high - low")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "low", lo)
        object.__setattr__(self, "high", hi)
        object.__setattr__(self, "dim", lo.size)

    def centre(self):
        return (self.low + self.high) / 2

    def depth(self, x):
        """2^(d-1) prod_i max(0, min(t_i, 1 - t_i)), t = (x - low) / (high -
        low), for d <= 2 (Rousseeuw & Ruts 1999, Metrika 49); else None."""
        if self.dim > 2:
            return None
        t = (np.asarray(x, dtype=float) - self.low) / (self.high - self.low)
        return 2.0 ** (self.dim - 1) * float(np.clip(np.minimum(t, 1.0 - t), 0.0, None).prod())

    def sample(self, gen, size):
        if self.dim == 1:
            # scalar bounds take numpy's scalar path: the same C draw per
            # point as the broadcast path below, without the broadcasting
            return gen.uniform(float(self.low[0]), float(self.high[0]), size=(size, 1))
        return gen.uniform(self.low, self.high, size=(size, self.dim))

    def _block_cdf(self, u, s, strict):
        """The box rule along each row of the block.  Widths below 1e-7 of a
        row's largest fold into their midpoints: keeping them would divide
        rounding noise by a near-zero width.  The folded widths are summed
        in box order and added to the base only when some width folds; the
        m kept ones are sorted in descending order.  m = 0 is a step at the
        base, m = 1 a clip, m = 2 a trapezoid (rise, mid, fall) and m >= 3
        the inclusion-exclusion over subsets of the kept widths.  Rows that
        fold different numbers of widths go group by group; when every row
        folds the same number, as one direction always does, ``s`` is
        neither indexed nor copied."""
        lo = u * self.low
        hi = u * self.high
        # a plain sum starts at +0.0 and would drop the sign of a lone -0.0
        # bound, which the clip on the line keeps
        base = np.minimum(lo, hi).sum(axis=1, initial=-0.0)
        kept = np.abs(hi - lo)
        tiny = kept <= 1e-7 * kept.max(axis=1, keepdims=True)
        if tiny.any():
            folds = tiny.sum(axis=1)
            if not (folds == folds[0]).all():
                out = np.empty(s.shape)
                for f in np.unique(folds):
                    rows = folds == f
                    out[rows] = self._block_cdf(u[rows], s[rows], strict)
                return out
            k = u.shape[0]
            base = base + kept[tiny].reshape(k, -1).sum(axis=1) / 2.0
            kept = kept[~tiny].reshape(k, -1)
        col = lambda v: v.reshape((-1,) + (1,) * (s.ndim - 1))
        m = kept.shape[1]
        t = s - col(base)
        if m == 0:
            return ((t > 0) if strict else (t >= 0)).astype(float)
        if m == 1:
            # in place: t is fresh, and a long row would otherwise allocate
            # and fault in two more arrays of its size
            np.divide(t, col(kept[:, 0]), out=t)
            return np.clip(t, 0.0, 1.0, out=t)
        kept = np.sort(kept, axis=1)[:, ::-1]
        if m == 2:
            w1, w2 = col(kept[:, 0]), col(kept[:, 1])
            rise = np.square(np.clip(t, 0.0, w2)) / (2.0 * w1 * w2)
            mid = np.clip((t - 0.5 * w2) / w1, 0.0, None)
            fall = np.square(np.clip(w1 + w2 - t, 0.0, w2)) / (2.0 * w1 * w2)
            cdf = np.where(t <= w2, rise, np.where(t <= w1, mid, 1.0 - fall))
            return np.clip(cdf, 0.0, 1.0)
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
        return np.where(t >= col(kept.sum(axis=1)), 1.0, cdf)

    def mgf(self, theta):
        if self.dim != 1:
            raise ValueError("mgf is defined for one-dimensional laws")
        a, b = float(self.low[0]), float(self.high[0])
        x = theta * (b - a)
        if x == 0.0:
            return 1.0
        return math.exp(theta * a) * math.expm1(x) / x


# Cephes ndtr.c (S. L. Moshier, 1989), highest power first: erf(x) =
# x T(x^2) / U(x^2) for |x| < 1, and erfc(x) = exp(-x^2) P(x) / Q(x) for
# 1 <= x < 8, exp(-x^2) R(x) / S(x) beyond.  U, Q and S are monic.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): erfc is 0 once z^2 passes it
# The largest z whose rounded square is at most MAXLOG, so that z <= it
# tests z^2 <= MAXLOG without squaring a huge z.
_ERFC_ZMAX = math.sqrt(_MAXLOG)


def _ratio_steps(num, den):
    """Cephes ``polevl(num)`` beside the monic ``p1evl(den)`` as Horner steps
    of (numerator, denominator) coefficient pairs, the shorter led by zeros:
    0 or 1 times s, plus the next coefficient, is the first step of either
    bit for bit."""
    den = (1.0, *den)
    k = max(len(num), len(den))
    pad = lambda c: (0.0,) * (k - len(c)) + c
    return tuple(zip(pad(num), pad(den)))


_ERF_TU = _ratio_steps(_ERF_T, _ERF_U)
_ERFC_PQ = _ratio_steps(_ERFC_P, _ERFC_Q)
_ERFC_RS = _ratio_steps(_ERFC_R, _ERFC_S)
# At or below this many values a Python loop (about 1 us a value) beats the
# array path's fixed cost (about 40 us a call).
_NDTR_LOOP_MAX = 32


def _ratio_one(s, steps):
    """Numerator and denominator at ``s``, a float or an array, Horner step
    by step."""
    num, den = steps[0]
    for cn, cd in steps[1:]:
        num = num * s + cn
        den = den * s + cd
    return num, den


def _ndtr_one(a: float) -> float:
    """Cephes ``ndtr`` of one float, branch for branch."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        t, u = _ratio_one(x * x, _ERF_TU)
        erf = x * t / u
        if z < _SQRT1_2:
            return 0.5 + 0.5 * erf
        y = 0.5 * (1.0 - abs(erf))
    elif z <= _ERFC_ZMAX:
        p, q = _ratio_one(z, _ERFC_PQ if z < 8.0 else _ERFC_RS)
        y = 0.5 * (math.exp(-z * z) * p / q)
    elif z != z:
        return z
    else:
        y = 0.0
    return 1.0 - y if x > 0.0 else y


def _ndtr(a):
    """The standard normal CDF of every value of ``a``, bit for bit
    ``scipy.special.ndtr``: a port of Cephes ``ndtr``, ``erf`` and ``erfc``
    (S. L. Moshier, *Methods and Programs for Mathematical Functions*,
    1989), with their branches and operation order.

    With x = a / sqrt(2) and z = |x|, Phi is 0.5 + 0.5 erf(x) for z <
    sqrt(1/2), and otherwise 0.5 erfc(z), taken as 1 - that when x > 0.
    erf(x) is x T(x^2) / U(x^2); erfc(z) is 1 - erf(z) below 1, and exp(-z^2)
    P/Q or, from 8, R/S above, 0 once z^2 passes MAXLOG.  exp comes from
    libm through ``math.exp``, as in the C code: numpy's SIMD ``np.exp``
    differs from it in the last bit on about 2% of arguments.

    Up to ``_NDTR_LOOP_MAX`` values go through ``_ndtr_one``.  Longer inputs
    evaluate T/U at every value (z capped at ``_ERFC_ZMAX``, so that nothing
    overflows), then exp and P/Q only where erfc takes them and R/S only
    where some z >= 8, and pick each value's branch.  erf(x) is taken as the
    sign of x on |x| T / U, the same float.  NaN stays NaN and no
    floating-point warning is raised."""
    a = np.asarray(a, dtype=float)
    if a.size <= _NDTR_LOOP_MAX:
        return np.array([_ndtr_one(v) for v in a.ravel().tolist()]).reshape(a.shape)
    x = a.reshape(-1) * _SQRT1_2
    z = np.abs(x)
    zc = np.minimum(z, _ERFC_ZMAX)
    t, u = _ratio_one(zc * zc, _ERF_TU)
    r = zc * t / u  # |erf(x)| where z < 1
    h = np.where(z >= 1.0, 0.0, 0.5 * (1.0 - r))  # 0.5 erfc(z), 0 where it underflows
    far = ((z >= 1.0) & (z <= _ERFC_ZMAX)).nonzero()[0]
    if far.size:
        zf = z[far]
        e = np.fromiter(map(math.exp, (-zf * zf).tolist()), float, far.size)
        p, q = _ratio_one(zf, _ERFC_PQ)
        tail = (zf >= 8.0).nonzero()[0]
        if tail.size:
            p[tail], q[tail] = _ratio_one(zf[tail], _ERFC_RS)
        h[far] = 0.5 * (e * p / q)
    y = np.where(x > 0.0, 1.0 - h, h)
    y = np.where(z < _SQRT1_2, 0.5 + 0.5 * np.copysign(r, x), y)
    return y.reshape(a.shape)


@dataclass(frozen=True)
class DiagonalGaussian(DisplacementLaw):
    mean: np.ndarray
    std: np.ndarray

    @np.errstate(over="ignore")  # a square sum past the float range reads inf
    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        s = np.atleast_1d(np.asarray(self.std, dtype=float))
        if m.shape != s.shape or m.ndim != 1:
            raise ValueError("mean and std must be vectors of equal length")
        if not (np.isfinite(m).all() and np.isfinite(np.square(s).sum())) or (s < 0).any():
            raise ValueError("mean must be finite, std nonnegative and its squares' sum finite")
        m.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)
        object.__setattr__(self, "dim", m.size)

    def centre(self):
        """The mean, also along coordinates of zero std."""
        return self.mean

    def depth(self, x):
        """Phi(-|(x - mean) / std|) over the coordinates of nonzero std (Zuo
        & Serfling 2000): 0 when x leaves the mean along a zero-std
        coordinate, and 1 when every std is zero and x is the mean."""
        z = np.asarray(x, dtype=float) - self.mean
        flat = self.std == 0.0
        if flat.all() or z[flat].any():
            return float(not z.any())
        return float(_ndtr(-np.linalg.norm(z[~flat] / self.std[~flat])))

    def sample(self, gen, size):
        return gen.normal(self.mean, self.std, size=(size, self.dim))

    def _block_cdf(self, u, s, strict):
        """ndtr((s - <u, mean>) / sd) along each row, with sd the norm of
        u * std, and a step at <u, mean> where sd = 0.  ``vecdot`` takes one
        dot product per row."""
        col = lambda v: v.reshape((-1,) + (1,) * (s.ndim - 1))
        mu = col(np.vecdot(u, self.mean))
        sd = col(np.sqrt(((u * self.std) ** 2).sum(axis=1)))
        step = sd == 0.0
        out = _ndtr((s - mu) / np.where(step, 1.0, sd))
        if step.any():
            out = np.where(step, (s > mu) if strict else (s >= mu), out)
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

    def _block_cdf(self, u, s, strict):
        """Row by row: the cumulative weights in projected order, so the
        mass below s is one prefix sum, the same float for any shape of s."""
        side = "left" if strict else "right"
        out = np.empty(s.shape)
        for i, ui in enumerate(u):
            proj = self.points @ ui
            order = np.argsort(proj, kind="stable")
            cum = np.concatenate([[0.0], np.cumsum(self.weights[order])])
            out[i] = cum[np.searchsorted(proj[order], s[i], side=side)]
        return out

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
