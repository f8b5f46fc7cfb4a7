"""Closed-form deviation and covering bounds, plus empirical cover/packing
estimates on the sample pseudo-metric.

All bound arithmetic runs in log-space; linear values are materialized only
below 1e300 and reported as inf beyond.  The covering-number bound for a VC
class of dimension v is max(c_v, (4 (S_n/n) (2M/eps)^p)^v) where the constant
c_v = max{c in N : log(c) >= c^{1/(v-1) - 1/v}}; that set is empty for v = 2
under the natural logarithm, in which case c_v falls back to 1.  The tail
bound for indicator classes is 16 (alpha n)^{v-1} exp(-eps^2 n / (32 beta))
plus the two count-tail terms, valid once n >= 8 E[L^2] / eps^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .functions import (
    EvalFunction,
    Exponential,
    FunctionClass,
    HalfLineIndicator,
    HalfSpaceIndicator,
)
from .generators import CountLaw, RngStream
from .measure import _golden_section
from .patterns import Sample

__all__ = [
    "BoundValue",
    "VcBoundParams",
    "DeviationBoundParams",
    "DeviationBound",
    "TailBound",
    "CoverResult",
    "sauer_bound",
    "vc_constant",
    "vc_covering_bound",
    "deviation_bound",
    "chernoff_tail",
    "greedy_cover",
    "maximal_packing",
    "entropy_integral",
    "halfline_candidates",
    "halfplane_candidates",
    "exponential_candidates",
]

_LINEAR_CUTOFF_LOG = 300.0 * math.log(10.0)
_CV_SCAN_CAP = 10**9


def _linearize(log_value: float) -> float:
    return math.exp(log_value) if log_value < _LINEAR_CUTOFF_LOG else math.inf


@dataclass(frozen=True)
class BoundValue:
    """A bound carried in log-space with a linear value when representable."""

    log: float
    linear: float

    @classmethod
    def from_log(cls, log_value: float) -> "BoundValue":
        return cls(log_value, _linearize(log_value))


def sauer_bound(n: int, v: int) -> BoundValue:
    """Maximal number of labelings of n points by a VC class: 2 n^{v-1}."""
    if n < 1 or v < 1:
        raise ValueError("n and v must be >= 1")
    return BoundValue.from_log(math.log(2.0) + (v - 1) * math.log(n))


def vc_constant(v: int, cap: int = _CV_SCAN_CAP) -> int:
    """The largest integer c <= cap with log(c) >= c^{1/(v-1) - 1/v}, or 1
    when no integer qualifies (which happens for v = 2)."""
    if v < 1:
        raise ValueError("v must be >= 1")
    if v == 1:
        return 1
    a = 1.0 / (v - 1) - 1.0 / v

    def ok(c: int) -> bool:
        return math.log(c) >= c**a

    # log(c) - c^a rises to its peak at (1/a)^(1/a) and falls afterwards
    try:
        peak = min(cap, max(2, int((1.0 / a) ** (1.0 / a))))
    except OverflowError:
        peak = cap
    anchor = next((c for c in (peak, peak + 1, peak - 1) if c >= 2 and ok(c)), None)
    if anchor is None:
        return 1
    if ok(cap):
        warnings.warn(f"c_v scan truncated at the cap {cap} for v={v}")
        return cap
    lo, hi = anchor, cap  # ok(lo) holds, ok(hi) fails, condition decreasing
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class VcBoundParams:
    epsilon: float
    p: float
    bound: float
    vc_dim: int
    ratio: float

    def __post_init__(self):
        if self.epsilon <= 0 or self.p < 1 or self.bound <= 0:
            raise ValueError("need epsilon > 0, p >= 1, and a positive bound")
        if self.vc_dim < 1 or self.ratio < 1:
            raise ValueError("need vc_dim >= 1 and ratio >= 1")


@dataclass(frozen=True)
class VcCoverBound:
    log: float
    linear: float
    c_v: int
    trivial: bool


def vc_covering_bound(params: VcBoundParams) -> VcCoverBound:
    """Covering-number bound max(c_v, (4 ratio (2M/eps)^p)^v) on (F, e_{n,p}).

    A class of VC dimension 1 is a single function, so its covering number
    is identically 1 regardless of the radius.
    """
    if params.vc_dim == 1:
        return VcCoverBound(0.0, 1.0, 1, trivial=False)
    if params.epsilon > params.bound:
        return VcCoverBound(0.0, 1.0, vc_constant(params.vc_dim), trivial=True)
    c_v = vc_constant(params.vc_dim)
    log_main = params.vc_dim * (
        math.log(4.0)
        + math.log(params.ratio)
        + params.p * (math.log(2.0 * params.bound) - math.log(params.epsilon))
    )
    log_value = max(math.log(c_v), log_main)
    return VcCoverBound(log_value, _linearize(log_value), c_v, trivial=False)


@dataclass(frozen=True)
class DeviationBoundParams:
    epsilon: float
    n: int
    alpha: float
    beta: float
    vc_dim: int
    tail_sn: float
    tail_sn2: float
    precondition_ok: bool = True

    def __post_init__(self):
        if min(self.epsilon, self.alpha, self.beta) <= 0 or self.n < 1:
            raise ValueError("epsilon, alpha, beta must be positive and n >= 1")
        for t in (self.tail_sn, self.tail_sn2):
            if not 0.0 <= t <= 1.0:
                raise ValueError("tail probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class DeviationBound:
    raw: float
    clamped: float
    log_exp_term: float


def deviation_bound(params: DeviationBoundParams) -> DeviationBound:
    """16 (alpha n)^{v-1} exp(-eps^2 n / (32 beta)) + tail_sn + tail_sn2.

    The caller asserts the n >= 8 E[L^2] / eps^2 precondition via the
    ``precondition_ok`` flag; the raw value is returned alongside a [0, 1]
    clamp for reporting.
    """
    log_term = (
        math.log(16.0)
        + (params.vc_dim - 1) * math.log(params.alpha * params.n)
        - params.epsilon**2 * params.n / (32.0 * params.beta)
    )
    raw = _linearize(log_term) + params.tail_sn + params.tail_sn2
    return DeviationBound(raw, min(1.0, max(0.0, raw)), log_term)


@dataclass(frozen=True)
class TailBound:
    value: float
    method: str  # "chernoff" | "vacuous" | "degenerate" | "monte_carlo"


def _log_mgf(law: CountLaw, theta: float, squared: bool) -> float:
    try:
        value = law.mgf_squared(theta) if squared else law.moments().mgf(theta)
    except OverflowError:
        return math.inf
    if value is None or value != value:
        return math.inf
    return math.log(value) if value > 0 else -math.inf


def chernoff_tail(
    law: CountLaw, threshold_per_n: float, n: int, squared: bool = False
) -> TailBound:
    """Bound on P(sum of n counts > threshold_per_n * n) via the count mgf:
    (inf_{theta > 0} exp(-theta a) E[exp(theta L)])^n, with L^2 in place of L
    for the ``squared`` variant.  Returns 1 in the vacuous regime a <= E[L],
    0 when a exceeds the top of a bounded support, and a flagged Monte Carlo
    frequency estimate when the mgf is unavailable."""
    a = float(threshold_per_n)
    moments = law.moments()
    target = moments.second_moment if squared else moments.mean
    if a <= target:
        return TailBound(1.0, "vacuous")
    top = law.max_support()
    if top is not None and a >= (top**2 if squared else top):
        return TailBound(0.0, "degenerate")
    has_mgf = (law.mgf_squared(1e-9) is not None) if squared else (moments.mgf is not None)
    if not has_mgf:
        return TailBound(_monte_carlo_tail(law, a, n, squared), "monte_carlo")

    def g(theta: float) -> float:
        return -theta * a + _log_mgf(law, theta, squared)

    # bracket the convex minimum by doubling, then golden-section to 1e-12
    hi = 1.0
    while g(hi) < g(hi / 2.0) and hi < 1e6:
        hi *= 2.0
    lo, hi, fc, fd = _golden_section(g, 0.0, hi, 1e-12)
    g_min = min(g(0.5 * (lo + hi)), fc, fd, 0.0)
    value = math.exp(n * g_min) if n * g_min > -745.0 else 0.0
    return TailBound(min(1.0, value), "chernoff")


def _monte_carlo_tail(law: CountLaw, a: float, n: int, squared: bool) -> float:
    draws = min(100_000, max(1_000, 10**8 // max(n, 1)))
    gen = RngStream(0x5EED, 0).child("chernoff-mc", n, a, squared).generator()
    exceed = 0
    for start in range(0, draws, max(1, 10**7 // max(n, 1))):
        block = min(draws - start, max(1, 10**7 // max(n, 1)))
        counts = law.sample(gen, block * n).reshape(block, n).astype(float)
        totals = (counts**2 if squared else counts).sum(axis=1)
        exceed += int(np.count_nonzero(totals > a * n))
    return exceed / draws


# ---------------------------------------------------------------------------
# Empirical covers and packings on (candidates, e_{n,p})
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverResult:
    kind: str  # "greedy_cover" | "maximal_packing"
    radius: float
    size: int
    center_indices: tuple[int, ...]
    centers: tuple[EvalFunction, ...]


class _CandidateGeometry:
    """Pairwise e_{n,p} distances over a candidate set, computed lazily.

    Indicator candidates use the exact identity |f-g| = f + g - 2fg, so the
    distances come out of integer-valued dot products; square losses use the
    corresponding norm identity.  When the candidate set is small the full
    Gram matrix is materialized once and reused across radii.
    """

    _FULL_CAP = 4096

    def __init__(self, sample: Sample, candidates, p: float):
        pts = sample.all_points()
        self.p = p
        self.values = np.stack([f.evaluate(pts) for f in candidates])
        self.w0 = 1.0 / sample.n
        self.size = self.values.shape[0]
        self.indicator = bool(((self.values == 0.0) | (self.values == 1.0)).all())
        if self.indicator:
            self.counts = self.values.sum(axis=1)
        elif p == 2.0:
            self.sq_norms = (self.values**2).sum(axis=1)
        self._full: np.ndarray | None = None

    def row(self, i: int) -> np.ndarray:
        if self._full is not None:
            return self._full[i]
        if self.size <= self._FULL_CAP and (self.indicator or self.p == 2.0):
            self._full = self._full_matrix()
            return self._full[i]
        return self._row_direct(i)

    def _row_direct(self, i: int) -> np.ndarray:
        v = self.values[i]
        if self.indicator and self.p != math.inf:
            dots = self.values @ v
            return ((self.counts + self.counts[i] - 2.0 * dots) * self.w0) ** (
                1.0 / self.p
            )
        diff = np.abs(self.values - v[None, :])
        if self.p == math.inf:
            return diff.max(axis=1)
        return ((diff**self.p).sum(axis=1) * self.w0) ** (1.0 / self.p)

    def _full_matrix(self) -> np.ndarray:
        gram = self.values @ self.values.T
        if self.indicator:
            powered = (self.counts[:, None] + self.counts[None, :] - 2.0 * gram)
            powered *= self.w0
            return np.maximum(powered, 0.0) ** (1.0 / self.p)
        sq = self.sq_norms[:, None] + self.sq_norms[None, :] - 2.0 * gram
        return np.sqrt(np.maximum(sq * self.w0, 0.0))


def greedy_cover(
    sample: Sample,
    cls: FunctionClass,
    candidates,
    epsilon: float,
    p: float,
) -> CoverResult:
    """A valid epsilon-cover of the candidate set under e_{n,p}: scan in the
    given canonical order, opening a new center at the first uncovered
    candidate.  The size upper-bounds the covering number of the candidates."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    if epsilon <= 0 or (p != math.inf and p < 1):
        raise ValueError("need epsilon > 0 and p >= 1")
    geometry = _CandidateGeometry(sample, candidates, p)
    centers = _greedy_cover_indices(geometry, epsilon)
    return CoverResult(
        "greedy_cover",
        epsilon,
        len(centers),
        tuple(centers),
        tuple(candidates[i] for i in centers),
    )


def _greedy_cover_indices(geometry: _CandidateGeometry, epsilon: float) -> list[int]:
    covered = np.zeros(geometry.size, dtype=bool)
    centers: list[int] = []
    while not covered.all():
        i = int(np.argmin(covered))
        centers.append(i)
        covered |= geometry.row(i) <= epsilon
    return centers


def maximal_packing(
    sample: Sample,
    cls: FunctionClass,
    candidates,
    epsilon: float,
    p: float,
) -> CoverResult:
    """A maximal epsilon-separated subset of the candidates (pairwise
    distances strictly above epsilon), built greedily in canonical order.
    The size lower-bounds the packing number of the class on this sample."""
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    if epsilon <= 0 or (p != math.inf and p < 1):
        raise ValueError("need epsilon > 0 and p >= 1")
    geometry = _CandidateGeometry(sample, candidates, p)
    alive = np.ones(geometry.size, dtype=bool)
    kept: list[int] = []
    while alive.any():
        i = int(np.argmax(alive))
        kept.append(i)
        alive &= geometry.row(i) > epsilon
    return CoverResult(
        "maximal_packing",
        epsilon,
        len(kept),
        tuple(kept),
        tuple(candidates[i] for i in kept),
    )


def entropy_integral(
    sample: Sample, cls: FunctionClass, delta: float, grid: int
) -> float:
    """Trapezoidal integral over a log-spaced epsilon grid of
    sqrt(log max(1, greedy cover size)) under e_{n,2}; the head strip below
    the smallest grid node is added as a rectangle.  Diagnostic only."""
    if delta <= 0 or grid < 2:
        raise ValueError("need delta > 0 and at least two grid nodes")
    candidates = class_candidates(sample, cls)
    eps_grid = np.geomspace(delta * 1e-3, delta, grid)
    geometry = _CandidateGeometry(sample, candidates, 2.0)
    sizes = [len(_greedy_cover_indices(geometry, eps)) for eps in eps_grid]
    integrand = np.sqrt(np.log(np.maximum(1.0, np.asarray(sizes, dtype=float))))
    head = eps_grid[0] * integrand[0]
    return float(head + np.trapezoid(integrand, eps_grid))


# ---------------------------------------------------------------------------
# Candidate grids representing the classes on a fixed sample
# ---------------------------------------------------------------------------


def _threshold_grid(xs: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct values plus outer sentinels;
    these realize every half-line labeling of the values."""
    xs = np.unique(xs)
    inner = 0.5 * (xs[1:] + xs[:-1]) if xs.size > 1 else np.empty(0)
    span = max(1.0, float(xs[-1] - xs[0]))
    return np.concatenate([[xs[0] - span], inner, [xs[-1] + span]])


def halfline_candidates(sample: Sample) -> list[HalfLineIndicator]:
    """One representative per distinct half-line labeling of the sample."""
    if sample.dim != 1:
        raise ValueError("half-line candidates need one-dimensional samples")
    thresholds = _threshold_grid(sample.all_points()[:, 0])
    out = [HalfLineIndicator(float(t), 1) for t in thresholds]
    out += [HalfLineIndicator(float(t), -1) for t in thresholds]
    return out


def halfplane_candidates(
    sample: Sample, max_candidates: int = 20_000
) -> list[HalfSpaceIndicator]:
    """Representatives of the half-plane labelings induced by the sample:
    pair-normal directions (wobbled to both sides) crossed with projected
    threshold midpoints, deduplicated by labeling.  Large samples are thinned
    deterministically to at most ``max_candidates``."""
    if sample.dim != 2:
        raise ValueError("half-plane candidates need two-dimensional samples")
    pts = sample.all_points()
    m = pts.shape[0]
    ii, jj = np.triu_indices(m, k=1)
    diff = pts[jj] - pts[ii]
    norms = np.linalg.norm(diff, axis=1)
    keep = norms > 0
    diff = diff[keep] / norms[keep, None]
    if diff.shape[0] == 0:
        diff = np.array([[1.0, 0.0]])
    max_dirs = min(2 * diff.shape[0], 2048)
    if 2 * diff.shape[0] > max_dirs:
        stride = diff.shape[0] / (max_dirs // 2)
        diff = diff[np.unique((np.arange(max_dirs // 2) * stride).astype(int))]
    wob = 1e-7
    cos_w, sin_w = math.cos(wob), math.sin(wob)
    normals = np.stack([-diff[:, 1], diff[:, 0]], axis=1)
    dirs = np.concatenate(
        [
            np.stack(
                [
                    cos_w * normals[:, 0] - sin_w * normals[:, 1],
                    sin_w * normals[:, 0] + cos_w * normals[:, 1],
                ],
                axis=1,
            ),
            np.stack(
                [
                    cos_w * normals[:, 0] + sin_w * normals[:, 1],
                    -sin_w * normals[:, 0] + cos_w * normals[:, 1],
                ],
                axis=1,
            ),
        ]
    )
    per_dir = max(8, max_candidates // (2 * dirs.shape[0]))
    seen: set[bytes] = set()
    out: list[HalfSpaceIndicator] = []
    for u in dirs:
        proj = pts @ u
        thresholds = _threshold_grid(proj)
        if thresholds.size > per_dir:
            idx = np.unique(
                (np.arange(per_dir) * (thresholds.size / per_dir)).astype(int)
            )
            thresholds = thresholds[idx]
        for t in thresholds:
            for sign in (1.0, -1.0):
                labeling = np.packbits(sign * proj <= sign * t).tobytes()
                if labeling in seen:
                    continue
                seen.add(labeling)
                out.append(HalfSpaceIndicator((sign * t) * (sign * u), sign * u))
        if len(out) >= max_candidates:
            break
    return out[:max_candidates]


def exponential_candidates(cls: FunctionClass, grid: int = 2048) -> list[Exponential]:
    if cls.kind != "exponentials":
        raise ValueError("expected an exponential class")
    thetas = np.linspace(-cls.radius, cls.radius, grid)
    return [Exponential(float(t), cls.domain) for t in thetas]


def class_candidates(sample: Sample, cls: FunctionClass, **kwargs) -> list[EvalFunction]:
    """The canonical candidate grid representing ``cls`` on ``sample``."""
    if cls.kind == "half_lines" or (cls.kind == "half_spaces" and cls.dim == 1):
        return halfline_candidates(sample)
    if cls.kind == "half_spaces" and cls.dim == 2:
        return halfplane_candidates(sample, **kwargs)
    if cls.kind == "exponentials":
        return exponential_candidates(cls, **kwargs)
    if cls.kind == "finite_list":
        return list(cls.members)
    raise ValueError(f"no candidate enumeration for class kind {cls.kind!r}")
