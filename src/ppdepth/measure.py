"""Empirical intensity measures and uniform deviations over function classes.

The empirical intensity of a sample is mu_n(f) = (1/n) sum_i Y_i(f) with
Y_i(f) = sum_j f(X_{i,j}); every point of the sample therefore carries weight
1/n.  References provide the target measure mu: either a mixed binomial law
with mu(f) = E[L] E[f(X)], or the empirical measure of another sample.

``sup_deviation`` computes sup_f |mu_n(f) - mu(f)| over a function class.
For half-lines the supremum is exact: it is attained (or approached one
sidedly) at data points, at atoms of the reference, or in the tails, and both
closed orientations are scanned.  For half-planes the scan enumerates all
pair-normal directions with small angular perturbations on both sides.  That
is exact (up to boundary ties) against an empirical reference, whose mass
changes only at those directions; against any other reference the sup can
lie inside an arc between them, so the result is flagged as a lower bound.
In dimension three and above the result is a flagged lower bound over
sampled directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import (
    EvalFunction,
    Exponential,
    FunctionClass,
    HalfLineIndicator,
    HalfSpaceIndicator,
)
from .generators import CountLaw, DisplacementLaw
from .patterns import PointPattern, Sample

__all__ = [
    "ReferenceMeasure",
    "MixedBinomialReference",
    "EmpiricalReference",
    "SupDeviation",
    "reference_for",
    "reference_mass",
    "pattern_integral",
    "empirical_intensity",
    "empirical_pseudo_distance",
    "covariance_hat",
    "sup_deviation",
    "signed_halfline_sup",
    "halfline_sup_weighted",
    "halfline_sup_rows",
]


# ---------------------------------------------------------------------------
# Basic integrals
# ---------------------------------------------------------------------------


def pattern_integral(pattern: PointPattern, f: EvalFunction) -> float:
    """Y(f) = sum of f over the points of one pattern."""
    return float(f.evaluate(pattern.points).sum())


def empirical_intensity(sample: Sample, f: EvalFunction) -> float:
    """mu_n(f) = (1/n) sum_i Y_i(f), evaluated on the flattened points."""
    return float(f.evaluate(sample.all_points()).sum() / sample.n)


def empirical_pseudo_distance(
    sample: Sample, f: EvalFunction, g: EvalFunction, p: float
) -> float:
    """The L^p pseudo-distance ((1/n) sum_i Y_i(|f-g|^p))^{1/p}.

    ``p = math.inf`` gives the plain maximum of |f - g| over all points of
    the sample (no mass normalization).
    """
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1 or infinity")
    pts = sample.all_points()
    diff = np.abs(f.evaluate(pts) - g.evaluate(pts))
    if p == math.inf:
        return float(diff.max())
    return float((np.sum(diff**p) / sample.n) ** (1.0 / p))


def covariance_hat(sample: Sample, f: EvalFunction, g: EvalFunction) -> float:
    """Unbiased sample covariance (divisor n - 1) of {Y_i(f)} and {Y_i(g)}."""
    if sample.n < 2:
        raise ValueError("covariance needs at least two patterns")
    pats = sample.patterns
    yf = np.array([pattern_integral(p, f) for p in pats])
    yg = np.array([pattern_integral(p, g) for p in pats])
    return float((yf - yf.mean()) @ (yg - yg.mean()) / (sample.n - 1))


# ---------------------------------------------------------------------------
# Reference measures
# ---------------------------------------------------------------------------


class ReferenceMeasure:
    """A known (or empirical) intensity measure used as the deviation target."""

    total_mass: float
    dim: int

    def mass_of(self, f: EvalFunction) -> float:
        raise NotImplementedError

    def line_mass(self, u: np.ndarray, s, strict: bool = False):
        """Mass of {y : <y, u> <= s} (or < s when strict); vectorized in s."""
        raise NotImplementedError

    def line_atoms(self, u: np.ndarray) -> np.ndarray | None:
        """Projected atom positions along u when atomic, else None."""
        return None


@dataclass(frozen=True)
class MixedBinomialReference(ReferenceMeasure):
    """mu(f) = E[L] * E[f(X)] for independent counts and displacements."""

    count: CountLaw
    disp: DisplacementLaw

    def __post_init__(self):
        moments = self.count.moments()
        object.__setattr__(self, "total_mass", float(moments.mean))
        object.__setattr__(self, "dim", self.disp.dim)

    def mass_of(self, f: EvalFunction) -> float:
        return self.total_mass * self.disp.expectation(f)

    def line_mass(self, u, s, strict=False):
        return self.total_mass * self.disp.projection_cdf(u, s, strict=strict)

    def line_atoms(self, u):
        atoms = self.disp.atoms()
        if atoms is None:
            return None
        pts, _ = atoms
        return pts @ np.asarray(u, dtype=float)

    def pattern_covariance(self, f: EvalFunction, g: EvalFunction) -> float:
        """Cov[Y(f), Y(g)] for one pattern: E[L] Cov[f, g] + Var[L] E[f] E[g]."""
        m = self.count.moments()
        ef, eg = self.disp.expectation(f), self.disp.expectation(g)
        efg = self.disp.expectation_product(f, g)
        return m.mean * (efg - ef * eg) + m.variance * ef * eg

    def marking_covariance(self, f: EvalFunction, g: EvalFunction) -> float:
        """The product-form value E[L] Cov[f, g]; matches pattern_covariance
        only when the count is deterministic or E[f] E[g] = 0."""
        ef, eg = self.disp.expectation(f), self.disp.expectation(g)
        efg = self.disp.expectation_product(f, g)
        return self.count.moments().mean * (efg - ef * eg)


@dataclass(frozen=True)
class EmpiricalReference(ReferenceMeasure):
    """The empirical intensity measure of a sample, atoms of weight 1/n."""

    sample: Sample

    def __post_init__(self):
        object.__setattr__(self, "total_mass", self.sample.s_n / self.sample.n)
        object.__setattr__(self, "dim", self.sample.dim)

    def mass_of(self, f: EvalFunction) -> float:
        return empirical_intensity(self.sample, f)

    def line_mass(self, u, s, strict=False):
        proj = np.sort(self.sample.all_points() @ np.asarray(u, dtype=float))
        side = "left" if strict else "right"
        counts = np.searchsorted(proj, np.asarray(s, dtype=float), side=side)
        out = counts / self.sample.n
        return out if np.ndim(s) else float(out)

    def line_atoms(self, u):
        return self.sample.all_points() @ np.asarray(u, dtype=float)


def reference_for(count: CountLaw, disp: DisplacementLaw) -> MixedBinomialReference:
    """The mixed binomial reference with total mass E[L]."""
    mean = count.moments().mean
    if not math.isfinite(mean):
        raise ValueError("count law has no finite mean")
    return MixedBinomialReference(count, disp)


def reference_mass(ref: ReferenceMeasure, f: EvalFunction) -> float:
    """mu(f) under the reference measure."""
    return ref.mass_of(f)


# ---------------------------------------------------------------------------
# Supremum deviations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupDeviation:
    value: float
    argmax: EvalFunction
    exact: bool


def _sweep_sups(weak_max, weak_min, strict_max, strict_min, dtot):
    """Maxima of the four sweep candidates |dev_weak|, |dev_strict|,
    |dtot - dev_strict| and |dtot - dev_weak|, in that order, from the
    extremes of ``dev_weak`` and ``dev_strict`` (scalars, or one per row).

    |d| is largest at an extreme of d, and fl(dtot - d) is monotone in d
    because rounding is monotone, so its absolute value is also largest at
    an extreme: these are exactly the floats that full passes over the
    candidate arrays give.
    """
    return (
        np.maximum(abs(weak_max), abs(weak_min)),
        np.maximum(abs(strict_max), abs(strict_min)),
        np.maximum(abs(dtot - strict_min), abs(dtot - strict_max)),
        np.maximum(abs(dtot - weak_min), abs(dtot - weak_max)),
    )


def _line_sup(
    xs: np.ndarray,
    ws: np.ndarray,
    ref_weak,
    ref_strict,
    ref_total: float,
    extra_positions: np.ndarray | None = None,
) -> tuple[float, float, int]:
    """Exact sup over closed half-lines of |emp - ref| on a projected axis.

    ``xs`` are data positions with signed weights ``ws``; ``ref_weak(s)`` /
    ``ref_strict(s)`` give the reference mass of (-inf, s] and (-inf, s).
    ``ref_strict = None`` declares an atomless reference (strict mass equals
    weak mass, so its evaluation is reused).  Both orientations and both
    one-sided limits are scanned at every data position (and at the
    reference's atoms, passed via ``extra_positions``).  Returns
    (value, threshold, orientation); infinite thresholds encode the tails.

    The cumulative weights are ``np.cumsum`` of the weights in stably sorted
    order.  Equal weights only need the sorted positions, since no order of
    ties changes their cumsum.  Unequal weights take the default argsort,
    which agrees with the stable one unless positions tie; only then is the
    stable argsort run.  The value comes from the extremes of the weak and
    strict deviations (``_sweep_sups``); one argmax over the winning
    candidate then gives its first index, so the threshold and orientation
    follow the scan order: weak, strict, then the two reversed candidates,
    each taken only when strictly larger than all before it and the tails.
    """
    if ws.size and (ws == ws[0]).all():
        xs = np.sort(xs)
    else:
        order = np.argsort(xs)
        sorted_xs = xs[order]
        if not (sorted_xs[1:] > sorted_xs[:-1]).all():
            order = np.argsort(xs, kind="stable")
            sorted_xs = xs[order]
        xs, ws = sorted_xs, ws[order]
    cum = np.cumsum(ws)
    emp_total = float(cum[-1]) if cum.size else 0.0

    no_ties = bool((xs[1:] > xs[:-1]).all())
    if no_ties and (extra_positions is None or not len(extra_positions)):
        pos = xs
        emp_weak = cum
        emp_strict = cum - ws
    else:
        pos = np.unique(xs)
        if extra_positions is not None and len(extra_positions):
            pos = np.union1d(pos, np.asarray(extra_positions, dtype=float))
        idx_weak = np.searchsorted(xs, pos, side="right")
        idx_strict = np.searchsorted(xs, pos, side="left")
        emp_weak = np.where(idx_weak > 0, cum[idx_weak - 1], 0.0)
        emp_strict = np.where(idx_strict > 0, cum[idx_strict - 1], 0.0)

    dtot = emp_total - ref_total
    # the tails: closed (-inf, inf) and the empty half-line
    best_val, best_k = abs(dtot), -1
    if pos.size:
        ref_weak_vals = np.asarray(ref_weak(pos), dtype=float)
        if ref_strict is None:
            ref_strict_vals = ref_weak_vals
        else:
            ref_strict_vals = np.asarray(ref_strict(pos), dtype=float)
        dev_weak = emp_weak - ref_weak_vals
        dev_strict = emp_strict - ref_strict_vals
        sups = _sweep_sups(
            dev_weak.max(), dev_weak.min(), dev_strict.max(), dev_strict.min(), dtot
        )
        for k, v in enumerate(sups):
            if v > best_val:
                best_val, best_k = float(v), k
    if best_k < 0:
        return best_val, math.inf, 1
    # orientation +1: closed (-inf, t] and its left limit; orientation -1:
    # closed [t, inf) and its right limit
    if best_k == 0:
        devs = dev_weak
    elif best_k == 1:
        devs = dev_strict
    elif best_k == 2:
        devs = dtot - dev_strict
    else:
        devs = dtot - dev_weak
    i = int(np.argmax(np.abs(devs)))
    return best_val, float(pos[i]), 1 if best_k < 2 else -1


def _ref_line_sup(
    xs: np.ndarray, ws: np.ndarray, ref: ReferenceMeasure, u: np.ndarray
) -> tuple[float, float, int]:
    """``_line_sup`` of the positions ``xs`` along ``u`` against ``ref``
    projected on ``u``, with its atoms scanned when it has any."""
    atoms = ref.line_atoms(u)
    strict = None if atoms is None else (lambda s: ref.line_mass(u, s, strict=True))
    return _line_sup(
        xs,
        ws,
        lambda s: ref.line_mass(u, s, strict=False),
        strict,
        ref.total_mass,
        extra_positions=atoms,
    )


def halfline_sup_weighted(
    points, weights, ref: ReferenceMeasure | None = None
) -> float:
    """Half-line sup deviation from flat one-dimensional points and weights.

    The fast entry point for simulation loops: no pattern objects are built.
    ``weights`` is the per-point mass (1/n for plain samples, s_i/n for
    sign-randomized ones); ``ref = None`` means the zero measure.
    """
    xs = np.asarray(points, dtype=float).ravel()
    ws = np.asarray(weights, dtype=float).ravel()
    if ws.shape != xs.shape:
        raise ValueError("one weight per point required")
    if ref is None:
        return _line_sup(xs, ws, lambda s: np.zeros(np.shape(s)), None, 0.0)[0]
    return _ref_line_sup(xs, ws, ref, np.array([1.0]))[0]


def signed_halfline_sup(sample: Sample, signs: np.ndarray) -> float:
    """sup over closed half-lines of |(1/n) sum_i s_i Y_i(f)| for signs s_i.

    Used by the symmetrization diagnostics: the signed empirical measure puts
    weight s_i / n on every point of pattern i, and the supremum over both
    closed orientations is computed by the same exact sweep as the deviation
    statistic (with a zero reference).
    """
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (sample.n,):
        raise ValueError("one sign per pattern required")
    xs = sample.all_points()[:, 0]
    ws = np.repeat(signs / sample.n, sample.sizes())
    return halfline_sup_weighted(xs, ws, None)


def halfline_sup_rows(rows: np.ndarray, n: int, ref: ReferenceMeasure) -> np.ndarray:
    """Row-wise half-line sup deviation for B samples of equal layout.

    ``rows`` has shape (B, m): the m one-dimensional points of each sample,
    every point carrying weight 1/n.  Requires an atomless reference (ties
    then have probability zero and the weak/strict scan reduces to shifted
    cumulative weights).  Matches ``sup_deviation`` on each row.

    Each row's value comes from the max and min of its weak deviations
    (``_sweep_sups``).  The strict deviations are the weak ones less 1/n,
    and rounding is monotone, so their extremes are the weak extremes less
    1/n.  Rows are sorted and reduced in blocks of about 2^15 points, so
    each block's deviations stay in cache and no (B, m) array beyond the
    sorted copy of ``rows`` is built.
    """
    if ref.line_atoms(np.array([1.0])) is not None:
        raise ValueError("batched sweep requires an atomless reference")
    rows = np.array(rows, dtype=float)
    b, m = rows.shape
    u = np.array([1.0])
    cum = np.arange(1, m + 1, dtype=float) / n
    weak_max = np.empty(b)
    weak_min = np.empty(b)
    per = max(1, (1 << 15) // m)
    for lo in range(0, b, per):
        block = rows[lo : lo + per]
        for row in block:  # row-wise sorts stay cache-resident, axis sorts do not
            row.sort()
        dev_weak = cum - np.asarray(ref.line_mass(u, block), dtype=float)
        dev_weak.max(axis=1, out=weak_max[lo : lo + per])
        dev_weak.min(axis=1, out=weak_min[lo : lo + per])
    step = 1.0 / n
    dtot = m / n - ref.total_mass
    out = np.full(b, abs(dtot))
    for sup in _sweep_sups(weak_max, weak_min, weak_max - step, weak_min - step, dtot):
        np.maximum(out, sup, out=out)
    return out


def _pair_normal_directions(points: np.ndarray, wobble: float = 1e-7) -> np.ndarray:
    """Unit normals of all lines through pairs of distinct points, each with
    angular perturbations on both sides."""
    m = points.shape[0]
    ii, jj = np.triu_indices(m, k=1)
    diff = points[jj] - points[ii]
    norms = np.linalg.norm(diff, axis=1)
    keep = norms > 0
    diff = diff[keep] / norms[keep, None]
    base = np.stack([-diff[:, 1], diff[:, 0]], axis=1)
    cos_w, sin_w = math.cos(wobble), math.sin(wobble)
    rot_plus = np.stack(
        [
            cos_w * base[:, 0] - sin_w * base[:, 1],
            sin_w * base[:, 0] + cos_w * base[:, 1],
        ],
        axis=1,
    )
    rot_minus = np.stack(
        [
            cos_w * base[:, 0] + sin_w * base[:, 1],
            -sin_w * base[:, 0] + cos_w * base[:, 1],
        ],
        axis=1,
    )
    dirs = np.concatenate([base, rot_plus, rot_minus], axis=0)
    if dirs.size == 0:
        dirs = np.array([[1.0, 0.0]])
    return dirs


def _golden_section(f, lo: float, hi: float, tol: float):
    """Golden-section search for a minimum of ``f`` on [lo, hi], shrinking
    the bracket until it is at most ``tol`` wide.  Returns the final bracket
    and the values of ``f`` at its two interior points, (lo, hi, fc, fd)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return lo, hi, fc, fd


def _sphere_directions(dim: int, k: int) -> np.ndarray:
    """A deterministic prefix sequence of k roughly uniform unit directions."""
    if dim == 1:
        return np.array([[1.0]] * min(k, 1))
    if dim == 2:
        golden = math.pi * (3.0 - math.sqrt(5.0))
        ang = golden * np.arange(k)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    from scipy.stats import qmc

    sobol = qmc.Sobol(d=dim, scramble=True, seed=20210607)
    from scipy.special import ndtri

    raw = sobol.random(k)
    z = ndtri(np.clip(raw, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    return z / norms[:, None]


def _directional_sup(
    sample: Sample, ref: ReferenceMeasure, dirs: np.ndarray
) -> tuple[float, HalfSpaceIndicator]:
    pts = sample.all_points()
    ws = np.full(pts.shape[0], 1.0 / sample.n)
    best = (-1.0, None, None, None)
    for u in dirs:
        value, t, orient = _ref_line_sup(pts @ u, ws, ref, u)
        if value > best[0]:
            best = (value, u, t, orient)
    value, u, t, orient = best
    direction = orient * u
    if not math.isfinite(t):
        # tail candidate: the half-space degenerates to R^d or the empty set
        t = math.copysign(1e300, t)
    boundary_point = t * u
    return value, HalfSpaceIndicator(boundary_point, direction)


def _exponential_sup(
    sample: Sample, cls: FunctionClass, ref: ReferenceMeasure, grid: int = 1024
) -> SupDeviation:
    a, b = cls.domain
    r = cls.radius
    xs = sample.all_points()[:, 0]
    if xs.min() < a - 1e-12 or xs.max() > b + 1e-12:
        raise ValueError("sample leaves the declared domain of the class")
    n = sample.n

    def h(theta: float) -> float:
        # same summation order as empirical_intensity, so an empirical
        # target measuring the sample itself gives exactly zero
        emp = float(np.exp(theta * xs).sum()) / n
        return abs(emp - ref.mass_of(Exponential(theta, (a, b))))

    thetas = np.linspace(-r, r, grid)
    vals = np.array([h(t) for t in thetas])
    i = int(np.argmax(vals))
    # golden-section refinement of the bracket around the grid argmax
    lo, hi, _, _ = _golden_section(
        lambda t: -h(t), thetas[max(i - 1, 0)], thetas[min(i + 1, grid - 1)], 1e-9
    )
    theta = 0.5 * (lo + hi)
    value = max(h(theta), vals[i])
    if vals[i] >= value:
        theta = float(thetas[i])
        value = float(vals[i])
    return SupDeviation(value, Exponential(theta, (a, b)), exact=True)


def sup_deviation(
    sample: Sample,
    cls: FunctionClass,
    ref: ReferenceMeasure,
    *,
    directions: int = 4096,
) -> SupDeviation:
    """sup_f |mu_n(f) - mu(f)| over the class, with the achieving function.

    Exact for half-lines, and (up to boundary ties) for half-planes against
    an empirical reference; a flagged lower bound for half-planes against any
    other reference (pair-normal directions only) and from ``directions``
    sampled directions in dimension >= 3.
    """
    if ref.dim != sample.dim:
        raise ValueError("sample and reference dimensions differ")
    kind = cls.kind
    if kind == "half_lines" or (kind == "half_spaces" and cls.dim == 1):
        if sample.dim != 1:
            raise ValueError("half-line classes need one-dimensional samples")
        xs = sample.all_points()[:, 0]
        ws = np.full(xs.shape, 1.0 / sample.n)
        value, t, orient = _ref_line_sup(xs, ws, ref, np.array([1.0]))
        return SupDeviation(value, HalfLineIndicator(t, orient), exact=True)
    if kind == "half_spaces" and cls.dim == 2:
        pts = sample.all_points()
        if isinstance(ref, EmpiricalReference):
            # empirical targets add their own critical directions
            pts = np.concatenate([pts, ref.sample.all_points()], axis=0)
        dirs = _pair_normal_directions(pts)
        value, argmax = _directional_sup(sample, ref, dirs)
        return SupDeviation(value, argmax, exact=isinstance(ref, EmpiricalReference))
    if kind == "half_spaces":
        dirs = _sphere_directions(cls.dim, directions)
        pts = sample.all_points()
        if sample.s_n <= 64 and cls.dim == 3:
            extra = _hyperplane_normals_3d(pts)
            if extra.size:
                dirs = np.concatenate([dirs, extra], axis=0)
        value, argmax = _directional_sup(sample, ref, dirs)
        return SupDeviation(value, argmax, exact=False)
    if kind == "exponentials":
        return _exponential_sup(sample, cls, ref)
    if kind == "finite_list":
        best_val, best_f = -1.0, None
        for f in cls.members:
            dev = abs(empirical_intensity(sample, f) - ref.mass_of(f))
            if dev > best_val:
                best_val, best_f = dev, f
        return SupDeviation(best_val, best_f, exact=True)
    raise ValueError(f"unsupported class kind {kind!r}")


def _hyperplane_normals_3d(points: np.ndarray) -> np.ndarray:
    """Normals of planes through triples of data points (dimension 3)."""
    m = points.shape[0]
    normals = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                n = np.cross(points[j] - points[i], points[k] - points[i])
                norm = np.linalg.norm(n)
                if norm > 1e-12:
                    normals.append(n / norm)
    return np.asarray(normals) if normals else np.empty((0, 3))
