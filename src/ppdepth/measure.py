"""Empirical intensity measures and uniform deviations over function classes.

The empirical intensity of a sample is mu_n(f) = (1/n) sum_i Y_i(f) with
Y_i(f) = sum_j f(X_{i,j}); every point of the sample therefore carries weight
1/n.  References provide the target measure mu: either a mixed binomial law
with mu(f) = E[L] E[f(X)], or the empirical measure of another sample.

``sup_deviation`` computes sup_f |mu_n(f) - mu(f)| over a function class.
For half-lines the supremum is exact: it is attained (or approached one
sidedly) at data points, at atoms of the reference, or in the tails, and both
closed orientations are scanned.  A purely atomic reference
(``ReferenceMeasure.atoms``: an empirical measure or a discrete law) is swept
as its atoms on every path: projected on the direction, they follow the
sample's positions at weight -mass, and that signed measure is swept against
zero (a maximum bichromatic discrepancy).  For half-planes the scan
enumerates the pair-normal directions of the sample points and the
reference's atoms, with small angular perturbations on both sides.  That is
exact (up to boundary ties) against a purely atomic reference, whose
difference with the sample changes only at those directions; against any
other reference the sup can lie inside an arc between them, so the result is
flagged as a lower bound, as it is over the sampled directions of dimension
three and above.

Every half-line sweep takes its empirical masses from one rule: ``prefix``
holds the m + 1 prefix sums of the sorted weights with a leading 0
(``np.cumsum``), the weak mass (-inf, x] is ``prefix[#points <= x]`` and the
strict mass (-inf, x) is ``prefix[#points < x]``.
"""

from __future__ import annotations

import itertools
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
    "halfline_sup_ragged",
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
        """Mass of {y : <y, u> <= s} (or < s when strict); vectorized in s.
        Every reference also takes a (k, d) block of directions, as
        ``DisplacementLaw.projection_cdf`` does: row i of the result is the
        call with ``u[i]`` and ``s[i]``."""
        raise NotImplementedError

    def atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(points, masses) of a purely atomic reference, else None."""
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

    def atoms(self):
        """Each atom of a discrete displacement law at mass E[L] * weight."""
        atoms = self.disp.atoms()
        return None if atoms is None else (atoms[0], self.total_mass * atoms[1])

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
        pts, side = self.sample.all_points(), "left" if strict else "right"

        def mass(v, t):
            return np.searchsorted(np.sort(pts @ v), t, side=side) / self.sample.n

        u, s = np.asarray(u, dtype=float), np.asarray(s, dtype=float)
        if u.ndim == 2:
            return np.array([mass(v, t) for v, t in zip(u, s)])
        out = mass(u, s)
        return out if out.ndim else float(out)

    def atoms(self):
        """Every point of the sample at mass 1/n."""
        pts = self.sample.all_points()
        return pts, np.full(pts.shape[0], 1.0 / self.sample.n)


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


def _prefix(ws: np.ndarray) -> np.ndarray:
    """The m + 1 prefix sums of the sorted weights ``ws``, with a leading 0."""
    prefix = np.zeros(ws.size + 1)
    np.cumsum(ws, out=prefix[1:])
    return prefix


def _sorted_row_sups(proj, u, prefix, ref: ReferenceMeasure, out: np.ndarray) -> None:
    """Write into ``out`` the half-line sup of each row of ``proj`` against
    the atomless ``ref`` along ``u`` (one direction, or one per row), for
    rows sorted ascending whose points carry the positive weights summed in
    ``prefix`` (one prefix for all rows, or one per row).

    Row i equals ``_line_sup``'s value on it.  With positive weights
    ``prefix[:-1] <= prefix[1:]`` elementwise, and rounding is monotone, so
    every strict deviation is at most its weak one: the largest of all
    deviations is ``hi``, the max of the weak ones, and the smallest is
    ``lo``, the min of the strict ones.  Inside a tie group each point's
    own prefix values lie between the group's strict and weak masses, so
    ties need no special case.
    """
    ref_vals = np.asarray(ref.line_mass(u, proj), dtype=float)
    dev = prefix[..., 1:] - ref_vals
    hi = dev.max(axis=1)
    np.subtract(prefix[..., :-1], ref_vals, out=dev)
    lo = dev.min(axis=1)
    dtot = prefix[..., -1] - ref.total_mass
    out[:] = abs(dtot)
    for sup in _sweep_sups(hi, hi, lo, lo, dtot):
        np.maximum(out, sup, out=out)


def _line_sup(
    xs: np.ndarray, ws: np.ndarray, ref_mass=None, ref_total: float = 0.0
) -> tuple[float, float, int]:
    """Exact sup over closed half-lines of |emp - ref| on a projected axis.

    ``xs`` are data positions with signed weights ``ws``; ``ref_mass(s)``
    gives the mass of (-inf, s] of an atomless reference, which is also that
    of (-inf, s), and ``None`` means the zero measure.  A purely atomic
    reference is swept as its atoms against the zero measure
    (``_ref_line_sup``).  Both orientations and both one-sided limits are
    scanned at every data position.  Returns (value, threshold,
    orientation); infinite thresholds encode the tails.

    The empirical masses follow the module's prefix rule (``_prefix``) in
    stably sorted order.  Equal weights only need the sorted positions, since
    no order of ties changes their prefix sums.  Unequal weights take the
    default argsort, which agrees with the stable one unless positions tie;
    only then is the stable argsort run.  The value comes from the extremes
    of the weak and strict deviations (``_sweep_sups``); one argmax over the
    winning candidate then gives its first index, so the threshold and
    orientation follow the scan order: weak, strict, then the two reversed
    candidates, each taken only when strictly larger than all before it and
    the tails.
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
    prefix = _prefix(ws)

    if (xs[1:] > xs[:-1]).all():
        pos, dev_weak, dev_strict = xs, prefix[1:], prefix[:-1]
    else:
        pos = np.unique(xs)
        dev_weak = prefix[np.searchsorted(xs, pos, side="right")]
        dev_strict = prefix[np.searchsorted(xs, pos, side="left")]
    if ref_mass is not None:
        ref_vals = np.asarray(ref_mass(pos), dtype=float)
        dev_weak, dev_strict = dev_weak - ref_vals, dev_strict - ref_vals

    dtot = float(prefix[-1]) - ref_total
    # the tails: closed (-inf, inf) and the empty half-line
    best_val, best_k = abs(dtot), -1
    if pos.size:
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
    projected on ``u``.  A purely atomic ``ref`` is swept as its atoms: their
    projections (their own product, as ``_direction_sups`` takes them) follow
    ``xs`` at weights -mass, against the zero measure."""
    atoms = ref.atoms()
    if atoms is None:
        return _line_sup(xs, ws, lambda s: ref.line_mass(u, s), ref.total_mass)
    atom_pts, masses = atoms
    return _line_sup(np.concatenate([xs, atom_pts @ u]), np.concatenate([ws, -masses]))


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
        return _line_sup(xs, ws)[0]
    _check_line_ref(ref)
    return _ref_line_sup(xs, ws, ref, np.array([1.0]))[0]


def _check_line_ref(ref: ReferenceMeasure) -> None:
    """Refuse a reference that does not live on the real line."""
    if ref.dim != 1:
        raise ValueError(f"half-line sweeps need a one-dimensional reference, not {ref.dim}-d")


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
    every point carrying weight 1/n.  Requires an atomless reference.  Row i
    equals ``sup_deviation`` on that sample bit for bit.  Rows are copied,
    sorted and reduced (``_sorted_row_sups``) in blocks of about 2^15
    points, so each block's deviations stay in cache and ``rows`` is never
    copied whole.
    """
    _check_line_ref(ref)
    if ref.atoms() is not None:
        raise ValueError("batched sweep requires an atomless reference")
    rows = np.asarray(rows, dtype=float)
    b, m = rows.shape
    u = np.array([1.0])
    prefix = _prefix(np.full(m, 1.0 / n))
    out = np.empty(b)
    per = max(1, (1 << 15) // m)
    for lo in range(0, b, per):
        block = rows[lo : lo + per].copy()
        for row in block:  # row-wise sorts stay cache-resident, axis sorts do not
            row.sort()
        _sorted_row_sups(block, u, prefix, ref, out[lo : lo + per])
    return out


def halfline_sup_ragged(
    points, sizes, weights, ref: ReferenceMeasure | None = None
) -> np.ndarray:
    """``halfline_sup_weighted`` for B samples at once, bit for bit.

    Sample i holds the next ``sizes[i]`` entries of the flat ``points`` and
    ``weights``.  Samples go in blocks of about 2^15 points, each padded to
    its longest sample with points at +inf of weight 0: a padded point only
    repeats the total deviation as a candidate, which is already one.
    Against an atomless reference all weights must be one positive value
    (1/n for plain samples), and sorted rows go to ``_sorted_row_sups``.
    ``ref = None`` means the zero measure and takes any signed weights
    (``_signed_row_sups``), as does an atomic reference, whose atoms follow
    the padding of every row at weights -mass: after the sample's points,
    as ``_ref_line_sup`` places them.
    """
    xs = np.asarray(points, dtype=float)
    ws = np.asarray(weights, dtype=float)
    sizes = np.asarray(sizes, dtype=np.int64)
    if ws.shape != xs.shape or xs.ndim != 1 or xs.size != sizes.sum():
        raise ValueError("one weight per point and sizes summing to the points required")
    atoms = None if ref is None else ref.atoms()
    if ref is not None:
        _check_line_ref(ref)
        if atoms is None and not (ws.size and ws[0] > 0 and (ws == ws[0]).all()):
            raise ValueError("batched sweep against a reference needs one positive weight")
    u = np.array([1.0])
    atom_xs, atom_ws = (np.empty(0), np.empty(0)) if atoms is None else (atoms[0] @ u, -atoms[1])
    out = np.empty(sizes.size)
    starts = np.cumsum(sizes) - sizes
    per = max(1, (1 << 15) // max(1, int(sizes.max(initial=0)) + atom_xs.size))
    for lo in range(0, sizes.size, per):
        rows = sizes[lo : lo + per]
        start, stop, width = starts[lo], starts[lo] + rows.sum(), int(rows.max())
        filled = np.arange(width) < rows[:, None]
        block = np.full((rows.size, width + atom_xs.size), np.inf)
        block_ws = np.zeros(block.shape)
        block[:, :width][filled] = xs[start:stop]
        block_ws[:, :width][filled] = ws[start:stop]
        block[:, width:], block_ws[:, width:] = atom_xs, atom_ws
        if ref is None or atoms is not None:
            _signed_row_sups(block, block_ws, out[lo : lo + per])
        else:
            block.sort(axis=1)
            prefix = np.zeros((rows.size, width + 1))
            np.cumsum(block_ws, axis=1, out=prefix[:, 1:])
            _sorted_row_sups(block, u, prefix, ref, out[lo : lo + per])
    return out


def _signed_row_sups(xs: np.ndarray, ws: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the half-line sup of each row of positions ``xs``
    with signed weights ``ws`` against the zero measure: ``_line_sup``'s
    value, bit for bit.

    Rows are sorted as ``_line_sup`` sorts: the default argsort, and the
    stable one for rows with tied positions, so each prefix sum adds the
    same weights in the same order.  (The +inf padding ties too, but its
    weights are all 0.)  Signed prefix sums are not monotone inside a tie
    group, so only the group's own masses are candidates: the weak one at
    the group's last point and the strict one at its first.
    """
    order = np.argsort(xs, axis=1)
    sorted_xs = np.take_along_axis(xs, order, axis=1)
    last = np.ones(xs.shape, dtype=bool)
    np.not_equal(sorted_xs[:, 1:], sorted_xs[:, :-1], out=last[:, :-1])
    tied = (~last[:, :-1] & (sorted_xs[:, :-1] < np.inf)).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(xs[tied], axis=1, kind="stable")
    prefix = np.zeros((xs.shape[0], xs.shape[1] + 1))
    np.cumsum(np.take_along_axis(ws, order, axis=1), axis=1, out=prefix[:, 1:])
    first = np.ones(xs.shape, dtype=bool)
    first[:, 1:] = last[:, :-1]
    weak = prefix[:, 1:]
    strict = prefix[:, :-1]
    dtot = prefix[:, -1]
    out[:] = abs(dtot)
    sups = _sweep_sups(
        np.where(last, weak, -np.inf).max(axis=1),
        np.where(last, weak, np.inf).min(axis=1),
        np.where(first, strict, -np.inf).max(axis=1),
        np.where(first, strict, np.inf).min(axis=1),
        dtot,
    )
    for sup in sups:
        np.maximum(out, sup, out=out)


def _pair_normals(points: np.ndarray) -> np.ndarray:
    """Unit normals (-dy, dx) of the lines through pairs of distinct points."""
    ii, jj = np.triu_indices(points.shape[0], k=1)
    diff = points[jj] - points[ii]
    norms = np.linalg.norm(diff, axis=1)
    keep = norms > 0
    diff = diff[keep] / norms[keep, None]
    return np.stack([-diff[:, 1], diff[:, 0]], axis=1)


def _wobble_both_sides(normals: np.ndarray) -> np.ndarray:
    """The rows of ``normals`` rotated by +1e-7, then by -1e-7 radians."""
    cos_w, sin_w = math.cos(1e-7), math.sin(1e-7)
    x, y = normals[:, 0], normals[:, 1]
    return np.concatenate(
        [
            np.stack([cos_w * x - sin_w * y, sin_w * x + cos_w * y], axis=1),
            np.stack([cos_w * x + sin_w * y, -sin_w * x + cos_w * y], axis=1),
        ]
    )


def _pair_normal_directions(points: np.ndarray) -> np.ndarray:
    """Unit normals of all lines through pairs of distinct points, each with
    angular perturbations on both sides."""
    base = _pair_normals(points)
    dirs = np.concatenate([base, _wobble_both_sides(base)], axis=0)
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
    """A deterministic prefix of k roughly uniform unit directions, dim >= 2."""
    if dim == 2:
        golden = math.pi * (3.0 - math.sqrt(5.0))
        ang = golden * np.arange(k)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    from scipy.special import ndtri
    from scipy.stats import qmc

    sobol = qmc.Sobol(d=dim, scramble=True, seed=20210607)
    with warnings.catch_warnings():
        # scipy warns that Sobol balance needs k = 2^j; callers rely only on
        # the prefix property (the first k points do not depend on k)
        warnings.filterwarnings("ignore", "The balance properties of Sobol", UserWarning)
        raw = sobol.random(k)
    z = ndtri(np.clip(raw, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    return z / norms[:, None]


def _direction_sups(
    pts: np.ndarray, ws: np.ndarray, ref: ReferenceMeasure, dirs: np.ndarray
) -> np.ndarray:
    """``_ref_line_sup``'s value for every direction of ``dirs`` (points
    ``pts`` at weights ``ws``, 1/n each), bit for bit.

    Directions go in blocks of about 2^15 projected values; row i is ``pts @
    dirs[i]``, the one-direction sweep's BLAS call (one product over sample
    and atoms together would move last bits).  Atomless references go to
    ``_sorted_row_sups``.  Against atoms, their projections follow each row
    at weights -mass, as ``_ref_line_sup`` places them, for
    ``_signed_row_sups``.
    """
    atoms = ref.atoms()
    if atoms is None:
        prefix, width = _prefix(ws), pts.shape[0]
    else:
        atom_pts, masses = atoms
        signed = np.concatenate([ws, -masses])
        width = signed.size
    out = np.empty(len(dirs))
    per = max(1, (1 << 15) // width)
    for lo in range(0, len(dirs), per):
        block = dirs[lo : lo + per]
        proj = np.matmul(pts, block[:, :, None])[:, :, 0]
        if atoms is None:
            proj.sort(axis=1)
            _sorted_row_sups(proj, block, prefix, ref, out[lo : lo + per])
        else:
            rows = np.concatenate([proj, np.matmul(atom_pts, block[:, :, None])[:, :, 0]], axis=1)
            _signed_row_sups(rows, np.broadcast_to(signed, rows.shape), out[lo : lo + per])
    return out


def _directional_sup(
    sample: Sample, ref: ReferenceMeasure, dirs: np.ndarray
) -> tuple[float, HalfSpaceIndicator]:
    """The largest ``_ref_line_sup`` over the directions ``dirs`` and its
    half-space.  Every direction is valued in blocks (``_direction_sups``),
    and only the first one that attains the maximum is swept again, to
    locate the boundary."""
    pts = sample.all_points()
    ws = np.full(pts.shape[0], 1.0 / sample.n)
    u = dirs[int(np.argmax(_direction_sups(pts, ws, ref, dirs)))]
    value, t, orient = _ref_line_sup(pts @ u, ws, ref, u)
    if not math.isfinite(t):
        # tail candidate: the half-space degenerates to R^d or the empty set
        t = math.copysign(1e300, t)
    return value, HalfSpaceIndicator(t * u, orient * u)


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
    a purely atomic reference; a flagged lower bound for half-planes against
    any other reference (pair-normal directions only) and from
    ``directions`` sampled directions in dimension >= 3.
    """
    if ref.dim != sample.dim:
        raise ValueError("sample and reference dimensions differ")
    kind = cls.kind
    if cls.is_half_lines:
        if sample.dim != 1:
            raise ValueError("half-line classes need one-dimensional samples")
        xs = sample.all_points()[:, 0]
        ws = np.full(xs.shape, 1.0 / sample.n)
        value, t, orient = _ref_line_sup(xs, ws, ref, np.array([1.0]))
        return SupDeviation(value, HalfLineIndicator(t, orient), exact=True)
    if kind == "half_spaces":
        pts = sample.all_points()
        atoms = ref.atoms()
        if cls.dim == 2:  # atomic targets add their own critical directions
            dirs = _pair_normal_directions(pts if atoms is None else np.concatenate([pts, atoms[0]]))
        else:
            dirs = _sphere_directions(cls.dim, directions)
            if sample.s_n <= 64 and cls.dim == 3:
                extra = _hyperplane_normals_3d(pts)
                if extra.size:
                    dirs = np.concatenate([dirs, extra], axis=0)
        value, argmax = _directional_sup(sample, ref, dirs)
        return SupDeviation(value, argmax, exact=cls.dim == 2 and atoms is not None)
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
    normals = []
    for i, j, k in itertools.combinations(range(points.shape[0]), 3):
        n = np.cross(points[j] - points[i], points[k] - points[i])
        norm = np.linalg.norm(n)
        if norm > 1e-12:
            normals.append(n / norm)
    return np.asarray(normals) if normals else np.empty((0, 3))
