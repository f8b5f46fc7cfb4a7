"""Half-space (Tukey) depth of finite measures.

The depth of x is the infimum over unit directions u of the mass of the
closed half-space {y : <y, u> <= <x, u>}.  For weighted point sets in the
plane the infimum is computed exactly by an angular sweep: the inclusion
pattern of the points only changes when the boundary line through x rotates
past a data point, so it suffices to evaluate the closed mass at every
critical angle and once inside every open arc between consecutive critical
angles.  An independent brute-force oracle (point normals with tiny
two-sided wobbles plus a large pseudo-random direction set) is provided for
cross-validation, and a sampled-direction upper bound covers d >= 3.

Boundary convention: half-spaces are closed, and empirical projections use
an absolute tolerance of 1e-12 times the coordinate scale so that points on
the boundary always count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import (
    EmpiricalReference,
    ReferenceMeasure,
    _golden_section,
    _sphere_directions,
)
from .patterns import Sample

__all__ = [
    "DepthResult",
    "halfspace_mass",
    "depth_1d",
    "depth_2d_exact",
    "depth_oracle",
    "depth_approx",
    "deepest_point",
    "depth_sup_deviation",
    "batch_depth_queries",
    "depth_rows_to_csv",
]

_PROJ_TOL = 1e-12
_UNIT_TOL = 1e-9
_ANGLE_TIE_TOL = 1e-8
_WOBBLE = 1e-7


@dataclass(frozen=True)
class DepthResult:
    depth: float
    direction: np.ndarray
    exact: bool
    tie_count: int


def _unit(u) -> np.ndarray:
    u = np.asarray(u, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError(f"direction must be a unit vector, |u| = {norm}")
    return u / norm


def halfspace_mass(measure: ReferenceMeasure, x, u) -> float:
    """Mass of the closed half-space through x with outward normal u."""
    u = _unit(u)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != measure.dim or u.size != measure.dim:
        raise ValueError("point, direction, and measure dimensions must agree")
    offset = float(x @ u)
    if isinstance(measure, EmpiricalReference):
        proj = measure.sample.all_points() @ u
        tol = _PROJ_TOL * max(1.0, float(np.abs(proj).max()), abs(offset))
        return float(np.count_nonzero(proj <= offset + tol) / measure.sample.n)
    return float(measure.line_mass(u, offset))


def depth_1d(measure: ReferenceMeasure, x: float) -> DepthResult:
    """Exact depth on the line: the smaller of the two closed tail masses."""
    if measure.dim != 1:
        raise ValueError("depth_1d needs a one-dimensional measure")
    x = float(np.asarray(x).reshape(()))
    left = halfspace_mass(measure, [x], [1.0])
    if isinstance(measure, EmpiricalReference):
        proj = measure.sample.all_points()[:, 0]
        tol = _PROJ_TOL * max(1.0, float(np.abs(proj).max()), abs(x))
        right = float(np.count_nonzero(proj >= x - tol) / measure.sample.n)
    else:
        right = measure.total_mass - float(
            measure.line_mass(np.array([1.0]), x, strict=True)
        )
    if left <= right:
        depth, direction = left, np.array([1.0])
    else:
        depth, direction = right, np.array([-1.0])
    ties = 2 if math.isclose(left, right, rel_tol=0, abs_tol=1e-15) else 1
    return DepthResult(depth, direction, exact=True, tie_count=ties)


def _tukey_depth_2d(
    points: np.ndarray, weights: np.ndarray, x: np.ndarray
) -> tuple[float, np.ndarray, int]:
    """Exact planar Tukey depth of x for a weighted point set.

    Returns (depth, minimizing direction, tie count).  The sweep evaluates
    the inclusive half-plane mass at every critical angle (where the boundary
    line through x passes a data point) and at the midpoint of every open arc
    in between.
    """
    q = points - x[None, :]
    scale = max(1.0, float(np.abs(q).max(initial=0.0)))
    tol = _PROJ_TOL * scale
    at_x = np.linalg.norm(q, axis=1) <= tol
    base = float(weights[at_x].sum())
    q = q[~at_x]
    w = weights[~at_x]
    if q.shape[0] == 0:
        return base, np.array([1.0, 0.0]), 1

    theta = np.arctan2(q[:, 1], q[:, 0])
    critical = np.concatenate([theta + 0.5 * math.pi, theta - 0.5 * math.pi])
    critical = np.unique(np.mod(critical, 2.0 * math.pi))
    gaps = np.diff(np.concatenate([critical, [critical[0] + 2.0 * math.pi]]))
    midpoints = np.mod(critical + 0.5 * gaps, 2.0 * math.pi)
    angles = np.concatenate([critical, midpoints])

    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    masses = base + ((q @ dirs.T <= tol).T @ w)
    best = float(masses.min())
    minima = np.nonzero(masses <= best + 0.0)[0]
    direction = dirs[minima[0]]

    min_angles = np.sort(np.mod(angles[minima], 2.0 * math.pi))
    if min_angles.size <= 1:
        ties = min_angles.size
    else:
        gaps = np.diff(min_angles)
        wrap = min_angles[0] + 2.0 * math.pi - min_angles[-1]
        ties = int(np.count_nonzero(gaps > _ANGLE_TIE_TOL)) + (1 if wrap > _ANGLE_TIE_TOL else 0)
        ties = max(ties, 1)
    return best, direction, ties


def depth_2d_exact(measure: EmpiricalReference, x) -> DepthResult:
    """Exact planar depth of x for an empirical measure (angular sweep)."""
    if not isinstance(measure, EmpiricalReference):
        raise ValueError("the exact planar sweep needs an empirical measure")
    if measure.dim != 2:
        raise ValueError("depth_2d_exact needs a two-dimensional measure")
    x = np.asarray(x, dtype=float).reshape(-1)
    pts = measure.sample.all_points()
    w = np.full(pts.shape[0], 1.0 / measure.sample.n)
    depth, direction, ties = _tukey_depth_2d(pts, w, x)
    return DepthResult(depth, direction, exact=True, tie_count=ties)


def _wobbled(base: np.ndarray, partner: np.ndarray) -> list[np.ndarray]:
    """The direction itself plus two tiny rotations toward/away from partner."""
    out = [base]
    for sign in (+_WOBBLE, -_WOBBLE):
        v = base + sign * partner
        norm = np.linalg.norm(v)
        if norm > 0:
            out.append(v / norm)
    return out


def depth_oracle(points, x, weights=None, random_directions: int = 100_000) -> float:
    """Brute-force depth: exhaustive minimum over hyperplane normals through
    x and (d-1)-subsets of points (with two-sided 1e-7 wobbles) plus a large
    seeded pseudo-random direction set.  Independent of the sweep; d <= 3 and
    at most 200 points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = pts.shape
    if d > 3:
        raise ValueError("the oracle covers dimensions 1 to 3 only")
    if m > 200:
        raise ValueError("the oracle is limited to 200 points")
    x = np.asarray(x, dtype=float).reshape(-1)
    w = np.full(m, 1.0) if weights is None else np.asarray(weights, dtype=float)

    q = pts - x[None, :]
    scale = max(1.0, float(np.abs(q).max(initial=0.0)))
    tol = _PROJ_TOL * scale
    lengths = np.linalg.norm(q, axis=1)
    nonzero = q[lengths > tol] / lengths[lengths > tol, None]

    dirs: list[np.ndarray] = []
    if d == 1:
        dirs = [np.array([1.0]), np.array([-1.0])]
    elif d == 2:
        for v in nonzero:
            normal = np.array([-v[1], v[0]])
            dirs.extend(_wobbled(normal, v))
            dirs.extend(_wobbled(-normal, v))
    else:
        for i in range(nonzero.shape[0]):
            for j in range(i + 1, nonzero.shape[0]):
                normal = np.cross(nonzero[i], nonzero[j])
                norm = np.linalg.norm(normal)
                if norm <= 1e-12:
                    continue
                normal = normal / norm
                for n0 in (normal, -normal):
                    dirs.extend(_wobbled(n0, nonzero[i]))
                    dirs.extend(_wobbled(n0, nonzero[j]))
    gen = np.random.Generator(np.random.Philox(key=20210607))
    random_dirs = gen.normal(size=(random_directions, d))
    norms = np.linalg.norm(random_dirs, axis=1)
    random_dirs = random_dirs[norms > 0] / norms[norms > 0, None]
    all_dirs = np.concatenate([np.asarray(dirs).reshape(-1, d), random_dirs], axis=0)

    best = math.inf
    proj_x = all_dirs @ x
    chunk = 8192
    for start in range(0, all_dirs.shape[0], chunk):
        u = all_dirs[start : start + chunk]
        inside = pts @ u.T <= proj_x[start : start + chunk][None, :] + tol
        masses = w @ inside
        best = min(best, float(masses.min()))
    return best


def depth_approx(measure: ReferenceMeasure, x, k: int) -> DepthResult:
    """Sampled-direction upper bound on the depth (low-discrepancy prefix
    sequence, so the value is nonincreasing in k).  For small empirical
    measures the critical point normals are added, which often makes the
    bound sharp."""
    if k < 1:
        raise ValueError("need at least one direction")
    x = np.asarray(x, dtype=float).reshape(-1)
    d = measure.dim
    dirs = _sphere_directions(d, k)
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])[: max(1, min(k, 2))]
    if isinstance(measure, EmpiricalReference) and measure.sample.s_n <= 64 and d >= 2:
        pts = measure.sample.all_points()
        q = pts - x[None, :]
        lengths = np.linalg.norm(q, axis=1)
        q = q[lengths > 0] / lengths[lengths > 0, None]
        extra: list[np.ndarray] = []
        if d == 2:
            for v in q:
                normal = np.array([-v[1], v[0]])
                extra.extend(_wobbled(normal, v))
                extra.extend(_wobbled(-normal, v))
            diffs = pts[None, :, :] - pts[:, None, :]
            for v in diffs.reshape(-1, 2):
                norm = np.linalg.norm(v)
                if norm > 0:
                    v = v / norm
                    extra.append(np.array([-v[1], v[0]]))
                    extra.append(np.array([v[1], -v[0]]))
        else:
            for i in range(q.shape[0]):
                for j in range(i + 1, q.shape[0]):
                    normal = np.cross(q[i], q[j]) if d == 3 else None
                    if normal is not None and np.linalg.norm(normal) > 1e-12:
                        normal = normal / np.linalg.norm(normal)
                        extra.extend(_wobbled(normal, q[i]))
                        extra.extend(_wobbled(-normal, q[i]))
        if extra:
            dirs = np.concatenate([dirs, np.asarray(extra)], axis=0)

    best, direction = math.inf, dirs[0]
    for u in dirs:
        mass = halfspace_mass(measure, x, u)
        if mass < best:
            best, direction = mass, u
    return DepthResult(best, np.asarray(direction), exact=False, tie_count=1)


def _depth_value(measure: ReferenceMeasure, x: np.ndarray, k: int = 2048) -> float:
    if measure.dim == 1:
        return depth_1d(measure, float(x[0])).depth
    if measure.dim == 2:
        if isinstance(measure, EmpiricalReference):
            return depth_2d_exact(measure, x).depth
        return _smooth_depth_2d(measure, x)
    return depth_approx(measure, x, k).depth


def _smooth_depth_2d(measure: ReferenceMeasure, x: np.ndarray, grid: int = 512) -> float:
    """Directional minimization of the half-plane mass for analytic planar
    measures: dense angle grid plus golden-section refinement."""
    angles = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)

    def mass(phi: float) -> float:
        u = np.array([math.cos(phi), math.sin(phi)])
        return float(measure.line_mass(u, float(x @ u)))

    values = np.array([mass(a) for a in angles])
    i = int(np.argmin(values))
    step = 2.0 * math.pi / grid
    lo, hi, _, _ = _golden_section(mass, angles[i] - step, angles[i] + step, 1e-12)
    return min(float(values[i]), mass(0.5 * (lo + hi)))


def deepest_point(
    measure: ReferenceMeasure,
    box: tuple,
    grid: int,
    k: int = 2048,
) -> tuple[np.ndarray, float]:
    """Depth maximizer over a box: grid scan plus one local simplex refinement.

    For empirical measures the depth is piecewise constant, so the grid
    resolution dominates; the refinement only helps for smooth references.
    """
    lo = np.atleast_1d(np.asarray(box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    if lo.size != measure.dim or not (lo < hi).all():
        raise ValueError("search box must be nonempty and match the dimension")
    if measure.dim > 3:
        raise ValueError("deepest-point search covers dimensions 1 to 3")
    axes = [np.linspace(lo[i], hi[i], grid) for i in range(lo.size)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    depths = np.array([_depth_value(measure, pt, k) for pt in mesh])
    best_idx = int(np.argmax(depths))
    best_x, best_d = mesh[best_idx].copy(), float(depths[best_idx])

    from scipy.optimize import minimize

    def objective(z):
        z = np.clip(z, lo, hi)
        return -_depth_value(measure, z, k)

    result = minimize(
        objective,
        best_x,
        method="Nelder-Mead",
        options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-10},
    )
    refined = np.clip(result.x, lo, hi)
    refined_depth = _depth_value(measure, refined, k)
    if refined_depth > best_d:
        return refined, refined_depth
    return best_x, best_d


def depth_sup_deviation(sample: Sample, ref: ReferenceMeasure, eval_points) -> float:
    """max over the evaluation set of |D(x, ref) - D(x, empirical(sample))|.

    In one dimension the evaluation set is augmented with all data points and
    the midpoints between consecutive distinct data points (plus reference
    atoms), which realizes the supremum over the whole line up to the
    modulus of continuity of the reference on the grid gaps.
    """
    if ref.dim != sample.dim:
        raise ValueError("sample and reference dimensions differ")
    if sample.dim > 2:
        raise ValueError("exact depth deviation covers dimensions 1 and 2")
    emp = EmpiricalReference(sample)
    points = [np.asarray(p, dtype=float).reshape(-1) for p in eval_points]
    if not points:
        raise ValueError("need at least one evaluation point")
    if sample.dim == 1:
        xs = np.unique(sample.all_points()[:, 0])
        candidates = [xs]
        if xs.size > 1:
            candidates.append(0.5 * (xs[1:] + xs[:-1]))
        atoms = ref.line_atoms(np.array([1.0]))
        if atoms is not None:
            candidates.append(np.unique(atoms))
        candidates.append(np.array([x[0] for x in points]))
        grid = np.unique(np.concatenate(candidates))
        points = [np.array([t]) for t in grid]
    best = 0.0
    for x in points:
        dev = abs(_depth_value(ref, x) - _depth_value(emp, x))
        best = max(best, dev)
    return best


# ---------------------------------------------------------------------------
# Batch query interface: JSON in, CSV rows out
# ---------------------------------------------------------------------------


def batch_depth_queries(payload: dict) -> list[dict]:
    """Run a depth query batch {"points": [...], "queries": [...], "method": m}.

    ``method`` is one of ``exact1d``, ``exact2d``, or ``approx:K``.  The point
    set becomes an empirical measure with one pattern per point (each point
    carries weight 1/m).  Returns one row per query with keys x1..xd, depth,
    dir1..dird, exact, tie_count.
    """
    pts = np.atleast_2d(np.asarray(payload["points"], dtype=float))
    queries = np.atleast_2d(np.asarray(payload["queries"], dtype=float))
    method = payload.get("method", "exact2d")
    measure = EmpiricalReference(Sample(pts, np.ones(pts.shape[0], dtype=np.int64)))
    rows = []
    for xq in queries:
        if method == "exact1d":
            res = depth_1d(measure, float(xq[0]))
        elif method == "exact2d":
            res = depth_2d_exact(measure, xq)
        elif method.startswith("approx"):
            k = int(method.split(":", 1)[1]) if ":" in method else 1024
            res = depth_approx(measure, xq, k)
        else:
            raise ValueError(f"unknown depth method {method!r}")
        row = {f"x{i + 1}": float(v) for i, v in enumerate(xq)}
        row["depth"] = res.depth
        row.update({f"dir{i + 1}": float(v) for i, v in enumerate(res.direction)})
        row["exact"] = res.exact
        row["tie_count"] = res.tie_count
        rows.append(row)
    return rows


def depth_rows_to_csv(rows: list[dict], path) -> None:
    import csv

    if not rows:
        raise ValueError("no depth results to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
