"""Half-space (Tukey) depth of finite measures.

The depth of x is the infimum over unit directions u of the mass of the
closed half-space {y : <y, u> <= <x, u>}.  For weighted point sets in the
plane the infimum is computed exactly by an angular sweep: the inclusion
pattern of the points only changes when the boundary line through x rotates
past a data point, so it suffices to evaluate the closed mass at every
critical angle and once inside every open arc between consecutive critical
angles.  An independent brute-force oracle (point normals with tiny
two-sided wobbles plus a large pseudo-random direction set) is provided for
cross-validation.  A closed form (``ReferenceMeasure.depth``) covers boxes in
d <= 2 and diagonal Gaussians, and a sampled-direction upper bound the rest.

The deepest point in a box (``deepest_point``) is exact: a reference with a
closed-form centre of symmetry (``ReferenceMeasure.centre``: a uniform box
or a diagonal Gaussian law, times E[L]) takes that centre clipped to the
box, and a purely atomic measure on the line or in the plane takes the
deepest of its depth regions inside the box, found by bisecting the depth
levels, each region cut out by lines through its atoms.

Half-spaces are closed.  ``depth_1d`` and the sampled bound take their
masses from ``halfspace_mass``, one ``line_mass`` call per block of
directions, which against every purely atomic measure
(``ReferenceMeasure.atoms``: an empirical measure or a discrete law) gives
each offset a slack of 1e-12 times the coordinate scale, so boundary atoms
count.  The exact planar sweep (``_tukey_depth_2d``), the brute-force oracle
and the depth regions of ``_deepest_region`` sum atom masses themselves,
each with its own tolerance of 1e-12 times its coordinate scale.  The
closed forms take no mass at all.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .measure import EmpiricalReference, ReferenceMeasure, _sphere_directions
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
]

_PROJ_TOL = 1e-12
_UNIT_TOL = 1e-9
_ANGLE_TIE_TOL = 1e-8
_WOBBLE = 1e-7
_MAX_DIRECTIONS = 1 << 16  # of an approx:K batch query, far below memory
_LINE_BLOCK = 1 << 20  # (line, atom) pairs per block of _deepest_region


@dataclass(frozen=True)
class DepthResult:
    depth: float
    direction: np.ndarray
    exact: bool
    tie_count: int


def halfspace_mass(measure: ReferenceMeasure, x, u):
    """Masses of the closed half-spaces through x with outward normal u.

    ``u`` is a unit vector or a (k, d) block of them, ``x`` a point or an
    (m, d) array of points; the result has shape u.shape[:-1] +
    x.shape[:-1], a float for one of each.  The block takes one
    ``line_mass`` call.  Against a purely atomic measure each offset <x, u>
    gets the slack _PROJ_TOL * max(1, max|proj|, |offset|), proj the atoms
    projected on u."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(u)
    norms = np.sqrt(np.vecdot(rows, rows))  # np.linalg.norm's float, row by row
    if not np.abs(norms - 1.0).max() <= _UNIT_TOL:  # NaN fails too
        bad = norms[~(np.abs(norms - 1.0) <= _UNIT_TOL)][0]
        raise ValueError(f"direction must be a unit vector, |u| = {bad}")
    rows = rows / norms[:, None]
    if u.ndim > 2 or x.ndim not in (1, 2) or {rows.shape[1], x.shape[-1]} != {measure.dim}:
        raise ValueError("point, direction, and measure dimensions must agree")
    offsets = np.vecdot(rows[:, None, :], np.atleast_2d(x))  # each the float of x @ u
    atoms = measure.atoms()
    if atoms is not None:
        reach = np.array([np.abs(atoms[0] @ v).max(initial=0.0) for v in rows])
        offsets += _PROJ_TOL * np.maximum(np.maximum(reach, 1.0)[:, None], np.abs(offsets))
    masses = np.asarray(measure.line_mass(rows, offsets), dtype=float)
    masses = masses.reshape(u.shape[:-1] + x.shape[:-1])
    return masses if masses.ndim else float(masses)


def depth_1d(measure: ReferenceMeasure, x: float) -> DepthResult:
    """Exact depth on the line: the smaller of the two closed tail masses,
    (-inf, x] along +1 and [x, inf) along -1."""
    if measure.dim != 1:
        raise ValueError("depth_1d needs a one-dimensional measure")
    x = float(np.asarray(x).reshape(()))
    left, right = (float(v) for v in halfspace_mass(measure, [x], [[1.0], [-1.0]]))
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


def depth_2d_exact(measure: ReferenceMeasure, x) -> DepthResult:
    """Exact planar depth of x for a purely atomic measure (angular sweep
    over its ``atoms``: an empirical measure or a discrete law)."""
    atoms = measure.atoms()
    if atoms is None:
        raise ValueError("the exact planar sweep needs a purely atomic measure")
    if measure.dim != 2:
        raise ValueError("depth_2d_exact needs a two-dimensional measure")
    x = np.asarray(x, dtype=float).reshape(-1)
    depth, direction, ties = _tukey_depth_2d(*atoms, x)
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


def _line_normals(q: np.ndarray) -> list[np.ndarray]:
    """Both normals of the line along each unit row of q, each wobbled."""
    out = []
    for v in q:
        normal = np.array([-v[1], v[0]])
        out.extend(_wobbled(normal, v) + _wobbled(-normal, v))
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
        dirs = _line_normals(nonzero)
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
    sequence, so the value is nonincreasing in k).  For purely atomic
    measures of at most 64 atoms the critical normals are added, which
    often makes the bound sharp.  All directions take one
    ``halfspace_mass`` block; the first minimal one is returned."""
    if k < 1:
        raise ValueError("need at least one direction")
    x = np.asarray(x, dtype=float).reshape(-1)
    d = measure.dim
    dirs = np.array([[1.0], [-1.0]])[: min(k, 2)] if d == 1 else _sphere_directions(d, k)
    atoms = measure.atoms()
    if atoms is not None and atoms[0].shape[0] <= 64 and d in (2, 3):
        pts = atoms[0]
        q = pts - x[None, :]
        lengths = np.linalg.norm(q, axis=1)
        q = q[lengths > 0] / lengths[lengths > 0, None]
        if d == 2:
            extra = _line_normals(q)
            for v in (pts[None, :, :] - pts[:, None, :]).reshape(-1, 2):
                norm = np.linalg.norm(v)
                if norm > 0:
                    extra += [np.array([-v[1], v[0]]) / norm, np.array([v[1], -v[0]]) / norm]
        else:
            extra = []
            for i, j in itertools.combinations(range(q.shape[0]), 2):
                normal = np.cross(q[i], q[j])
                norm = np.linalg.norm(normal)
                if norm > 1e-12:
                    extra += _wobbled(normal / norm, q[i]) + _wobbled(-normal / norm, q[i])
        if extra:
            dirs = np.concatenate([dirs, np.asarray(extra)], axis=0)

    masses = halfspace_mass(measure, x, dirs)
    best = int(np.argmin(masses))
    return DepthResult(float(masses[best]), dirs[best], exact=False, tie_count=1)


def _depth_value(measure: ReferenceMeasure, x: np.ndarray) -> float:
    """``depth_1d`` on the line, the exact sweep of a planar atomic measure,
    a closed form (``ReferenceMeasure.depth``), else 2048 sampled directions."""
    if measure.dim == 1:
        return depth_1d(measure, float(x[0])).depth
    if measure.dim == 2 and measure.atoms() is not None:
        return depth_2d_exact(measure, x).depth
    value = measure.depth(x)
    return depth_approx(measure, x, 2048).depth if value is None else value


def _cut_box(corners: np.ndarray, u: np.ndarray, a: np.ndarray, tol: float):
    """Vertices of the box (its ``corners`` in cyclic order) cut by every
    {x : <x, u_k> >= a_k - tol}, or None when nothing is left.  On the
    line the cut is an interval.  In the plane the polygon is clipped, each
    time by the half-plane its vertices break most, until none breaks one
    by more than 2 tol; a clip leaves every vertex within tol of its line,
    so no half-plane is clipped twice."""
    if corners.shape[1] == 1:
        left = max(corners[0, 0], a[u[:, 0] > 0].max())
        right = min(corners[1, 0], -a[u[:, 0] < 0].max())
        return None if left > right + tol else np.array([[left], [right]])
    poly = corners
    while True:
        gaps = a[:, None] - u @ poly.T
        worst = gaps.max(axis=1)
        k = int(np.argmax(worst))
        if worst[k] <= 2 * tol:
            return poly
        s = tol - gaps[k]  # >= 0 inside the relaxed half-plane
        inside = s >= 0
        if not inside.any():
            return None
        nxt = np.roll(np.arange(poly.shape[0]), -1)
        cross = inside != inside[nxt]
        # vertex i if it is inside, then where edge i leaves or enters
        out = np.stack([poly, poly], axis=1)
        frac = s[cross] / (s[cross] - s[nxt][cross])
        out[cross, 1] += frac[:, None] * (poly[nxt][cross] - poly[cross])
        poly = out[np.stack([inside, cross], axis=1)]


def _deepest_region(points: np.ndarray, masses: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Vertices of the deepest depth region inside the box [lo, hi] of a
    weighted point set on the line or in the plane.

    D_t = {x : depth(x) >= t} is the set where <x, u> >= a_u(t) for every
    unit u, a_u(t) the smallest atom projection whose closed mass below
    reaches t.  Between two directions along which two atoms project alike,
    a_u(t) is the projection of one fixed atom, so on an arc shorter than
    pi its cone is cut out by the arc's two ends.  The ends needed are
    those where that atom changes, each a side of a line through two atoms
    whose masses strictly beyond and closed beyond it bracket t, and +-e_i,
    which cut every arc below pi; a_u(t) along +-e_i is likewise the side
    of a line through one atom normal to e_i.  D_t only changes where t
    passes one of these masses, so they are bisected for the largest t with
    D_t meeting the box (Ruts & Rousseeuw 1996, CSDA 23)."""
    m, d = points.shape
    tol = _PROJ_TOL * max(1.0, np.abs(points).max(), np.abs(lo).max(), np.abs(hi).max())
    sides = []  # blocks of (u, a, strict, closed), the side {x : <x, u> >= a}
    for u in np.concatenate([np.eye(d), -np.eye(d)]):
        proj = points @ u  # exact: one coordinate, signed
        order = np.argsort(proj, kind="stable")
        prefix = np.concatenate([[0.0], np.cumsum(masses[order])])
        strict, closed = (prefix[np.searchsorted(proj[order], proj, side=side)]
                          for side in ("left", "right"))
        sides.append((np.tile(u, (m, 1)), proj, strict, closed))
    corners = np.array([lo, hi])
    if d == 2:
        i, j = np.triu_indices(m, 1)
        edge = points[j] - points[i]
        length = np.hypot(edge[:, 0], edge[:, 1])
        pair = length > tol
        normal = edge[pair] @ np.array([[0.0, 1.0], [-1.0, 0.0]]) / length[pair, None]
        offset = np.vecdot(normal, points[i[pair]])
        below, on, above = np.empty((3, offset.size))
        step = max(1, _LINE_BLOCK // m)
        for start in range(0, offset.size, step):
            rows = slice(start, start + step)
            s = normal[rows] @ points.T - offset[rows, None]
            below[rows], on[rows], above[rows] = (
                (s < -tol) @ masses, (np.abs(s) <= tol) @ masses, (s > tol) @ masses
            )
        sides += [(normal, offset, below, below + on), (-normal, -offset, above, above + on)]
        corners = np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])
    u, a, strict, closed = (np.concatenate(block) for block in zip(*sides))
    slack = _PROJ_TOL * masses.sum()
    levels = np.unique(np.concatenate([strict, closed]))
    levels = levels[levels > slack]
    best, feasible, infeasible = corners, -1, levels.size
    while infeasible - feasible > 1:
        mid = (feasible + infeasible) // 2
        t = levels[mid] - slack
        live = (strict < t) & (t <= closed)
        cut = _cut_box(corners, u[live], a[live], tol)
        if cut is None:
            infeasible = mid
        else:
            feasible, best = mid, cut
    return best


def deepest_point(measure: ReferenceMeasure, box: tuple) -> tuple[np.ndarray, float]:
    """A point of largest depth in the closed box [lo, hi], with its depth
    ``_depth_value``.

    A reference with a known ``centre()`` (E[L] P_X, P_X a uniform box or a
    diagonal Gaussian law, any dimension) is symmetric under the reflection
    of each coordinate about it, and depth is quasi-concave, so depth does
    not rise as any |x_i - c_i| grows: the answer is the centre clipped to
    the box (Zuo & Serfling 2000, Thm 2.1).  A purely atomic measure (an
    empirical measure or a discrete law) on the line or in the plane gets
    the mean of the vertices of its deepest region inside the box
    (``_deepest_region``); in the plane that region is cut by lines through
    pairs of atoms, so the cost grows as the cube of the atom count.
    """
    lo = np.atleast_1d(np.asarray(box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    if lo.size != measure.dim or not (lo < hi).all():
        raise ValueError("search box must be nonempty and match the dimension")
    atoms = measure.atoms()
    if atoms is not None:
        if measure.dim > 2:
            raise ValueError("the deepest point of an atomic measure covers dimensions 1 and 2")
        x = _deepest_region(*atoms, lo, hi).mean(axis=0)
    else:
        x = measure.centre()
        if x is None:
            raise ValueError("the deepest point needs atoms or a centre of symmetry")
    x = np.clip(x, lo, hi)  # the region's vertices may round past the box
    return x, _depth_value(measure, x)


def depth_sup_deviation(sample: Sample, ref: ReferenceMeasure, eval_points) -> float:
    """max over the evaluation set of |D(x, ref) - D(x, empirical(sample))|.

    In one dimension the evaluation set is augmented with all data points and
    the midpoints between consecutive distinct data points (plus reference
    atoms); the value is the maximum over that set, a lower bound on the
    supremum over the line.
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
        atoms = ref.atoms()
        if atoms is not None:
            candidates.append(np.unique(atoms[0][:, 0]))
        candidates.append(np.array([x[0] for x in points]))
        grid = np.unique(np.concatenate(candidates))
        # depth_1d's smaller closed tail, over the whole grid at once: the
        # +1 row of one block gives the left tails, the -1 row the right
        tails = (halfspace_mass(m, grid[:, None], [[1.0], [-1.0]]) for m in (ref, emp))
        ref_depth, emp_depth = (np.where(left <= right, left, right) for left, right in tails)
        return max(0.0, float(np.abs(ref_depth - emp_depth).max()))
    best = 0.0
    for x in points:
        dev = abs(_depth_value(ref, x) - _depth_value(emp, x))
        best = max(best, dev)
    return best


# ---------------------------------------------------------------------------
# Batch query interface: JSON in, CSV rows out
# ---------------------------------------------------------------------------


def _coordinates(values, what: str, d: int | None = None) -> np.ndarray:
    """Equal-length lists of finite numbers (d each, if given) as an array."""
    arr = np.asarray(values, dtype=object)
    if arr.ndim != 2 or arr.size == 0 or not all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in arr.flat
    ):
        raise ValueError(f"{what} must be a nonempty list of equal-length lists of finite numbers")
    if d is not None and arr.shape[1] != d:
        raise ValueError(f"{what} have {arr.shape[1]} coordinates, not {d}")
    return arr.astype(float)


def _query_method(method, d: int):
    """The depth function for ``method`` on d-dimensional points: ``exact1d``
    (d = 1), ``exact2d`` (d = 2), ``approx`` or ``approx:K`` (1 <= K <=
    _MAX_DIRECTIONS)."""
    if method == "exact1d" and d == 1:
        return lambda measure, xq: depth_1d(measure, float(xq[0]))
    if method == "exact2d" and d == 2:
        return depth_2d_exact
    k = method[len("approx:"):] if isinstance(method, str) and method.startswith("approx:") else ""
    if method == "approx" or (k.isascii() and k.isdigit() and 1 <= int(k) <= _MAX_DIRECTIONS):
        return lambda measure, xq: depth_approx(measure, xq, int(k or 1024))
    raise ValueError(
        f"method {method!r} is none of exact1d, exact2d, approx[:K] with "
        f"1 <= K <= {_MAX_DIRECTIONS} for {d}-d points"
    )


def batch_depth_queries(payload: dict) -> list[dict]:
    """Run a depth query batch {"points": [...], "queries": [...], "method": m}.

    ``method`` is one of ``exact1d``, ``exact2d``, or ``approx:K``.  The point
    set becomes an empirical measure with one pattern per point (each point
    carries weight 1/m).  Returns one row per query with keys x1..xd, depth,
    dir1..dird, exact, tie_count.  Anything but finite (count, d) points and
    queries of one d and a method that fits d, or a key besides these three,
    raises ValueError.
    """
    unknown = sorted(set(payload) - {"points", "queries", "method"}, key=str)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown}: a batch has points, queries and method")
    pts = _coordinates(payload["points"], "points")
    queries = _coordinates(payload["queries"], "queries", pts.shape[1])
    depth_of = _query_method(payload.get("method", "exact2d"), pts.shape[1])
    measure = EmpiricalReference(Sample(pts, np.ones(pts.shape[0], dtype=np.int64)))
    rows = []
    for xq in queries:
        res = depth_of(measure, xq)
        rows.append({
            **{f"x{i + 1}": float(v) for i, v in enumerate(xq)},
            "depth": res.depth,
            **{f"dir{i + 1}": float(v) for i, v in enumerate(res.direction)},
            "exact": res.exact,
            "tie_count": res.tie_count,
        })
    return rows
