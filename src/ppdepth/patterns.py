"""Point patterns and samples of point patterns.

A point pattern is one realization of a finite point process on R^d: a
nonempty list of points.  A sample is n independent patterns, stored as one
read-only (S_n, d) array of all their points, pattern by pattern, plus the
pattern sizes L_1, ..., L_n; it caches the totals S_n = sum_i L_i and
S_{n,2} = sum_i L_i^2.  Both containers are immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["PointPattern", "Sample", "load_sample", "save_sample"]


@dataclass(frozen=True)
class PointPattern:
    """A finite, nonempty set of points in R^d, stored as an (L, d) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            # convenience: a flat vector is a list of 1-d points
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError(f"pattern must be a (L, d) array, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("pattern needs at least one point of dimension >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("pattern coordinates must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


class Sample:
    """n point patterns held as one read-only (S_n, d) array plus their sizes.

    ``Sample(points, sizes)`` takes the flat form: the points of all patterns
    stacked in order, and ``sizes[i]``, the number of points of pattern i.
    ``Sample(patterns)`` takes a sequence of ``PointPattern`` objects or
    (L, d) array-likes and flattens it once.
    """

    def __init__(self, points, sizes=None):
        if sizes is None:
            arrays = [
                (p if isinstance(p, PointPattern) else PointPattern(p)).points
                for p in points
            ]
            dims = sorted({a.shape[1] for a in arrays})
            if len(dims) > 1:
                raise ValueError(f"patterns have mixed dimensions {dims}")
            points = np.concatenate(arrays) if arrays else np.empty((0, 1))
            sizes = np.array([a.shape[0] for a in arrays], dtype=np.int64)
        pts = np.asarray(points, dtype=float)
        sizes = np.asarray(sizes)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError(f"sample points must be an (S_n, d) array, not {pts.shape}")
        if sizes.ndim != 1 or sizes.size < 1 or sizes.dtype.kind not in "iu":
            raise ValueError("sample needs at least one pattern and integer sizes")
        if sizes.min() < 1:
            raise ValueError("every pattern needs at least one point")
        if int(sizes.sum()) != pts.shape[0]:
            raise ValueError(f"pattern sizes sum to {sizes.sum()}, not {pts.shape[0]}")
        if not np.isfinite(pts).all():
            raise ValueError("pattern coordinates must be finite")
        pts = pts.view()
        sizes = sizes.astype(np.int64)
        pts.setflags(write=False)
        sizes.setflags(write=False)
        vars(self).update(
            _points=pts, _sizes=sizes, s_n=pts.shape[0], s_n2=int(sizes @ sizes)
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"Sample is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, s_n={self.s_n}, dim={self.dim})"

    @property
    def n(self) -> int:
        return self._sizes.size

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    @property
    def ratio(self) -> float:
        """S_n / n, the average number of points per pattern (always >= 1)."""
        return self.s_n / self.n

    @property
    def patterns(self) -> tuple[PointPattern, ...]:
        """The patterns, as read-only views into the point array."""
        bounds = np.cumsum(self._sizes)[:-1]
        return tuple(map(PointPattern, np.split(self._points, bounds)))

    def sizes(self) -> np.ndarray:
        """The read-only (n,) vector of pattern sizes."""
        return self._sizes

    def all_points(self) -> np.ndarray:
        """The read-only (S_n, d) array of all points, pattern by pattern."""
        return self._points


def save_sample(sample: Sample, path) -> None:
    """Write a sample as newline-delimited JSON, one pattern per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for pat in sample.patterns:
            fh.write(json.dumps({"points": pat.points.tolist()}) + "\n")


def load_sample(path) -> Sample:
    """Load a newline-delimited JSON sample, validating size and dimensions."""
    patterns = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                pts = record["points"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed pattern record") from exc
            if not isinstance(pts, list) or len(pts) < 1:
                raise ValueError(f"{path}:{lineno}: pattern must have L >= 1 points")
            patterns.append(pts)
    if not patterns:
        raise ValueError(f"{path}: no patterns found")
    return Sample(patterns)
