"""Bounded test functions and parameterized function classes.

Every function carries an explicit bound M with |f(x)| <= M on its admissible
domain; the bound is checked at evaluation time.  Classes bundle a family of
functions with its VC dimension: half-spaces in R^d have v = d + 1, half-lines
(the d = 1 specialization) have v = 2, the scalar exponential family
{e^{theta x} : |theta| <= R} has v = 3, and finite lists carry a caller
supplied v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EvalFunction",
    "Constant",
    "HalfLineIndicator",
    "HalfSpaceIndicator",
    "Exponential",
    "Tabulated",
    "FunctionClass",
    "half_lines",
    "half_spaces",
    "exponentials",
    "finite_list",
]

_UNIT_NORM_TOL = 1e-9
_BOUND_SLACK = 1e-9


class EvalFunction:
    """Base class: a bounded measurable function evaluated on point arrays."""

    bound: float
    dim: int | None  # None means any dimension is admissible

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an (m, d) array of points, returning an (m,) array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if self.dim is not None and pts.shape[1] != self.dim:
            raise ValueError(
                f"function expects dimension {self.dim}, got {pts.shape[1]}"
            )
        values = self._values(pts)
        if not np.isfinite(values).all():
            raise ValueError("function evaluation produced a non-finite value")
        if np.abs(values).max(initial=0.0) > self.bound * (1.0 + _BOUND_SLACK):
            raise ValueError(
                f"function exceeded its declared bound {self.bound} on the input"
            )
        return values

    def __call__(self, point) -> float:
        return float(self.evaluate(np.atleast_2d(np.asarray(point, dtype=float)))[0])

    def _values(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(EvalFunction):
    value: float
    bound: float = field(init=False)
    dim: None = field(init=False, default=None)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"constant value must be finite, not {self.value}")
        object.__setattr__(self, "bound", max(abs(self.value), 1e-300))

    def _values(self, pts):
        return np.full(pts.shape[0], float(self.value))


@dataclass(frozen=True)
class HalfLineIndicator(EvalFunction):
    """Indicator of a closed half-line in R: {x <= t} or {x >= t}.

    ``orientation=+1`` selects {x <= t} (the half-space with outward normal
    +1) and ``orientation=-1`` selects {x >= t}.  Infinite thresholds are
    allowed and give the constant 1 or 0 function; NaN is refused.
    """

    threshold: float
    orientation: int = 1
    bound: float = field(init=False, default=1.0)
    dim: int = field(init=False, default=1)

    def __post_init__(self):
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")
        if math.isnan(self.threshold):
            raise ValueError("half-line threshold must not be NaN")
        object.__setattr__(self, "threshold", float(self.threshold))

    def _values(self, pts):
        x = pts[:, 0]
        if self.orientation == 1:
            return (x <= self.threshold).astype(float)
        return (x >= self.threshold).astype(float)


@dataclass(frozen=True)
class HalfSpaceIndicator(EvalFunction):
    """Indicator of the closed half-space {y : <y, u> <= <x, u>} in R^d."""

    point: np.ndarray
    direction: np.ndarray
    bound: float = field(init=False, default=1.0)

    def __post_init__(self):
        x = np.asarray(self.point, dtype=float).reshape(-1)
        u = np.asarray(self.direction, dtype=float).reshape(-1)
        if x.shape != u.shape:
            raise ValueError("point and direction must have the same dimension")
        if not (np.isfinite(x).all() and np.isfinite(u).all()):
            raise ValueError("half-space point and direction must be finite")
        norm = float(np.linalg.norm(u))
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"direction must be a unit vector, |u| = {norm}")
        u = u / norm
        x.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "point", x)
        object.__setattr__(self, "direction", u)
        object.__setattr__(self, "dim", x.size)

    @property
    def offset(self) -> float:
        """The threshold <x, u> of the half-space boundary."""
        return float(self.point @ self.direction)

    def _values(self, pts):
        return (pts @ self.direction <= self.offset).astype(float)


@dataclass(frozen=True)
class Exponential(EvalFunction):
    """The scalar function x -> e^{theta x}, bounded via a domain [a, b]."""

    theta: float
    domain: tuple[float, float] = (-1.0, 1.0)
    dim: int = field(init=False, default=1)
    bound: float = field(init=False)

    def __post_init__(self):
        a, b = float(self.domain[0]), float(self.domain[1])
        if not a <= b:
            raise ValueError("domain must satisfy a <= b")
        if not all(map(math.isfinite, (self.theta, a, b))):
            raise ValueError("exponential theta and domain must be finite")
        object.__setattr__(self, "domain", (a, b))
        object.__setattr__(
            self, "bound", max(math.exp(self.theta * a), math.exp(self.theta * b))
        )

    def _values(self, pts):
        return np.exp(self.theta * pts[:, 0])


@dataclass(frozen=True)
class Tabulated(EvalFunction):
    """Explicit value map for test fixtures; points not in the table get
    ``default``."""

    table: tuple[tuple[tuple[float, ...], float], ...]
    default: float = 0.0
    dim: int = field(init=False)
    bound: float = field(init=False)

    def __init__(self, table, default: float = 0.0):
        entries = tuple(
            (tuple(float(c) for c in key), float(val)) for key, val in dict(table).items()
        )
        if not entries:
            raise ValueError("tabulated function needs at least one entry")
        dims = {len(key) for key, _ in entries}
        if len(dims) != 1:
            raise ValueError("tabulated keys have mixed dimensions")
        object.__setattr__(self, "table", entries)
        object.__setattr__(self, "default", float(default))
        object.__setattr__(self, "dim", dims.pop())
        bound = max(max(abs(v) for _, v in entries), abs(float(default)), 1e-300)
        object.__setattr__(self, "bound", bound)

    def _values(self, pts):
        lookup = dict(self.table)
        return np.array(
            [lookup.get(tuple(row), self.default) for row in pts], dtype=float
        )


@dataclass(frozen=True)
class FunctionClass:
    """A family of test functions with bound M and VC dimension v.

    ``kind`` is one of ``half_lines``, ``half_spaces``, ``exponentials``,
    ``finite_list``.  Use the module-level constructors rather than building
    instances directly.
    """

    kind: str
    bound: float
    vc_dim: int
    dim: int = 1
    domain: tuple[float, float] = (-1.0, 1.0)
    radius: float = 1.0
    members: tuple[EvalFunction, ...] = ()

    def __post_init__(self):
        if self.vc_dim < 1:
            raise ValueError("VC dimension must be >= 1")
        if self.bound <= 0:
            raise ValueError("class bound must be positive")

    @property
    def is_half_lines(self) -> bool:
        """Closed half-lines on R: ``half_lines()`` or ``half_spaces(1)``."""
        return self.kind == "half_lines" or (self.kind == "half_spaces" and self.dim == 1)


def half_lines() -> FunctionClass:
    """Closed half-lines {x <= t} and {x >= t} on R; v = 2."""
    return FunctionClass(kind="half_lines", bound=1.0, vc_dim=2, dim=1)


def half_spaces(dim: int) -> FunctionClass:
    """Closed half-spaces in R^d; v = d + 1."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return FunctionClass(kind="half_spaces", bound=1.0, vc_dim=dim + 1, dim=dim)


def exponentials(a: float, b: float, radius: float) -> FunctionClass:
    """The family {e^{theta x} : |theta| <= R} on [a, b]; v = 3."""
    if not a <= b:
        raise ValueError("domain must satisfy a <= b")
    if not all(map(math.isfinite, (a, b, radius))):
        raise ValueError("domain and radius must be finite")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    bound = max(
        math.exp(radius * abs(a)), math.exp(radius * abs(b)), 1.0
    )
    return FunctionClass(
        kind="exponentials", bound=bound, vc_dim=3, dim=1, domain=(a, b), radius=radius
    )


def finite_list(functions, vc_dim: int = 1) -> FunctionClass:
    """An explicit finite family; the VC dimension is supplied by the caller."""
    members = tuple(functions)
    if not members:
        raise ValueError("finite class needs at least one function")
    dims = {f.dim for f in members if f.dim is not None}
    if len(dims) > 1:
        raise ValueError("finite class members have mixed dimensions")
    dim = dims.pop() if dims else 1
    bound = max(f.bound for f in members)
    return FunctionClass(
        kind="finite_list", bound=bound, vc_dim=vc_dim, dim=dim, members=members
    )
