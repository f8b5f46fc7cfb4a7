"""Experiment configuration: JSON parsing, validation, and content hashing.

Law specs follow the generator module's wire format, e.g.
``{"count": {"kind": "shifted_poisson", "lambda": 2.0},
   "disp": {"kind": "uniform", "low": [0.0], "high": [1.0]}}``.
The config hash covers everything that can change results (including the
effective seed) but not the worker count, so reruns at different thread
counts stamp identical hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..branching import VERTEX_CAP, expected_vertices, true_laplace

from ..functions import (
    Constant,
    EvalFunction,
    Exponential,
    FunctionClass,
    HalfLineIndicator,
    HalfSpaceIndicator,
    exponentials,
    finite_list,
    half_lines,
    half_spaces,
)
from ..generators import (
    CountLaw,
    CoxMixture,
    DiagonalGaussian,
    DiscretePoints,
    DisplacementLaw,
    FixedCount,
    Pmf,
    ShiftedPoisson,
    UniformBox,
)

__all__ = ["ConfigError", "ExperimentConfig", "config_hash"]

EXPERIMENT_KINDS = ("ulln", "clt", "bound", "depth", "brw", "diag", "simulate")


class ConfigError(ValueError):
    pass


def _kind_of(spec, what: str):
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} spec must be a JSON object, not {spec!r}")
    return spec.get("kind")


def _int(value) -> int:
    """int(value), refusing a value that int() would truncate or coerce."""
    out = int(value)
    if out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


def _ints(values) -> tuple[int, ...]:
    return tuple(_int(v) for v in values)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _points(values) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(p) for p in values)


def parse_count(spec: dict) -> CountLaw:
    kind = _kind_of(spec, "count law")
    try:
        if kind == "fixed":
            return FixedCount(_int(spec["k"]))
        if kind == "shifted_poisson":
            return ShiftedPoisson(float(spec["lambda"]))
        if kind == "pmf":
            return Pmf(tuple(spec["probs"]))
        if kind == "cox":
            if "atoms" in spec:
                return CoxMixture(atoms=tuple((t, w) for t, w in spec["atoms"]))
            return CoxMixture(
                log_mean=float(spec["log_mean"]), log_sigma=float(spec["log_sigma"])
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid count law spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown count law kind {kind!r}")


def parse_disp(spec: dict) -> DisplacementLaw:
    kind = _kind_of(spec, "displacement law")
    try:
        if kind == "uniform":
            return UniformBox(spec["low"], spec["high"])
        if kind == "gaussian":
            return DiagonalGaussian(spec["mean"], spec["std"])
        if kind == "discrete":
            return DiscretePoints(spec["points"], spec["weights"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid displacement law spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown displacement law kind {kind!r}")


def parse_function(spec: dict) -> EvalFunction:
    kind = _kind_of(spec, "function")
    try:
        if kind == "constant":
            return Constant(float(spec["value"]))
        if kind == "half_line":
            return HalfLineIndicator(
                float(spec["threshold"]), _int(spec.get("orientation", 1))
            )
        if kind == "half_space":
            return HalfSpaceIndicator(spec["point"], spec["direction"])
        if kind == "exponential":
            return Exponential(
                float(spec["theta"]), tuple(spec.get("domain", (-1.0, 1.0)))
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid function spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown function kind {kind!r}")


def parse_class(spec: dict) -> FunctionClass:
    kind = _kind_of(spec, "class")
    try:
        if kind == "half_lines":
            return half_lines()
        if kind == "half_spaces":
            return half_spaces(_int(spec.get("dim", 1)))
        if kind == "exponentials":
            return exponentials(
                float(spec.get("a", -1.0)),
                float(spec.get("b", 1.0)),
                float(spec.get("radius", 1.0)),
            )
        if kind == "finite_list":
            members = [parse_function(f) for f in spec["functions"]]
            return finite_list(members, _int(spec.get("vc_dim", 1)))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid class spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown class kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    count: CountLaw
    disp: DisplacementLaw
    function_class: FunctionClass | None
    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    threads: int = 1
    epsilon_grid: tuple[float, ...] = ()
    theta_grid: tuple[float, ...] = ()
    j_grid: tuple[int, ...] = ()
    alpha: float = 1.01
    beta: float = 1.01
    eval_points: tuple[tuple[float, ...], ...] = ()
    depth_box: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    depth_grid: int = 16
    gt_draws: int = 1_000_000
    fluct_theta: float = 1.0
    target: str = "sample"
    generations: int = 6
    out_format: str = "csv"
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not self.n_grid and self.kind in ("ulln", "clt", "bound", "depth", "diag"):
            raise ConfigError(f"{self.kind} needs a nonempty n_grid")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("sample sizes must be >= 1")
        if self.kind in ("ulln", "clt", "bound", "diag"):  # the kinds that use a class
            cls = self.function_class
            if cls is None:
                raise ConfigError(f"{self.kind} needs a function_class")
            # a finite list is checked by its members: Constant has no
            # dimension, and the others share one
            members = cls.members if cls.kind == "finite_list" else (cls,)
            dims = {f.dim for f in members} - {None, self.disp.dim}
            if dims:
                raise ConfigError(
                    f"the {cls.kind} class works in dimension {dims.pop()}, "
                    f"the displacement law in dimension {self.disp.dim}"
                )
        if self.kind == "bound" and not self.epsilon_grid:
            raise ConfigError("bound experiments need an epsilon_grid")
        if not all(math.isfinite(e) and e > 0 for e in self.epsilon_grid):
            raise ConfigError("epsilon_grid entries must be finite and > 0")
        if not all(math.isfinite(a) and a > 0 for a in (self.alpha, self.beta)):
            raise ConfigError("alpha and beta must be finite and > 0")
        if self.out_format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.kind == "clt":
            self._check_clt()
        elif self.kind == "depth":
            self._check_depth()
        elif self.kind == "brw":
            self._check_brw()
        elif self.kind == "diag" and (
            self.disp.dim != 1 or not self.function_class.is_half_lines
        ):
            raise ConfigError("diag experiments use half-lines on the real line")
        elif self.kind == "simulate":
            if self.target not in ("sample", "tree"):
                raise ConfigError(f"unknown simulate target {self.target!r}")
            if self.target == "tree":
                self._check_tree_size(self.generations)

    @property
    def brw_generations(self) -> int:
        """Generations grown per brw tree: the fluctuation pair at j* + 1
        and j* + 2, j* = max(j_grid), needs the children of j* + 2."""
        return max(self.j_grid) + 3

    def _check_tree_size(self, generations: int) -> None:
        expected = expected_vertices(self.count, generations)
        if expected > VERTEX_CAP:
            raise ConfigError(
                f"a tree of {generations} generations has {expected:.3g} expected "
                f"vertices, above the cap of {VERTEX_CAP}"
            )

    def _check_clt(self):
        cls = self.function_class
        if cls.kind != "finite_list" or len(cls.members) < 2:
            raise ConfigError("clt experiments need a finite_list class with >= 2 functions")
        if self.replicates < 100:
            raise ConfigError("clt experiments need at least 100 replicates")
        if self.gt_draws < 2:
            raise ConfigError("clt experiments need gt_draws >= 2")

    def _check_depth(self):
        d = self.disp.dim
        if d > 2:
            raise ConfigError("depth experiments cover dimensions 1 and 2")
        if not self.eval_points:
            raise ConfigError("depth experiments need eval_points")
        if not all(len(p) == d and all(map(math.isfinite, p)) for p in self.eval_points):
            raise ConfigError(f"eval_points must be finite {d}-vectors, like disp")
        if self.depth_grid < 1:
            raise ConfigError("depth_grid must be >= 1")
        box = self.depth_box
        if box is None:
            return
        if len(box) != 2 or any(len(corner) != d for corner in box):
            raise ConfigError(f"depth_box must be [low, high], two {d}-vectors")
        if not all(math.isfinite(lo) and math.isfinite(hi) and lo < hi for lo, hi in zip(*box)):
            raise ConfigError("depth_box needs finite low < high in every coordinate")

    def _check_brw(self):
        if not self.j_grid:
            raise ConfigError("brw experiments need a j_grid")
        if self.replicates < 2:
            raise ConfigError("brw experiments need at least 2 replicates")
        if any(j < 0 for j in self.j_grid):
            raise ConfigError("j_grid entries must be >= 0")
        if self.disp.dim != 1:
            raise ConfigError("brw experiments need one-dimensional displacements")
        if self.count.moments().mean <= 1.0:
            raise ConfigError("the fluctuation study needs a supercritical count law")
        self._check_tree_size(self.brw_generations)
        for theta in self.theta_grid:
            try:
                with np.errstate(over="ignore"):
                    true_laplace(self.count, self.disp, theta)
            except (OverflowError, ValueError) as exc:
                raise ConfigError(
                    f"theta_grid entry {theta}: the Laplace transform is not finite"
                ) from exc
        a, b = exp_domain(self.disp)
        try:
            finite = all(math.isfinite(math.exp(self.fluct_theta * x)) for x in (a, b))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(
                f"fluct_theta {self.fluct_theta}: exp(theta x) is not finite on the "
                f"step domain [{a}, {b}]"
            )


def exp_domain(disp: DisplacementLaw) -> tuple[float, float]:
    """The domain [a, b] of a brw run's fluctuation function exp(theta x):
    the support of a bounded one-dimensional step law, else (-40, 40)."""
    if isinstance(disp, UniformBox):
        return float(disp.low[0]), float(disp.high[0])
    atoms = disp.atoms()
    if atoms is not None:
        vals = atoms[0][:, 0]
        return float(vals.min()), float(vals.max())
    return (-40.0, 40.0)  # generous cap for unbounded one-dimensional laws


def _box(values):
    return None if values is None else _points(values)


# JSON key -> (ExperimentConfig field, converter, default)
_FIELDS = {
    "n_grid": ("n_grid", _ints, ()),
    "replicates": ("replicates", _int, 1),
    "seed": ("seed", _int, 0),
    "threads": ("threads", _int, 1),
    "epsilon_grid": ("epsilon_grid", _floats, ()),
    "theta_grid": ("theta_grid", _floats, ()),
    "j_grid": ("j_grid", _ints, ()),
    "alpha": ("alpha", float, 1.01),
    "beta": ("beta", float, 1.01),
    "eval_points": ("eval_points", _points, ()),
    "depth_box": ("depth_box", _box, None),
    "depth_grid": ("depth_grid", _int, 16),
    "gt_draws": ("gt_draws", _int, 1_000_000),
    "fluct_theta": ("fluct_theta", float, 1.0),
    "target": ("target", str, "sample"),
    "generations": ("generations", _int, 6),
    "format": ("out_format", str, "csv"),
}


def build_config(raw: dict, kind: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    effective_kind = kind or raw.get("kind")
    if effective_kind is None:
        raise ConfigError("config does not name an experiment kind")
    if kind and "kind" in raw and raw["kind"] != kind:
        raise ConfigError(
            f"config kind {raw['kind']!r} does not match subcommand {kind!r}"
        )
    try:
        count = parse_count(raw["count"])
        disp = parse_disp(raw["disp"])
    except KeyError as exc:
        raise ConfigError(f"config is missing the {exc.args[0]!r} section") from exc
    cls = parse_class(raw["function_class"]) if "function_class" in raw else None
    values = {}
    for key, (name, convert, default) in _FIELDS.items():
        try:
            values[name] = convert(raw.get(key, default))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed {key} {raw[key]!r}: {exc}") from exc
    return ExperimentConfig(effective_kind, count, disp, cls, raw=raw, **values)


def config_hash(config: ExperimentConfig) -> str:
    """Content hash of everything that determines the results.

    The worker count is excluded (it never changes outputs); the effective
    seed is folded in even when it came from a CLI override.
    """
    payload = dict(config.raw)
    payload.pop("threads", None)
    payload["kind"] = config.kind
    payload["seed"] = config.seed
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
