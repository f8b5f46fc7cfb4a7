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

# Cap on n E[L], the expected number of points of one replicate's sample:
# a sample is drawn into memory whole, as a tree is (``VERTEX_CAP``).
POINT_CAP = 10_000_000


class ConfigError(ValueError):
    pass


def _refuse_unknown(raw: dict, known, where: str) -> None:
    """Refuse a key that nothing reads: a misspelt one would silently leave
    its field at the default."""
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")


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


def _cox(spec: dict) -> CoxMixture:
    if "atoms" in spec:
        return CoxMixture(atoms=tuple((t, w) for t, w in spec["atoms"]))
    return CoxMixture(log_mean=float(spec["log_mean"]), log_sigma=float(spec["log_sigma"]))


# family -> kind -> (the keys besides "kind" that a spec of that kind reads,
# the builder of its object from the spec)
_SPECS = {
    "count law": {
        "fixed": (("k",), lambda s: FixedCount(_int(s["k"]))),
        "shifted_poisson": (("lambda",), lambda s: ShiftedPoisson(float(s["lambda"]))),
        "pmf": (("probs",), lambda s: Pmf(tuple(s["probs"]))),
        "cox": (("atoms", "log_mean", "log_sigma"), _cox),
    },
    "displacement law": {
        "uniform": (("low", "high"), lambda s: UniformBox(s["low"], s["high"])),
        "gaussian": (("mean", "std"), lambda s: DiagonalGaussian(s["mean"], s["std"])),
        "discrete": (("points", "weights"), lambda s: DiscretePoints(s["points"], s["weights"])),
    },
    "function": {
        "constant": (("value",), lambda s: Constant(float(s["value"]))),
        "half_line": (("threshold", "orientation"), lambda s: HalfLineIndicator(
            float(s["threshold"]), _int(s.get("orientation", 1)))),
        "half_space": (("point", "direction"),
                       lambda s: HalfSpaceIndicator(s["point"], s["direction"])),
        "exponential": (("theta", "domain"), lambda s: Exponential(
            float(s["theta"]), tuple(s.get("domain", (-1.0, 1.0))))),
    },
    "class": {
        "half_lines": ((), lambda s: half_lines()),
        "half_spaces": (("dim",), lambda s: half_spaces(_int(s.get("dim", 1)))),
        "exponentials": (("a", "b", "radius"), lambda s: exponentials(
            float(s.get("a", -1.0)), float(s.get("b", 1.0)), float(s.get("radius", 1.0)))),
        "finite_list": (("functions", "vc_dim"), lambda s: finite_list(
            [_parse(f, "function") for f in s["functions"]], _int(s.get("vc_dim", 1)))),
    },
}


def _parse(spec, family: str):
    """The object a ``family`` spec describes, built by its kind's entry in
    ``_SPECS``; a spec that is not an object, an unknown kind, a key the
    kind does not read and a value its builder refuses are config errors."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{family} spec must be a JSON object, not {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPECS[family]:
        raise ConfigError(f"unknown {family} kind {kind!r}")
    keys, build = _SPECS[family][kind]
    _refuse_unknown(spec, ("kind", *keys), f"the {kind} {family} spec")
    try:
        return build(spec)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {family} spec {spec!r}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    count: CountLaw
    disp: DisplacementLaw
    function_class: FunctionClass | None
    n_grid: tuple[int, ...] = ()
    replicates: int = 1
    seed: int = 0
    threads: int = 1
    epsilon_grid: tuple[float, ...] = ()
    theta_grid: tuple[float, ...] = ()
    j_grid: tuple[int, ...] = ()
    alpha: float = 1.01
    beta: float = 1.01
    eval_points: tuple[tuple[float, ...], ...] = ()
    depth_box: tuple[tuple[float, ...], tuple[float, ...]] | None = None
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
            raise ConfigError(f"threads must be >= 1, not {self.threads}")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self.count.moments().mean
        if not math.isfinite(mean):
            raise ConfigError("the count law has no finite mean")
        if not self.n_grid and self.kind in ("ulln", "clt", "bound", "depth", "diag"):
            raise ConfigError(f"{self.kind} needs a nonempty n_grid")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("sample sizes must be >= 1")
        draws_samples = self.kind != "brw" and not (
            self.kind == "simulate" and self.target == "tree"
        )
        n_max = max(self.n_grid, default=1)  # simulate draws one pattern without n_grid
        if draws_samples and n_max > POINT_CAP / mean:
            raise ConfigError(
                f"n E[L] = {n_max} x {mean:.6g} expected points per replicate "
                f"exceed the cap of {POINT_CAP}"
            )
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


# JSON key -> (ExperimentConfig field, converter); a key the config does
# not hold leaves the field at its ExperimentConfig default
_FIELDS = {
    "n_grid": ("n_grid", _ints),
    "replicates": ("replicates", _int),
    "seed": ("seed", _int),
    "threads": ("threads", _int),
    "epsilon_grid": ("epsilon_grid", _floats),
    "theta_grid": ("theta_grid", _floats),
    "j_grid": ("j_grid", _ints),
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "eval_points": ("eval_points", _points),
    "depth_box": ("depth_box", _box),
    "gt_draws": ("gt_draws", _int),
    "fluct_theta": ("fluct_theta", float),
    "target": ("target", str),
    "generations": ("generations", _int),
    "format": ("out_format", str),
}

# The top-level keys a config may carry.  ``depth_grid`` is retired (deepest
# points are exact) and accepted without effect, so older study configs run.
_TOP_KEYS = frozenset({"kind", "count", "disp", "function_class", "depth_grid", *_FIELDS})


def build_config(raw: dict, kind: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _refuse_unknown(raw, _TOP_KEYS, "the config")
    effective_kind = kind or raw.get("kind")
    if effective_kind is None:
        raise ConfigError("config does not name an experiment kind")
    if kind and "kind" in raw and raw["kind"] != kind:
        raise ConfigError(
            f"config kind {raw['kind']!r} does not match subcommand {kind!r}"
        )
    try:
        count = _parse(raw["count"], "count law")
        disp = _parse(raw["disp"], "displacement law")
    except KeyError as exc:
        raise ConfigError(f"config is missing the {exc.args[0]!r} section") from exc
    cls = _parse(raw["function_class"], "class") if "function_class" in raw else None
    values = {}
    for key, (name, convert) in _FIELDS.items():
        if key not in raw:
            continue
        try:
            values[name] = convert(raw[key])
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
