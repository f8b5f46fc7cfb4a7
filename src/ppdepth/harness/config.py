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

__all__ = ["ConfigError", "ExperimentConfig", "config_hash", "load_config"]

EXPERIMENT_KINDS = ("ulln", "clt", "bound", "depth", "brw", "diag", "simulate")


class ConfigError(ValueError):
    pass


def parse_count(spec: dict) -> CountLaw:
    kind = spec.get("kind")
    try:
        if kind == "fixed":
            return FixedCount(int(spec["k"]))
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid count law spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown count law kind {kind!r}")


def parse_disp(spec: dict) -> DisplacementLaw:
    kind = spec.get("kind")
    try:
        if kind == "uniform":
            return UniformBox(spec["low"], spec["high"])
        if kind == "gaussian":
            return DiagonalGaussian(spec["mean"], spec["std"])
        if kind == "discrete":
            return DiscretePoints(spec["points"], spec["weights"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid displacement law spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown displacement law kind {kind!r}")


def parse_function(spec: dict) -> EvalFunction:
    kind = spec.get("kind")
    try:
        if kind == "constant":
            return Constant(float(spec["value"]))
        if kind == "half_line":
            return HalfLineIndicator(
                float(spec["threshold"]), int(spec.get("orientation", 1))
            )
        if kind == "half_space":
            return HalfSpaceIndicator(spec["point"], spec["direction"])
        if kind == "exponential":
            return Exponential(
                float(spec["theta"]), tuple(spec.get("domain", (-1.0, 1.0)))
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid function spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown function kind {kind!r}")


def parse_class(spec: dict) -> FunctionClass:
    kind = spec.get("kind")
    try:
        if kind == "half_lines":
            return half_lines()
        if kind == "half_spaces":
            return half_spaces(int(spec.get("dim", 1)))
        if kind == "exponentials":
            return exponentials(
                float(spec.get("a", -1.0)),
                float(spec.get("b", 1.0)),
                float(spec.get("radius", 1.0)),
            )
        if kind == "finite_list":
            members = [parse_function(f) for f in spec["functions"]]
            return finite_list(members, int(spec.get("vc_dim", 1)))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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
        if self.kind == "bound" and not self.epsilon_grid:
            raise ConfigError("bound experiments need an epsilon_grid")
        if not all(math.isfinite(e) and e > 0 for e in self.epsilon_grid):
            raise ConfigError("epsilon_grid entries must be finite and > 0")
        if self.kind == "clt" and self.gt_draws < 2:
            raise ConfigError("clt experiments need gt_draws >= 2")
        if self.kind == "brw" and not self.j_grid:
            raise ConfigError("brw experiments need a j_grid")
        if self.out_format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")


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
    if effective_kind in ("ulln", "clt", "bound", "diag") and cls is None:
        raise ConfigError(f"{effective_kind} needs a function_class")
    box = raw.get("depth_box")
    if box is not None:
        box = (tuple(box[0]), tuple(box[1]))
    try:
        return ExperimentConfig(
            kind=effective_kind,
            count=count,
            disp=disp,
            function_class=cls,
            n_grid=tuple(int(n) for n in raw.get("n_grid", ())),
            replicates=int(raw.get("replicates", 1)),
            seed=int(raw.get("seed", 0)),
            threads=int(raw.get("threads", 1)),
            epsilon_grid=tuple(float(e) for e in raw.get("epsilon_grid", ())),
            theta_grid=tuple(float(t) for t in raw.get("theta_grid", ())),
            j_grid=tuple(int(j) for j in raw.get("j_grid", ())),
            alpha=float(raw.get("alpha", 1.01)),
            beta=float(raw.get("beta", 1.01)),
            eval_points=tuple(tuple(map(float, p)) for p in raw.get("eval_points", ())),
            depth_box=box,
            depth_grid=int(raw.get("depth_grid", 16)),
            gt_draws=int(raw.get("gt_draws", 1_000_000)),
            fluct_theta=float(raw.get("fluct_theta", 1.0)),
            target=str(raw.get("target", "sample")),
            generations=int(raw.get("generations", 6)),
            out_format=str(raw.get("format", "csv")),
            raw=raw,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc


def load_config(path, kind: str | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return build_config(raw, kind)


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
