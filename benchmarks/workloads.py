"""The benchmark's workloads: which studies each one runs, with which config.

Every study is one ``ppdepth <kind>`` CLI call with ``--threads 1``.  Its
seed is the benchmark's ``--seed``, except for the two planar studies of
the ``depth`` workload, which run on ``PLANAR_SEED``: their half-plane sup
falls short of the true supremum on some replicates (see the README), and
a shortfall counts as a failed operation, so the number of failures must
not depend on the benchmark's seed.

This module imports nothing from ppdepth, so the set-up probes can write
the configs without extra import cost.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

PLANAR_SEED = 1

UNIFORM_1D = {"kind": "uniform", "low": [0.0], "high": [1.0]}
GAUSSIAN_2D = {"kind": "gaussian", "mean": [0.0, 0.0], "std": [1.0, 3.0]}
POISSON_1 = {"kind": "shifted_poisson", "lambda": 1.0}
FIXED_1 = {"kind": "fixed", "k": 1}
FIXED_2 = {"kind": "fixed", "k": 2}


@dataclass(frozen=True)
class Study:
    name: str
    kind: str
    config: dict
    seed: int

    def config_path(self, config_dir: str) -> str:
        return os.path.join(config_dir, f"{self.name}.json")

    def cli_args(self, config_dir: str, out_dir: str) -> list[str]:
        return [
            self.kind,
            "--config", self.config_path(config_dir),
            "--seed", str(self.seed),
            "--threads", "1",
            "--out", os.path.join(out_dir, self.name),
        ]


def _sweep_large_n(seed: int) -> list[Study]:
    return [
        Study("ulln_poisson", "ulln", {
            "count": POISSON_1, "disp": UNIFORM_1D,
            "function_class": {"kind": "half_lines"},
            "n_grid": [10_000, 100_000], "replicates": 8,
        }, seed),
        Study("bound_fixed", "bound", {
            "count": FIXED_1, "disp": UNIFORM_1D,
            "function_class": {"kind": "half_lines"},
            "n_grid": [10_000, 100_000], "replicates": 100,
            "epsilon_grid": [0.008, 0.01, 0.012], "alpha": 1.01, "beta": 1.01,
        }, seed),
    ]


CLT_FUNCTIONS = [
    {"kind": "half_line", "threshold": 0.3},
    {"kind": "half_line", "threshold": 0.7},
    {"kind": "constant", "value": 1.0},
]


def _replicates_small_n(seed: int) -> list[Study]:
    return [
        Study("ulln_fixed", "ulln", {
            "count": FIXED_1, "disp": UNIFORM_1D,
            "function_class": {"kind": "half_lines"},
            "n_grid": [50, 100, 200], "replicates": 2000,
        }, seed),
        Study("diag_poisson", "diag", {
            "count": POISSON_1, "disp": UNIFORM_1D,
            "function_class": {"kind": "half_lines"},
            "n_grid": [100], "replicates": 2000, "epsilon_grid": [0.5],
        }, seed),
        Study("clt_list", "clt", {
            "count": POISSON_1, "disp": UNIFORM_1D,
            "function_class": {"kind": "finite_list", "functions": CLT_FUNCTIONS},
            "n_grid": [200], "replicates": 2000, "gt_draws": 20_000,
        }, seed),
    ]


def _depth(seed: int) -> list[Study]:
    return [
        Study("depth_1d", "depth", {
            "count": FIXED_1, "disp": UNIFORM_1D,
            "n_grid": [100, 400], "replicates": 2,
            "eval_points": [[0.1], [0.25], [0.5], [0.75], [0.9]],
            "epsilon_grid": [0.3], "depth_grid": 17,
        }, seed),
        Study("depth_2d", "depth", {
            "count": FIXED_1, "disp": GAUSSIAN_2D,
            "n_grid": [40], "replicates": 1,
            "eval_points": [[0.0, 0.0], [0.5, 1.5], [-1.0, 2.0], [1.5, -3.0]],
            "epsilon_grid": [0.3], "depth_grid": 7,
        }, PLANAR_SEED),
        Study("halfplane_ulln", "ulln", {
            "count": FIXED_1, "disp": GAUSSIAN_2D,
            "function_class": {"kind": "half_spaces", "dim": 2},
            "n_grid": [4, 8], "replicates": 60,
        }, PLANAR_SEED),
    ]


def _branching(seed: int) -> list[Study]:
    return [
        Study("brw_poisson", "brw", {
            "count": POISSON_1, "disp": UNIFORM_1D,
            "j_grid": [2, 4, 6, 8, 10],
            "theta_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
            "replicates": 50, "fluct_theta": 1.0,
        }, seed),
        Study("brw_fixed", "brw", {
            "count": FIXED_2,
            "disp": {"kind": "discrete", "points": [[0.5]], "weights": [1.0]},
            "j_grid": [2, 4, 6, 8], "theta_grid": [-1.0, 0.0, 1.0],
            "replicates": 20, "fluct_theta": 1.0,
        }, seed),
        Study("simulate_tree", "simulate", {
            "target": "tree", "count": FIXED_2, "disp": UNIFORM_1D,
            "generations": 12,
        }, seed),
    ]


# Two workloads rather than one per group: on a host whose speed drifts by
# tens of percent over seconds to minutes, a run needs about 40 s of rounds
# for its median to settle, and four workloads of that length do not fit
# the benchmark's time budget.  Each workload keeps its groups' studies.
WORKLOADS = {
    "halfline": lambda seed: _sweep_large_n(seed) + _replicates_small_n(seed),
    "depth_branching": lambda seed: _depth(seed) + _branching(seed),
}


def studies_for(workload: str, seed: int) -> list[Study]:
    return WORKLOADS[workload](seed)


def write_configs(studies: list[Study], config_dir: str) -> None:
    os.makedirs(config_dir, exist_ok=True)
    for study in studies:
        payload = {"kind": study.kind, **study.config}
        with open(study.config_path(config_dir), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
