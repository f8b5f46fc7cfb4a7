"""Seeded Monte Carlo experiment harness with CSV/JSON emission."""

from .config import (
    ConfigError,
    ExperimentConfig,
    build_config,
    config_hash,
)
from .records import ResultRecord, emit
from .runners import (
    RunOutput,
    run_bound,
    run_brw,
    run_clt,
    run_depth,
    run_diag,
    run_experiment,
    run_simulate,
    run_ulln,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "RunOutput",
    "build_config",
    "config_hash",
    "emit",
    "run_bound",
    "run_brw",
    "run_clt",
    "run_depth",
    "run_diag",
    "run_experiment",
    "run_simulate",
    "run_ulln",
]
