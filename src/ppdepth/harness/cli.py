"""Command-line entry point.

    ppdepth <subcommand> --config <path.json> [--seed N] [--threads K]
            [--out DIR] [--format csv|json]

Subcommands: ulln, clt, bound, depth, brw, diag, simulate.  The depth
subcommand also accepts a batch-query config (a JSON object with "points",
"queries", and "method") and then writes depth_queries.csv instead of
running the Monte Carlo experiment.

Exit codes: 0 success, 1 config error, 2 assertion-suite failure (an
inequality experiment reported violations), 3 I/O error.  The worker count
is --threads, else PPDEPTH_THREADS, else the config's ``threads``; it is
folded into the config, whose check refuses a count below 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ..branching import TreeCapError
from .config import EXPERIMENT_KINDS, ConfigError, build_config, config_hash
from .records import emit, write_rows_csv
from .runners import run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATIONS = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppdepth",
        description="Monte Carlo studies of empirical intensity measures, "
        "half-space depth, deviation bounds, and branching-walk estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker count (fallback: PPDEPTH_THREADS, then the config)",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"ppdepth: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"ppdepth: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "depth" and isinstance(raw, dict) and "queries" in raw:
        return _run_depth_batch(raw, args)

    try:
        config = build_config(raw, args.command)
        threads = args.threads
        if threads is None:
            env = os.environ.get("PPDEPTH_THREADS")
            threads = int(env) if env else config.threads
        seed = config.seed if args.seed is None else args.seed
        config = dataclasses.replace(config, seed=seed, threads=threads)
        fmt = args.format or config.out_format
    except (ConfigError, ValueError) as exc:
        print(f"ppdepth: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(args.out, exist_ok=True)
        output = run_experiment(config, out_dir=args.out)
    except TreeCapError as exc:
        print(f"ppdepth: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"ppdepth: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO

    digest = config_hash(config)
    path = os.path.join(args.out, f"{config.kind}.{fmt}")
    try:
        emit(
            output.records,
            fmt,
            path,
            experiment=config.kind,
            config_hash=digest,
            seed=config.seed,
            param_columns=output.param_columns,
            raw_config=config.raw,
        )
        for name, (rows, columns) in output.tables.items():
            write_rows_csv(rows, columns, os.path.join(args.out, f"{name}.csv"))
    except OSError as exc:
        print(f"ppdepth: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO

    if output.violations > 0:
        print(
            f"ppdepth: {output.violations} inequality violation(s) recorded",
            file=sys.stderr,
        )
        return EXIT_VIOLATIONS
    return EXIT_OK


def _run_depth_batch(raw: dict, args) -> int:
    from ..depth import batch_depth_queries

    try:
        rows = batch_depth_queries(raw)
    except (KeyError, ValueError) as exc:
        print(f"ppdepth: bad depth query batch: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
        write_rows_csv(rows, list(rows[0]), os.path.join(args.out, "depth_queries.csv"))
    except OSError as exc:
        print(f"ppdepth: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
