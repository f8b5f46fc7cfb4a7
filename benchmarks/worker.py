"""One workload in a fresh interpreter: set-up, then timed rounds.

    python3 benchmarks/worker.py --workload NAME --seed N --out DIR
        --t0 MONOTONIC [--setup-only] [--seconds S] [--trace 0|1]

Set-up imports ppdepth and its CLI from ``src/`` and writes the workload's
configs; ``--t0`` is the parent's ``time.monotonic()`` just before it
started this process, so the reported set-up time includes interpreter
start.  With ``--setup-only`` the worker stops there.

A round runs every study of the workload through ``cli.main`` once (and,
for a tree dump, reads the tree back with ``branching.load_tree``) into
``DIR/r<k>``.  Round 0 warms up (lazy imports inside ppdepth, caches) and
is checked but not timed; the timed rounds after it repeat until
``--seconds`` have passed.  Round 0's outputs are kept; a later round's outputs are deleted when their sha256
digests equal round 0's, and kept for checking otherwise.  With
``--trace 1`` untraced and traced rounds alternate after round 0, and the
traced ones record per-layer spans.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import time

T_START = time.monotonic()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def digests(round_dir: str) -> dict[str, str]:
    out = {}
    for base, _, files in os.walk(round_dir):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, round_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def run_round(cli, branching, studies, config_dir: str, round_dir: str):
    """Run every study once; returns (wall_s, cpu_s, exit codes, loaded
    trees, wall seconds per study)."""
    codes, trees, study_s = {}, {}, {}
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for study in studies:
        began = time.perf_counter()
        try:
            codes[study.name] = cli.main(study.cli_args(config_dir, round_dir))
            if study.kind == "simulate":
                path = os.path.join(round_dir, study.name, "tree.ndjson")
                trees[study.name] = branching.load_tree(path)
        except Exception as exc:  # a study that raises fails all its operations
            codes[study.name] = f"raised {type(exc).__name__}: {exc}"
        study_s[study.name] = time.perf_counter() - began
    return time.perf_counter() - wall0, time.process_time() - cpu0, codes, trees, study_s


def save_tree(tree, path: str) -> None:
    import numpy as np

    arrays = {}
    for name in ("disp", "parent", "pos", "counts"):
        for j, a in enumerate(getattr(tree, name)):
            arrays[f"{name}_{j}"] = a
    np.savez(path, **arrays)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = T_START if args.t0 is None else args.t0
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ppdepth import branching
    from ppdepth.harness import cli

    t_import = time.monotonic()
    sys.path.insert(0, HERE)
    from workloads import studies_for, write_configs

    studies = studies_for(args.workload, args.seed)
    config_dir = os.path.join(args.out, "configs")
    write_configs(studies, config_dir)
    setup = {"setup_s": time.monotonic() - t0, "import_s": t_import - t0}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    rounds = []
    first = None
    k = 0
    while True:
        if k == 1:
            start = time.perf_counter()
        traced = tracer is not None and k > 0 and k % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        round_dir = os.path.join(args.out, f"r{k}")
        try:
            wall, cpu, codes, trees, study_s = run_round(cli, branching, studies, config_dir, round_dir)
        finally:
            if traced:
                tracer.uninstall()
        record = {"round": k, "wall_s": wall, "cpu_s": cpu, "study_s": study_s,
                  "codes": codes, "traced": traced}
        if traced:
            record["layers"] = tracer.layer_metrics()
        files = digests(round_dir)
        if first is None:
            first = files
            record["digests"] = files
        if k > 0 and files == first and codes == rounds[0]["codes"]:
            shutil.rmtree(round_dir)
            record["same_as_round_0"] = True
        else:
            record["same_as_round_0"] = k == 0
            for name, tree in trees.items():
                save_tree(tree, os.path.join(round_dir, name, "loaded_tree.npz"))
        rounds.append(record)
        k += 1
        # round 0 only warms up; a traced run ends after a traced round
        if k > 1 and time.perf_counter() - start >= args.seconds and (tracer is None or traced):
            break
    if tracer is not None:
        tracer.dump(os.path.join(args.out, "trace_spans.json"))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({**setup, "peak_rss_mb": peak_mb, "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
