"""Run one benchmark workload, check its outputs and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ppdepth is imported from ``src/``.
The run:

1. measures set-up: one unmeasured warm-up (it compiles the bytecode), then
   ``SETUP_PROBES`` fresh interpreters that import ppdepth and its CLI and
   write the workload's configs; each is timed from just before it starts;
2. runs the workload in one more fresh interpreter (``worker.py``): a
   warm-up round, then timed rounds for ``--seconds``, untraced, or with
   ``--trace 1`` alternating untraced and traced rounds; wall and CPU
   time are the means over the timed rounds;
3. checks every output of every round against the oracles (``oracles.py``);
4. prints the sha256 of every output file, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics with ``--trace 0``, the per-layer ones with
   ``--trace 1``.

Outputs, the spans of a traced run and ``results.jsonl`` (one line per run,
read by ``compare.py``) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)
from workloads import WORKLOADS, studies_for  # noqa: E402


def child_env() -> dict:
    """Single-threaded BLAS and no worker-count override in every child."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PPDEPTH_THREADS", None)
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(argv[1])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc


def run_worker(args: list[str], deadline: float) -> dict:
    t0 = time.monotonic()
    proc = run_child([sys.executable, WORKER, *args, "--t0", repr(t0)], deadline)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_self_seconds(deadline: float) -> float:
    """Self import time of the ppdepth modules, from ``-X importtime``."""
    code = "import sys; sys.path.insert(0, 'src'); import ppdepth.harness.cli"
    proc = run_child([sys.executable, "-X", "importtime", "-c", code], deadline)
    total_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            if parts[2].strip().startswith("ppdepth"):
                total_us += int(parts[0].split(":")[1])
    return total_us / 1e6


def load_tree_npz(path: str) -> dict:
    import numpy as np

    if not os.path.exists(path):
        return {}
    tree = {}
    with np.load(path) as data:
        for name in ("disp", "parent", "pos", "counts"):
            tree[name] = []
            while f"{name}_{len(tree[name])}" in data.files:
                tree[name].append(data[f"{name}_{len(tree[name])}"])
    return tree


def check_rounds(studies, rounds: list[dict], out_dir: str):
    """Tally every round's operations; rounds whose outputs and exit codes
    equal round 0's share round 0's checks."""
    import oracles

    total = oracles.Tally()
    expected = {s.name: oracles.expect_study(s) for s in studies}
    first = None
    for record in rounds:
        if record["round"] > 0 and record["same_as_round_0"]:
            total.add(first)
            continue
        tally = oracles.Tally()
        round_dir = os.path.join(out_dir, f"r{record['round']}")
        for study in studies:
            study_dir = os.path.join(round_dir, study.name)
            tree = load_tree_npz(os.path.join(study_dir, "loaded_tree.npz"))
            tally.add(oracles.check_study(study, expected[study.name], study_dir,
                                          record["codes"].get(study.name), tree))
        if first is None:
            first = tally
        total.add(tally)
    return total


def per_layer(rounds: list[dict], probes: list[dict], import_self_s: float) -> dict:
    """Median per-layer metrics of the traced rounds, the import split and
    the tracing overhead (mean traced minus mean untraced round time)."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    return {
        **layers,
        "setup.import_s": statistics.median(probe["import_s"] for probe in probes),
        "setup.import_ppdepth_self_s": import_self_s,
        "trace.overhead_s": statistics.mean(r["wall_s"] for r in traced)
        - statistics.mean(r["wall_s"] for r in plain),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ppdepth", "harness", "cli.py")):
        print(f"run.py: no ppdepth sources under {ROOT}/src", file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", out_dir]

    run_worker([*common, "--setup-only"], deadline)  # warm-up, not measured
    probes = [run_worker([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    run = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    probes.append(run)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"

    studies = studies_for(args.workload, args.seed)
    tally = check_rounds(studies, run["rounds"], out_dir)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    rounds = run["rounds"]
    timed = rounds[1:]
    if args.trace:
        metrics = per_layer(timed, probes, import_self_seconds(deadline))
    else:
        metrics = {
            "wall_s": statistics.mean(r["wall_s"] for r in timed),
            "cpu_s": statistics.mean(r["cpu_s"] for r in timed),
            "setup_s": statistics.median(probe["setup_s"] for probe in probes),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    for name, digest in rounds[0]["digests"].items():
        print(f"sha256 {digest} {args.workload}/{name}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared[section]},
    }
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        study_s = {k: statistics.median(r["study_s"][k] for r in timed) for k in timed[0]["study_s"]}
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "rounds": len(timed), "study_s": study_s,
                             "round_wall_s": [r["wall_s"] for r in timed],
                             "round_cpu_s": [r["cpu_s"] for r in timed],
                             "run_s": time.monotonic() - started, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
