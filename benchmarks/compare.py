"""Summarize one or two sets of benchmark runs, as ``run.py`` logs them.

    python3 benchmarks/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the lines ``run.py`` appends to ``.bench_out/results.jsonl``
(copy or rename it between sets).  For every workload and end-to-end metric
this prints the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (quartile distance over median) and the metric's bound from
``BENCHMARK.json``; with two sets it adds the change of the median and
flags a spread or a worsening beyond the bound (the spread of ``setup_s``
is shown but not held to it).  Failed shares of the two sets must be equal.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """workload -> {"metrics": {name: [values]}, "failed": [..], "attempted": [..]}"""
    sets = defaultdict(lambda: {"metrics": defaultdict(list), "failed": [], "attempted": []})
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            entry = sets[rec["workload"]]
            entry["failed"].append(rec["failed"])
            entry["attempted"].append(rec["attempted"])
            for name, m in rec["metrics"].items():
                entry["metrics"][name].append(m["value"])
    return sets


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [load(p) for p in argv]
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        if any(name not in s for s in sets):
            continue
        shares = [sum(s[name]["failed"]) / sum(s[name]["attempted"]) for s in sets]
        counts = [len(s[name]["failed"]) for s in sets]
        print(f"{name}: runs {counts}, failed share {shares}")
        if len(set(shares)) > 1:
            ok = False
            print("  FAILED SHARE DIFFERS")
        for metric, bound in bounds.items():
            cells = []
            for s in sets:
                med, q1, q3, spread = summary(s[name]["metrics"][metric])
                cells.append((med, q1, q3, spread))
                flag = "" if spread <= bound or metric == "setup_s" else "  SPREAD > BOUND"
                ok = ok and not flag
                print(f"  {metric:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                      f"  spread {spread:6.2%} (bound {bound:.0%}){flag}")
            if len(cells) == 2:
                change = cells[1][0] / cells[0][0] - 1.0
                flag = "  WORSE THAN BOUND" if change > bound else ""
                ok = ok and not flag
                print(f"  {'':12s} median change {change:+.2%}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
