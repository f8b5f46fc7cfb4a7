"""Spans around the calls into each ppdepth layer, recorded from outside.

``Tracer.install`` replaces the public functions and methods of each layer
with wrappers that record a span (name, start, end, parent) and a few
counts, and ``Tracer.uninstall`` puts the originals back.  Functions that
``runners``, ``depth`` or ``cli`` bind by name at import are replaced in the
module that calls them; methods are replaced on their classes.  Spans stay
in memory; ``layer_metrics`` reduces one traced round to the per-layer
metrics, and ``dump`` writes the spans out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc

from ppdepth import branching, depth, functions, generators, measure, patterns
from ppdepth.harness import cli, runners

MIB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, fn, name, after=None):
        """``fn`` inside a span; ``name`` may be a callable of the arguments,
        and ``after(result, *args)`` records counts once the call returns."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans)
            spans.append([label, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        count = self.count
        for cls in vars(generators).values():
            if not isinstance(cls, type) or "sample" not in cls.__dict__:
                continue
            if issubclass(cls, generators.DisplacementLaw):
                self._patch(cls, "sample", "generators.draw",
                            lambda out, *a, **k: count("points_drawn", len(out)))
            elif issubclass(cls, generators.CountLaw):
                self._patch(cls, "sample", "generators.draw")
        self._patch(generators.RngStream, "child", "generators.stream")
        self._patch(generators.RngStream, "generator", "generators.stream")
        self._patch(functions.EvalFunction, "evaluate", "functions.evaluate")

        self._patch(runners, "halfline_sup_rows", "measure.halfline_rows")
        self._patch(runners, "halfline_sup_weighted", "measure.halfline_weighted",
                    lambda out, points, *a, **k: count("weighted_points", len(points)))
        self._patch(runners, "sup_deviation", _sup_deviation_name, _count_directions(count))
        for cls in (measure.MixedBinomialReference, measure.EmpiricalReference):
            self._patch(cls, "line_mass", "measure.line_mass")

        self._patch(patterns.Sample, "all_points", "patterns.all_points")
        self._patch(patterns.Sample, "__init__", "patterns.sample_init",
                    lambda out, *a, **k: count("samples_built"))

        self._patch(runners, "depth_sup_deviation", "depth.sup_deviation")
        self._patch(depth, "depth_1d", "depth.depth_1d")
        self._patch(depth, "depth_2d_exact", "depth.depth_2d_exact")
        self._patch(runners, "deepest_point", "depth.deepest_point")

        self._patch(runners, "chernoff_tail", "bounds.chernoff_tail")
        self._patch(runners, "deviation_bound", "bounds.deviation_bound")

        self._patch(runners, "grow_tree", "branching.grow",
                    lambda tree, *a, **k: count("vertices_grown", sum(tree.gen_sizes())))
        self._patch(runners, "exact_sum", "branching.exact_sum")
        self._patch(branching, "dump_tree", "branching.dump", _count_dump(count))
        self._patch(branching, "load_tree", "branching.load")

        self._patch(cli, "build_config", "harness.config.build")
        self._patch(cli, "run_experiment", "harness.runners")
        self._patch(cli, "emit", "harness.records.emit", _count_emit(count))
        self._patch(cli, "write_rows_csv", "harness.records.emit", _count_table(count))
        self._peak_halfline_rows()

    def _peak_halfline_rows(self) -> None:
        """Tracemalloc peak inside each halfline_sup_rows call (MiB)."""
        inner = runners.halfline_sup_rows
        peaks = self.counts

        def with_peak(*args, **kwargs):
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / MIB
                tracemalloc.stop()
                peaks["halfline_rows_peak_mb"] = max(peaks.get("halfline_rows_peak_mb", 0.0), peak)

        runners.halfline_sup_rows = with_peak

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reducing ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] += end - start
        runners_self = sum(
            (end - start) - child[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == "harness.runners"
        )
        c = self.counts.get
        n = calls.get
        t = lambda name: total.get(name, 0.0)
        samples = c("samples_built", 0.0)
        dump_s = t("branching.dump")
        weighted_s = t("measure.halfline_weighted")
        return {
            "generators.stream_calls": n("generators.stream", 0),
            "generators.stream_s": t("generators.stream"),
            "generators.draw_s": t("generators.draw"),
            "generators.points_drawn": c("points_drawn", 0.0),
            "functions.evaluate_calls": n("functions.evaluate", 0),
            "functions.evaluate_s": t("functions.evaluate"),
            "measure.halfline_rows_calls": n("measure.halfline_rows", 0),
            "measure.halfline_rows_s": t("measure.halfline_rows"),
            "measure.halfline_rows_peak_mb": c("halfline_rows_peak_mb", 0.0),
            "measure.halfline_weighted_calls": n("measure.halfline_weighted", 0),
            "measure.halfline_weighted_s": weighted_s,
            "measure.points_per_s": c("weighted_points", 0.0) / weighted_s if weighted_s else 0.0,
            "measure.halfplane_calls": n("measure.halfplane", 0),
            "measure.halfplane_s": t("measure.halfplane"),
            "measure.halfplane_directions": c("halfplane_directions", 0.0),
            "measure.line_mass_calls": n("measure.line_mass", 0),
            "measure.line_mass_s": t("measure.line_mass"),
            "patterns.all_points_calls": n("patterns.all_points", 0),
            "patterns.all_points_s": t("patterns.all_points"),
            "patterns.all_points_per_sample": n("patterns.all_points", 0) / samples if samples else 0.0,
            "depth.sup_deviation_s": t("depth.sup_deviation"),
            "depth.depth_1d_calls": n("depth.depth_1d", 0),
            "depth.depth_2d_exact_calls": n("depth.depth_2d_exact", 0),
            "depth.deepest_point_calls": n("depth.deepest_point", 0),
            "depth.deepest_point_s": t("depth.deepest_point"),
            "bounds.chernoff_tail_s": t("bounds.chernoff_tail"),
            "bounds.deviation_bound_calls": n("bounds.deviation_bound", 0),
            "branching.grow_s": t("branching.grow"),
            "branching.vertices_grown": c("vertices_grown", 0.0),
            "branching.exact_sum_calls": n("branching.exact_sum", 0),
            "branching.exact_sum_s": t("branching.exact_sum"),
            "branching.dump_s": dump_s,
            "branching.dump_vertices_per_s": c("dumped_vertices", 0.0) / dump_s if dump_s else 0.0,
            "branching.dump_bytes": c("dump_bytes", 0.0),
            "branching.load_s": t("branching.load"),
            "harness.config.build_s": t("harness.config.build"),
            "harness.runners.self_s": runners_self,
            "harness.records.emit_s": t("harness.records.emit"),
            "harness.records.rows": c("records_rows", 0.0),
            "harness.records.bytes": c("records_bytes", 0.0),
        }

    def dump(self, path: str) -> None:
        """Write the spans as [name, start, end, parent] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": self.counts, "spans": self.spans}, fh, separators=(",", ":"))


def _sup_deviation_name(sample, cls, ref, **kwargs) -> str:
    planar = cls.kind == "half_spaces" and cls.dim == 2
    return "measure.halfplane" if planar else "measure.sup_deviation"


def _count_directions(count):
    def after(out, sample, cls, ref, **kwargs):
        if cls.kind == "half_spaces" and cls.dim == 2:
            m = sample.s_n
            count("halfplane_directions", 3 * m * (m - 1) // 2)
    return after


def _count_dump(count):
    def after(out, tree, path):
        count("dumped_vertices", sum(tree.gen_sizes()))
        count("dump_bytes", os.path.getsize(path))
    return after


def _count_emit(count):
    def after(out, records, fmt, path, **kwargs):
        count("records_rows", len(records))
        count("records_bytes", os.path.getsize(path) + os.path.getsize(f"{path}.meta.json"))
    return after


def _count_table(count):
    def after(out, rows, columns, path):
        count("records_rows", len(rows))
        count("records_bytes", os.path.getsize(path))
    return after


