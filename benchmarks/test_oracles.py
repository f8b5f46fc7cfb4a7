"""The benchmark's checks pass on the program's outputs and fail on perturbed ones.

    python3 -m pytest benchmarks/test_oracles.py -q

Each test runs a small study through the CLI, checks that the oracles
accept its outputs, then perturbs one output and checks that they reject it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from ppdepth.generators import RngStream  # noqa: E402
from ppdepth.harness import cli  # noqa: E402
from workloads import (  # noqa: E402
    FIXED_1, FIXED_2, GAUSSIAN_2D, PLANAR_SEED, POISSON_1, UNIFORM_1D, Study, write_configs,
)

SEED = 7


def run_study(study: Study, tmp_path):
    """Run ``study`` through the CLI; returns (its output dir, exit code,
    the loaded tree as the worker saves it, or None)."""
    write_configs([study], str(tmp_path / "configs"))
    code = cli.main(study.cli_args(str(tmp_path / "configs"), str(tmp_path)))
    out = str(tmp_path / study.name)
    tree = None
    if study.kind == "simulate":
        from ppdepth.branching import load_tree

        loaded = load_tree(os.path.join(out, "tree.ndjson"))
        tree = {name: list(getattr(loaded, name)) for name in ("disp", "parent", "pos", "counts")}
    return out, code, tree


def check(study, out, code, tree=None):
    return oracles.check_study(study, oracles.expect_study(study), out, code, tree)


def edit_rows(path, edit):
    """Rewrite a CSV file, passing every data row (a dict) through ``edit``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(edit(row) or row)


def assert_passes(tally):
    assert tally.attempted > 0
    assert tally.failed == tally.known, tally.problems


ULLN = Study("ulln", "ulln", {
    "count": FIXED_1, "disp": UNIFORM_1D, "function_class": {"kind": "half_lines"},
    "n_grid": [50, 100], "replicates": 30,
}, SEED)
ULLN_POISSON = Study("ulln_p", "ulln", {
    "count": POISSON_1, "disp": UNIFORM_1D, "function_class": {"kind": "half_lines"},
    "n_grid": [200, 400], "replicates": 10,
}, SEED)
BOUND = Study("bound", "bound", {
    "count": FIXED_1, "disp": UNIFORM_1D, "function_class": {"kind": "half_lines"},
    "n_grid": [2000, 10000], "replicates": 40, "epsilon_grid": [0.01, 0.03],
    "alpha": 1.01, "beta": 1.01,
}, SEED)
DIAG = Study("diag", "diag", {
    "count": POISSON_1, "disp": UNIFORM_1D, "function_class": {"kind": "half_lines"},
    "n_grid": [50], "replicates": 200, "epsilon_grid": [0.5],
}, SEED)
CLT = Study("clt", "clt", {
    "count": POISSON_1, "disp": UNIFORM_1D,
    "function_class": {"kind": "finite_list", "functions": [
        {"kind": "half_line", "threshold": 0.3}, {"kind": "half_line", "threshold": 0.7},
        {"kind": "constant", "value": 1.0}]},
    "n_grid": [50], "replicates": 200, "gt_draws": 2000,
}, SEED)
DEPTH_1D = Study("depth1", "depth", {
    "count": FIXED_1, "disp": UNIFORM_1D, "n_grid": [30, 60], "replicates": 3,
    "eval_points": [[0.25], [0.5]], "epsilon_grid": [0.3], "depth_grid": 9,
}, SEED)
DEPTH_2D = Study("depth2", "depth", {
    "count": FIXED_1, "disp": GAUSSIAN_2D, "n_grid": [12], "replicates": 2,
    "eval_points": [[0.0, 0.0], [0.5, 1.5]], "epsilon_grid": [0.3], "depth_grid": 5,
}, PLANAR_SEED)
PLANAR = Study("planar", "ulln", {
    "count": FIXED_1, "disp": GAUSSIAN_2D, "function_class": {"kind": "half_spaces", "dim": 2},
    "n_grid": [4, 8], "replicates": 40,
}, PLANAR_SEED)
BRW = Study("brw", "brw", {
    "count": POISSON_1, "disp": UNIFORM_1D, "j_grid": [2, 4], "theta_grid": [-1.0, 0.5],
    "replicates": 20, "fluct_theta": 1.0,
}, SEED)
BRW_FIXED = Study("brw_fixed", "brw", {
    "count": FIXED_2, "disp": {"kind": "discrete", "points": [[0.5]], "weights": [1.0]},
    "j_grid": [2, 4], "theta_grid": [-1.0, 0.0, 1.0], "replicates": 5, "fluct_theta": 1.0,
}, SEED)
TREE = Study("tree", "simulate", {
    "target": "tree", "count": POISSON_1, "disp": UNIFORM_1D, "generations": 5,
}, SEED)


def test_stream_restates_the_program_derivation():
    mine = oracles.stream(SEED, "ulln", 100, 3).uniform(size=5)
    theirs = RngStream(SEED).child("ulln", 100, 3).generator().uniform(size=5)
    assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("study", [ULLN, ULLN_POISSON, BOUND, DIAG, CLT, DEPTH_1D, DEPTH_2D,
                                   PLANAR, BRW, BRW_FIXED, TREE], ids=lambda s: s.name)
def test_program_outputs_pass(study, tmp_path):
    assert_passes(check(study, *run_study(study, tmp_path)))


@pytest.mark.parametrize("study", [ULLN, ULLN_POISSON], ids=lambda s: s.name)
def test_sup_off_by_one_over_n_fails(study, tmp_path):
    out, code, _ = run_study(study, tmp_path)

    def bump(row):
        first_n = str(study.config["n_grid"][0])
        if row["statistic"] == "sup_deviation" and row["replicate"] == "3" and row["n"] == first_n:
            row["value"] = repr(float(row["value"]) + 1.0 / float(row["n"]))

    edit_rows(os.path.join(out, "ulln.csv"), bump)
    tally = check(study, out, code)
    assert tally.unexpected == 1


def test_ks_test_rejects_shifted_sups():
    sups = oracles.ks_statistic(np.random.default_rng(1).uniform(size=(500, 100)))
    assert oracles._ks_problem(sups, 100) is None
    assert oracles._ks_problem(sups + 0.02, 100) is not None


def test_bound_with_16_in_the_exponent_fails(tmp_path):
    out, code, _ = run_study(BOUND, tmp_path)

    def wrong(row):
        n, eps = float(row["n"]), float(row["epsilon"])
        return {**row, "raw_bound": repr(16 * 1.01 * n * math.exp(-(eps**2) * n / 16.0 / 1.01))}

    edit_rows(os.path.join(out, "bound_table.csv"), wrong)
    tally = check(BOUND, out, code)
    assert tally.unexpected == 4


def test_exceedance_off_by_one_replicate_fails(tmp_path):
    out, code, _ = run_study(BOUND, tmp_path)

    def bump(row):
        if row["statistic"] == "empirical_exceedance":
            row["value"] = repr(float(row["value"]) + 1.0 / 40)

    edit_rows(os.path.join(out, "bound.csv"), bump)
    assert check(BOUND, out, code).unexpected == 4


def test_diag_lhs_not_the_mean_of_sups_fails(tmp_path):
    out, code, _ = run_study(DIAG, tmp_path)

    def bump(row):
        if row["statistic"] == "expectation_lhs":
            row["value"] = repr(float(row["value"]) * (1 + 1e-6))

    edit_rows(os.path.join(out, "diag.csv"), bump)
    assert check(DIAG, out, code).unexpected == 1


def test_clt_marking_covariance_in_place_of_pattern_covariance_fails(tmp_path):
    out, code, _ = run_study(CLT, tmp_path)
    marking = {}

    def collect(row):
        if row["statistic"] == "marking_covariance":
            marking[(row["f"], row["g"])] = row["value"]

    def swap(row):
        if row["statistic"] == "pattern_covariance_exact":
            row["value"] = marking[(row["f"], row["g"])]

    edit_rows(os.path.join(out, "clt.csv"), collect)
    edit_rows(os.path.join(out, "clt.csv"), swap)
    # only pairs with E[f] E[g] != 0 differ: all six here
    assert check(CLT, out, code).unexpected == 6


def test_depth_deviation_off_by_one_over_n_fails(tmp_path):
    out, code, _ = run_study(DEPTH_1D, tmp_path)

    def bump(row):
        if row["statistic"] == "depth_sup_deviation" and row["replicate"] == "0":
            row["value"] = repr(float(row["value"]) + 1.0 / float(row["n"]))

    edit_rows(os.path.join(out, "depth.csv"), bump)
    assert check(DEPTH_1D, out, code).unexpected == 2


def test_planar_sup_below_the_dense_bound_is_a_known_failure(tmp_path):
    out, code, _ = run_study(PLANAR, tmp_path)
    before = check(PLANAR, out, code)
    lowered = []

    def lower(row):
        if row["statistic"] == "sup_deviation" and not lowered:
            lowered.append(row["replicate"])
            row["value"] = repr(float(row["value"]) - 0.2)

    edit_rows(os.path.join(out, "ulln.csv"), lower)
    after = check(PLANAR, out, code)
    assert before.known > 0 and before.unexpected == 0
    assert after.known == before.known + 1
    # the n = 4 mean and the slope no longer match the lowered sup
    assert after.unexpected == 2


def test_wrong_exit_code_fails_every_operation(tmp_path):
    out, code, _ = run_study(ULLN, tmp_path)
    tally = check(ULLN, out, 2)
    assert tally.failed == tally.attempted and tally.unexpected > 0


def test_nonzero_generation_error_of_a_deterministic_tree_fails(tmp_path):
    out, code, _ = run_study(BRW_FIXED, tmp_path)

    def bump(row):
        if row["statistic"] == "mean_abs_error_generation" and row["j"] == "4":
            row["value"] = repr(1e-16)

    edit_rows(os.path.join(out, "brw.csv"), bump)
    assert check(BRW_FIXED, out, code).unexpected == 3


def test_brw_error_from_another_stream_fails(tmp_path):
    out, code, _ = run_study(BRW, tmp_path)
    other = Study(BRW.name, BRW.kind, BRW.config, SEED + 1)
    tally = oracles.Tally()
    oracles.compare_records(other, oracles.expect_study(other),
                            oracles.read_csv(os.path.join(out, "brw.csv")), tally)
    assert tally.unexpected > 0


def test_swapped_tree_label_fails(tmp_path):
    out, code, tree = run_study(TREE, tmp_path)
    path = os.path.join(out, "tree.ndjson")
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    siblings = next(i for i in range(1, len(lines) - 1)
                    if lines[i]["gen"] == lines[i + 1]["gen"]
                    and lines[i]["label"][:-1] == lines[i + 1]["label"][:-1])
    lines[siblings]["label"], lines[siblings + 1]["label"] = (
        lines[siblings + 1]["label"], lines[siblings]["label"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)
    assert check(TREE, out, code, tree).unexpected == 1


def test_loaded_tree_that_differs_fails(tmp_path):
    out, code, tree = run_study(TREE, tmp_path)
    tree["pos"][2] = tree["pos"][2] + 1e-12
    assert check(TREE, out, code, tree).unexpected == 1
