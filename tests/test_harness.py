import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ppdepth
from ppdepth import RngStream, reference_for
from ppdepth.generators import draw_flat
from ppdepth.harness import (
    ConfigError,
    ResultRecord,
    build_config,
    config_hash,
    emit,
    run_experiment,
)
from ppdepth import measure
from ppdepth.harness import cli, runners
from ppdepth.harness.cli import main as cli_main
from ppdepth.harness.runners import _diag_block, _over_replicates
from ppdepth.measure import halfline_sup_weighted


def base_config(**overrides):
    raw = {
        "kind": "ulln",
        "count": {"kind": "fixed", "k": 1},
        "disp": {"kind": "uniform", "low": [0.0], "high": [1.0]},
        "function_class": {"kind": "half_lines"},
        "n_grid": [50],
        "replicates": 8,
        "seed": 99,
    }
    raw.update(overrides)
    return raw


class TestConfigParsing:
    def test_laws_and_class_from_wire_format(self):
        raw = base_config(
            count={"kind": "shifted_poisson", "lambda": 2.0},
            disp={"kind": "uniform", "low": [0.0], "high": [1.0]},
        )
        cfg = build_config(raw)
        assert cfg.count.lam == 2.0
        assert cfg.function_class.vc_dim == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_config(base_config(kind="bogus"))

    def test_subcommand_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="does not match"):
            build_config(base_config(), kind="clt")

    def test_missing_sections_rejected(self):
        raw = base_config()
        del raw["count"]
        with pytest.raises(ConfigError, match="count"):
            build_config(raw)

    def test_invalid_law_parameters_rejected(self):
        with pytest.raises(ConfigError):
            build_config(base_config(count={"kind": "fixed", "k": 0}))
        with pytest.raises(ConfigError):
            build_config(base_config(disp={"kind": "uniform", "low": [1.0], "high": [0.0]}))

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="n_grid"):
            build_config(base_config(n_grid=[]))
        with pytest.raises(ConfigError, match="epsilon_grid"):
            build_config(base_config(kind="bound"))

    def test_tree_size_rule(self):
        """A tree whose expected size, the sum of E[L]^j over its
        generations j = 0 .. g, exceeds the vertex cap is refused when the
        config is built.  At E[L] = 2, g = 22 (2^23 - 1 vertices) passes
        and g = 23 does not; brw grows g = max(j_grid) + 3."""
        tree = {"kind": "simulate", "target": "tree", "count": {"kind": "fixed", "k": 2}}
        build_config(base_config(**tree, generations=22))
        with pytest.raises(ConfigError, match="expected vertices"):
            build_config(base_config(**tree, generations=23))
        build_config(base_config(**{**tree, "target": "sample"}, generations=23))
        brw = {"kind": "brw", "count": {"kind": "shifted_poisson", "lambda": 1.0}}
        build_config(base_config(**brw, j_grid=[2, 19]))
        for j_grid in ([20], [10**6]):
            with pytest.raises(ConfigError, match="expected vertices"):
                build_config(base_config(**brw, j_grid=j_grid))

    def test_hash_changes_with_content_but_not_threads(self):
        a = build_config(base_config(threads=1))
        b = build_config(base_config(threads=8))
        c = build_config(base_config(seed=100))
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestEmission:
    def test_header_only_csv_for_empty_records(self, tmp_path):
        path = tmp_path / "out.csv"
        emit([], "csv", path, experiment="ulln", config_hash="h", seed=1,
             param_columns=("n",))
        assert path.read_text() == "experiment,config_hash,seed,n,replicate,statistic,value,stderr\n"
        assert (tmp_path / "out.csv.meta.json").exists()

    def test_json_round_trip_preserves_17_digits(self, tmp_path):
        values = [1.0 / 3.0, math.pi, 2.0**-52, 1.2345678901234567e-300]
        records = [
            ResultRecord("stat", v, i, (("n", 10),), stderr=v / 7.0)
            for i, v in enumerate(values)
        ]
        path = tmp_path / "out.json"
        emit(records, "json", path, experiment="x", config_hash="h", seed=1,
             param_columns=("n",))
        loaded = json.loads(path.read_text())
        for rec, row in zip(records, loaded):
            assert row["value"] == rec.value  # exact, not approximate
            assert row["stderr"] == rec.stderr

    def test_csv_round_trip_preserves_17_digits(self, tmp_path):
        values = [1.0 / 3.0, math.pi, 0.1 + 0.2]
        records = [ResultRecord("s", v, i, (("n", 1),)) for i, v in enumerate(values)]
        path = tmp_path / "out.csv"
        emit(records, "csv", path, experiment="x", config_hash="h", seed=1,
             param_columns=("n",))
        lines = path.read_text().splitlines()[1:]
        for rec, line in zip(records, lines):
            assert float(line.split(",")[6]) == rec.value

    def test_no_timestamps_in_sidecar(self, tmp_path):
        path = tmp_path / "out.csv"
        emit([], "csv", path, experiment="x", config_hash="h", seed=1, param_columns=())
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert set(meta) == {"experiment", "config_hash", "seed", "config", "versions"}


class TestRunners:
    def test_ulln_single_replicate_has_no_slope(self):
        cfg = build_config(base_config(n_grid=[1], replicates=1))
        out = run_experiment(cfg, threads=1)
        stats = {r.statistic for r in out.records}
        assert "loglog_slope" not in stats
        assert sum(r.statistic == "sup_deviation" for r in out.records) == 1

    def test_ulln_block_boundaries_do_not_change_values(self):
        cfg = build_config(base_config(replicates=12))
        a = run_experiment(cfg, threads=1)
        b = run_experiment(cfg, threads=3)
        va = [r.value for r in a.records]
        vb = [r.value for r in b.records]
        assert va == vb

    def test_clt_requires_enough_functions_and_replicates(self):
        raw = base_config(
            kind="clt",
            function_class={"kind": "finite_list", "functions": [
                {"kind": "constant", "value": 1.0}]},
            replicates=200,
        )
        with pytest.raises(ConfigError, match=">= 2"):
            run_experiment(build_config(raw), threads=1)
        raw["function_class"]["functions"].append({"kind": "half_line", "threshold": 0.5})
        raw["replicates"] = 10
        with pytest.raises(ConfigError, match="100"):
            run_experiment(build_config(raw), threads=1)

    def test_clt_deterministic_counts_constant_function(self):
        """With a fixed count and f = 1 every replicate statistic is zero."""
        raw = base_config(
            kind="clt",
            count={"kind": "fixed", "k": 2},
            function_class={"kind": "finite_list", "functions": [
                {"kind": "constant", "value": 1.0},
                {"kind": "half_line", "threshold": 0.5}]},
            n_grid=[40],
            replicates=150,
        )
        out = run_experiment(build_config(raw), threads=1)
        cov = {
            (dict(r.params)["f"], dict(r.params)["g"]): r.value
            for r in out.records
            if r.statistic == "replicate_covariance"
        }
        assert cov[(0, 0)] == 0.0

    def test_clt_constant_function_variance_matches_count_variance(self):
        """sqrt(n)(S_n/n - E L) has variance Var[L]; 5 s.e. tolerance."""
        raw = base_config(
            kind="clt",
            count={"kind": "shifted_poisson", "lambda": 1.0},
            function_class={"kind": "finite_list", "functions": [
                {"kind": "constant", "value": 1.0},
                {"kind": "half_line", "threshold": 0.5}]},
            n_grid=[300],
            replicates=2500,
            gt_draws=20000,
            seed=1234,
        )
        out = run_experiment(build_config(raw), threads=1)
        rec = next(
            r for r in out.records
            if r.statistic == "replicate_covariance"
            and dict(r.params)["f"] == 0 and dict(r.params)["g"] == 0
        )
        assert abs(rec.value - 1.0) <= 5.0 * rec.stderr  # Var[L] = lambda = 1

    def test_bound_exceedance_monotone_in_n(self):
        raw = base_config(
            kind="bound",
            n_grid=[50, 400],
            replicates=300,
            epsilon_grid=[0.1],
            seed=7,
        )
        out = run_experiment(build_config(raw), threads=1)
        freq = {
            dict(r.params)["n"]: r.value
            for r in out.records
            if r.statistic == "empirical_exceedance"
        }
        assert freq[400] <= freq[50]
        assert out.violations == 0
        rows, columns = out.tables["bound_table"]
        assert columns[:5] == ["n", "epsilon", "alpha", "beta", "v"]
        assert len(rows) == 2

    def test_bound_raw_value_tiny_at_large_n(self):
        """At n = 1e6, eps = 0.05, alpha = beta = 1.01, v = 2 the closed-form
        bound is below 1e-26 (pure formula evaluation, no simulation)."""
        from ppdepth import DeviationBoundParams, deviation_bound

        b = deviation_bound(DeviationBoundParams(0.05, 10**6, 1.01, 1.01, 2, 0.0, 0.0))
        assert b.raw < 1e-26

    def test_brw_rejects_subcritical_law(self):
        raw = base_config(
            kind="brw",
            count={"kind": "fixed", "k": 1},
            j_grid=[2],
            replicates=5,
        )
        with pytest.raises(ConfigError, match="supercritical"):
            run_experiment(build_config(raw), threads=1)

    def test_brw_exact_for_deterministic_tree(self):
        raw = base_config(
            kind="brw",
            count={"kind": "fixed", "k": 2},
            disp={"kind": "discrete", "points": [[0.5]], "weights": [1.0]},
            j_grid=[2, 3],
            theta_grid=[-1.0, 0.5],
            replicates=4,
        )
        out = run_experiment(build_config(raw), threads=1)
        for r in out.records:
            if r.statistic == "mean_abs_error_generation":
                assert r.value == 0.0

    def test_brw_cumulative_exact_for_deterministic_tree(self):
        """The cumulative estimator is rounded once, so on the deterministic
        tree (two children, each displaced by 0.5) its error is exactly 0."""
        raw = base_config(
            kind="brw",
            count={"kind": "fixed", "k": 2},
            disp={"kind": "discrete", "points": [[0.5]], "weights": [1.0]},
            j_grid=[2, 4, 6, 8],
            theta_grid=[-1.0, 0.0, 1.0],
            replicates=3,
            fluct_theta=1.0,
        )
        out = run_experiment(build_config(raw), threads=1)
        errors = [r for r in out.records if r.statistic == "mean_abs_error_cumulative"]
        assert len(errors) == 12
        for r in errors:
            assert r.value == 0.0, r.params

    def test_diag_single_pattern_fixture(self):
        raw = base_config(
            kind="diag",
            n_grid=[1],
            replicates=40,
            epsilon_grid=[0.5],
        )
        out = run_experiment(build_config(raw), threads=1)
        rhs = next(r for r in out.records if r.statistic == "expectation_rhs")
        # with one pattern of one point, |signed measure| = 1 for either sign
        assert rhs.value == pytest.approx(2.0)
        assert out.violations == 0

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"count": {"kind": "shifted_poisson", "lambda": 1.0}, "n_grid": [100],
             "replicates": 300},
            {"disp": {"kind": "gaussian", "mean": [0.3], "std": [0.2]}, "n_grid": [1],
             "replicates": 300},
            {"count": {"kind": "pmf", "probs": [0.2, 0.5, 0.3]},
             "disp": {"kind": "discrete", "points": [[0.1], [0.3], [0.9]],
                      "weights": [0.5, 0.25, 0.25]}, "n_grid": [30], "replicates": 100},
            {"count": {"kind": "shifted_poisson", "lambda": 1.0}, "n_grid": [3000],
             "replicates": 24},
        ],
        ids=["poisson", "n-1", "discrete-ties", "long-samples"],
    )
    def test_diag_block_matches_per_replicate_sweeps(self, overrides, threads):
        """The batched diag block gives, bit for bit, one
        ``halfline_sup_weighted`` per replicate and kind, over several
        replicate blocks and worker processes."""
        config = build_config(base_config(kind="diag", epsilon_grid=[0.5], **overrides))
        ref = reference_for(config.count, config.disp)
        n = config.n_grid[0]
        devs, syms = [], []
        for r in range(config.replicates):
            gen = RngStream(config.seed).child("diag", n, r).generator()
            pts, sizes = draw_flat(n, config.count, config.disp, gen)
            devs.append(halfline_sup_weighted(pts[:, 0], np.full(pts.shape[0], 1.0 / n), ref))
            signs = gen.choice(np.array([-1.0, 1.0]), size=n)
            syms.append(halfline_sup_weighted(pts[:, 0], np.repeat(signs / n, sizes), None))
        shared = (config.count, config.disp, ref, n, config.seed)
        got_devs, got_syms = _over_replicates(_diag_block, shared, config, threads)
        assert got_devs.tobytes() == np.array(devs).tobytes()
        assert got_syms.tobytes() == np.array(syms).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 20240817, 2**63 + 5])
    def test_diag_sign_draws_match_choice(self, seed):
        """The diag block's Rademacher signs, drawn by indexing with
        ``integers(0, 2)``, are the bytes that ``choice`` of the two signs
        draws, and leave the generator where ``choice`` leaves it."""
        signs = np.array([-1.0, 1.0])
        for n in (1, 2, 3, 7, 100, 1000, 10**5):
            by_choice = RngStream(seed).child("diag", n, 0).generator()
            by_index = RngStream(seed).child("diag", n, 0).generator()
            want = by_choice.choice(signs, size=n)
            assert signs[by_index.integers(0, 2, size=n)].tobytes() == want.tobytes()
            assert by_index.random(3).tobytes() == by_choice.random(3).tobytes()
            assert by_index.integers(0, 2, size=5).tobytes() == by_choice.integers(0, 2, size=5).tobytes()

    def test_depth_runner_reports_domination(self):
        raw = base_config(
            kind="depth",
            n_grid=[40],
            replicates=6,
            eval_points=[[0.25], [0.5], [0.75]],
            epsilon_grid=[0.3],
            depth_grid=9,
        )
        out = run_experiment(build_config(raw), threads=1)
        assert out.violations == 0
        stats = {r.statistic for r in out.records}
        assert {"depth_sup_deviation", "halfspace_sup_deviation"} <= stats

    def test_depth_runner_planar_median_convergence(self):
        """Uniform square: the empirical deepest point approaches (0.5, 0.5)
        and the median of the reference is the center itself."""
        raw = base_config(
            kind="depth",
            disp={"kind": "uniform", "low": [0.0, 0.0], "high": [1.0, 1.0]},
            n_grid=[30, 120],
            replicates=4,
            eval_points=[[0.5, 0.5], [0.3, 0.7]],
            epsilon_grid=[0.4],
            depth_grid=7,
        )
        out = run_experiment(build_config(raw), threads=1)
        assert out.violations == 0
        med = {
            r.statistic: r.value
            for r in out.records
            if r.statistic.startswith("reference_median")
        }
        assert med["reference_median_x1"] == pytest.approx(0.5, abs=0.02)
        assert med["reference_median_x2"] == pytest.approx(0.5, abs=0.02)
        dist = {
            dict(r.params)["n"]: r.value
            for r in out.records
            if r.statistic == "mean_deepest_distance"
        }
        assert dist[120] < dist[30]


class TestCli:
    def _write(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_successful_run_writes_files(self, tmp_path):
        cfg = self._write(tmp_path, base_config(replicates=4))
        out_dir = str(tmp_path / "out")
        assert cli_main(["ulln", "--config", cfg, "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "ulln.csv"))
        assert os.path.exists(os.path.join(out_dir, "ulln.csv.meta.json"))

    def test_config_error_exit_code(self, tmp_path):
        cfg = self._write(tmp_path, base_config(n_grid=[]))
        assert cli_main(["ulln", "--config", cfg, "--out", str(tmp_path)]) == 1

    CLT_PAIR = {"kind": "finite_list", "functions": [
        {"kind": "constant", "value": 1.0}, {"kind": "half_line", "threshold": 0.5}]}
    DEPTH_1D = {"eval_points": [[0.25], [0.5]], "epsilon_grid": [0.3], "depth_grid": 5}
    BRW_GAUSSIAN = {"count": {"kind": "shifted_poisson", "lambda": 1.0},
                    "disp": {"kind": "gaussian", "mean": [0.0], "std": [1.0]}, "j_grid": [2]}

    @pytest.mark.parametrize(
        "kind,overrides",
        [
            ("diag", {"epsilon_grid": [0.0]}),
            ("bound", {"epsilon_grid": [-0.1]}),
            ("bound", {"epsilon_grid": [0.1, float("inf")]}),
            ("clt", {"gt_draws": 0, "function_class": CLT_PAIR, "replicates": 100}),
            ("ulln", {"count": {"kind": "shifted_poisson", "lambda": float("nan")}}),
            ("bound", {"epsilon_grid": [0.1], "beta": float("nan")}),
            ("bound", {"epsilon_grid": [0.1], "alpha": -1}),
            ("depth", {**DEPTH_1D, "depth_box": [[1.0], [0.0]]}),
            ("depth", {**DEPTH_1D, "depth_box": [0.0, 1.0]}),
            ("depth", {**DEPTH_1D, "depth_grid": 0}),
            ("depth", {**DEPTH_1D, "eval_points": [[0.5, 0.5]]}),
            ("ulln", {"count": [1]}),
            ("ulln", {"n_grid": [10.7]}),
            ("ulln", {"replicates": 10.7}),
            ("brw", {**BRW_GAUSSIAN, "theta_grid": [800]}),
            ("brw", {**BRW_GAUSSIAN, "fluct_theta": 30}),
            ("brw", {"count": {"kind": "fixed", "k": 100}, "j_grid": [40]}),
            ("brw", {"count": {"kind": "fixed", "k": 2}, "j_grid": [40]}),
            ("simulate", {"target": "tree", "count": {"kind": "fixed", "k": 2},
                          "generations": 40}),
        ],
        ids=["diag-eps-zero", "bound-eps-negative", "bound-eps-inf", "clt-gt-draws-zero",
             "ulln-nan-rate", "bound-beta-nan", "bound-alpha-negative", "depth-box-inverted",
             "depth-box-not-pair", "depth-grid-zero", "depth-eval-dim", "ulln-count-list",
             "ulln-n-grid-fraction", "ulln-replicates-fraction", "brw-theta-overflow",
             "brw-fluct-theta-overflow", "brw-tree-cap", "brw-expected-tree-size",
             "simulate-expected-tree-size"],
    )
    def test_bad_values_exit_one_with_one_line(self, tmp_path, capsys, kind, overrides):
        """Malformed values end in exit 1 and a one-line message, and no
        output file is written."""
        cfg = self._write(tmp_path, base_config(kind=kind, **overrides))
        out_dir = tmp_path / "out"
        assert cli_main([kind, "--config", cfg, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("ppdepth: ")
        assert not (out_dir / f"{kind}.csv").exists()

    BOX_2D = {"kind": "uniform", "low": [0.0, 0.0], "high": [1.0, 1.0]}

    @pytest.mark.parametrize(
        "kind,overrides",
        [
            ("ulln", {"disp": BOX_2D}),
            ("bound", {"disp": BOX_2D, "function_class": {"kind": "half_spaces", "dim": 1},
                       "epsilon_grid": [0.1]}),
            ("ulln", {"function_class": {"kind": "half_spaces", "dim": 2}}),
            ("ulln", {"disp": BOX_2D, "function_class": {"kind": "exponentials"}}),
            ("clt", {"disp": BOX_2D, "function_class": CLT_PAIR, "replicates": 100}),
            ("ulln", {"disp": {"kind": "gaussian", "mean": [0.0], "std": [float("inf")]}}),
            ("ulln", {"disp": {"kind": "uniform", "low": [0.0], "high": [1e309]}}),
            ("ulln", {"disp": {"kind": "discrete", "points": [[float("nan")]], "weights": [1.0]}}),
            ("brw", {**BRW_GAUSSIAN, "replicates": 1}),
        ],
        ids=["half-lines-on-plane", "half-spaces-1-on-plane", "half-spaces-2-on-line",
             "exponentials-on-plane", "clt-half-line-on-plane", "gaussian-std-inf",
             "uniform-high-overflow", "discrete-point-nan", "brw-one-replicate"],
    )
    def test_refused_before_any_output(self, tmp_path, capsys, kind, overrides):
        """A class or function of another dimension than the law, a
        non-finite law parameter, and a brw study without a second
        replicate for its variance are refused while the config is built:
        exit 1, one line, no traceback and no output directory.  Before,
        each ended in a traceback, or wrote NaN under exit 0."""
        cfg = self._write(tmp_path, base_config(kind=kind, **overrides))
        out_dir = tmp_path / "out"
        assert cli_main([kind, "--config", cfg, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("ppdepth: ")
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_tree_over_cap_at_run_time_exits_one(self, tmp_path, capsys, monkeypatch):
        """A tree that outgrows the vertex cap while it is grown (the config
        rule bounds only its expected size) still ends in exit 1 and one
        line."""
        from ppdepth.harness import runners

        grow = runners.grow_tree
        monkeypatch.setattr(runners, "grow_tree", lambda *a, **k: grow(*a, cap=10, **k))
        cfg = self._write(tmp_path, base_config(
            kind="simulate", target="tree", count={"kind": "fixed", "k": 2}, generations=6))
        assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "t")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("ppdepth: tree exceeded the vertex cap 10")

    def test_refused_config_creates_no_out_dir(self, tmp_path, capsys):
        """A clt config with too few replicates is refused while the config is
        built, before the output directory is created."""
        cfg = self._write(tmp_path, base_config(
            kind="clt", function_class=self.CLT_PAIR, replicates=10))
        out_dir = tmp_path / "out"
        assert cli_main(["clt", "--config", cfg, "--out", str(out_dir)]) == 1
        assert "100 replicates" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli_main(["ulln", "--config", str(tmp_path / "nope.json")]) == 3

    def test_violations_exit_code(self, tmp_path, monkeypatch):
        """A run that records inequality violations exits with code 2."""
        from ppdepth.harness import RunOutput
        from ppdepth.harness import cli as cli_module

        def fake_run(config, threads=None, out_dir="."):
            return RunOutput([], ("n",), violations=3)

        monkeypatch.setattr(cli_module, "run_experiment", fake_run)
        cfg = self._write(tmp_path, base_config(replicates=2))
        assert cli_main(["ulln", "--config", cfg, "--out", str(tmp_path / "v")]) == 2

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = self._write(tmp_path, base_config(replicates=3))
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli_main(["ulln", "--config", cfg, "--out", out_a]) == 0
        assert cli_main(["ulln", "--config", cfg, "--out", out_b, "--seed", "5"]) == 0
        head_a = open(os.path.join(out_a, "ulln.csv")).readlines()[1]
        head_b = open(os.path.join(out_b, "ulln.csv")).readlines()[1]
        assert head_a.split(",")[1] != head_b.split(",")[1]

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        cfg = self._write(tmp_path, base_config(replicates=4))
        out_dir = str(tmp_path / "env")
        monkeypatch.setenv("PPDEPTH_THREADS", "2")
        assert cli_main(["ulln", "--config", cfg, "--out", out_dir]) == 0

    def test_json_format_flag(self, tmp_path):
        cfg = self._write(tmp_path, base_config(replicates=3))
        out_dir = str(tmp_path / "json")
        assert cli_main(
            ["ulln", "--config", cfg, "--out", out_dir, "--format", "json"]
        ) == 0
        data = json.loads(open(os.path.join(out_dir, "ulln.json")).read())
        assert data[0]["experiment"] == "ulln"

    def test_simulate_sample_dump(self, tmp_path):
        raw = {
            "kind": "simulate",
            "target": "sample",
            "count": {"kind": "fixed", "k": 2},
            "disp": {"kind": "uniform", "low": [0.0], "high": [1.0]},
            "n_grid": [5],
            "seed": 3,
        }
        cfg = self._write(tmp_path, raw)
        out_dir = str(tmp_path / "sim")
        assert cli_main(["simulate", "--config", cfg, "--out", out_dir]) == 0
        from ppdepth import load_sample

        sample = load_sample(os.path.join(out_dir, "sample.ndjson"))
        assert sample.n == 5 and sample.s_n == 10

    def test_simulate_tree_dump(self, tmp_path):
        raw = {
            "kind": "simulate",
            "target": "tree",
            "count": {"kind": "fixed", "k": 2},
            "disp": {"kind": "uniform", "low": [0.0], "high": [1.0]},
            "generations": 3,
            "seed": 3,
        }
        cfg = self._write(tmp_path, raw)
        out_dir = str(tmp_path / "tree")
        assert cli_main(["simulate", "--config", cfg, "--out", out_dir]) == 0
        from ppdepth import load_tree

        tree = load_tree(os.path.join(out_dir, "tree.ndjson"))
        assert tree.gen_sizes() == (1, 2, 4, 8)

    def test_diag_accepts_one_dimensional_half_spaces(self, tmp_path):
        """half_spaces with dim 1 are half-lines: diag runs it and writes the
        value columns of a half_lines run."""
        columns = []
        for cls in ({"kind": "half_lines"}, {"kind": "half_spaces", "dim": 1}):
            cfg = self._write(tmp_path, base_config(
                kind="diag", function_class=cls, epsilon_grid=[0.5], replicates=20))
            out_dir = tmp_path / cls["kind"]
            assert cli_main(["diag", "--config", cfg, "--out", str(out_dir)]) == 0
            rows = (out_dir / "diag.csv").read_text().splitlines()
            header = rows[0].split(",")
            keep = [i for i, name in enumerate(header) if name != "config_hash"]
            columns.append([[row.split(",")[i] for i in keep] for row in rows])
        assert columns[0] == columns[1]

    DIAMOND = [[1, 0], [-1, 0], [0, 1], [0, -1]]

    @pytest.mark.parametrize(
        "payload",
        [
            {"points": DIAMOND, "queries": [[float("nan"), 0]], "method": "exact2d"},
            {"points": DIAMOND, "queries": [[0, float("inf")]], "method": "approx:8"},
            {"points": [[0], [1]], "queries": [[None]], "method": "exact1d"},
            {"points": DIAMOND, "queries": [[0, 0]], "method": 5},
            {"points": DIAMOND, "queries": [[0, 0]], "method": "approx:0"},
            {"points": DIAMOND, "queries": [[0, 0]], "method": "approximately"},
            {"points": DIAMOND, "queries": [[0, 0, 0]], "method": "exact2d"},
            {"points": [[0], [1]], "queries": [[0.5, 1.0]], "method": "exact1d"},
            {"points": DIAMOND, "queries": [[0, "0"]], "method": "exact2d"},
            {"points": DIAMOND, "queries": [[0], [0, 1]], "method": "exact2d"},
            {"points": DIAMOND, "queries": [], "method": "exact2d"},
            {"points": [[float("nan"), 0]], "queries": [[0, 0]], "method": "exact2d"},
            {"points": DIAMOND, "queries": [[0, 0]], "method": "approx:1000000000000"},
        ],
        ids=["nan-query", "inf-query", "null-query", "method-number", "approx-zero",
             "method-unknown", "query-dim", "exact1d-dim", "query-string", "query-ragged",
             "no-queries", "nan-point", "approx-huge"],
    )
    def test_bad_depth_batch_exits_one_with_one_line(self, tmp_path, capsys, payload):
        """A depth query batch that is not finite numeric (count, d) points
        and queries of one d, with a known method, ends in exit 1 and a
        one-line message, and writes no file."""
        cfg = self._write(tmp_path, payload)
        out_dir = tmp_path / "out"
        assert cli_main(["depth", "--config", cfg, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("ppdepth: ")
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_depth_batch_mode(self, tmp_path):
        raw = {
            "points": [[1, 0], [-1, 0], [0, 1], [0, -1]],
            "queries": [[0, 0]],
            "method": "exact2d",
        }
        cfg = self._write(tmp_path, raw)
        out_dir = str(tmp_path / "batch")
        assert cli_main(["depth", "--config", cfg, "--out", out_dir]) == 0
        lines = open(os.path.join(out_dir, "depth_queries.csv")).read().splitlines()
        assert lines[0] == "x1,x2,depth,dir1,dir2,exact,tie_count"
        assert float(lines[1].split(",")[2]) == 0.5


def test_cli_import_leaves_scipy_special_unloaded():
    """Importing the CLI loads no ``scipy.special``: the Gaussian, Cox and
    clt code paths import it on first use."""
    src = os.path.dirname(os.path.dirname(ppdepth.__file__))
    code = "import sys, ppdepth.harness.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert proc.stdout.strip() == "False"


def test_benchmark_tracer_installs_and_uninstalls():
    """The benchmark's tracer patches ppdepth names (for example
    ``runners.halfline_sup_weighted`` and ``EmpiricalReference.line_mass``):
    it installs on the current tree and puts every original back."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = (runners, cli, measure.MixedBinomialReference, measure.EmpiricalReference)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert runners.halfline_sup_weighted is not before[0]["halfline_sup_weighted"]
        assert measure.EmpiricalReference.line_mass is not before[3]["line_mass"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
